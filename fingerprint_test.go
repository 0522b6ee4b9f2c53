package gsi

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fingerprints runs every registry entry at its Small size under GPU
// coherence, DeNovo, and DeNovo with owned atomics, on the default (skip)
// engine, and returns one line per point: the report columns (SHA-256 of Report.JSON, cycles, instructions
// issued), a "|", then the scheduling columns (the engine's steps, jumps,
// visits, naps and napped SM-cycles).
func fingerprints(t *testing.T) []string {
	t.Helper()
	reg := Workloads()
	var s Sweep
	for _, name := range reg.Names() {
		name := name
		e, _ := reg.Lookup(name)
		cfg, err := e.TuneSystem(true, nil, DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, p := range []struct {
			label string
			proto Protocol
			owned bool
		}{{"gpu", GPUCoherence, false}, {"denovo", DeNovo, false}, {"denovo+owned", DeNovo, true}} {
			s.Jobs = append(s.Jobs, Job{
				Label:   fmt.Sprintf("%-9s %-12s", name, p.label),
				Options: Options{System: cfg, Protocol: p.proto, OwnedAtomics: p.owned},
				Workload: func() Workload {
					w, err := e.BuildSmall(nil)
					if err != nil {
						return brokenWorkload{name: name, err: err}
					}
					return w
				},
			})
		}
	}
	results, err := s.Run(SweepConfig{})
	if err != nil {
		t.Fatal(err)
	}
	lines := make([]string, len(results))
	for i, r := range results {
		doc, err := r.Report.JSON()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(doc)
		st := r.Report.EngineStats
		lines[i] = fmt.Sprintf("%s report=%s cycles=%d instrs=%d | steps=%d jumps=%d visits=%d naps=%d napped=%d",
			r.Job.Label, hex.EncodeToString(sum[:]), r.Report.Cycles, r.Report.InstrsIssued,
			st.Steps, st.Jumps, st.Visits, st.Naps, st.NappedSMCycles)
	}
	return lines
}

// TestReportFingerprints pins the one invariant everything else rests on —
// a configuration determines its Report bytes — as a committed golden, one
// line per registry entry × protocol at Small size. A change to the timing
// model moves the report columns; a change to how the engine schedules the
// same model (what it visits, when it jumps, how long SMs nap) moves only
// the scheduling columns; a refactor moves neither. Regenerate with
//
//	go test -run TestReportFingerprints -update
//
// only in a change that declares the drift.
func TestReportFingerprints(t *testing.T) {
	got := fingerprints(t)
	path := filepath.Join("testdata", "fingerprints.golden")
	if *update {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d fingerprints, %s holds %d (registry changed? regenerate with -update)", len(got), path, len(want))
	}
	for i := range got {
		if got[i] == want[i] {
			continue
		}
		g, w := strings.SplitN(got[i], " | ", 2), strings.SplitN(want[i], " | ", 2)
		cols := "scheduling"
		if len(w) != 2 || g[0] != w[0] {
			cols = "report"
		}
		t.Errorf("%s columns drifted:\n got  %s\n want %s", cols, got[i], want[i])
	}
}
