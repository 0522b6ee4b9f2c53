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
// engine, and returns one line per point: the report columns (SHA-256 of
// Report.JSON, cycles, instructions issued), a "|", then the scheduling
// columns (the engine's steps, jumps, visits, naps and napped SM-cycles).
// The runs come from the memo, so the DeNovo points are also the skip leg
// of TestNextEventWorkloadPool.
func fingerprints(t *testing.T) []string {
	t.Helper()
	reg := Workloads()
	var jobs []Job
	for _, name := range reg.Names() {
		e, _ := reg.Lookup(name)
		for _, p := range []struct {
			label string
			proto Protocol
			owned bool
		}{{"gpu", GPUCoherence, false}, {"denovo", DeNovo, false}, {"denovo+owned", DeNovo, true}} {
			opt, w := registryPoint(t, e, p.proto, p.owned)
			jobs = append(jobs, Job{Label: fmt.Sprintf("%-9s %-12s", name, p.label), Options: opt,
				Workload: func() Workload { return w }})
		}
	}
	lines := make([]string, len(jobs))
	for i, rep := range sharedRuns(t, jobs) {
		sum := sha256.Sum256(reportJSON(t, rep))
		st := rep.EngineStats
		lines[i] = fmt.Sprintf("%s report=%s cycles=%d instrs=%d | steps=%d jumps=%d visits=%d naps=%d napped=%d",
			jobs[i].Label, hex.EncodeToString(sum[:]), rep.Cycles, rep.InstrsIssued,
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
