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

// TestModelRevisionTracksFingerprints: CacheKey hashes modelRevision so a
// result cached under an older model never answers for this one. The
// revision must move whenever a Report byte does, so the report columns of
// testdata/fingerprints.golden (the text before " | " on every line) are
// pinned next to it as modelFingerprint: regenerating the golden with a
// report drift fails here until both are bumped. Scheduling-only drift
// moves no Report byte and passes.
func TestModelRevisionTracksFingerprints(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "fingerprints.golden"))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		report, _, ok := strings.Cut(line, " | ")
		if !ok {
			t.Fatalf("fingerprint line without report columns: %q", line)
		}
		fmt.Fprintln(h, report)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != modelFingerprint {
		t.Errorf("the golden's report columns hash to %s, but modelRevision %q pins %s: "+
			"a change that moves Report bytes bumps modelRevision and sets modelFingerprint to the new hash (json.go)",
			got, modelRevision, modelFingerprint)
	}
}
