package gsi

import (
	"encoding/json"
	"strings"
	"testing"

	"gsi/internal/core"
)

// TestReportJSONRoundTrip: marshal -> unmarshal must reproduce the stall
// profile and every derived breakdown exactly.
func TestReportJSONRoundTrip(t *testing.T) {
	rep, err := Run(Options{System: implicitSystem(32), Protocol: DeNovo},
		mustBuild(t, "implicit", WorkloadValues{"local": "dma"}))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	// The profile must be labeled, not positional.
	for _, label := range []string{`"memory structural"`, `"pending DMA"`, `"cycles"`} {
		if !strings.Contains(string(doc), label) {
			t.Errorf("JSON document missing label %s", label)
		}
	}
	back, err := DecodeReport(doc)
	if err != nil {
		t.Fatal(err)
	}
	if back.Counts != rep.Counts {
		t.Error("Counts changed across the round trip")
	}
	if back.Cycles != rep.Cycles || back.Workload != rep.Workload ||
		back.Protocol != rep.Protocol || back.LocalMem != rep.LocalMem {
		t.Error("report header changed across the round trip")
	}
	if back.Mem != rep.Mem || back.Net != rep.Net || back.InstrsIssued != rep.InstrsIssued {
		t.Error("system statistics changed across the round trip")
	}
	if len(back.PerSM) != len(rep.PerSM) {
		t.Fatalf("PerSM length %d, want %d", len(back.PerSM), len(rep.PerSM))
	}
	for i := range rep.PerSM {
		if back.PerSM[i] != rep.PerSM[i] {
			t.Errorf("PerSM[%d] changed across the round trip", i)
		}
	}
	for _, pair := range [][2]interface{ Total() float64 }{
		{back.ExecBreakdown(), rep.ExecBreakdown()},
		{back.MemDataBreakdown(), rep.MemDataBreakdown()},
		{back.MemStructBreakdown(), rep.MemStructBreakdown()},
	} {
		if pair[0].Total() != pair[1].Total() {
			t.Error("derived breakdown total changed across the round trip")
		}
	}
}

// TestEngineStatsJSONOptIn pins the EngineStats encoding decision: the
// default document excludes the scheduling counters (the cross-engine
// byte-identity contract), IncludeEngineStats mirrors them in under the
// explicit "engineStats" field, and DecodeReport folds them back so the
// opt-in round-trips exactly.
func TestEngineStatsJSONOptIn(t *testing.T) {
	rep, err := Run(Options{System: implicitSystem(32), Protocol: DeNovo}, mustBuild(t, "implicit", nil))
	if err != nil {
		t.Fatal(err)
	}
	if rep.EngineStats.Steps == 0 {
		t.Fatal("run recorded no engine steps; the opt-in test would be vacuous")
	}
	plain, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(plain), "engineStats") {
		t.Error("default encoding leaks the scheduling counters")
	}
	opted, err := rep.IncludeEngineStats().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(opted), `"engineStats"`) {
		t.Error("opted-in encoding missing the engineStats field")
	}
	back, err := DecodeReport(opted)
	if err != nil {
		t.Fatal(err)
	}
	if back.EngineStats != rep.EngineStats {
		t.Errorf("EngineStats changed across the opt-in round trip:\n%+v\nvs\n%+v",
			back.EngineStats, rep.EngineStats)
	}
	// A plain document must decode to zero counters, not stale ones.
	bare, err := DecodeReport(plain)
	if err != nil {
		t.Fatal(err)
	}
	if bare.EngineStats != (EngineStats{}) {
		t.Errorf("plain document decoded non-zero EngineStats: %+v", bare.EngineStats)
	}
}

// TestCacheKeyIgnoresTrace pins the cache-identity decision for tracing:
// attaching a collector observes a run without changing it, so a traced
// and an untraced request must share one content address — otherwise a
// "trace": true submission would re-simulate every cached grid point.
func TestCacheKeyIgnoresTrace(t *testing.T) {
	opt := Options{Protocol: DeNovo}
	plainKey := CacheKey(opt, "uts", nil)
	opt.Trace = NewTrace()
	if tracedKey := CacheKey(opt, "uts", nil); tracedKey != plainKey {
		t.Errorf("Options.Trace changed the cache key: %s vs %s", tracedKey, plainKey)
	}
}

// TestFigureSetJSONRoundTrip: every SmallScale figure — 6.1, 6.2, 6.3,
// each 6.4 size and the workload gallery — decodes to a figure that
// renders byte-identically to the original, with the same bar names and
// baseline total, so JSON documents are a faithful interchange format for
// whole figures. The gallery names its bars by workload, which only the
// document's barBy field tells the decoder.
func TestFigureSetJSONRoundTrip(t *testing.T) {
	sc := SmallScale()
	specs := []FigureSpec{Figure61Spec(sc), Figure62Spec(sc), Figure63Spec()}
	specs = append(specs, Figure64Specs(sc)...)
	specs = append(specs, WorkloadGallerySpec(sc))
	sets, err := RunFigureSpecs(specs, SweepConfig{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, fs := range sets {
		doc, err := fs.JSON()
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeFigureSet(doc)
		if err != nil {
			t.Fatalf("%s: %v", fs.ID, err)
		}
		if a, b := fs.Render(64), back.Render(64); a != b {
			t.Errorf("%s: decoded figure renders differently:\n--- original ---\n%s\n--- decoded ---\n%s", fs.ID, a, b)
		}
		if got, want := back.BaselineTotal(), fs.BaselineTotal(); got != want || want == 0 {
			t.Errorf("%s: baseline total %v after the round trip, want %v (nonzero)", fs.ID, got, want)
		}
		if len(back.Reports) != len(fs.Reports) {
			t.Fatalf("%s: %d reports, want %d", fs.ID, len(back.Reports), len(fs.Reports))
		}
		for i := range fs.Reports {
			if got, want := back.Exec.Bars[i].Name, fs.Exec.Bars[i].Name; got != want {
				t.Errorf("%s: bar %d named %q after the round trip, want %q", fs.ID, i, got, want)
			}
			if back.Reports[i].Counts != fs.Reports[i].Counts {
				t.Errorf("%s: report %d Counts changed across the round trip", fs.ID, i)
			}
		}
	}
}

// TestFigureSetDecodeRebuildsGroups: the decoder derives the sub-figure
// groups from the reports, so a document whose serialized groups were
// tampered with (or stripped) still decodes to a consistent figure.
func TestFigureSetDecodeRebuildsGroups(t *testing.T) {
	fs, err := Figure63Spec().Run(SweepConfig{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := fs.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(doc, &raw); err != nil {
		t.Fatal(err)
	}
	delete(raw, "exec")
	raw["data"] = json.RawMessage(`{"title":"tampered","labels":[],"bars":null}`)
	tampered, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeFigureSet(tampered)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := fs.Render(64), back.Render(64); a != b {
		t.Fatalf("tampered groups leaked into the decoded figure:\n%s\nvs\n%s", a, b)
	}
}

// TestFigureSetDecodeRejectsUnusableDocuments: null or missing reports
// must surface as decode errors, not later panics in figure methods.
func TestFigureSetDecodeRejectsUnusableDocuments(t *testing.T) {
	for _, doc := range []string{
		`{"id":"x","reports":[null]}`,
		`{"id":"x","reports":[]}`,
		`{"id":"x"}`,
	} {
		if _, err := DecodeFigureSet([]byte(doc)); err == nil {
			t.Errorf("document %s decoded without error", doc)
		}
	}
}

// TestCountsJSONRejectsUnknownLabels: the decoder must not silently drop
// misspelled or stale bucket names.
func TestCountsJSONRejectsUnknownLabels(t *testing.T) {
	var c core.Counts
	if err := json.Unmarshal([]byte(`{"cycles": {"no such kind": 3}}`), &c); err == nil {
		t.Fatal("unknown stall kind accepted")
	}
	if err := json.Unmarshal([]byte(`{"memStruct": {"pending release": 7}}`), &c); err != nil {
		t.Fatal(err)
	}
	if c.MemStruct[core.StructPendingRelease] != 7 {
		t.Error("labeled bucket not restored")
	}
}

// TestCountsJSONOmitsZeroBuckets keeps documents compact: an empty profile
// marshals to an empty object.
func TestCountsJSONOmitsZeroBuckets(t *testing.T) {
	var c core.Counts
	doc, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	if string(doc) != "{}" {
		t.Errorf("zero Counts marshaled to %s, want {}", doc)
	}
}
