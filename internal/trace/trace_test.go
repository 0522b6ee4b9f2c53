package trace_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"gsi"
	"gsi/internal/core"
	"gsi/internal/trace"
	"gsi/internal/workloads"
)

// TestSpanCoalescing pins the recording granularity contract: the span
// list reflects classification changes, not how the engine credited the
// cycles — per-cycle crediting and bulk crediting of the same window must
// produce the identical span list.
func TestSpanCoalescing(t *testing.T) {
	c := trace.New()
	c.Begin(2)
	idle := core.CycleClass{Kind: core.Idle}
	comp := core.CycleClass{Kind: core.CompData, CompUnit: core.UnitALU}
	// Three per-cycle credits, then a bulk credit of the same class.
	c.StallSpan(0, idle, 1)
	c.StallSpan(0, idle, 1)
	c.StallSpan(0, idle, 1)
	c.StallSpan(0, idle, 7)
	c.StallSpan(0, comp, 2)
	c.StallSpan(0, idle, 4)
	spans := c.Spans(0)
	want := []trace.Span{
		{Start: 0, Cycles: 10, Class: idle},
		{Start: 10, Cycles: 2, Class: comp},
		{Start: 12, Cycles: 4, Class: idle},
	}
	if len(spans) != len(want) {
		t.Fatalf("got %d spans %+v, want %d", len(spans), spans, len(want))
	}
	for i := range want {
		if spans[i] != want[i] {
			t.Errorf("span %d = %+v, want %+v", i, spans[i], want[i])
		}
	}
	if c.EndCycle() != 16 {
		t.Errorf("EndCycle = %d, want 16", c.EndCycle())
	}
	// SM 1 untouched; its track must be independent.
	if len(c.Spans(1)) != 0 {
		t.Errorf("SM 1 recorded spans it never saw: %+v", c.Spans(1))
	}
}

// TestLoadResolution pins the deferred-attribution contract: a MemData
// span's service location resolves at export time from the recorded load
// completions — unresolved loads read as unknown, the zero LoadID as an
// L1 hit (matching the Inspector's attribution).
func TestLoadResolution(t *testing.T) {
	c := trace.New()
	c.Begin(1)
	c.LoadResolved(0, 7, core.WhereMemory)
	c.LoadResolved(0, 0, core.WhereL2) // ignored: 0 is "no identified load"
	if w := c.WhereOf(0, 7); w != core.WhereMemory {
		t.Errorf("WhereOf(7) = %v, want memory", w)
	}
	if w := c.WhereOf(0, 0); w != core.WhereL1 {
		t.Errorf("WhereOf(0) = %v, want L1", w)
	}
	if w := c.WhereOf(0, 99); w != core.WhereUnknown {
		t.Errorf("WhereOf(99) = %v, want unknown", w)
	}
	mem := trace.Span{Class: core.CycleClass{Kind: core.MemData, PendingLoad: 7}}
	if got := c.SubCause(0, mem); got != core.WhereMemory.String() {
		t.Errorf("SubCause(MemData) = %q, want %q", got, core.WhereMemory.String())
	}
	st := trace.Span{Class: core.CycleClass{Kind: core.MemStructural, StructCause: core.StructMSHRFull}}
	if got := c.SubCause(0, st); got != core.StructMSHRFull.String() {
		t.Errorf("SubCause(MemStructural) = %q, want %q", got, core.StructMSHRFull.String())
	}
	if got := c.SubCause(0, trace.Span{Class: core.CycleClass{Kind: core.Idle}}); got != "" {
		t.Errorf("SubCause(Idle) = %q, want empty", got)
	}
}

// TestBeginResets: a reused collector must not leak the previous run's
// events into the next.
func TestBeginResets(t *testing.T) {
	c := trace.New()
	c.Begin(1)
	c.StallSpan(0, core.CycleClass{Kind: core.Idle}, 5)
	c.Jump(1, 4)
	c.Begin(3)
	if c.NumSMs() != 3 || c.EndCycle() != 0 {
		t.Errorf("Begin left state: sms=%d end=%d", c.NumSMs(), c.EndCycle())
	}
	if len(c.Jumps()) != 0 {
		t.Error("Begin left clock jumps from the previous run")
	}
}

var tracedRun struct {
	once sync.Once
	tr   *gsi.Trace
	err  error
}

// runTraced executes a small UTSD run with a collector attached (once —
// both exporter tests read the same collected events) and returns it
// populated. The tree is sized so that the host pre-expansion leaves the
// GPU a frontier to work through.
func runTraced(t *testing.T) *gsi.Trace {
	t.Helper()
	tracedRun.once.Do(func() {
		tracedRun.tr = gsi.NewTrace()
		opt := gsi.Options{Protocol: gsi.DeNovo, Trace: tracedRun.tr}
		e, _ := gsi.Workloads().Lookup("utsd")
		w, err := e.Build(gsi.WorkloadValues{"nodes": "250", "frontier": "60", "work": "8"})
		if err != nil {
			tracedRun.err = err
			return
		}
		u := w.(workloads.UTSD)
		if len(workloads.GenTree(u.Seed, u.Nodes).SeedFrontier(u.FrontierMin).Frontier) == 0 {
			tracedRun.err = fmt.Errorf("utsd nodes=%d frontier=%d: the host pre-expansion leaves the GPU no work", u.Nodes, u.FrontierMin)
			return
		}
		_, tracedRun.err = gsi.Run(opt, w)
	})
	if tracedRun.err != nil {
		t.Fatal(tracedRun.err)
	}
	return tracedRun.tr
}

// TestChromeTraceSchema validates the exported trace-event JSON against
// the format Perfetto loads: a top-level object with a traceEvents array,
// every event carrying name/ph/ts/pid, complete ("X") slices carrying a
// duration, and one named thread track per SM.
func TestChromeTraceSchema(t *testing.T) {
	tr := runTraced(t)
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		OtherData   map[string]any   `json:"otherData"`
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("exported trace has no events")
	}
	if doc.OtherData["tool"] != "gsi" {
		t.Errorf("otherData.tool = %v, want gsi", doc.OtherData["tool"])
	}
	smTracks := map[string]bool{}
	var slices int
	for i, ev := range doc.TraceEvents {
		for _, key := range []string{"name", "ph", "ts", "pid"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event %d missing %q: %v", i, key, ev)
			}
		}
		ph := ev["ph"].(string)
		switch ph {
		case "M", "X":
		default:
			t.Fatalf("event %d has unexpected phase %q", i, ph)
		}
		if ph == "X" {
			if _, ok := ev["dur"]; !ok {
				t.Fatalf("complete slice %d missing dur: %v", i, ev)
			}
			slices++
		}
		if ph == "M" && ev["name"] == "thread_name" {
			if args, ok := ev["args"].(map[string]any); ok {
				if name, ok := args["name"].(string); ok && strings.HasPrefix(name, "SM") {
					smTracks[name] = true
				}
			}
		}
	}
	if slices == 0 {
		t.Error("exported trace has no stall slices")
	}
	if len(smTracks) != tr.NumSMs() {
		t.Errorf("trace names %d SM tracks, want one per SM (%d)", len(smTracks), tr.NumSMs())
	}
}

// TestHTMLTimelineSelfContained pins the HTML exporter's portability
// contract: one file, no network — the page must embed its data and
// scripts and reference no external URL.
func TestHTMLTimelineSelfContained(t *testing.T) {
	tr := runTraced(t)
	var buf bytes.Buffer
	if err := tr.WriteHTML(&buf); err != nil {
		t.Fatal(err)
	}
	page := buf.String()
	if !strings.HasPrefix(page, "<!DOCTYPE html>") {
		t.Error("page does not start with a doctype")
	}
	for _, ref := range []string{"http://", "https://", "<link", "src="} {
		if strings.Contains(page, ref) {
			t.Errorf("page references external content (%q)", ref)
		}
	}
	if !strings.Contains(page, `id="trace-data"`) {
		t.Error("page is missing the embedded trace data")
	}
	if strings.Contains(page, "%!") {
		t.Error("page contains a mangled format verb")
	}
	// The embedded JSON must itself parse.
	i := strings.Index(page, `id="trace-data" type="application/json">`)
	j := strings.Index(page[i:], "</script>")
	if i < 0 || j < 0 {
		t.Fatal("cannot locate the embedded data block")
	}
	raw := page[i+len(`id="trace-data" type="application/json">`) : i+j]
	raw = strings.ReplaceAll(raw, `<\/`, "</")
	var data map[string]any
	if err := json.Unmarshal([]byte(raw), &data); err != nil {
		t.Fatalf("embedded trace data is not valid JSON: %v", err)
	}
	if _, ok := data["sms"]; !ok {
		t.Error("embedded data has no per-SM rows")
	}
}
