package gsi

import (
	"errors"
	"strings"
	"testing"
)

// determinismGrid is an 8-point grid over fast implicit-microbenchmark
// configurations: 2 local memories x 2 MSHR sizes x 2 classifier
// ablations.
func determinismGrid() Grid {
	return Grid{
		Name:        "determinism",
		Workloads:   []string{"implicit"},
		MSHRSizes:   []int{16, 32},
		LocalMems:   []LocalMem{Scratchpad, Stash},
		StrongCycle: []bool{false, true},
	}
}

// renderAll is the byte-comparison surface: every report's full text
// summary in job order.
func renderAll(results []SweepResult) string {
	var sb strings.Builder
	for _, r := range results {
		sb.WriteString("## ")
		sb.WriteString(r.Job.Label)
		sb.WriteString("\n")
		sb.WriteString(r.Report.Summary())
	}
	return sb.String()
}

// TestSweepDeterminism is the engine's core guarantee: a parallel run is
// byte-identical to the serial run — same Counts, same rendered reports —
// because simulations share nothing and results are returned in job order.
// Under -race this is also the concurrency-safety test for the pool.
func TestSweepDeterminism(t *testing.T) {
	s := determinismGrid().Sweep()
	if len(s.Jobs) != 8 {
		t.Fatalf("grid expanded to %d jobs, want 8", len(s.Jobs))
	}
	serial, err := s.Run(SweepConfig{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := s.Run(SweepConfig{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i].Report.Counts != parallel[i].Report.Counts {
			t.Errorf("job %d (%s): Counts differ between serial and parallel runs",
				i, serial[i].Job.Label)
		}
		if serial[i].Report.Cycles != parallel[i].Report.Cycles {
			t.Errorf("job %d (%s): cycles %d (serial) vs %d (parallel)",
				i, serial[i].Job.Label, serial[i].Report.Cycles, parallel[i].Report.Cycles)
		}
	}
	if a, b := renderAll(serial), renderAll(parallel); a != b {
		t.Fatalf("rendered reports not byte-identical:\n--- serial ---\n%s\n--- parallel ---\n%s", a, b)
	}
}

// TestFigureSpecsMatchSerialFigures: running the figure specs through
// the batched pool reproduces exactly what one serial worker produces.
func TestFigureSpecsMatchSerialFigures(t *testing.T) {
	sc := testScale()
	serial, err := Figure63Spec().Run(SweepConfig{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := Figure63Spec().Run(SweepConfig{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := serial.Render(64), pooled.Render(64); a != b {
		t.Fatalf("figure 6.3 differs between serial and pooled runs:\n%s\nvs\n%s", a, b)
	}

	specs := Figure64Specs(sc)
	sets, err := RunFigureSpecs(specs, SweepConfig{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RunFigureSpecs(specs, SweepConfig{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != len(ref) {
		t.Fatalf("%d sets, want %d", len(sets), len(ref))
	}
	refBases, bases := RenderBases(specs, ref), RenderBases(specs, sets)
	for i := range sets {
		if a, b := ref[i].RenderTo(64, refBases[i]), sets[i].RenderTo(64, bases[i]); a != b {
			t.Errorf("figure %s differs between serial and pooled runs", ref[i].ID)
		}
	}
}

func TestGridExpansionOrderAndLabels(t *testing.T) {
	g := Grid{
		Name:      "order",
		Workloads: []string{"implicit"},
		Protocols: []Protocol{GPUCoherence, DeNovo},
		MSHRSizes: []int{32, 64},
	}
	s := g.Sweep()
	want := []string{
		"implicit GPU coherence mshr=32",
		"implicit GPU coherence mshr=64",
		"implicit DeNovo mshr=32",
		"implicit DeNovo mshr=64",
	}
	if len(s.Jobs) != len(want) {
		t.Fatalf("%d jobs, want %d", len(s.Jobs), len(want))
	}
	for i, w := range want {
		if s.Jobs[i].Label != w {
			t.Errorf("job %d label %q, want %q", i, s.Jobs[i].Label, w)
		}
	}
	// The MSHR axis must override both the MSHR and the store buffer,
	// figure 6.4's convention.
	if got := s.Jobs[1].Options.System.MSHREntries; got != 64 {
		t.Errorf("job 1 MSHR = %d, want 64", got)
	}
	if got := s.Jobs[1].Options.System.StoreBufEntries; got != 64 {
		t.Errorf("job 1 store buffer = %d, want 64", got)
	}
	if s.Jobs[2].Options.Protocol != DeNovo {
		t.Error("job 2 protocol not DeNovo")
	}
}

func TestGridDefaultsAndEmptyAxes(t *testing.T) {
	g := Grid{Workloads: []string{"uts"}}
	s := g.Sweep()
	if len(s.Jobs) != 1 {
		t.Fatalf("one-workload grid expanded to %d jobs, want 1", len(s.Jobs))
	}
	j := s.Jobs[0]
	if j.Label != "uts" {
		t.Errorf("label %q, want \"uts\"", j.Label)
	}
	if j.Options.Protocol != DeNovo {
		t.Error("default protocol not DeNovo")
	}
	if j.Options.System != DefaultConfig() {
		t.Error("zero System not defaulted")
	}
	// The workload axis is required: there is no other way to name what
	// a point runs.
	defer func() {
		if recover() == nil {
			t.Error("a grid without a Workloads axis expanded")
		}
	}()
	Grid{Protocols: []Protocol{DeNovo}}.Sweep()
}

// TestGridLocalMemAxisDistinctReports is the regression test for the
// silently ignored LocalMems axis: a registry-built grid combining the
// Workloads axis with LocalMems must thread each point's organization
// into the build, so distinct axis values produce distinct simulations —
// not identical runs under different labels.
func TestGridLocalMemAxisDistinctReports(t *testing.T) {
	g := Grid{
		Name:      "localmem-axis",
		Workloads: []string{"implicit"},
		LocalMems: []LocalMem{Scratchpad, Stash},
		Params:    WorkloadValues{"warps": "4", "databytes": "2048", "rounds": "1"},
	}
	results, err := g.Sweep().Run(SweepConfig{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("%d results, want 2", len(results))
	}
	if a, b := results[0].Job.Label, results[1].Job.Label; a == b {
		t.Errorf("labels identical: %q", a)
	}
	if got := results[1].Report.LocalMem; got != "stash" {
		t.Errorf("second point ran local memory %q, want stash", got)
	}
	if results[0].Report.Counts == results[1].Report.Counts &&
		results[0].Report.Cycles == results[1].Report.Cycles {
		t.Error("distinct LocalMems axis values produced identical simulations")
	}
}

// TestGridLocalMemAxisRejectsWorkloadWithoutLocalParam: combining the
// LocalMems axis with a workload that has no local-memory organization
// must fail that job with a clear error instead of silently running
// duplicate simulations per axis value.
func TestGridLocalMemAxisRejectsWorkloadWithoutLocalParam(t *testing.T) {
	g := Grid{
		Name:      "localmem-mismatch",
		Workloads: []string{"uts"},
		LocalMems: []LocalMem{Scratchpad, Stash},
	}
	_, err := g.Sweep().Run(SweepConfig{Parallel: 1})
	if err == nil {
		t.Fatal("uts x LocalMems grid ran without error")
	}
	if !strings.Contains(err.Error(), `no parameter "local"`) {
		t.Errorf("error %q does not explain the local-parameter mismatch", err)
	}
}

// TestGridTuneErrorSurfaces is the regression test for the swallowed
// TuneSystem error: a point whose system tune fails must surface that as
// the job's error rather than silently simulating the untuned machine.
func TestGridTuneErrorSurfaces(t *testing.T) {
	g := Grid{
		Name:      "tune-error",
		Workloads: []string{"implicit"}, // has a Tune hook, so resolve runs
		Params:    WorkloadValues{"bogus": "1"},
	}
	results, err := g.Sweep().Run(SweepConfig{Parallel: 1})
	if err == nil {
		t.Fatal("grid with a bad override ran without error")
	}
	for _, want := range []string{"tuning system", "bogus"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
	if results[0].Report != nil {
		t.Error("failed tune still produced a report")
	}
}

// TestProgressPrinterFailureCause: FAILED lines must say why — the job's
// error, truncated to one line.
func TestProgressPrinterFailureCause(t *testing.T) {
	var sb strings.Builder
	print := ProgressPrinter(&sb)
	print(SweepProgress{Done: 1, Total: 2, Label: "ok-job"})
	print(SweepProgress{Done: 2, Total: 2, Label: "bad-job",
		Err: errors.New("gsi: building x: bad\nparameter")})
	out := sb.String()
	if !strings.Contains(out, "[1/2] ok-job (ok)") {
		t.Errorf("success line malformed:\n%s", out)
	}
	if !strings.Contains(out, "(FAILED: gsi: building x: bad parameter)") {
		t.Errorf("failure line does not carry the single-line cause:\n%s", out)
	}

	sb.Reset()
	print(SweepProgress{Done: 1, Total: 1, Label: "verbose",
		Err: errors.New(strings.Repeat("x", 500))})
	line := sb.String()
	if len(line) > 200 {
		t.Errorf("failure line not truncated: %d bytes", len(line))
	}
	if !strings.Contains(line, "...") {
		t.Errorf("truncated line missing elision marker:\n%s", line)
	}
}

// TestSweepErrorPolicy: a failing job yields the lowest-index error while
// the healthy jobs still return reports, serial or parallel alike.
func TestSweepErrorPolicy(t *testing.T) {
	var s Sweep
	s.Name = "errors"
	bad := DefaultConfig()
	bad.MSHREntries = 0 // fails validation
	scratch := mustBuild(t, "implicit", nil)
	stash := mustBuild(t, "implicit", WorkloadValues{"local": "stash"})
	s.Add("ok-a", Options{System: implicitSystem(32), Protocol: DeNovo},
		func() Workload { return scratch })
	s.Add("bad", Options{System: bad}, func() Workload { return scratch })
	s.Add("ok-b", Options{System: implicitSystem(32), Protocol: DeNovo},
		func() Workload { return stash })

	for _, par := range []int{1, 4} {
		results, err := s.Run(SweepConfig{Parallel: par})
		if err == nil {
			t.Fatalf("parallel=%d: no error from failing job", par)
		}
		if !strings.Contains(err.Error(), `"bad"`) {
			t.Errorf("parallel=%d: error %q does not name the failing job", par, err)
		}
		if results[0].Report == nil || results[2].Report == nil {
			t.Errorf("parallel=%d: healthy jobs lost their reports", par)
		}
		if results[1].Err == nil || results[1].Report != nil {
			t.Errorf("parallel=%d: failing job result inconsistent: %+v", par, results[1])
		}
	}
}

// TestRunFigureSpecsProgressNamesFigure: batched figures repeat bar labels
// ("stash" appears in 6.3 and every 6.4 size), so progress events and job
// errors must carry the figure name.
func TestRunFigureSpecsProgressNamesFigure(t *testing.T) {
	var labels []string
	_, err := RunFigureSpecs([]FigureSpec{Figure63Spec()},
		SweepConfig{Parallel: 1, Progress: func(p SweepProgress) { labels = append(labels, p.Label) }})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range labels {
		if !strings.HasPrefix(l, "figure 6.3: ") {
			t.Errorf("progress label %q does not name the figure", l)
		}
	}
}

// TestSweepPanicNamesJob: a panicking job surfaces as an error carrying
// the sweep name and job label, not just a batch index.
func TestSweepPanicNamesJob(t *testing.T) {
	var s Sweep
	s.Name = "panics"
	w := mustBuild(t, "implicit", nil)
	s.Add("ok", Options{System: implicitSystem(32), Protocol: DeNovo},
		func() Workload { return w })
	s.Add("exploder", Options{System: implicitSystem(32), Protocol: DeNovo},
		func() Workload { panic("kaboom") })
	results, err := s.Run(SweepConfig{Parallel: 2})
	if err == nil {
		t.Fatal("panicking job produced no error")
	}
	for _, want := range []string{"panics", `"exploder"`, "kaboom"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("panic error %q missing %q", err, want)
		}
	}
	if results[0].Report == nil {
		t.Error("healthy job lost its report")
	}
}

func TestSweepProgressEvents(t *testing.T) {
	s := determinismGrid().Sweep()
	var events []SweepProgress
	_, err := s.Run(SweepConfig{Parallel: 4, Progress: func(p SweepProgress) {
		events = append(events, p)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(s.Jobs) {
		t.Fatalf("%d progress events, want %d", len(events), len(s.Jobs))
	}
	seen := make(map[int]bool)
	for i, e := range events {
		if e.Done != i+1 || e.Total != len(s.Jobs) {
			t.Errorf("event %d: done %d/%d, want %d/%d", i, e.Done, e.Total, i+1, len(s.Jobs))
		}
		if seen[e.Index] {
			t.Errorf("index %d reported twice", e.Index)
		}
		seen[e.Index] = true
		if e.Label != s.Jobs[e.Index].Label {
			t.Errorf("event %d: label %q, want %q", i, e.Label, s.Jobs[e.Index].Label)
		}
	}
}
