package scale

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"gsi"
	"gsi/internal/cpu"
	"gsi/internal/gpu"
)

func TestParseAxis(t *testing.T) {
	for _, a := range AllAxes() {
		got, err := ParseAxis(string(a))
		if err != nil || got != a {
			t.Fatalf("ParseAxis(%q) = %v, %v", a, got, err)
		}
	}
	if _, err := ParseAxis("bogus"); err == nil {
		t.Fatal("bogus axis accepted")
	}
}

// TestPlanRungGrowsOneDimension pins the axis semantics: each rung grows
// exactly its own dimension from the SmallScale base and leaves the rest
// of the configuration alone.
func TestPlanRungGrowsOneDimension(t *testing.T) {
	reg := gsi.Workloads()
	stencil, _ := reg.Lookup("stencil")
	steal, _ := reg.Lookup("steal")
	uts, _ := reg.Lookup("uts")

	v0, pts, err := planRung(stencil, AxisMesh, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v0 != 4 || pts[0].sys.MeshWidth != 4 || pts[0].sys.MeshHeight != 4 {
		t.Fatalf("mesh rung 0 = %d (%dx%d), want side 4", v0, pts[0].sys.MeshWidth, pts[0].sys.MeshHeight)
	}
	v3, pts, _ := planRung(stencil, AxisMesh, 3)
	if v3 != 32 || pts[0].sys.MeshWidth != 32 {
		t.Fatalf("mesh rung 3 side = %d, want 32 (geometric growth)", v3)
	}
	if err := pts[0].sys.Validate(); err != nil {
		t.Fatalf("grown mesh config invalid: %v", err)
	}

	// Warps double from the SmallScale base and widen SM residency.
	v, pts, err := planRung(uts, AxisWarps, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v != 32 || pts[0].overrides["warps"] != "32" {
		t.Fatalf("uts warps rung 2 = %d, want 32 (base 8 doubled twice)", v)
	}
	if pts[0].sys.WarpsPerSM < 32 {
		t.Fatalf("WarpsPerSM %d not widened to the warp count", pts[0].sys.WarpsPerSM)
	}

	// Size doubles the primary parameter; steal grows its ring capacity
	// in lockstep so the power-of-two >= tasks invariant holds.
	v, pts, err = planRung(steal, AxisSize, 3)
	if err != nil {
		t.Fatal(err)
	}
	if v != 96*8 || pts[0].overrides["tasks"] != "768" || pts[0].overrides["cap"] != "1024" {
		t.Fatalf("steal size rung 3 = %d, overrides %v", v, pts[0].overrides)
	}

	// Grid width doubles the point count over the MSHR axis.
	v, pts, err = planRung(stencil, AxisGrid, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v != 4 || len(pts) != 4 {
		t.Fatalf("grid rung 2: width %d, %d points, want 4", v, len(pts))
	}
	seen := map[int]bool{}
	for _, p := range pts {
		if p.sys.MSHREntries != p.sys.StoreBufEntries {
			t.Fatal("MSHR and store buffer must grow together")
		}
		seen[p.sys.MSHREntries] = true
	}
	if len(seen) != 4 {
		t.Fatalf("grid points share MSHR sizes: %v", seen)
	}
}

func TestAxisApplies(t *testing.T) {
	reg := gsi.Workloads()
	pipeline, _ := reg.Lookup("pipeline")
	if axisApplies(pipeline, AxisWarps) {
		t.Fatal("pipeline has no warps parameter; the warps axis must not apply")
	}
	for _, name := range reg.Names() {
		e, _ := reg.Lookup(name)
		if !axisApplies(e, AxisSize) {
			t.Fatalf("%s has no size-axis mapping", name)
		}
		if !axisApplies(e, AxisMesh) || !axisApplies(e, AxisGrid) {
			t.Fatalf("%s must support the system axes", name)
		}
	}
}

func TestFindKnee(t *testing.T) {
	mk := func(ns ...float64) []Rung {
		rungs := make([]Rung, len(ns))
		for i, v := range ns {
			rungs[i] = Rung{Rung: i, Value: 4 + i, NsPerCycle: v}
		}
		return rungs
	}
	if k := FindKnee(mk(100, 105, 98, 110), 1.5); k != nil {
		t.Fatalf("flat series has a knee: %+v", k)
	}
	k := FindKnee(mk(100, 110, 120, 180, 300), 1.5)
	if k == nil || k.Rung != 3 {
		t.Fatalf("knee = %+v, want rung 3 (180 > 1.5*100)", k)
	}
	if k.Ratio < 1.79 || k.Ratio > 1.81 {
		t.Fatalf("knee ratio = %.2f, want 1.80", k.Ratio)
	}
	// The minimum tracks improvements: a fast middle rung re-anchors.
	k = FindKnee(mk(100, 60, 95), 1.5)
	if k == nil || k.Rung != 2 {
		t.Fatalf("knee after re-anchor = %+v, want rung 2 (95 > 1.5*60)", k)
	}
	if FindKnee(nil, 1.5) != nil {
		t.Fatal("empty series has a knee")
	}
}

// smokeDoc builds a two-series baseline with deterministic counters and a
// linear timing shape.
func smokeDoc() *Doc {
	mk := func(w, a string, ns ...float64) Result {
		res := Result{Workload: w, Axis: a, Wall: "max-rungs"}
		for i, v := range ns {
			res.Rungs = append(res.Rungs, Rung{
				Rung: i, Value: 4 + i, Cycles: uint64(1000 + i), Steps: uint64(500 + i),
				Jumps: uint64(10 + i), WallNS: int64(v * float64(1000+i) * 1000), NsPerCycle: v,
				Identity: "ok",
			})
		}
		return res
	}
	return &Doc{Results: []Result{
		mk("stencil", "mesh", 100, 110, 125, 150),
		mk("steal", "size", 200, 210, 230, 260),
	}}
}

func TestCompareSmokePasses(t *testing.T) {
	base := smokeDoc()
	// A uniformly 3x slower host: every wall number scales, ratios do not.
	cur := smokeDoc()
	for i := range cur.Results {
		for j := range cur.Results[i].Rungs {
			cur.Results[i].Rungs[j].NsPerCycle *= 3
			cur.Results[i].Rungs[j].WallNS *= 3
		}
	}
	if f := Compare(base, cur, 4); len(f) != 0 {
		t.Fatalf("uniform host-speed change failed the gate: %v", f)
	}
	if got, want := Timing(base, cur), Timing(base, base); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("uniform host-speed change moved the rung-0-normalized ratios:\n%q\nvs\n%q", got, want)
	}
}

// TestCompareSmokeTimingIsAdvisory: one rung twice as slow is reported by
// Timing, rung-0-normalized against the baseline's ratio, and is not a
// finding — the gate judges exact columns only.
func TestCompareSmokeTimingIsAdvisory(t *testing.T) {
	base, cur := smokeDoc(), smokeDoc()
	cur.Results[0].Rungs[2].NsPerCycle *= 2
	if f := Compare(base, cur, 4); len(f) != 0 {
		t.Fatalf("a slow rung failed the gate: %v", f)
	}
	lines := Timing(base, cur)
	if len(lines) != 6 || lines[1] != "stencil/mesh rung 2: ns/cycle 2.50x rung 0, baseline 1.25x" {
		t.Fatalf("timing lines = %q, want six with the slow rung at 2.50x against 1.25x", lines)
	}
}

func TestCompareSmokeCatchesInvariantBreaks(t *testing.T) {
	check := func(name string, mutate func(*Doc), want string) {
		t.Run(name, func(t *testing.T) {
			cur := smokeDoc()
			mutate(cur)
			f := Compare(smokeDoc(), cur, 4)
			if len(f) == 0 {
				t.Fatal("break not detected")
			}
			if !strings.Contains(f[0].Msg, want) {
				t.Fatalf("findings = %v, want mention of %q", f, want)
			}
		})
	}
	check("identity break", func(d *Doc) {
		d.Results[0].Rungs[1].Identity = "dense report differs from skip at point 0"
	}, "identity break")
	check("cycle drift", func(d *Doc) {
		d.Results[1].Rungs[0].Cycles++
	}, "cycle count drift")
	check("scheduling drift", func(d *Doc) {
		d.Results[0].Rungs[3].Jumps = 0
	}, "scheduling drift")
	check("missing series", func(d *Doc) {
		d.Results = d.Results[:1]
	}, "missing")
	check("short replay", func(d *Doc) {
		d.Results[0].Rungs = d.Results[0].Rungs[:2]
		d.Results[0].Wall = "budget"
	}, "completed 2 rungs")
	check("value drift", func(d *Doc) {
		d.Results[0].Rungs[1].Value = 99
	}, "value drift")
}

func TestDocRoundTrip(t *testing.T) {
	d := smokeDoc()
	d.Name, d.Date, d.Host, d.Command = "n", "d", "h", "c"
	d.Results[0].FirstKnee = &Knee{Rung: 3, Value: 7, Ratio: 1.6}
	b, err := d.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeDoc(b)
	if err != nil {
		t.Fatal(err)
	}
	if back.Results[0].FirstKnee == nil || back.Results[0].FirstKnee.Value != 7 {
		t.Fatalf("knee lost in round trip: %+v", back.Results[0])
	}
	if r := back.Lookup("steal", "size"); r == nil || len(r.Rungs) != 4 {
		t.Fatalf("lookup after round trip: %+v", r)
	}
	if back.Lookup("steal", "mesh") != nil {
		t.Fatal("lookup invented a series")
	}
}

// TestHarnessClimbsAndAssertsIdentity runs the real harness on the
// cheapest configuration — implicit on the mesh axis, two rungs — and
// checks the recorded rungs carry real measurements and a clean identity
// verdict. This is the end-to-end path the CLI and the CI smoke job use.
func TestHarnessClimbsAndAssertsIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	var lines []string
	doc, err := Run(Config{
		Workloads: []string{"implicit"},
		Axes:      []Axis{AxisMesh},
		MaxRungs:  2,
		Log:       func(f string, a ...any) { lines = append(lines, f) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Results) != 1 {
		t.Fatalf("results = %d, want 1", len(doc.Results))
	}
	res := doc.Results[0]
	if res.Wall != "max-rungs" || len(res.Rungs) != 2 {
		t.Fatalf("series = wall %q with %d rungs (%s), want max-rungs with 2", res.Wall, len(res.Rungs), res.WallDetail)
	}
	for i, r := range res.Rungs {
		if r.Identity != "ok" {
			t.Fatalf("rung %d identity: %s", i, r.Identity)
		}
		if r.Cycles == 0 || r.WallNS <= 0 || r.NsPerCycle <= 0 || r.Steps == 0 {
			t.Fatalf("rung %d carries empty measurements: %+v", i, r)
		}
		if r.Value != 4<<i {
			t.Fatalf("rung %d mesh side = %d, want %d", i, r.Value, 4<<i)
		}
	}
	if len(lines) == 0 {
		t.Fatal("no progress lines logged")
	}
	doc.Note = "provenance of the numbers"
	if md := doc.Markdown(); !strings.Contains(md, "implicit / mesh axis") || !strings.Contains(md, "Note: "+doc.Note) {
		t.Fatalf("markdown report missing series header or note:\n%s", md)
	}
}

// panickingWorkload stands in for a model that panics mid-run: its Build
// does.
type panickingWorkload struct{}

func (panickingWorkload) Name() string { return "panics" }

func (panickingWorkload) Build(*cpu.Host) (*gpu.Kernel, func(*cpu.Host) error, error) {
	panic("model capacity exceeded")
}

// TestHarnessContainsModelPanics: a panic inside a simulation is another
// wall to the harness, recorded as an error, not the end of the process. And
// a grown configuration the model rejects — implicit's databytes doubling
// past the 16 KB scratchpad — stops its series at an error wall carrying the
// launch error, with the rungs before it kept.
func TestHarnessContainsModelPanics(t *testing.T) {
	rep, err := runContained(context.Background(), gsi.Options{}, panickingWorkload{})
	if rep != nil || err == nil || !strings.Contains(err.Error(), "panic: model capacity exceeded") {
		t.Fatalf("runContained = %v, %v; want the panic as an error", rep, err)
	}
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	doc, err := Run(Config{
		Workloads: []string{"implicit"},
		Axes:      []Axis{AxisSize},
		MaxRungs:  2,
		Repeats:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := doc.Results[0]
	if res.Wall != "error" || len(res.Rungs) != 1 {
		t.Fatalf("series = wall %q with %d rungs, want error after rung 0", res.Wall, len(res.Rungs))
	}
	if !strings.Contains(res.WallDetail, "outside the 16384-byte scratchpad") {
		t.Fatalf("wall detail %q does not record the launch error", res.WallDetail)
	}
}

// TestHarnessBudgetWall proves the wall-clock budget stops a series
// mid-flight: with a budget no simulation can meet, the first rung is
// aborted by the cooperative deadline rather than run to completion, so
// zero rungs are recorded and the wall is "budget". Geometric growth makes
// this matter — the rung after the last affordable one can cost 10-80x it.
func TestHarnessBudgetWall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	doc, err := Run(Config{
		Workloads:  []string{"implicit"},
		Axes:       []Axis{AxisMesh},
		MaxRungs:   6,
		RungBudget: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := doc.Results[0]
	if res.Wall != "budget" || len(res.Rungs) != 0 {
		t.Fatalf("series = wall %q with %d rungs, want budget with 0", res.Wall, len(res.Rungs))
	}
	if !strings.Contains(res.WallDetail, "aborted") {
		t.Fatalf("wall detail %q does not mention the mid-run abort", res.WallDetail)
	}
}
