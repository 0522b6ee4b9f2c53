// Package scale is the iterate-until-failure harness: it grows one
// configuration axis at a time — mesh dimensions, warps per SM, workload
// size, sweep-grid width — until a wall stops the climb (per-rung
// wall-clock budget, RSS ceiling, an error, or an engine identity break),
// recording per-rung throughput (ns per simulated cycle), scheduling
// counters, and memory footprint into a BENCH_scale.json document. Every
// rung times the skip engine and re-runs the workload under the dense and
// quiescent engines, asserting byte-identical reports, which turns the
// repo's engine diff lattice into a scaled correctness gate; the smoke
// comparator (Compare) then gates CI against a committed baseline.
package scale

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"gsi"
)

// Axis names one growth dimension.
type Axis string

// The growth axes. Each rung of an axis holds everything else at the
// workload's SmallScale configuration and grows exactly one dimension:
//
//   - mesh: square mesh side (4, 8, 16, ...), L2 banks fixed
//   - warps: the workload's warps parameter (doubling), SM residency
//     widened to match
//   - size: the workload's primary size parameter (doubling) — tree
//     nodes, graph vertices, matrix rows, table updates, time steps
//   - grid: sweep-grid width (doubling point count over an MSHR axis)
const (
	AxisMesh  Axis = "mesh"
	AxisWarps Axis = "warps"
	AxisSize  Axis = "size"
	AxisGrid  Axis = "grid"
)

// AllAxes returns every growth axis in canonical order.
func AllAxes() []Axis { return []Axis{AxisMesh, AxisWarps, AxisSize, AxisGrid} }

// ParseAxis parses an axis name.
func ParseAxis(s string) (Axis, error) {
	for _, a := range AllAxes() {
		if string(a) == s {
			return a, nil
		}
	}
	return "", fmt.Errorf("scale: unknown axis %q (want mesh, warps, size, or grid)", s)
}

// Config drives one harness run.
type Config struct {
	// Workloads are registry names; empty means every registered
	// workload.
	Workloads []string
	// Axes are the growth axes; empty means all of them.
	Axes []Axis
	// RungBudget stops a series after the first rung whose total wall
	// clock (all engine modes) exceeds it; zero means no per-rung wall.
	RungBudget time.Duration
	// TotalBudget bounds the whole harness run; zero means none.
	TotalBudget time.Duration
	// RSSLimitKB stops a series when the process max-RSS high-water
	// mark passes it; zero means none.
	RSSLimitKB uint64
	// MaxRungs caps every series (the backstop wall); zero means 8.
	MaxRungs int
	// KneeFactor is the superlinearity threshold for FindKnee; values
	// <= 1 mean the default 1.5.
	KneeFactor float64
	// Repeats is how many times the timed (skip-engine) run executes
	// per rung; the recorded wall is the minimum, which strips scheduler
	// noise and cold-start effects from the knee and smoke comparisons.
	// Zero means 3. Identity runs are never repeated — reports are
	// deterministic.
	Repeats int
	// Log, when non-nil, receives one progress line per rung.
	Log func(format string, args ...any)
}

func (c Config) maxRungs() int {
	if c.MaxRungs <= 0 {
		return 8
	}
	return c.MaxRungs
}

func (c Config) repeats() int {
	if c.Repeats <= 0 {
		return 3
	}
	return c.Repeats
}

func (c Config) log(format string, args ...any) {
	if c.Log != nil {
		c.Log(format, args...)
	}
}

// sizeParam names each workload's primary size parameter for the size
// axis; workloads absent here (none today) skip that axis.
var sizeParam = map[string]string{
	"uts":      "nodes",
	"utsd":     "nodes",
	"implicit": "databytes",
	"bfs":      "vertices",
	"spmv":     "rows",
	"pipeline": "rounds",
	"gups":     "updates",
	"stencil":  "steps",
	"steal":    "tasks",
}

// point is one simulation of a rung: a system shape plus workload
// parameter overrides. The engine mode is applied by the runner.
type point struct {
	sys       gsi.SystemConfig
	overrides gsi.WorkloadValues
}

// hasParam reports whether the entry's schema includes the parameter.
func hasParam(e *gsi.WorkloadEntry, name string) bool {
	_, ok := e.Defaults()[name]
	return ok
}

// paramBase returns the SmallScale base value of an integer parameter
// (the Small override when present, the schema default otherwise).
func paramBase(e *gsi.WorkloadEntry, name string) (int, error) {
	s, ok := e.Small[name]
	if !ok {
		s, ok = e.Defaults()[name]
	}
	if !ok {
		return 0, fmt.Errorf("scale: %s has no parameter %q", e.Name, name)
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("scale: %s parameter %s=%q is not an integer", e.Name, name, s)
	}
	return n, nil
}

// axisApplies reports whether a (workload, axis) pair is growable.
func axisApplies(e *gsi.WorkloadEntry, axis Axis) bool {
	switch axis {
	case AxisWarps:
		return hasParam(e, "warps")
	case AxisSize:
		_, ok := sizeParam[e.Name]
		return ok
	}
	return true
}

// ceilPow2 returns the smallest power of two >= n (minimum 1).
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// planRung resolves one rung of a series: the recorded axis value and
// the simulation points to run. Everything starts from the workload's
// SmallScale values and tuned system so that rung 0 is the shape the
// test suites already pin, and exactly one dimension grows per rung.
func planRung(e *gsi.WorkloadEntry, axis Axis, rung int) (int, []point, error) {
	overrides := gsi.WorkloadValues{}
	value := 0
	switch axis {
	case AxisMesh:
		value = 4 << rung
	case AxisWarps:
		base, err := paramBase(e, "warps")
		if err != nil {
			return 0, nil, err
		}
		value = base << rung
		overrides["warps"] = strconv.Itoa(value)
	case AxisSize:
		name := sizeParam[e.Name]
		base, err := paramBase(e, name)
		if err != nil {
			return 0, nil, err
		}
		value = base << rung
		overrides[name] = strconv.Itoa(value)
		if e.Name == "steal" {
			// The ring capacity must stay a power of two >= the task
			// count; grow it in lockstep.
			overrides["cap"] = strconv.Itoa(ceilPow2(value))
		}
	case AxisGrid:
		value = 1 << rung
	default:
		return 0, nil, fmt.Errorf("scale: unknown axis %q", axis)
	}

	sys, err := e.TuneSystem(true, overrides, gsi.DefaultConfig())
	if err != nil {
		return 0, nil, err
	}
	if axis == AxisMesh {
		sys.MeshWidth, sys.MeshHeight = value, value
	}

	if axis == AxisGrid {
		// Width grid points over the MSHR axis (the figure-6.4 sweep
		// dimension), each its own simulation.
		pts := make([]point, value)
		for j := range pts {
			p := point{sys: sys, overrides: overrides}
			p.sys.MSHREntries = 8 * (j + 1)
			p.sys.StoreBufEntries = p.sys.MSHREntries
			pts[j] = p
		}
		return value, pts, nil
	}
	return value, []point{{sys: sys, overrides: overrides}}, nil
}

// runContained runs one simulation with panics converted to errors. A
// grown workload can reach a model limit nothing checks before the run; to
// the harness that is just another wall, so it must survive as a recorded
// error, not kill the process.
func runContained(ctx context.Context, opt gsi.Options, w gsi.Workload) (rep *gsi.Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			rep, err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	return gsi.RunContext(ctx, opt, w)
}

// runPoints executes every point of a rung under one engine mode,
// returning each point's canonical report JSON plus the summed cycle
// count, wall time, and scheduling counters. The context carries the
// rung's wall budget: geometric growth means the next rung can cost an
// order of magnitude more than the last, so the budget must be able to
// abort a rung mid-flight, not just veto the one after it.
func runPoints(ctx context.Context, e *gsi.WorkloadEntry, pts []point, mode gsi.EngineMode) ([][]byte, uint64, time.Duration, gsi.EngineStats, error) {
	var (
		docs   [][]byte
		cycles uint64
		wall   time.Duration
		st     gsi.EngineStats
	)
	for j, p := range pts {
		// A fresh Instance per run: workload values are resolved again so
		// no state leaks between engine modes.
		w, err := e.BuildSmall(p.overrides)
		if err != nil {
			return nil, 0, 0, st, fmt.Errorf("point %d: %w", j, err)
		}
		opt := gsi.Options{System: p.sys}
		opt.System.Engine = mode
		t0 := time.Now()
		rep, err := runContained(ctx, opt, w)
		wall += time.Since(t0)
		if err != nil {
			return nil, 0, 0, st, fmt.Errorf("point %d (%s engine): %w", j, mode, err)
		}
		b, err := rep.JSON()
		if err != nil {
			return nil, 0, 0, st, fmt.Errorf("point %d: encoding report: %w", j, err)
		}
		docs = append(docs, b)
		cycles += rep.Cycles
		st.Steps += rep.EngineStats.Steps
		st.Jumps += rep.EngineStats.Jumps
		st.SkippedCycles += rep.EngineStats.SkippedCycles
	}
	return docs, cycles, wall, st, nil
}

// runRung executes one rung: the timed skip-engine run first — repeated,
// with the minimum wall recorded — then the dense oracle and the quiescent
// engine once each for the byte-identity assertion.
func runRung(ctx context.Context, e *gsi.WorkloadEntry, rung, value int, pts []point, repeats int) (Rung, error) {
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	skipDocs, cycles, wall, st, err := runPoints(ctx, e, pts, gsi.EngineSkip)
	if err != nil {
		return Rung{}, err
	}
	for r := 1; r < repeats; r++ {
		_, _, again, _, err := runPoints(ctx, e, pts, gsi.EngineSkip)
		if err != nil {
			return Rung{}, err
		}
		if again < wall {
			wall = again
		}
	}
	identity := "ok"
	for _, mode := range []gsi.EngineMode{gsi.EngineDense, gsi.EngineQuiescent} {
		docs, _, _, _, err := runPoints(ctx, e, pts, mode)
		if err != nil {
			return Rung{}, err
		}
		for j := range docs {
			if !bytes.Equal(docs[j], skipDocs[j]) {
				identity = fmt.Sprintf("%s report differs from skip at point %d", mode, j)
			}
		}
		if identity != "ok" {
			break
		}
	}

	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	r := Rung{
		Rung:          rung,
		Value:         value,
		Cycles:        cycles,
		WallNS:        wall.Nanoseconds(),
		Steps:         st.Steps,
		Jumps:         st.Jumps,
		SkippedCycles: st.SkippedCycles,
		RSSKB:         rssKB(),
		AllocBytes:    after.TotalAlloc - before.TotalAlloc,
		Identity:      identity,
	}
	if cycles > 0 {
		r.NsPerCycle = float64(r.WallNS) / float64(cycles)
	}
	if len(pts) > 0 && len(pts[0].overrides) > 0 {
		r.Params = map[string]string{}
		for k, v := range pts[0].overrides {
			r.Params[k] = v
		}
	}
	return r, nil
}

// Run grows every requested (workload, axis) pair until its wall and
// returns the assembled document (envelope fields left for the caller).
func Run(cfg Config) (*Doc, error) {
	reg := gsi.Workloads()
	names := cfg.Workloads
	if len(names) == 0 {
		names = reg.Names()
	}
	axes := cfg.Axes
	if len(axes) == 0 {
		axes = AllAxes()
	}
	start := time.Now()
	doc := &Doc{Name: "scale ceilings: one-axis growth to the wall, dense/quiescent/skip engine identity per rung"}
	for _, name := range names {
		e, ok := reg.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("scale: unknown workload %q", name)
		}
		for _, axis := range axes {
			if !axisApplies(e, axis) {
				cfg.log("skip %s/%s: axis not applicable", e.Name, axis)
				continue
			}
			res := growSeries(e, axis, cfg, start)
			doc.Results = append(doc.Results, res)
			if cfg.TotalBudget > 0 && time.Since(start) > cfg.TotalBudget {
				cfg.log("total budget exhausted after %s/%s", e.Name, axis)
				return doc, nil
			}
		}
	}
	return doc, nil
}

// growSeries climbs one (workload, axis) series until a wall.
func growSeries(e *gsi.WorkloadEntry, axis Axis, cfg Config, start time.Time) Result {
	res := Result{Workload: e.Name, Axis: string(axis)}
	for i := 0; i < cfg.maxRungs(); i++ {
		value, pts, err := planRung(e, axis, i)
		if err != nil {
			res.Wall = "error"
			res.WallDetail = fmt.Sprintf("rung %d: %v", i, err)
			break
		}
		rungStart := time.Now()
		ctx, cancel := context.WithCancel(context.Background())
		if cfg.RungBudget > 0 {
			ctx, cancel = context.WithTimeout(context.Background(), cfg.RungBudget)
		}
		r, err := runRung(ctx, e, i, value, pts, cfg.repeats())
		cancel()
		if err != nil {
			if errors.Is(err, gsi.ErrDeadline) || errors.Is(err, context.DeadlineExceeded) {
				res.Wall = "budget"
				res.WallDetail = fmt.Sprintf("rung %d (value %d) aborted at the %s rung budget",
					i, value, cfg.RungBudget)
				cfg.log("%s/%s rung %d (value %d): over the %s rung budget, aborted",
					e.Name, axis, i, value, cfg.RungBudget)
				break
			}
			res.Wall = "error"
			res.WallDetail = fmt.Sprintf("rung %d (value %d): %v", i, value, err)
			cfg.log("%s/%s rung %d (value %d): wall: %v", e.Name, axis, i, value, err)
			break
		}
		res.Rungs = append(res.Rungs, r)
		rungWall := time.Since(rungStart)
		cfg.log("%s/%s rung %d: value %d, %d cycles, %.0f ns/cycle, %s total",
			e.Name, axis, i, value, r.Cycles, r.NsPerCycle, rungWall.Round(time.Millisecond))
		if r.Identity != "ok" {
			res.Wall = "identity"
			res.WallDetail = fmt.Sprintf("rung %d (value %d): %s", i, value, r.Identity)
			break
		}
		if cfg.RSSLimitKB > 0 && r.RSSKB > cfg.RSSLimitKB {
			res.Wall = "rss"
			res.WallDetail = fmt.Sprintf("rung %d (value %d): max RSS %d KB over the %d KB ceiling",
				i, value, r.RSSKB, cfg.RSSLimitKB)
			break
		}
		if cfg.RungBudget > 0 && rungWall > cfg.RungBudget {
			res.Wall = "budget"
			res.WallDetail = fmt.Sprintf("rung %d (value %d) took %s, over the %s rung budget",
				i, value, rungWall.Round(time.Millisecond), cfg.RungBudget)
			break
		}
		if cfg.TotalBudget > 0 && time.Since(start) > cfg.TotalBudget {
			res.Wall = "total-budget"
			break
		}
	}
	if res.Wall == "" {
		res.Wall = "max-rungs"
	}
	res.FirstKnee = FindKnee(res.Rungs, cfg.KneeFactor)
	return res
}
