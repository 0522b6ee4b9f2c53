package gsi

import (
	"context"
	"fmt"
	"io"
	"runtime/debug"
	"strings"
	"time"

	"gsi/internal/cpu"
	"gsi/internal/gpu"
	"gsi/internal/sweep"
)

// Job is one simulation in a Sweep: a display label, the options to run
// under, and a factory producing a fresh Workload. The factory (rather
// than a Workload value) keeps jobs self-contained so concurrent workers
// never share workload state.
type Job struct {
	Label    string
	Options  Options
	Workload func() Workload
	// Axes records the grid point that produced this job (the zero value
	// for hand-built jobs). Every grid job is fully determined by its
	// Options, Axes.Workload and Grid.PointParams(Axes): the factory
	// builds exactly that registry entry with exactly those parameters,
	// so content-addressing layers (CacheKey) need nothing else.
	Axes Axes
}

// Sweep is an ordered batch of independent simulations — the unit the
// batch runner executes. Build one by hand with Add, or expand a cartesian
// Grid. Results always come back in job order, byte-identical to a serial
// run, regardless of how many workers execute the batch.
type Sweep struct {
	Name string
	Jobs []Job
}

// Add appends one job.
func (s *Sweep) Add(label string, opt Options, w func() Workload) {
	s.Jobs = append(s.Jobs, Job{Label: label, Options: opt, Workload: w})
}

// SweepResult is one job's outcome, in job order.
type SweepResult struct {
	Job    Job
	Report *Report
	Err    error
}

// SweepProgress is one completion event, delivered to SweepConfig.Progress
// as jobs finish (completion order, serialized).
type SweepProgress struct {
	Done, Total int
	Index       int
	Label       string
	Err         error
}

// SweepConfig configures a batch run.
type SweepConfig struct {
	// Parallel is the worker count: 1 runs serially, anything below 1
	// selects GOMAXPROCS. Simulations are single-threaded and share
	// nothing, so any value yields identical results.
	Parallel int
	// Progress, when non-nil, receives one event per finished job. Events
	// arrive in completion order — use them for meters, not results.
	Progress func(SweepProgress)
	// JobTimeout, when positive, bounds each job's wall-clock time: a job
	// exceeding it fails with an error wrapping ErrDeadline (carrying the
	// engine's diagnosis dump) while its siblings keep running. Zero means
	// no per-job deadline; the RunContext context still applies.
	JobTimeout time.Duration
}

// ProgressPrinter returns a Progress callback that writes one
// "[done/total] label (ok|FAILED: cause)" line per finished job to w — the
// meter both CLIs print to stderr. Failure lines carry the job's error
// (truncated to one line) so the meter says why, not just that.
func ProgressPrinter(w io.Writer) func(SweepProgress) {
	return func(p SweepProgress) {
		status := "ok"
		if p.Err != nil {
			status = "FAILED: " + truncateError(p.Err, 120)
		}
		fmt.Fprintf(w, "[%d/%d] %s (%s)\n", p.Done, p.Total, p.Label, status)
	}
}

// truncateError renders an error as a single line of at most max runes,
// marking elision with "..." — progress meters and event streams want the
// cause without a multi-kilobyte diagnosis dump.
func truncateError(err error, max int) string {
	msg := strings.Join(strings.Fields(err.Error()), " ")
	runes := []rune(msg)
	if len(runes) <= max {
		return msg
	}
	return string(runes[:max]) + "..."
}

// Run executes every job and returns all results in job order:
// RunContext under context.Background().
func (s Sweep) Run(cfg SweepConfig) ([]SweepResult, error) {
	return s.RunContext(context.Background(), cfg)
}

// RunContext executes every job under ctx and returns all results in job
// order. The returned error is the lowest-index job error (nil if all
// succeeded); results for the other jobs are still returned alongside it,
// so a batch with one bad configuration does not forfeit the rest.
//
// Fault isolation per job: a panic is recovered (with its stack) into that
// job's error, cfg.JobTimeout bounds each job's wall clock, and a fired
// ctx cancels in-flight simulations cooperatively — jobs that had not
// started yet fail immediately with the context's error.
func (s Sweep) RunContext(ctx context.Context, cfg SweepConfig) ([]SweepResult, error) {
	total := len(s.Jobs)
	var onDone func(sweep.Result[*Report])
	if cfg.Progress != nil {
		done := 0
		onDone = func(r sweep.Result[*Report]) {
			done++
			cfg.Progress(SweepProgress{Done: done, Total: total,
				Index: r.Index, Label: s.Jobs[r.Index].Label, Err: r.Err})
		}
	}
	raw := sweep.MapContext(ctx, cfg.Parallel, total, func(ctx context.Context, i int) (rep *Report, err error) {
		j := s.Jobs[i]
		// Catch panics here, where the job label is known: the pool's own
		// recovery backstop can only name a batch index.
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("%s: job %q panicked: %v\n%s", s.Name, j.Label, r, debug.Stack())
			}
		}()
		if err := ctx.Err(); err != nil {
			// The batch was canceled before this job started; don't pay
			// for a workload build just to discover it.
			return nil, fmt.Errorf("%s: job %q: %w", s.Name, j.Label, err)
		}
		if cfg.JobTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, cfg.JobTimeout)
			defer cancel()
		}
		rep, err = RunContext(ctx, j.Options, j.Workload())
		if err != nil {
			return nil, fmt.Errorf("%s: job %q: %w", s.Name, j.Label, err)
		}
		return rep, nil
	}, onDone)

	out := make([]SweepResult, total)
	for i, r := range raw {
		out[i] = SweepResult{Job: s.Jobs[i], Report: r.Value, Err: r.Err}
	}
	return out, sweep.FirstError(raw)
}

// Axes is one point of a Grid's cartesian product. Fields for axes the
// Grid leaves empty hold that axis's default (DeNovo, MSHR 0 = "keep the
// system's size", Scratchpad, false).
type Axes struct {
	// Workload is the registry name of the point's workload.
	Workload     string
	Protocol     Protocol
	MSHR         int
	LocalMem     LocalMem
	SFIFO        bool
	OwnedAtomics bool
	StrongCycle  bool
}

// Grid declares a cartesian product of configuration axes — the
// workload × protocol × MSHR × local-memory × ablation grids the paper's
// case studies sweep. It is pure data: every point is a registry workload
// built with the grid's Params, on the system the entry's TuneSystem
// shapes. Expand it with Sweep; jobs are emitted in row-major order with
// the rightmost declared axis varying fastest (Workloads outermost, then
// Protocols, StrongCycle innermost), so the order is deterministic and
// matches the figures' bar order.
type Grid struct {
	// Name labels the resulting sweep.
	Name string
	// Workloads is the workload axis: registry names (see Workloads),
	// varied outermost. It is required.
	Workloads []string
	// The remaining axes; an empty axis contributes a single default
	// point and stays out of generated labels.
	Protocols    []Protocol
	MSHRSizes    []int
	LocalMems    []LocalMem
	SFIFO        []bool
	OwnedAtomics []bool
	StrongCycle  []bool
	// System is the base configuration for every point (zero value means
	// DefaultConfig, shaped per point by the registry entry's
	// TuneSystem, e.g. the implicit microbenchmark's single-SM machine). A
	// non-zero Axes.MSHR overrides both MSHREntries and StoreBufEntries,
	// the convention of the paper's figure 6.4 sweep.
	System SystemConfig
	// Params holds registry parameter overrides applied to every point.
	// An override naming no parameter of a point's schema surfaces as
	// that job's error.
	Params WorkloadValues
}

// Sweep expands the grid into a concrete job list. It panics when the
// Workloads axis is empty.
func (g Grid) Sweep() Sweep {
	if len(g.Workloads) == 0 {
		panic("gsi: Grid.Workloads is required")
	}
	s := Sweep{Name: g.Name}
	protocols := g.Protocols
	if len(protocols) == 0 {
		protocols = []Protocol{DeNovo}
	}
	mshrs := g.MSHRSizes
	if len(mshrs) == 0 {
		mshrs = []int{0}
	}
	locals := g.LocalMems
	if len(locals) == 0 {
		locals = []LocalMem{Scratchpad}
	}
	bools := func(vs []bool) []bool {
		if len(vs) == 0 {
			return []bool{false}
		}
		return vs
	}
	for _, wn := range g.Workloads {
		for _, p := range protocols {
			for _, m := range mshrs {
				for _, lm := range locals {
					for _, sf := range bools(g.SFIFO) {
						for _, oa := range bools(g.OwnedAtomics) {
							for _, sc := range bools(g.StrongCycle) {
								ax := Axes{Workload: wn, Protocol: p, MSHR: m, LocalMem: lm,
									SFIFO: sf, OwnedAtomics: oa, StrongCycle: sc}
								s.Jobs = append(s.Jobs, g.point(ax))
							}
						}
					}
				}
			}
		}
	}
	return s
}

// point materializes one grid point as a Job. Failures that can only be
// detected here — an unknown registry name, a bad parameter override, a
// failed system tune — are deferred into the job's factory (the
// brokenWorkload pattern) so one bad point surfaces as that job's error
// instead of sinking or silently mis-running the batch.
func (g Grid) point(ax Axes) Job {
	job := Job{Label: g.label(ax), Axes: ax}
	opt, err := g.options(ax)
	job.Options = opt
	if err != nil {
		job.Workload = brokenThunk(ax.Workload, err)
		return job
	}
	job.Workload = g.workloadThunk(ax)
	return job
}

// PointParams returns the registry parameter overrides a grid point is
// constructed (and tuned) with: the grid's Params plus, when the
// LocalMems axis is declared, the point's local-memory organization as
// the "local" parameter. Together with the job's Options and
// Axes.Workload these are everything the point's simulation depends on;
// layers that content-address grid points (the serve cache) hash exactly
// these values. Returns nil when the point carries no overrides.
func (g Grid) PointParams(ax Axes) WorkloadValues {
	if len(g.Params) == 0 && len(g.LocalMems) == 0 {
		return nil
	}
	v := make(WorkloadValues, len(g.Params)+1)
	for k, val := range g.Params {
		v[k] = val
	}
	if len(g.LocalMems) > 0 {
		// The local-memory axis is a workload parameter, not a system
		// one: thread it into the build so distinct axis values produce
		// distinct simulations. A workload without a "local" parameter
		// rejects the combination as that job's error.
		v["local"] = ax.LocalMem.Param()
	}
	return v
}

// workloadThunk binds one grid point to its factory: the point's registry
// entry at default scale with the point's parameter overrides applied. An
// unknown name or bad override surfaces as the job's error rather than a
// panic, so one bad axis value cannot sink a whole batch.
func (g Grid) workloadThunk(ax Axes) func() Workload {
	name := ax.Workload
	params := g.PointParams(ax)
	return func() Workload {
		e, ok := Workloads().Lookup(name)
		if !ok {
			return brokenWorkload{name: name,
				err: fmt.Errorf("gsi: unknown workload %q (see Workloads().Names())", name)}
		}
		w, err := e.Build(params)
		if err != nil {
			return brokenWorkload{name: name, err: err}
		}
		return w
	}
}

// brokenThunk defers a point-construction error into the job's factory.
func brokenThunk(name string, err error) func() Workload {
	return func() Workload { return brokenWorkload{name: name, err: err} }
}

// brokenWorkload defers a construction failure to Run, where it becomes
// the job's error.
type brokenWorkload struct {
	name string
	err  error
}

func (b brokenWorkload) Name() string { return b.name }
func (b brokenWorkload) Build(*cpu.Host) (*gpu.Kernel, func(*cpu.Host) error, error) {
	return nil, nil, b.err
}

func (g Grid) options(ax Axes) (Options, error) {
	opt := Options{System: g.System, Protocol: ax.Protocol,
		SFIFO: ax.SFIFO, OwnedAtomics: ax.OwnedAtomics, StrongCycle: ax.StrongCycle}
	opt = opt.withDefaults()
	if g.System.NumSMs == 0 {
		// The grid did not pin a system: let the entry shape the default
		// machine (e.g. implicit's and pipeline's single-SM
		// configurations).
		if e, ok := Workloads().Lookup(ax.Workload); ok {
			cfg, err := e.TuneSystem(false, g.PointParams(ax), opt.System)
			if err != nil {
				// Do not fall through to the untuned system: a point
				// whose tune failed would simulate a different machine
				// than asked for. The caller defers this into the job.
				return opt, fmt.Errorf("gsi: tuning system for workload %q: %w", ax.Workload, err)
			}
			opt.System = cfg
		}
	}
	if ax.MSHR > 0 {
		opt.System.MSHREntries = ax.MSHR
		opt.System.StoreBufEntries = ax.MSHR
	}
	return opt, nil
}

// label names a point by its workload and the other axes the grid
// declares.
func (g Grid) label(ax Axes) string {
	parts := []string{ax.Workload}
	if len(g.Protocols) > 0 {
		parts = append(parts, ax.Protocol.String())
	}
	if len(g.MSHRSizes) > 0 {
		parts = append(parts, fmt.Sprintf("mshr=%d", ax.MSHR))
	}
	if len(g.LocalMems) > 0 {
		parts = append(parts, ax.LocalMem.String())
	}
	flag := func(name string, axis []bool, v bool) {
		if len(axis) > 0 {
			parts = append(parts, fmt.Sprintf("%s=%t", name, v))
		}
	}
	flag("sfifo", g.SFIFO, ax.SFIFO)
	flag("owned-atomics", g.OwnedAtomics, ax.OwnedAtomics)
	flag("strong-cycle", g.StrongCycle, ax.StrongCycle)
	return strings.Join(parts, " ")
}
