package gsi

import (
	"context"
	"fmt"

	"gsi/internal/coherence"
	"gsi/internal/core"
	"gsi/internal/cpu"
	"gsi/internal/gpu"
	"gsi/internal/workloads"
)

// Workload is anything Run can execute: it initializes host memory,
// supplies the kernel, and verifies the result afterwards. Registry
// entries build one (Workloads, WorkloadEntry.Build); custom kernels
// implement its two methods, Name and Build.
type Workload = workloads.Instance

// Run executes one workload under the given options and returns its GSI
// report. The workload's functional post-check runs before the report is
// returned, and so does a check that every SM's stall books balance
// (ErrAccounting): a timing bug that corrupts results or loses a cycle fails
// loudly rather than producing a plausible breakdown.
func Run(opt Options, w Workload) (*Report, error) {
	return RunContext(context.Background(), opt, w)
}

// RunContext is Run under a context: cancellation and wall-clock deadlines
// are checked cooperatively between simulated cycles, so a fired context
// stops the simulation within one engine check interval without ever
// perturbing its state — a run that completes is byte-identical to an
// uncancellable one. A canceled run returns an error wrapping ErrCanceled;
// an expired deadline wraps ErrDeadline and carries the engine's
// per-component diagnosis dump, like the in-sim ErrMaxCycles watchdog.
func RunContext(ctx context.Context, opt Options, w Workload) (*Report, error) {
	opt = opt.withDefaults()
	if err := opt.System.Validate(); err != nil {
		return nil, err
	}
	g, err := gpu.New(opt.System, coherence.PoliciesFor(opt.System.NumSMs, opt.Protocol.policy()))
	if err != nil {
		return nil, err
	}
	g.Insp.StrongCycle = opt.StrongCycle
	g.Insp.EagerAttribution = opt.EagerAttribution
	var tl *core.Timeline
	if opt.Timeline {
		tl = core.NewTimeline(opt.System.NumSMs, 96)
		g.Insp.Sinks = append(g.Insp.Sinks, tl)
	}
	if opt.Trace != nil {
		opt.Trace.Begin(opt.System.NumSMs)
		g.Insp.Sinks = append(g.Insp.Sinks, opt.Trace)
		g.Observer = opt.Trace
	}
	for _, cm := range g.Sys.Cores {
		cm.SFIFO = opt.SFIFO
		cm.OwnedAtomics = opt.OwnedAtomics
	}

	h := cpu.NewHost(g.Sys.Backing)
	kernel, verify, err := w.Build(h)
	if err != nil {
		return nil, fmt.Errorf("gsi: building %s: %w", w.Name(), err)
	}
	if err := ctx.Err(); err != nil {
		// Building a large workload's memory image can take a while; honor
		// a context that fired during it before committing to the run.
		return nil, fmt.Errorf("gsi: %s canceled before launch: %w", w.Name(), err)
	}
	if err := g.Launch(kernel); err != nil {
		return nil, err
	}
	cycles, err := g.RunContext(ctx)
	if err != nil {
		return nil, fmt.Errorf("gsi: running %s under %s: %w", w.Name(), opt.Protocol, err)
	}
	if err := verify(h); err != nil {
		return nil, fmt.Errorf("gsi: %s under %s failed verification: %w", w.Name(), opt.Protocol, err)
	}
	r := newReport(w.Name(), opt, g, cycles)
	if err := r.checkBooks(); err != nil {
		return nil, fmt.Errorf("gsi: %s under %s: %w", w.Name(), opt.Protocol, err)
	}
	if tl != nil {
		r.Timeline = tl.Render()
	}
	return r, nil
}
