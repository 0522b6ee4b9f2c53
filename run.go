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
// supplies the kernel, and verifies the result afterwards.
type Workload interface {
	// Name identifies the workload in reports.
	Name() string
	// Build writes initial memory through the host and returns the
	// kernel plus a post-run functional check.
	Build(h *cpu.Host) (*gpu.Kernel, func(h *cpu.Host) error, error)
}

// NewUTS wraps the unbalanced-tree-search workload (global queue) with
// default sizing for the 15-SM system.
func NewUTS(nodes int) Workload { return workloads.DefaultUTS(nodes).Instance() }

// NewUTSWith uses explicit UTS parameters.
func NewUTSWith(p UTS) Workload { return p.Instance() }

// NewUTSD wraps decentralized unbalanced tree search with default sizing.
func NewUTSD(nodes int) Workload { return workloads.DefaultUTSD(nodes).Instance() }

// NewUTSDWith uses explicit UTSD parameters.
func NewUTSDWith(p UTSD) Workload { return p.Instance() }

// NewImplicit wraps the implicit microbenchmark in the given local-memory
// organization with default sizing (one SM).
func NewImplicit(kind LocalMem) Workload {
	return workloads.DefaultImplicit().Instance(kind)
}

// DefaultImplicit returns the microbenchmark's default parameters (32
// warps filling the 16 KB scratchpad) for callers that want to tweak one
// axis — e.g. the warp count, which sets the memory-level parallelism and
// therefore how latency-dominated the run is.
func DefaultImplicit() Implicit { return workloads.DefaultImplicit() }

// NewImplicitWith uses explicit parameters.
func NewImplicitWith(p Implicit, kind LocalMem) Workload { return p.Instance(kind) }

// NewBFS wraps level-synchronized breadth-first search with default
// sizing for the 15-SM system.
func NewBFS(vertices int) Workload { return workloads.DefaultBFS(vertices).Instance() }

// NewBFSWith uses explicit BFS parameters.
func NewBFSWith(p BFS) Workload { return p.Instance() }

// NewSpMV wraps the CSR sparse matrix-vector product with default sizing.
func NewSpMV(rows int) Workload { return workloads.DefaultSpMV(rows).Instance() }

// NewSpMVWith uses explicit SpMV parameters.
func NewSpMVWith(p SpMV) Workload { return p.Instance() }

// NewPipeline wraps the producer-consumer pipeline with default sizing
// (one producer warp, one consumer warp, one SM — see PipelineSystem).
func NewPipeline(rounds int) Workload { return workloads.DefaultPipeline(rounds).Instance() }

// NewPipelineWith uses explicit pipeline parameters.
func NewPipelineWith(p Pipeline) Workload { return p.Instance() }

// NewGUPS wraps the random-access update benchmark with default sizing.
func NewGUPS(updates int) Workload { return workloads.DefaultGUPS(updates).Instance() }

// NewGUPSWith uses explicit GUPS parameters.
func NewGUPSWith(p GUPS) Workload { return p.Instance() }

// NewStencil wraps the 2D halo-exchange stencil with default sizing
// (one DMA-staged band window per block, ping-pong planes, parity-indexed
// halo slots).
func NewStencil() Workload { return workloads.DefaultStencil().Instance() }

// NewStencilWith uses explicit stencil parameters.
func NewStencilWith(p Stencil) Workload { return p.Instance() }

// NewSteal wraps the work-stealing deque benchmark with default sizing
// (one deque per block, steal-half on empty).
func NewSteal(tasks int) Workload { return workloads.DefaultSteal(tasks).Instance() }

// NewStealWith uses explicit steal parameters.
func NewStealWith(p Steal) Workload { return p.Instance() }

// Run executes one workload under the given options and returns its GSI
// report. The workload's functional post-check runs before the report is
// returned: a timing bug that corrupts results fails loudly rather than
// producing a plausible breakdown.
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
	if !opt.SkipVerify {
		if err := verify(h); err != nil {
			return nil, fmt.Errorf("gsi: %s under %s failed verification: %w", w.Name(), opt.Protocol, err)
		}
	}
	r := newReport(w.Name(), opt, g, cycles)
	if tl != nil {
		r.Timeline = tl.Render()
	}
	return r, nil
}
