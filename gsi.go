// Package gsi is the public API of the GPU Stall Inspector reproduction:
// a cycle-level simulator of a tightly coupled CPU-GPU system (15 SMs + 1
// CPU on a 4x4 mesh with a banked NUCA L2) instrumented with GSI, the
// stall-attribution methodology of Alsop, Sinclair, and Adve (ISPASS 2016).
//
// A simulation is described by Options (system parameters + coherence
// protocol + ablation switches) and a Workload drawn from the registry
// (Workloads): the paper's benchmarks (UTS, UTSD, and the implicit
// microbenchmark in three local-memory organizations) plus the
// sparse/bursty additions (level-synchronized BFS, SpMV, a
// producer-consumer pipeline, and GUPS random-access updates). Run
// executes the workload to completion, functionally verifies it, and
// returns a Report containing the per-cycle stall breakdown, the memory
// data stall sub-classification (by service location), and the memory
// structural sub-classification (by blocking resource).
//
//	e, _ := gsi.Workloads().Lookup("utsd")
//	w, err := e.Build(gsi.WorkloadValues{"nodes": "2000"})
//	...
//	rep, err := gsi.Run(gsi.Options{Protocol: gsi.DeNovo}, w)
//	fmt.Print(rep.Summary())
//
// Batches of configurations run through the sweep layer: a Grid declares a
// cartesian product of axes (registry workload, protocol, MSHR size,
// local-memory kind, ablations) plus registry parameter overrides,
// expands to a Sweep, and Sweep.Run fans the jobs out across a worker
// pool. Results return in job order and are byte-identical to a
// serial run for any worker count. The paper's figures are declared as
// FigureSpec sweeps; Report and FigureSet serialize to labeled JSON.
package gsi

import (
	"fmt"
	"strings"

	"gsi/internal/coherence"
	"gsi/internal/core"
	"gsi/internal/gpu"
	"gsi/internal/mem"
	"gsi/internal/scratchpad"
	"gsi/internal/sim"
	"gsi/internal/trace"
	"gsi/internal/workloads"
)

// The stall taxonomy, re-exported so report consumers can index Counts
// without reaching into internal packages.
type (
	// StallKind is a top-level cycle classification (Algorithm 2).
	StallKind = core.StallKind
	// DataWhere sub-classifies memory data stalls by service location.
	DataWhere = core.DataWhere
	// StructCause sub-classifies memory structural stalls by resource.
	StructCause = core.StructCause
	// Counts is a stall profile: cycles by kind plus both sub-breakdowns.
	Counts = core.Counts
)

// Top-level stall kinds (section 4.1 of the paper).
const (
	NoStall        = core.NoStall
	Idle           = core.Idle
	Control        = core.Control
	Sync           = core.Sync
	MemData        = core.MemData
	MemStructural  = core.MemStructural
	CompData       = core.CompData
	CompStructural = core.CompStructural
)

// Memory data stall service locations (section 4.3).
const (
	WhereL1           = core.WhereL1
	WhereL1Coalescing = core.WhereL1Coalescing
	WhereL2           = core.WhereL2
	WhereRemoteL1     = core.WhereRemoteL1
	WhereMemory       = core.WhereMemory
)

// Memory structural stall causes (section 4.4).
const (
	StructMSHRFull        = core.StructMSHRFull
	StructStoreBufferFull = core.StructStoreBufferFull
	StructBankConflict    = core.StructBankConflict
	StructPendingRelease  = core.StructPendingRelease
	StructPendingDMA      = core.StructPendingDMA
)

// Compute-stall units (the conclusion's suggested extension).
const (
	ALUUnit   = core.UnitALU
	SFUUnit   = core.UnitSFU
	IssueUnit = core.UnitIssue
)

// Protocol selects the GPU coherence protocol (the CPU always runs DeNovo,
// as in the paper's methodology).
type Protocol uint8

const (
	// GPUCoherence is the conventional software protocol: acquire
	// self-invalidates the whole L1, releases write dirty data through
	// to the L2.
	GPUCoherence Protocol = iota
	// DeNovo registers ownership of dirty lines at the L2 directory;
	// owned lines survive acquires, serve remote readers, and make
	// repeat releases free.
	DeNovo
)

// ParseProtocol parses a protocol name as the CLIs and the serve layer
// accept it: "gpu" (also "gpucoherence", "gpu-coherence") or "denovo",
// case-insensitively.
func ParseProtocol(s string) (Protocol, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "gpu", "gpucoherence", "gpu-coherence":
		return GPUCoherence, nil
	case "denovo":
		return DeNovo, nil
	}
	return DeNovo, fmt.Errorf("gsi: unknown protocol %q (want gpu or denovo)", s)
}

// String names the protocol as in the paper's figures.
func (p Protocol) String() string {
	switch p {
	case GPUCoherence:
		return "GPU coherence"
	case DeNovo:
		return "DeNovo"
	}
	return fmt.Sprintf("Protocol(%d)", uint8(p))
}

func (p Protocol) policy() mem.Policy {
	if p == DeNovo {
		return coherence.DeNovo{}
	}
	return coherence.GPUCoherence{}
}

// LocalMem selects a local-memory organization for the implicit
// microbenchmark (case study 2).
type LocalMem = gpu.LocalKind

// Local-memory organizations.
const (
	Scratchpad    = gpu.LocalScratch
	ScratchpadDMA = gpu.LocalScratchDMA
	Stash         = gpu.LocalStash
)

// ParseLocalMem parses a local-memory organization name as the CLIs and
// the serve layer accept it: "scratchpad" (also "scratch"), "dma" (also
// "scratchpad+dma"), or "stash", case-insensitively.
func ParseLocalMem(s string) (LocalMem, error) {
	lm, err := gpu.ParseLocalKind(s)
	if err != nil {
		return Scratchpad, fmt.Errorf("gsi: %w", err)
	}
	return lm, nil
}

// SystemConfig re-exports the architectural parameter block; the zero
// value is not valid — start from DefaultConfig (Table 5.1).
type SystemConfig = sim.Config

// DefaultConfig returns the Table 5.1 system.
func DefaultConfig() SystemConfig { return sim.Default() }

// EngineMode re-exports the scheduling-loop selector
// (SystemConfig.Engine). Both modes produce byte-identical Reports; they
// differ only in wall-clock cost.
type EngineMode = sim.EngineMode

// Engine modes: skip-ahead (the default and the product) and the dense
// reference loop (the oracle).
const (
	EngineSkip  = sim.EngineSkip
	EngineDense = sim.EngineDense
)

// Deprecated: EngineQuiescent named the deleted scheduling mode that was
// skip-ahead without the jump. It is EngineSkip under another name, exactly
// as inert as SystemConfig.Parallel and Express: it survives only because
// bench/layers.go compiles against it (the quiescent ladder row, which now
// re-runs the product engine). The benchmark change that retires that row
// removes it; no cache key moves, since the engine is never hashed.
const EngineQuiescent = EngineSkip

// ParseEngineMode parses a -engine flag value ("dense" or "skip").
func ParseEngineMode(s string) (EngineMode, error) { return sim.ParseEngineMode(s) }

// EngineStats re-exports the engine's scheduling counters (tick passes,
// skip-ahead jumps, skipped cycles), reported per run on Report.
type EngineStats = sim.EngineStats

// Typed simulation-failure sentinels, re-exported from the engine for
// errors.Is checks on Run/RunContext (and per-job Sweep) errors. Callers
// use them to separate terminal failures (a deadlocked workload will
// deadlock again) from transient ones worth retrying.
var (
	// ErrMaxCycles marks the in-sim watchdog: the cycle limit was reached
	// before the workload completed. The error string carries the engine's
	// per-component diagnosis dump.
	ErrMaxCycles = sim.ErrMaxCycles
	// ErrStalled marks a fully quiesced but unfinished simulation — no
	// tick can ever change anything again. Carries the diagnosis dump.
	ErrStalled = sim.ErrStalled
	// ErrDeadline marks an expired wall-clock deadline on the RunContext
	// context. Carries the diagnosis dump, so a deadline on a wedged
	// simulation still says which unit held work.
	ErrDeadline = sim.ErrDeadline
	// ErrCanceled marks a cooperative stop: the RunContext context was
	// canceled (job deletion, shutdown). No diagnosis is attached — the
	// caller asked for the stop.
	ErrCanceled = sim.ErrCanceled
)

// Mapping re-exports the scratchpad/stash window descriptor for custom
// kernels.
type Mapping = scratchpad.Mapping

// Workload registry types, re-exported from internal/workloads. The
// registry is the only place a workload is named and sized — the single
// table both CLIs, the figures and the sweep Grid's workload axis drive:
// every entry names a parameter struct that is itself the Workload and
// declares its schema (default-scale values) in struct tags, plus
// SmallScale overrides. See Workloads.
type (
	// WorkloadEntry is one registered workload.
	WorkloadEntry = workloads.Entry
	// WorkloadParam is one entry of a parameter schema.
	WorkloadParam = workloads.Param
	// WorkloadValues holds parameter overrides by name.
	WorkloadValues = workloads.Values
	// WorkloadRegistry maps workload names to entries.
	WorkloadRegistry = workloads.Registry
)

// Workloads returns the registry of every built-in workload.
func Workloads() *WorkloadRegistry { return workloads.Builtins() }

// Options configures one simulation.
type Options struct {
	// System holds the architectural parameters; zero means
	// DefaultConfig.
	System SystemConfig
	// Protocol selects GPU coherence or DeNovo for the GPU L1s.
	Protocol Protocol
	// SFIFO enables the QuickRelease-style S-FIFO ablation (memory
	// operations keep issuing during a release flush; paper §6.1.4).
	SFIFO bool
	// OwnedAtomics enables the owned-atomics optimization the paper's
	// §6.1.4 suggests (atomics register L1 ownership; repeat atomics to
	// the same line execute locally). Effective only under DeNovo.
	OwnedAtomics bool
	// StrongCycle classifies cycles with the strong (Algorithm 1)
	// priority instead of the paper's weak order — ablation of §4.2.
	StrongCycle bool
	// EagerAttribution disables deferred memory-data attribution —
	// ablation of §4.3's methodology.
	EagerAttribution bool
	// Timeline records and renders a per-SM stall timeline in the
	// report (one character column per time bucket).
	Timeline bool
	// Trace, when non-nil, collects a structured event trace of the run
	// (per-SM stall spans, clock jumps) for export via
	// Trace.WriteChromeTrace or Trace.WriteHTML. Tracing never changes
	// simulation results: a traced run's Report is byte-identical to an
	// untraced one. The field is excluded from JSON encodings and from
	// CacheKey — trace presence never changes a cache identity.
	Trace *Trace `json:"-"`
}

// Trace re-exports the structured trace collector. Allocate one with
// NewTrace, set it on Options.Trace, run, then export with
// WriteChromeTrace (Chrome/Perfetto trace-event JSON) or WriteHTML (a
// self-contained interactive timeline page).
type Trace = trace.Collector

// NewTrace returns an empty trace collector ready to set on
// Options.Trace. A collector may be reused across runs; each run resets
// it first.
func NewTrace() *Trace { return trace.New() }

// withDefaults fills in the zero value, preserving an engine-mode
// selection made on an otherwise-zero System.
func (o Options) withDefaults() Options {
	if o.System.NumSMs == 0 {
		mode := o.System.Engine
		o.System = DefaultConfig()
		o.System.Engine = mode
	}
	return o
}
