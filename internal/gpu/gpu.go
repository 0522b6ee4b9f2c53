package gpu

import (
	"context"
	"fmt"

	"gsi/internal/core"
	"gsi/internal/mem"
	"gsi/internal/sim"
)

// GPU is the full simulated device: the memory system, the SMs, and the
// GSI Inspector. One GPU runs one kernel launch at a time.
type GPU struct {
	Cfg  sim.Config
	Sys  *mem.System
	Insp *core.Inspector
	SMs  []*SM

	// EngineStats holds the scheduling counters of the most recent Run
	// (steps executed, skip-ahead jumps, cycles skipped, SM naps). It is
	// not part of the Report: every engine mode produces identical Reports.
	EngineStats sim.EngineStats

	// Observer, when set before Run, observes the engine's clock jumps. The
	// Inspector's classification stream is wired separately (append to
	// Insp.Sinks). Observation never changes results.
	Observer sim.Observer

	kernel     *Kernel
	nextBlock  int
	blocksDone int

	// napAudit, set only by tests, registers every SM behind a napAudit.
	napAudit func(sm int, cycle uint64, problem string)
}

// New builds a GPU with the given per-core coherence policies (one per
// core: SMs first, then the CPU; see coherence.ForGPU).
func New(cfg sim.Config, policies []mem.Policy) (*GPU, error) {
	sys, err := mem.NewSystem(cfg, policies)
	if err != nil {
		return nil, err
	}
	g := &GPU{
		Cfg:  cfg,
		Sys:  sys,
		Insp: core.NewInspector(cfg.NumSMs),
	}
	g.SMs = make([]*SM, cfg.NumSMs)
	for i := range g.SMs {
		g.SMs[i] = newSM(i, g, sys.Cores[i])
	}
	return g, nil
}

// Launch installs a kernel and dispatches its first blocks (round-robin,
// one resident block per SM; further blocks start as SMs free up).
func (g *GPU) Launch(k *Kernel) error {
	if err := k.Validate(); err != nil {
		return err
	}
	if g.kernel != nil && g.blocksDone < g.kernel.Blocks {
		return fmt.Errorf("gpu: kernel %q still running", g.kernel.Name)
	}
	if k.WarpsPerBlock > g.Cfg.WarpsPerSM {
		return fmt.Errorf("gpu: kernel %q needs %d warps per block, SM holds %d",
			k.Name, k.WarpsPerBlock, g.Cfg.WarpsPerSM)
	}
	if k.Coresident && k.Blocks > g.Cfg.NumSMs {
		return fmt.Errorf("gpu: kernel %q synchronizes across blocks but launches %d on %d SMs",
			k.Name, k.Blocks, g.Cfg.NumSMs)
	}
	if k.LocalMap != nil {
		size := uint64(g.Cfg.ScratchSize)
		for b := 0; b < k.Blocks; b++ {
			if m := k.LocalMap(b); m.Bytes > size || m.LocalBase > size-m.Bytes {
				return fmt.Errorf("gpu: kernel %q maps block %d's local window [%#x, %#x) outside the %d-byte scratchpad",
					k.Name, b, m.LocalBase, m.LocalBase+m.Bytes, size)
			}
		}
	}
	g.kernel = k
	g.nextBlock = 0
	g.blocksDone = 0
	for _, sm := range g.SMs {
		if g.nextBlock >= k.Blocks {
			break
		}
		sm.startBlock(k, g.nextBlock)
		g.nextBlock++
	}
	return nil
}

// blockDone is called by an SM that finished (and drained) its block; the
// SM picks up the next pending block if any remain.
func (g *GPU) blockDone(sm *SM) {
	g.blocksDone++
	if g.nextBlock < g.kernel.Blocks {
		sm.startBlock(g.kernel, g.nextBlock)
		g.nextBlock++
	}
}

// Done reports kernel completion: every block retired and the memory
// system quiesced.
func (g *GPU) Done() bool {
	return g.kernel != nil && g.blocksDone == g.kernel.Blocks && g.Sys.Quiesced()
}

// napAudit is registered in place of an SM when a test turns the audit on
// (SetNapAudit). It reports now+1, so the engine never parks the SM, and
// checks every tick inside a window the SM's NextEvent promised was frozen:
// no warp issues, the block stays resident, and the classification is the
// one a nap would credit. A poke ends the window, as it ends a park. Each
// promise counts as a nap, so an audited run still shows what was checked.
type napAudit struct {
	sm     *SM
	report func(sm int, cycle uint64, problem string)
	// until is the end of the open window (0: none), promised its class.
	until    uint64
	promised core.CycleClass
}

// Tick implements sim.Component.
func (a *napAudit) Tick(cycle uint64) bool {
	sm := a.sm
	busy := sm.Tick(cycle)
	if cycle < a.until {
		var problem string
		switch {
		case sm.issuedThisTick:
			problem = "a warp issued"
		case !busy:
			problem = "the block retired"
		case sm.lastClass != a.promised:
			problem = fmt.Sprintf("classified %+v", sm.lastClass)
		default:
			return busy
		}
		a.report(sm.id, cycle, fmt.Sprintf("%s in a nap that promised %+v until %d: %s", problem, a.promised, a.until, sm.Diagnose()))
		return busy
	}
	if next := sm.NextEvent(cycle); busy && next > cycle+1 {
		a.until, a.promised = next, sm.lastClass
		sm.naps++
	}
	return busy
}

// NextEvent implements sim.NextEventer: the audited SM ticks every cycle.
func (a *napAudit) NextEvent(now uint64) uint64 { return now + 1 }

// Diagnose implements sim.Diagnoser.
func (a *napAudit) Diagnose() string { return a.sm.Diagnose() }

// Run drives the launched kernel to completion with no external
// cancellation: RunContext under context.Background().
func (g *GPU) Run() (uint64, error) { return g.RunContext(context.Background()) }

// RunContext drives the launched kernel to completion and returns the
// cycle count. Every component — mesh, memory controller, L2 banks,
// per-core memory units, SMs — registers individually with the engine
// selected by Cfg.Engine (skip-ahead by default), in the same order
// the dense compound Tick evaluates them, so all modes produce
// byte-identical results. It resolves GSI's deferred attribution before
// returning and records the engine's scheduling counters in EngineStats.
//
// ctx cancellation is cooperative and checked only between cycles (see
// sim.Engine.RunContext): a canceled run returns sim.ErrCanceled, an
// expired deadline sim.ErrDeadline with the engine diagnosis attached.
func (g *GPU) RunContext(ctx context.Context) (uint64, error) {
	if g.kernel == nil {
		return 0, fmt.Errorf("gpu: no kernel launched")
	}
	eng := sim.NewEngine()
	eng.SetMode(g.Cfg.Engine)
	eng.SetObserver(g.Observer)
	g.Sys.Attach(eng)
	for i, sm := range g.SMs {
		var c sim.Component = sm
		var audit *napAudit
		if g.napAudit != nil {
			audit = &napAudit{sm: sm, report: g.napAudit}
			c = audit
		}
		h := eng.Register(fmt.Sprintf("sm%d", i), c)
		sm.wake = h.Wake
		if audit != nil {
			sm.wake = func() { audit.until = 0; h.Wake() }
		}
		sm.credited, sm.naps, sm.nappedCycles = eng.Cycle(), 0, 0
		// Every external input to SM i arrives through CoreMem i, which
		// pokes the SM before it lets any of it land.
		sm.cm.SetPoker(sm.poke)
	}
	cycles, err := eng.RunContext(ctx, g.Done, g.Cfg.MaxCycles)
	g.EngineStats = eng.Stats()
	for _, sm := range g.SMs {
		// Cycles still owed here — the drained tail on a normal return, any
		// parked SM on an error — are credited through the final cycle, so
		// every SM accounts for every cycle on every exit path.
		sm.creditNap(eng.Cycle())
		sm.cm.SetPoker(nil)
		g.EngineStats.Naps += sm.naps
		g.EngineStats.NappedSMCycles += sm.nappedCycles
	}
	g.Insp.Flush()
	return cycles, err
}
