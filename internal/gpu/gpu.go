package gpu

import (
	"context"
	"fmt"

	"gsi/internal/core"
	"gsi/internal/mem"
	"gsi/internal/sim"
	"gsi/internal/trace"
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

	// Trace, when set before Run, observes the engine's clock jumps. The
	// Inspector's classification stream is wired separately (set
	// Insp.Trace). Tracing never changes results.
	Trace *trace.Collector

	kernel     *Kernel
	nextBlock  int
	blocksDone int

	// napAudit, set only by tests, is handed to every smSlot (see
	// smSlot.audit).
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

// smSlot adapts one SM to the scheduling engine and gives it local time.
// After a tick in which no warp issued, the slot asks the SM's NextEvent
// promise (bounded by its CoreMem's own timer) how long the SM stays
// frozen; when that lies beyond the next cycle the SM naps: the slot reports
// the nap's end through its own NextEvent, so the engine parks it and does
// not visit it until the promised cycle, and the frozen classification is
// credited to the Inspector in one span when the nap ends — GSI still
// accounts a classification for every GPU cycle of every SM, including the
// ones the SM never ticked. A nap ends at its timed bound or when CoreMem
// pokes the slot because external input is about to land (see poke). The
// drained tail of an SM whose last block retired is the same nap with no
// bound and no park — the slot just goes idle — closed when the run returns.
//
// The dense loop never naps: it is the oracle the naps are checked
// against.
type smSlot struct {
	sm *SM
	// naps enables napping (every mode but dense).
	naps bool

	// While napping, cycles [napFrom, now) are not yet credited. napUntil
	// is the timed bound (sim.NoEvent: only a poke ends the nap).
	napping  bool
	napFrom  uint64
	napUntil uint64
	// mshrRetry marks a nap over an LSU op whose per-cycle retry is a pure
	// MSHR-full refusal: each napped cycle owes one MSHRFullEvents count.
	mshrRetry bool

	// Scheduling counters, summed into GPU.EngineStats after the run.
	napCount, nappedCycles uint64

	// wake is the slot's engine handle: a poke ends the park of a napping
	// SM.
	wake func()

	// audit, set only by tests, ticks the SM through its naps and reports
	// every cycle in which the nap's promise did not hold.
	audit func(sm int, cycle uint64, problem string)
}

// Tick implements sim.Component. The engine does not visit a napping slot
// before its bound except under the test audit, which ticks it anyway; any
// other visit ends the nap and ticks the SM, which is always safe.
func (s *smSlot) Tick(cycle uint64) bool {
	if s.napping {
		if s.audit != nil && cycle < s.napUntil {
			s.auditTick(cycle)
			return true
		}
		s.endNap(cycle)
	}
	busy := s.sm.Tick(cycle)
	if s.naps && !s.sm.issuedThisTick {
		s.planNap(cycle, busy)
	}
	return busy
}

// planNap starts a nap after the SM's tick at now if the SM promises that
// nothing it can observe changes before some cycle beyond now+1. The SM's
// promise treats its CoreMem as external, so while a block is resident the
// unit's own timer bounds the nap too: a due local atomic and a draining or
// finished flush precede a poke, and a queued send counts because the
// end-of-block drain (finishBlock) reads CoreMem.Quiesced, which a send
// leaving the outbox changes without a poke. Outside that drain the outbox
// bound is only slack, and cheap: dropping it adds under 2% to the napped
// cycles of any registry workload. A drained SM stays idle whatever its
// CoreMem still does, and must nap — its slot is about to leave the active
// set. A resident SM's slot stays busy, so the engine parks it on NextEvent:
// it is still pending work, counted against a stall, and its bound limits a
// jump.
func (s *smSlot) planNap(now uint64, resident bool) {
	until := s.sm.NextEvent(now)
	if until > now+1 && resident {
		until = min(until, s.sm.cm.NextEvent(now))
	}
	if until <= now+1 {
		return
	}
	s.napping, s.napFrom, s.napUntil = true, now+1, until
	s.mshrRetry = s.sm.lsu.mshrRetrying(now)
	s.napCount++
}

// endNap closes an open nap at cycle end: the SM observed nothing during
// [napFrom, end), so the classification of its last tick is credited once
// per cycle — exactly the counts, timeline and trace spans a dense loop
// would have accumulated one cycle at a time — along with the one counter
// a frozen SM still moves, the blocked LSU op's MSHR-full refusals.
func (s *smSlot) endNap(end uint64) {
	if !s.napping {
		return
	}
	s.napping = false
	if end <= s.napFrom {
		return
	}
	n := end - s.napFrom
	s.sm.gpu.Insp.RecordCycleSpan(s.sm.id, s.sm.lastClass, n)
	if s.mshrRetry {
		s.sm.cm.Stats.MSHRFullEvents += n
	}
	s.nappedCycles += n
}

// poke is CoreMem's notice that it is about to change state the SM can
// observe, at cycle: the nap is credited up to cycle before the change
// lands (so deferred MemData attribution, the timeline and trace spans
// stay in dense order) and the SM ticks again from cycle on.
func (s *smSlot) poke(cycle uint64) {
	if !s.napping {
		return
	}
	s.endNap(cycle)
	s.wake()
}

// auditTick ticks a napping SM anyway and checks the nap's promise: no
// warp issues, the block stays resident, and the classification is the one
// the nap would credit. Cycles a global jump skipped since the last tick
// are credited first; the tick records the cycle itself, so the nap's
// uncredited window restarts after it and an audited run counts what an
// unaudited one does.
func (s *smSlot) auditTick(cycle uint64) {
	sm := s.sm
	s.endNap(cycle)
	promised := sm.lastClass
	busy := sm.Tick(cycle)
	s.napping, s.napFrom = true, cycle+1
	var problem string
	switch {
	case sm.issuedThisTick:
		problem = "a warp issued"
	case !busy:
		problem = "the block retired"
	case sm.lastClass != promised:
		problem = fmt.Sprintf("classified %+v", sm.lastClass)
	default:
		return
	}
	s.audit(sm.id, cycle, fmt.Sprintf("%s in a nap that promised %+v: %s", problem, promised, s.Diagnose()))
}

// NextEvent implements sim.NextEventer: a napping SM is frozen until its
// bound, where the engine parks it, and an awake one never permits a park.
// Under the test audit a nap reports the next cycle, so the engine keeps
// visiting the slot and the audit can tick the SM through it.
func (s *smSlot) NextEvent(now uint64) uint64 {
	if s.napping && s.audit == nil {
		return s.napUntil
	}
	return now + 1
}

// Diagnose implements sim.Diagnoser for engine deadlock dumps. A napping
// SM is pending work to the engine, so the dump says since when it has been
// frozen, until when, and in which classification.
func (s *smSlot) Diagnose() string {
	d := s.sm.Diagnose()
	if !s.napping {
		return d
	}
	until := "external"
	if s.napUntil != sim.NoEvent {
		until = fmt.Sprint(s.napUntil)
	}
	return fmt.Sprintf("napping since %d until %s class=%s; %s", s.napFrom, until, s.sm.lastClass.Kind, d)
}

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
	if g.Trace != nil {
		eng.SetObserver(g.Trace)
	}
	g.Sys.Attach(eng)
	slots := make([]*smSlot, len(g.SMs))
	for i, sm := range g.SMs {
		s := &smSlot{sm: sm, naps: g.Cfg.Engine != sim.EngineDense, audit: g.napAudit}
		slots[i] = s
		s.wake = eng.Register(fmt.Sprintf("sm%d", i), s).Wake
		if s.naps {
			// Every external input to SM i arrives through CoreMem i,
			// which pokes the slot before it lets any of it land.
			sm.cm.SetPoker(s.poke)
		}
	}
	cycles, err := eng.RunContext(ctx, g.Done, g.Cfg.MaxCycles)
	g.EngineStats = eng.Stats()
	for _, s := range slots {
		// A nap still open here — the drained tail on a normal return, any
		// frozen SM on an error — is credited through the final cycle, so
		// every SM accounts for every cycle on every exit path.
		s.endNap(eng.Cycle())
		s.sm.cm.SetPoker(nil)
		g.EngineStats.Naps += s.napCount
		g.EngineStats.NappedSMCycles += s.nappedCycles
	}
	g.Insp.Flush()
	return cycles, err
}
