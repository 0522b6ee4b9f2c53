package gpu

import (
	"fmt"

	"gsi/internal/core"
	"gsi/internal/isa"
	"gsi/internal/mem"
	"gsi/internal/scratchpad"
	"gsi/internal/sim"
)

// SM is one streaming multiprocessor. Its Tick runs the local-memory
// engines, the LSU, and then the issue stage, where the active warps are
// classified (Algorithm 1) and folded into the cycle's class (Algorithm 2),
// recorded through the GPU's Inspector.
type SM struct {
	id  int
	gpu *GPU
	cm  *mem.CoreMem
	lsu *LSU

	pad   *scratchpad.Scratchpad
	dma   *scratchpad.DMAEngine
	stash *scratchpad.Stash

	kernel    *Kernel
	localKind LocalKind
	block     int
	warps     []*Warp

	greedy         int
	slots          int
	barrierArrived int
	finished       int
	flushStarted   bool
	sfuBusyUntil   uint64

	order []int
	// orderValid caches order across cycles: the consideration order is a
	// pure function of greedy, the warps' finished states, and lastIssue
	// cycles, all of which change only when a warp issues (or a block
	// starts) — so stall-heavy cycles reuse the previous order, and an
	// issue only repairs it (see schedOrder).
	orderValid bool

	// lastClass is the cycle classification recorded by the most recent
	// issue stage; while the SM naps through a window in which nothing it
	// observes can change, the same classification is credited for every
	// napped cycle (see creditNap).
	lastClass core.CycleClass
	// issuedThisTick reports whether any warp issued during the most
	// recent tick: SM state changed, so NextEvent makes no promise beyond
	// the next cycle.
	issuedThisTick bool

	// credited is the SM's local time: every cycle before it has been
	// classified. The engine parks a stalled SM on its NextEvent and a
	// drained one until woken; the cycles it did not tick are owed until the
	// next Tick, poke or end of run credits them (creditNap). mshrRetry
	// marks a last tick whose LSU op is a pure MSHR-full refusal
	// (LSU.mshrRetrying): each owed cycle also owes one MSHRFullEvents.
	credited  uint64
	mshrRetry bool
	// wake is the SM's engine handle, called by every poke.
	wake func()
	// naps and nappedCycles count the credited windows and their cycles,
	// summed into GPU.EngineStats after the run.
	naps, nappedCycles uint64

	// loadSeq drives this SM's load-identifier sequence (see nextLoadID).
	loadSeq uint64

	// Stats.
	InstrsIssued uint64
	BlocksRun    uint64
}

func newSM(id int, g *GPU, cm *mem.CoreMem) *SM {
	sm := &SM{
		id:    id,
		gpu:   g,
		cm:    cm,
		pad:   scratchpad.New(g.Cfg.ScratchSize, g.Cfg.ScratchBanks),
		block: -1,
	}
	sm.lsu = newLSU(sm)
	sm.stash = scratchpad.NewStash(sm.pad, g.Cfg.LineSize)
	sm.dma = scratchpad.NewDMAEngine(sm.pad, cm, g.Sys.Backing, g.Sys.Mesh,
		g.Sys.CoreTile(id), id, g.Sys.BankTile, g.Cfg.LineSize)
	cm.OnLoadDone = sm.onLoadDone
	cm.OnAtomicDone = sm.onAtomicDone
	cm.OnWriteAck = sm.dma.WriteAcked
	return sm
}

// startBlock installs one thread block on the SM: warps are reset and
// seeded, the kernel-launch acquire self-invalidates the L1, and the local
// memory organization is programmed.
func (sm *SM) startBlock(k *Kernel, block int) {
	sm.kernel = k
	sm.localKind = k.Local
	sm.block = block
	sm.BlocksRun++
	if cap(sm.warps) < k.WarpsPerBlock {
		sm.warps = make([]*Warp, k.WarpsPerBlock)
		for i := range sm.warps {
			sm.warps[i] = &Warp{idx: i}
		}
	}
	sm.warps = sm.warps[:k.WarpsPerBlock]
	for i, w := range sm.warps {
		w.reset(k.Program)
		if k.InitRegs != nil {
			k.InitRegs(block, i, &w.regs)
		}
	}
	sm.greedy = 0
	sm.barrierArrived = 0
	sm.finished = 0
	sm.flushStarted = false
	sm.order = sm.order[:0]
	for i := range sm.warps {
		sm.order = append(sm.order, i)
	}
	sm.orderValid = false
	sm.cm.SelfInvalidate() // kernel launch has acquire semantics

	sm.pad.Reset()
	switch k.Local {
	case LocalScratchDMA:
		sm.dma.StartIn(k.LocalMap(block))
	case LocalStash:
		sm.stash.SetMapping(k.LocalMap(block))
	}
}

// Tick implements sim.Component: it credits the cycles the engine did not
// tick the SM since its last tick, then advances the SM one cycle. It
// reports whether a block is still resident: a drained SM observes one final
// Idle cycle and then leaves the active set, and the GPU credits the
// remaining idle cycles in bulk at the end of the run (an SM never
// re-acquires work mid-run — blocks are handed out by the SM's own
// finishBlock — so going idle is permanent until the next launch).
func (sm *SM) Tick(cycle uint64) bool {
	sm.creditNap(cycle)
	if sm.localKind == LocalScratchDMA {
		sm.dma.Tick(cycle)
	}
	sm.lsu.Tick(cycle)
	sm.issueStage(cycle)
	if sm.kernel != nil && sm.finished == len(sm.warps) {
		sm.finishBlock(cycle)
	}
	sm.credited = cycle + 1
	sm.mshrRetry = !sm.issuedThisTick && sm.lsu.mshrRetrying(cycle)
	return sm.kernel != nil
}

// creditNap credits the owed cycles [credited, end): the SM observed nothing
// during them, so the classification of its last tick is recorded once per
// cycle — exactly the counts, timeline and trace spans a dense loop would
// have accumulated one cycle at a time — along with the one counter a frozen
// SM still moves, the blocked LSU op's MSHR-full refusals.
func (sm *SM) creditNap(end uint64) {
	if end <= sm.credited {
		return
	}
	n := end - sm.credited
	sm.credited = end
	sm.gpu.Insp.RecordCycleSpan(sm.id, sm.lastClass, n)
	if sm.mshrRetry {
		sm.cm.Stats.MSHRFullEvents += n
	}
	sm.naps++
	sm.nappedCycles += n
}

// poke is CoreMem's notice that it is about to change state the SM can
// observe, at cycle: the owed cycles are credited up to cycle before the
// change lands (so deferred MemData attribution, the timeline and trace spans
// stay in dense order), and the engine wakes the SM so it ticks from cycle
// on. The wake is unconditional: an SM parked after its tick at cycle-1 owes
// nothing yet and must still tick at cycle.
func (sm *SM) poke(cycle uint64) {
	sm.creditNap(cycle)
	sm.wake()
}

// issueStage classifies the active warps (Algorithm 1), issuing up to
// IssueWidth of them, folds each observation into the cycle's class
// (Algorithm 2) as it goes, and records the cycle with the Inspector.
func (sm *SM) issueStage(cycle uint64) {
	sm.issuedThisTick = false
	fold := sm.gpu.Insp.Fold()
	if sm.kernel != nil {
		sm.slots = sm.gpu.Cfg.IssueWidth
		// Greedy-then-oldest: the warp that issued last keeps priority
		// while it can issue; everyone else is considered least
		// recently issued first (ties by index). The LRU fallback is
		// what keeps a lock holder making progress while cheap local
		// atomics let spinners saturate the issue ports.
		for _, idx := range sm.schedOrder() {
			fold.Add(sm.considerWarp(sm.warps[idx], cycle))
			if sm.slots == 0 {
				// The cycle is NoStall; the rest would only run pure checks.
				break
			}
		}
	}
	sm.lastClass = fold.Class()
	sm.gpu.Insp.RecordCycle(sm.id, sm.lastClass)
}

// schedOrder returns the warp consideration order: greedy warp first, the
// rest sorted by last issue cycle (oldest first), then index. The order is
// cached until an issue (or block start) changes one of its inputs, and then
// repaired rather than rebuilt: finished warps drop out, the greedy warp
// moves to the front, and one insertion-sort pass over the rest — already
// sorted but for the previous greedy warp and this cycle's other issuers —
// puts those back in place. The key (lastIssue, idx) is total, so the result
// is the permutation a sort from scratch produces.
func (sm *SM) schedOrder() []int {
	if sm.orderValid {
		return sm.order
	}
	sm.orderValid = true
	g := sm.greedy
	lead := g < len(sm.warps) && sm.warps[g].state != warpFinished
	rest := sm.order[:0]
	for _, i := range sm.order {
		if i != g && sm.warps[i].state != warpFinished {
			rest = append(rest, i)
		}
	}
	if lead {
		// The greedy warp was in the previous order, so there is room.
		rest = rest[:len(rest)+1]
		copy(rest[1:], rest)
		rest[0] = g
	}
	sm.order = rest
	if lead {
		rest = rest[1:]
	}
	for i := 1; i < len(rest); i++ {
		for j := i; j > 0; j-- {
			a, b := sm.warps[rest[j-1]], sm.warps[rest[j]]
			if a.lastIssue < b.lastIssue ||
				(a.lastIssue == b.lastIssue && rest[j-1] < rest[j]) {
				break
			}
			rest[j-1], rest[j] = rest[j], rest[j-1]
		}
	}
	return sm.order
}

// considerWarp returns the warp's Algorithm-1 observation, issuing it if it
// can: it tests core.ClassifyInstruction's conditions in priority order and
// returns at the first that holds. A finished warp, which schedOrder never
// offers, observes as an empty Cond does.
func (sm *SM) considerWarp(w *Warp, cycle uint64) core.WarpObs {
	switch w.state {
	case warpAtomic, warpBarrier:
		return core.WarpObs{Kind: core.Sync}
	case warpFinished:
		return core.WarpObs{Kind: core.CompStructural, CompUnit: core.UnitIssue}
	}
	if cycle < w.ibufReadyAt {
		return core.WarpObs{Kind: core.Control}
	}
	in := w.next()
	memHaz, blocking, compHaz, compUnit := w.hazards(in, cycle)
	if memHaz {
		return core.WarpObs{Kind: core.MemData, PendingLoad: blocking}
	}
	if in.Class == isa.ClassMem || in.Class == isa.ClassAtomic {
		if ok, cause := sm.lsu.CanAccept(cycle); !ok {
			return core.WarpObs{Kind: core.MemStructural, StructCause: cause}
		}
	}
	if compHaz {
		return core.WarpObs{Kind: core.CompData, CompUnit: compUnit}
	}
	if in.Class == isa.ClassSFU && sm.sfuBusyUntil > cycle {
		return core.WarpObs{Kind: core.CompStructural, CompUnit: core.UnitSFU}
	}
	if sm.slots == 0 {
		// Issuable, but the ports went to other warps this cycle.
		return core.WarpObs{Kind: core.CompStructural, CompUnit: core.UnitIssue}
	}
	sm.slots--
	if sm.greedy != w.idx {
		// The greedy warp issuing again moves nothing: it already leads,
		// and the rest is keyed on the others.
		sm.greedy = w.idx
		sm.orderValid = false
	}
	w.lastIssue = cycle
	sm.issuedThisTick = true
	sm.execute(w, in, cycle)
	return core.WarpObs{Kind: core.NoStall}
}

// execute performs one issued instruction.
func (sm *SM) execute(w *Warp, in *isa.Decoded, cycle uint64) {
	sm.InstrsIssued++
	cfg := &sm.gpu.Cfg
	switch in.Class {
	case isa.ClassNop:
		w.pc++
	case isa.ClassALU:
		w.regs[in.Rd] = isa.EvalALU(in.Op, w.regs[in.Ra], w.regs[in.Rb], w.regs[in.Rd], in.Imm)
		w.setPendingCompute(in.Rd, cycle+uint64(cfg.ALULat), core.UnitALU)
		w.pc++
	case isa.ClassSFU:
		w.regs[in.Rd] = isa.EvalALU(in.Op, w.regs[in.Ra], 0, 0, 0)
		w.setPendingCompute(in.Rd, cycle+uint64(cfg.SFULat), core.UnitSFU)
		sm.sfuBusyUntil = cycle + uint64(cfg.SFUInterval)
		w.pc++
	case isa.ClassCtrl:
		if isa.BranchTaken(in.Op, w.regs[in.Ra], w.regs[in.Rb]) {
			w.pc = in.Target
			w.ibufReadyAt = cycle + uint64(cfg.FetchLat)
		} else {
			w.pc++
		}
	case isa.ClassBarrier:
		w.pc++
		w.state = warpBarrier
		sm.barrierArrived++
		sm.checkBarrier()
	case isa.ClassExit:
		w.state = warpFinished
		sm.finished++
		sm.orderValid = false
		sm.checkBarrier() // fewer active warps may release the barrier
	case isa.ClassMem, isa.ClassAtomic:
		w.pc++
		sm.lsu.Accept(w, in, cycle)
	}
}

// checkBarrier releases waiting warps once every still-active warp has
// arrived.
func (sm *SM) checkBarrier() {
	active := len(sm.warps) - sm.finished
	if sm.barrierArrived == 0 || sm.barrierArrived < active {
		return
	}
	for _, w := range sm.warps {
		if w.state == warpBarrier {
			w.state = warpReady
		}
	}
	sm.barrierArrived = 0
}

// finishBlock sequences the end-of-kernel release: flush the store buffer
// (and start the DMA write-back), then report the block done once
// everything has drained.
func (sm *SM) finishBlock(cycle uint64) {
	if !sm.flushStarted {
		sm.flushStarted = true
		sm.cm.FlushAll()
		if sm.localKind == LocalScratchDMA {
			sm.dma.StartOut()
		}
		return
	}
	if sm.cm.Quiesced() && sm.lsu.Idle() && sm.dma.Quiesced() {
		sm.kernel = nil
		sm.localKind = LocalNone
		sm.block = -1
		sm.gpu.blockDone(sm)
		return
	}
	if sm.lsu.Idle() && !sm.cm.Flushing() && sm.cm.SBLen() > 0 {
		// Straggler stores: a multi-line vector store still draining
		// through the LSU when the kernel-end flush started parks until
		// the release completes, then refills the store buffer behind
		// it. Without another flush nothing would ever drain those
		// entries and the block could never retire.
		sm.cm.FlushAll()
	}
}

// Diagnose implements sim.Diagnoser for engine deadlock dumps: what the SM
// owes — the last credited cycle and the classification the cycles after it
// are credited with, next to the engine's "parked until T|woken" — and its
// warp scheduling state.
func (sm *SM) Diagnose() string {
	d := sm.warpState()
	if sm.credited == 0 {
		return d
	}
	return fmt.Sprintf("credited through %d class=%s; %s", sm.credited-1, sm.lastClass.Kind, d)
}

// warpState summarizes the resident block's warp scheduling state.
func (sm *SM) warpState() string {
	if sm.kernel == nil {
		return "no block resident"
	}
	var ready, barrier, atomic, finished int
	for _, w := range sm.warps {
		switch w.state {
		case warpReady:
			ready++
		case warpBarrier:
			barrier++
		case warpAtomic:
			atomic++
		case warpFinished:
			finished++
		}
	}
	return fmt.Sprintf("kernel=%s block=%d warps ready=%d barrier=%d atomic=%d finished=%d lsu-busy=%v %s",
		sm.kernel.Name, sm.block, ready, barrier, atomic, finished, !sm.lsu.Idle(), sm.dma.Diagnose())
}

// NextEvent implements sim.NextEventer; it is the promise an SM nap rests
// on. Called after the SM's tick at cycle now, it returns the earliest cycle
// at which the SM's observable behavior — issue decisions and per-cycle
// classification — could change, sim.NoEvent when every blocked warp waits
// on an external event (an in-flight load, atomic response, or barrier peer
// whose own progress is bounded elsewhere), or now+1 when no promise can be
// made (something issued this cycle, the DMA engine or LSU works every
// cycle, a warp is issuable). External events all arrive through the SM's
// CoreMem, which pokes the SM first. The promise never under-reports: not
// ticking until the returned cycle and ticking from there is
// indistinguishable from ticking densely through the gap, with one exception
// the SM makes good itself — see LSU.mshrRetrying.
//
// A promise beyond the next cycle is bounded by the CoreMem's own timer
// while a block is resident: a due local atomic and a draining or finished
// flush precede a poke, and a queued send counts because the end-of-block
// drain (finishBlock) reads CoreMem.Quiesced, which a send leaving the outbox
// changes without a poke. Outside that drain the outbox bound is only slack,
// and cheap: dropping it adds under 2% to the napped cycles of any registry
// workload.
func (sm *SM) NextEvent(now uint64) uint64 {
	if sm.kernel == nil {
		return sim.NoEvent // drained: idle until the next launch
	}
	if sm.issuedThisTick {
		return now + 1
	}
	next := sim.NoEvent
	if sm.localKind == LocalScratchDMA {
		if t := sm.dma.NextEvent(now); t < next {
			next = t
		}
	}
	if t := sm.lsu.NextEvent(now); t < next {
		next = t
	}
	if next <= now+1 {
		return now + 1
	}
	for _, w := range sm.warps {
		if w.state != warpReady {
			// Finished warps do nothing; atomic- and barrier-blocked
			// warps wait on external events (the response in flight, a
			// peer warp whose own hazards are scanned here).
			continue
		}
		if now < w.ibufReadyAt {
			// Control stall: constant until the buffer refills.
			if w.ibufReadyAt < next {
				next = w.ibufReadyAt
			}
			continue
		}
		in := w.next()
		var external, hazard bool
		var nextReady uint64
		if s := &w.haz; s.valid && s.pc == w.pc && (s.expiresAt == 0 || now < s.expiresAt) {
			// considerWarp scanned this warp's operands this very cycle;
			// reuse its cached summary instead of re-walking the board.
			external, hazard = s.memHaz, s.memHaz || s.compHaz
			nextReady = s.expiresAt
		} else {
			external, nextReady, hazard = w.nextBoardEvent(in, now)
		}
		if hazard {
			// A pending-load hazard is external and shadows compute
			// retirements (MemData outranks CompData and the warp stays
			// blocked either way); a compute-only hazard clears at the
			// earliest operand retirement.
			if !external {
				if nextReady <= now {
					return now + 1
				}
				if nextReady < next {
					next = nextReady
				}
			}
			continue
		}
		// No data hazard: the warp is structurally gated or issuable.
		switch in.Class {
		case isa.ClassMem, isa.ClassAtomic:
			if ok, _ := sm.lsu.CanAccept(now); ok {
				return now + 1 // issuable: no promise
			}
			// Gated by the LSU or a pending release; the LSU's own
			// timer (counted above) or the external event that frees
			// it bounds the window.
		case isa.ClassSFU:
			if sm.sfuBusyUntil <= now {
				return now + 1 // issuable: no promise
			}
			if sm.sfuBusyUntil < next {
				next = sm.sfuBusyUntil
			}
		default:
			// An issuable ALU/control/barrier instruction that did not
			// issue only lost arbitration; it can issue next cycle.
			return now + 1
		}
	}
	if next <= now+1 {
		return now + 1
	}
	return min(next, sm.cm.NextEvent(now))
}

// nextLoadID allocates a load identifier for GSI attribution, unique
// across the device for the whole run. IDs are striped by SM
// (id ≡ sm.id+1 mod NumSMs), so a given SM draws the identical sequence
// whatever the other SMs do. The values never surface in Reports.
func (sm *SM) nextLoadID() core.LoadID {
	id := sm.loadSeq*uint64(len(sm.gpu.SMs)) + uint64(sm.id) + 1
	sm.loadSeq++
	return core.LoadID(id)
}

// onLoadDone dispatches fill completions to their unit.
func (sm *SM) onLoadDone(t mem.Target, where core.DataWhere) {
	switch t.Kind {
	case mem.TargetLoad:
		sm.lsu.LoadFillDone(t, where)
	case mem.TargetDMAFill:
		sm.dma.FillDone(t.Aux)
	}
}

// onAtomicDone unblocks the warp and delivers the old value.
// Fire-and-forget atomics never blocked anyone and carry no result.
func (sm *SM) onAtomicDone(op mem.AtomicOp, old uint64) {
	if op.NoRet {
		return
	}
	w := sm.warps[op.Warp]
	w.regs[op.Rd] = old
	if w.state == warpAtomic {
		w.state = warpReady
	}
}
