package gpu

import (
	"fmt"

	"gsi/internal/core"
	"gsi/internal/isa"
	"gsi/internal/mem"
	"gsi/internal/scratchpad"
	"gsi/internal/sim"
)

// LSU is an SM's load/store unit. It holds at most one warp memory
// instruction at a time; a multi-line instruction, a full MSHR or store
// buffer, a bank conflict, a pending release, or a pending DMA keep it
// occupied, and while occupied every other memory instruction on the SM
// sees a memory structural stall whose cause is BlockCause.
type LSU struct {
	sm *SM

	// cur is the one op the LSU can hold, valid while held is set. It lives
	// here by value: CanAccept refuses a second op, so accepting never
	// allocates, and a parked DMA op replays from this same storage.
	cur        memOp
	held       bool
	blockCause core.StructCause
	busyUntil  uint64

	tracks *core.LoadTable[loadTrack]
	comps  []compEvent

	// Reusable per-access buffers: lane address expansion, line
	// deduplication, and L1 bank tallies run for every memory
	// instruction, so they must not allocate.
	addrBuf   []uint64
	linesBuf  []uint64
	bankCount []uint16

	// Stats.
	Accepted, LinesIssued uint64
}

// memOp is the instruction currently occupying the LSU.
type memOp struct {
	warp *Warp
	in   *isa.Instr // into the program's decoded table (read-only)
	// lines is consumed by submit from index next; its storage passes
	// from each op to the one accepted after it.
	lines   []lineReq
	next    int
	curLoad core.LoadID // load id when the op is a load
	// dmaWait: the op touches a DMA-mapped region still loading; it
	// blocks the whole LSU until the engine reports ready (core
	// granularity), then replays.
	dmaWait bool
}

// lineReq is one outstanding line-level request of the current op.
type lineReq struct {
	global  uint64 // global line address (stash accesses are translated)
	isStore bool
	noL1    bool // stash traffic bypasses the L1
	stash   bool
}

// loadTrack aggregates the line fills of one warp load instruction.
// The architectural value is captured when the load is accepted — its
// program-order linearization point — so a same-warp store issued while the
// load is still in flight cannot be observed out of order.
type loadTrack struct {
	warp      *Warp
	rd        isa.Reg
	remaining int
	lastWhere core.DataWhere
	value     uint64
}

// compEvent is a delayed local completion (L1/scratchpad/stash hits model a
// short load-to-use pipeline, which is what populates the paper's "L1
// cache" data-stall bucket).
type compEvent struct {
	at    uint64
	id    core.LoadID
	where core.DataWhere
}

func newLSU(sm *SM) *LSU {
	return &LSU{sm: sm, tracks: core.NewLoadTable[loadTrack](sm.gpu.Cfg.NumSMs)}
}

// hitLatency is the extra load-to-use delay of a local hit beyond issue
// (1-cycle access plus writeback).
const hitLatency = 2

// CanAccept reports whether a new memory instruction may enter the LSU;
// when it cannot, cause says why (for Algorithm 1's memory structural
// classification).
func (l *LSU) CanAccept(cycle uint64) (ok bool, cause core.StructCause) {
	cm := l.sm.cm
	if cm.ReleaseInProgress() && !cm.SFIFO {
		return false, core.StructPendingRelease
	}
	if l.held {
		if l.cur.dmaWait {
			// The paper attributes a blocked access during a bulk
			// DMA to "a full MSHR or a pending DMA": while the DMA
			// keeps the MSHR saturated the stronger cause is the
			// full MSHR; once MSHRs free up the pending transfer
			// itself is what blocks (this attribution shift is
			// exactly what figure 6.4c shows as MSHR size grows).
			if cm.MSHRFree() == 0 {
				return false, core.StructMSHRFull
			}
			return false, core.StructPendingDMA
		}
		c := l.blockCause
		if c == core.StructNone {
			c = core.StructBankConflict
		}
		return false, c
	}
	if l.busyUntil > cycle {
		return false, core.StructBankConflict
	}
	return true, core.StructNone
}

// Accept takes one memory-class instruction from a warp. The caller must
// have checked CanAccept this cycle. Atomics hand off to the core memory
// unit immediately (the warp blocks on synchronization, not on the LSU).
func (l *LSU) Accept(w *Warp, in *isa.Decoded, cycle uint64) {
	l.Accepted++
	if in.Class == isa.ClassAtomic {
		l.sm.cm.Atomic(mem.AtomicOp{
			Warp: int32(w.idx), Rd: in.Rd, Addr: w.regs[in.Ra], AOp: in.Op,
			B: w.regs[in.Rb], C: w.regs[in.Rc], Order: in.Order,
			NoRet: in.NoRet,
		}, cycle)
		if !in.NoRet {
			// The warp blocks on synchronization until the old
			// value returns; fire-and-forget atomics keep going.
			w.state = warpAtomic
		}
		return
	}
	l.cur = memOp{warp: w, in: &in.Instr, lines: l.cur.lines[:0]}
	op := &l.cur
	if in.Op.IsLocal() {
		l.acceptLocal(op, cycle)
	} else {
		l.acceptGlobal(op, cycle)
	}
}

// laneAddrs expands an instruction into per-lane addresses. The returned
// slice aliases a reusable buffer: it is valid until the next laneAddrs
// call on this LSU.
func (l *LSU) laneAddrs(w *Warp, in *isa.Instr) []uint64 {
	addrs := l.addrBuf[:0]
	if !in.Op.IsVector() {
		addrs = append(addrs, w.regs[in.Ra]+uint64(in.Imm))
		l.addrBuf = addrs
		return addrs
	}
	lanes := in.Lanes
	if lanes <= 0 || lanes > l.sm.gpu.Cfg.WarpSize {
		lanes = l.sm.gpu.Cfg.WarpSize
	}
	base := w.regs[in.Ra]
	for i := 0; i < lanes; i++ {
		addrs = append(addrs, base+uint64(i)*uint64(in.Imm))
	}
	l.addrBuf = addrs
	return addrs
}

// distinctLines returns the sorted distinct line bases touched by addrs.
// The returned slice aliases a reusable buffer, valid until the next call;
// a warp touches at most a few lines, so linear dedup plus insertion sort
// beats the map-and-sort it replaces.
func (l *LSU) distinctLines(addrs []uint64, lineSize uint64) []uint64 {
	lines := l.linesBuf[:0]
	for _, a := range addrs {
		ln := a &^ (lineSize - 1)
		dup := false
		for _, e := range lines {
			if e == ln {
				dup = true
				break
			}
		}
		if !dup {
			lines = append(lines, ln)
		}
	}
	for i := 1; i < len(lines); i++ {
		for j := i; j > 0 && lines[j-1] > lines[j]; j-- {
			lines[j-1], lines[j] = lines[j], lines[j-1]
		}
	}
	l.linesBuf = lines
	return lines
}

// l1BankOccupancy is the serialization cost of a set of line requests on
// the L1's line-interleaved banks.
func (l *LSU) l1BankOccupancy(lines []uint64) int {
	banks := l.sm.gpu.Cfg.L1Banks
	lineSize := uint64(l.sm.gpu.Cfg.LineSize)
	if l.bankCount == nil {
		l.bankCount = make([]uint16, banks)
	}
	counts := l.bankCount
	clear(counts)
	maxCount := uint16(1)
	for _, ln := range lines {
		b := int(ln/lineSize) % banks
		counts[b]++
		if counts[b] > maxCount {
			maxCount = counts[b]
		}
	}
	return int(maxCount)
}

func (l *LSU) acceptGlobal(op *memOp, cycle uint64) {
	in := op.in
	w := op.warp
	addrs := l.laneAddrs(w, in)
	lines := l.distinctLines(addrs, uint64(l.sm.gpu.Cfg.LineSize))
	// The coalescer emits one line request per cycle, and requests that
	// collide on an L1 bank serialize further; either way the LSU stays
	// occupied (bank-conflict structural stalls for followers).
	occ := l.l1BankOccupancy(lines)
	if n := len(lines); n > occ {
		occ = n
	}
	if occ > 1 {
		l.busyUntil = cycle + uint64(occ-1)
	}
	if in.Op.IsStore() {
		// Non-blocking stores: architectural values reach the backing
		// store now; timing rides on the store buffer entries.
		v := w.regs[in.Rb]
		for _, a := range addrs {
			l.sm.gpu.Sys.Backing.Store64(a, v)
		}
		for _, ln := range lines {
			op.lines = append(op.lines, lineReq{global: ln, isStore: true})
		}
	} else {
		id := l.sm.nextLoadID()
		w.setPendingLoad(in.Rd, id)
		*l.tracks.Insert(id) = loadTrack{
			warp: w, rd: in.Rd,
			remaining: len(lines),
			value:     l.sm.gpu.Sys.Backing.Load64(addrs[0]),
		}
		for _, ln := range lines {
			op.lines = append(op.lines, lineReq{global: ln})
		}
		op.curLoad = id
	}
	l.held = true
	l.submit(cycle)
}

func (l *LSU) acceptLocal(op *memOp, cycle uint64) {
	addrs := l.laneAddrs(op.warp, op.in)
	switch l.sm.localKind {
	case LocalScratch, LocalScratchDMA:
		l.acceptScratch(op, addrs, cycle)
	case LocalStash:
		l.acceptStash(op, addrs, cycle)
	default:
		panic(fmt.Sprintf("gpu: kernel %q uses local memory but SM has none",
			l.sm.kernel.Name))
	}
}

func (l *LSU) acceptScratch(op *memOp, addrs []uint64, cycle uint64) {
	in := op.in
	w := op.warp
	if in.Op.IsLoad() && op.curLoad == 0 {
		// Allocate the load and block the destination register up
		// front: even if the access parks on a pending DMA, dependent
		// instructions must see the scoreboard hazard. The value is
		// captured on replay (after the DMA has filled the pad).
		id := l.sm.nextLoadID()
		w.setPendingLoad(in.Rd, id)
		*l.tracks.Insert(id) = loadTrack{warp: w, rd: in.Rd, remaining: 1}
		op.curLoad = id
	}
	if l.sm.localKind == LocalScratchDMA && l.sm.dma.Blocking(addrs[0]) {
		// Pending DMA blocks at core granularity: the op parks in the
		// LSU, stalling the whole SM's memory issue, until the bulk
		// load completes; stores write the scratchpad only on replay.
		op.dmaWait = true
		l.held = true
		l.blockCause = core.StructPendingDMA
		return
	}
	occ := l.sm.pad.ConflictCycles(addrs)
	if occ > 1 {
		l.busyUntil = cycle + uint64(occ-1)
	}
	if in.Op.IsStore() {
		v := w.regs[in.Rb]
		for _, a := range addrs {
			l.sm.pad.Store64(a, v)
		}
		return // purely local: no line requests
	}
	tr, _ := l.tracks.Find(op.curLoad)
	tr.value = l.sm.pad.Load64(addrs[0])
	l.comps = append(l.comps, compEvent{
		at: cycle + uint64(occ-1) + hitLatency, id: op.curLoad, where: core.WhereL1,
	})
}

func (l *LSU) acceptStash(op *memOp, addrs []uint64, cycle uint64) {
	in := op.in
	w := op.warp
	st := l.sm.stash
	occ := l.sm.pad.ConflictCycles(addrs)
	if occ > 1 {
		l.busyUntil = cycle + uint64(occ-1)
	}
	lines := l.distinctLines(addrs, uint64(l.sm.gpu.Cfg.LineSize))
	if in.Op.IsStore() {
		// Stash stores: write-allocate locally, dirty lines register
		// through the store buffer (lazy, coherent write-back).
		v := w.regs[in.Rb]
		for _, a := range addrs {
			l.sm.gpu.Sys.Backing.Store64(st.GlobalFor(a), v)
		}
		for _, ln := range lines {
			st.StoreAccess(ln)
			op.lines = append(op.lines, lineReq{
				global: st.GlobalFor(ln), isStore: true,
				noL1: true, stash: true,
			})
		}
		l.held = true
		l.submit(cycle)
		return
	}
	id := l.sm.nextLoadID()
	w.setPendingLoad(in.Rd, id)
	*l.tracks.Insert(id) = loadTrack{
		warp: w, rd: in.Rd,
		remaining: len(lines),
		value:     l.sm.gpu.Sys.Backing.Load64(st.GlobalFor(addrs[0])),
	}
	for _, ln := range lines {
		switch st.LoadAccess(ln) {
		case scratchpad.StashHit:
			l.comps = append(l.comps, compEvent{
				at: cycle + uint64(occ-1) + hitLatency, id: id, where: core.WhereL1,
			})
		default:
			// NeedFill and FillPending both turn into a global
			// request; the MSHR merges duplicates. Only this warp
			// blocks (warp-granularity blocking, the stash's
			// advantage over scratchpad+DMA).
			op.lines = append(op.lines, lineReq{
				global: st.GlobalFor(ln), noL1: true, stash: true,
			})
		}
	}
	op.curLoad = id
	if len(op.lines) > 0 {
		// Fill requests pass through the coalescer one line per cycle.
		if n := uint64(len(op.lines)); cycle+n-1 > l.busyUntil {
			l.busyUntil = cycle + n - 1
		}
		l.held = true
		l.submit(cycle)
	}
}

// submit pushes the current op's outstanding line requests into the core
// memory unit, stopping (and recording the cause) at the first refusal.
func (l *LSU) submit(cycle uint64) {
	if !l.held {
		return
	}
	op := &l.cur
	if op.dmaWait {
		if l.sm.dma.State() == scratchpad.DMALoading {
			return
		}
		// The bulk load finished: replay the parked access, keeping
		// the load id allocated at park time so the scoreboard entry
		// and GSI attribution stay attached to the same load.
		op.dmaWait = false
		l.held = false
		l.blockCause = core.StructNone
		l.acceptScratch(op, l.laneAddrs(op.warp, op.in), cycle)
		return
	}
	cm := l.sm.cm
	for op.next < len(op.lines) {
		req := op.lines[op.next]
		if req.isStore {
			var out mem.StoreOutcome
			if req.noL1 {
				out = cm.StoreNoL1(req.global, cycle)
			} else {
				out = cm.Store(req.global, cycle)
			}
			switch out {
			case mem.StoreOK:
				l.LinesIssued++
			case mem.StoreSBFull:
				l.blockCause = core.StructStoreBufferFull
				return
			case mem.StoreBlockedRelease:
				l.blockCause = core.StructPendingRelease
				return
			}
		} else {
			t := mem.Target{Kind: mem.TargetLoad, Load: op.curLoad, Aux: req.global, NoL1: req.noL1}
			switch cm.Load(req.global, t, cycle) {
			case mem.LoadHit:
				l.LinesIssued++
				l.comps = append(l.comps, compEvent{
					at: cycle + hitLatency, id: op.curLoad, where: core.WhereL1,
				})
			case mem.LoadMiss, mem.LoadMerged:
				l.LinesIssued++
				if req.stash {
					l.sm.stash.FillStarted(l.sm.stash.Mapping().LocalFor(req.global))
				}
			case mem.LoadMSHRFull:
				l.blockCause = core.StructMSHRFull
				return
			}
		}
		op.next++
	}
	l.held = false
	l.blockCause = core.StructNone
}

// Tick retires due local completions and retries a blocked op. It reports
// whether the LSU still holds an op or pending completions.
func (l *LSU) Tick(cycle uint64) bool {
	if len(l.comps) > 0 {
		n := 0
		for _, e := range l.comps {
			if e.at <= cycle {
				if tr, live := l.tracks.Find(e.id); live {
					l.lineDone(e.id, tr, e.where)
				}
			} else {
				l.comps[n] = e
				n++
			}
		}
		l.comps = l.comps[:n]
	}
	if l.held && l.busyUntil <= cycle {
		l.submit(cycle)
	}
	return !l.Idle()
}

// LoadFillDone routes a completed global fill for a warp load (called from
// the SM's OnLoadDone dispatcher).
func (l *LSU) LoadFillDone(t mem.Target, where core.DataWhere) {
	tr, live := l.tracks.Find(t.Load)
	if !live {
		return
	}
	// Stash fills mark the stash line present for later hits.
	if t.NoL1 && l.sm.stash != nil {
		l.sm.stash.FillDone(t.Aux)
	}
	l.lineDone(t.Load, tr, where)
}

// lineDone accounts one completed line for load id's live track; the last
// line finishes the load: scoreboard release, architectural value write, and
// GSI's deferred attribution resolution.
func (l *LSU) lineDone(id core.LoadID, tr *loadTrack, where core.DataWhere) {
	tr.remaining--
	tr.lastWhere = where
	if tr.remaining > 0 {
		return
	}
	l.tracks.Retire(id)
	tr.warp.loadArrived(tr.rd, id, tr.value)
	l.sm.gpu.Insp.LoadCompleted(l.sm.id, id, tr.lastWhere)
}

// NextEvent supports the SM's nap promise: the earliest cycle after now at
// which the LSU's Tick does real work, or sim.NoEvent when it only waits on
// external fills. A blocked current op whose busy window has passed retries
// submit every cycle — and those retries bump store buffer stall statistics
// and can start flushes exactly as a dense loop would — so it forbids the
// promise outright. Two retries are exempt: an op parked on a pending DMA,
// whose retry is a pure no-op until the bulk load finishes (an external,
// fill-driven event), and an op refused for a full MSHR (see mshrRetrying).
func (l *LSU) NextEvent(now uint64) uint64 {
	if l.held && !l.cur.dmaWait && l.busyUntil <= now && !l.mshrRetrying(now) {
		return now + 1
	}
	next := sim.NoEvent
	for _, e := range l.comps {
		if e.at < next {
			next = e.at
		}
	}
	if l.busyUntil > now && l.busyUntil < next {
		// Either the current op submits then, or CanAccept stops
		// reporting a bank conflict then — both can change what the
		// issue stage observes.
		next = l.busyUntil
	}
	if next != sim.NoEvent && next <= now {
		return now + 1
	}
	return next
}

// mshrRetrying reports, after the tick at now, that the current op retries
// a load line every cycle and is refused each time for a full MSHR. The
// line is neither cached nor in flight (the refusal at now proved it) and
// only a fill — external to the SM — frees an entry, so until then the retry
// changes nothing but CoreMem's MSHRFullEvents count: it does not forbid
// the nap promise, and the SM owes one MSHRFullEvents per cycle it was not
// ticked on that promise (SM.creditNap).
func (l *LSU) mshrRetrying(now uint64) bool {
	return l.held && !l.cur.dmaWait && l.busyUntil <= now &&
		l.blockCause == core.StructMSHRFull && l.sm.cm.MSHRFree() == 0
}

// PendingLoads reports in-flight warp loads (quiescence checks).
func (l *LSU) PendingLoads() int { return l.tracks.Live() }

// Idle reports whether the LSU holds no op and no pending completions.
func (l *LSU) Idle() bool { return !l.held && len(l.comps) == 0 }
