package mem

import (
	"fmt"

	"gsi/internal/core"
	"gsi/internal/isa"
	"gsi/internal/noc"
)

// TargetKind says which unit a line fill belongs to; the SM-side client
// dispatches completions on it.
type TargetKind uint8

const (
	// TargetLoad fills a warp load instruction (identified by LoadID);
	// stash fills ride on warp loads with NoL1 set.
	TargetLoad TargetKind = iota
	// TargetDMAFill fills one line of a bulk DMA transfer.
	TargetDMAFill
)

// Target identifies one requested line fill.
type Target struct {
	Kind TargetKind
	Load core.LoadID // TargetLoad
	Aux  uint64      // the global line (stash/DMA routing)
	// NoL1 suppresses installing the fill into the L1 array: DMA and
	// stash transfers bypass the cache ("without polluting the L1
	// cache", D2MA; stash fills load directly into the stash).
	NoL1 bool
}

// LoadOutcome is the immediate result of CoreMem.Load.
type LoadOutcome uint8

const (
	// LoadHit: the line is in the L1; the caller completes the access
	// with core.WhereL1 at hit latency.
	LoadHit LoadOutcome = iota
	// LoadMiss: an MSHR was allocated and a request sent.
	LoadMiss
	// LoadMerged: an in-flight MSHR entry absorbed the request; the
	// target completes as core.WhereL1Coalescing.
	LoadMerged
	// LoadMSHRFull: no MSHR free; retry later (memory structural stall,
	// cause full MSHR).
	LoadMSHRFull
)

// StoreOutcome is the immediate result of CoreMem.Store.
type StoreOutcome uint8

const (
	// StoreOK: the store entered the write-combining buffer (or merged).
	StoreOK StoreOutcome = iota
	// StoreSBFull: the buffer is full (a flush has been triggered);
	// retry later (memory structural stall, cause full store buffer).
	StoreSBFull
	// StoreBlockedRelease: a release flush is in progress; retry later
	// (memory structural stall, cause pending release).
	StoreBlockedRelease
)

// AtomicOp is a warp atomic handed to CoreMem for protocol sequencing. It
// travels inside Msg, so its fields are ordered widest first and Warp is an
// int32: 32 bytes, no padding, no pointer.
type AtomicOp struct {
	Addr  uint64
	B, C  uint64 // operands
	Warp  int32
	Rd    isa.Reg // destination for the old value (unused when NoRet)
	AOp   isa.Op  // OpAtomCAS, OpAtomExch, OpAtomAdd
	Order isa.Order
	// NoRet marks a fire-and-forget atomic: the issuing warp did not
	// block, so completion only decrements the in-flight count.
	NoRet bool
}

// CoreMemStats counts per-core memory events.
type CoreMemStats struct {
	Hits, Misses, Merges    uint64
	MSHRFullEvents          uint64
	SBFullEvents            uint64
	Flushes, ReleaseFlushes uint64
	FlushNoops              uint64 // lines already owned: free release work
	WriteThroughs, OwnReqs  uint64
	RemoteServed            uint64 // FwdReads answered from this L1
	Evictions, OwnedEvicts  uint64
	Atomics                 uint64
	LocalAtomics            uint64 // owned atomics served at this L1
}

// CoreMem is one core's private memory-side unit: the L1 array, MSHRs, the
// write-combining store buffer, flush and release sequencing, and the
// core's side of the coherence protocol. The SM's load/store unit calls
// Load/Store/Atomic during its tick; completions come back through the
// OnLoadDone / OnAtomicDone callbacks during the mesh/CoreMem ticks.
type CoreMem struct {
	coreID   int
	tile     int
	lineSize uint64
	policy   Policy
	array    *Array
	backing  *Backing
	// keep has bit 1<<state set for each state whose clean lines the
	// policy keeps across an acquire; see SelfInvalidate.
	keep uint8

	mshr    LineTable[mshrEntry]
	mshrCap int
	// filling holds the merged targets of the entry fill is completing,
	// taken out of the table before any completion callback runs.
	filling []Target

	sb    []uint64            // FIFO of dirty lines awaiting flush
	sbSet LineTable[struct{}] // membership for write combining
	sbCap int

	flushing     bool
	flushRelease bool
	flushQ       fifo[uint64]
	acksWanted   LineTable[struct{}]

	releaseQ        fifo[AtomicOp] // atomics waiting for a release flush
	inflightAtomics int

	// SFIFO enables the QuickRelease-style ablation (paper section
	// 6.1.4): stores and loads keep issuing during a release flush.
	SFIFO bool
	// OwnedAtomics enables the Sinclair et al. optimization the paper's
	// section 6.1.4 suggests: atomics register ownership of their line,
	// and atomics to a locally owned line execute at the L1 instead of
	// making the L2 round trip. Requires an ownership protocol.
	OwnedAtomics bool

	localAtomics []localAtomic

	out      outbox
	bankTile func(line uint64) int
	coreTile func(core int) int
	wake     func()
	poke     func(cycle uint64)

	// cycle is the unit's notion of "now", refreshed at every external
	// entry point (Tick, Load, Store, Atomic, Deliver) from the caller's
	// explicit cycle. Keeping it caller-supplied rather than tick-derived
	// is what lets an otherwise-idle CoreMem skip cycles entirely without
	// perturbing LRU timestamps or outbox send times.
	cycle uint64

	// OnLoadDone fires once per completed fill target.
	OnLoadDone func(t Target, where core.DataWhere)
	// OnAtomicDone fires when an atomic's old value returns; the op is
	// echoed so the core can route the value (or ignore it for NoRet).
	OnAtomicDone func(op AtomicOp, old uint64)
	// OnWriteAck fires for every WriteAck delivered to this core; the
	// DMA engine uses it to track bulk write-back completion (lines it
	// did not send are simply not in its outstanding set).
	OnWriteAck func(line uint64)

	Stats CoreMemStats
}

type mshrEntry struct {
	primary     Target
	secondaries []Target
}

// CoreMemConfig collects construction parameters.
type CoreMemConfig struct {
	CoreID   int
	Tile     int
	LineSize int
	L1Size   int
	L1Assoc  int
	MSHRCap  int
	SBCap    int
	Policy   Policy
	Backing  *Backing
	Mesh     *noc.Mesh[Msg]
	BankTile func(line uint64) int
	CoreTile func(core int) int
}

// NewCoreMem builds the unit.
func NewCoreMem(cfg CoreMemConfig) *CoreMem {
	var keep uint8
	for _, st := range []LineState{LineValid, LineOwned} {
		if cfg.Policy.KeepOnAcquire(st, false) {
			keep |= 1 << st
		}
	}
	return &CoreMem{
		keep:     keep,
		coreID:   cfg.CoreID,
		tile:     cfg.Tile,
		lineSize: uint64(cfg.LineSize),
		policy:   cfg.Policy,
		array:    NewArray(cfg.L1Size, cfg.L1Assoc, cfg.LineSize),
		backing:  cfg.Backing,
		mshrCap:  cfg.MSHRCap,
		sbCap:    cfg.SBCap,
		out:      outbox{mesh: cfg.Mesh, from: cfg.Tile},
		bankTile: cfg.BankTile,
		coreTile: cfg.CoreTile,
	}
}

// SetWaker installs the engine re-arm callback. Entry points that create
// tick-serviced work (flush draining, release dispatch, local atomics,
// outbound messages) call arm so a sleeping unit resumes ticking.
func (c *CoreMem) SetWaker(wake func()) { c.wake = wake }

// SetPoker installs the core's nap-breaking callback (nil removes it). The
// core attached to this unit may stop ticking while nothing it observes
// can change; every input that reaches it from outside comes through this
// unit, so the unit calls poke with the current cycle before it lets such an
// input land — on every Deliver, and in Tick before a local atomic completes
// or a finished flush clears — and the core settles its books for the
// cycles before that one first, then resumes ticking. The GPU installs it
// for each SM for the duration of a run; a unit ticked by hand has none.
func (c *CoreMem) SetPoker(poke func(cycle uint64)) { c.poke = poke }

// pokeCore gives the attached core notice of a change at cycle.
func (c *CoreMem) pokeCore(cycle uint64) {
	if c.poke != nil {
		c.poke(cycle)
	}
}

// tickWork reports whether Tick has anything to do. Misses waiting on fills
// and flushes waiting on acks are completed by Deliver, not Tick, so they
// alone do not keep the unit ticking — except that a completed flush must
// be noticed by Tick, so flushing counts as tick work throughout.
func (c *CoreMem) tickWork() bool {
	return c.flushing || c.flushQ.len() > 0 || c.releaseQ.len() > 0 ||
		len(c.localAtomics) > 0 || c.out.pending() > 0
}

// arm re-activates the unit in the scheduling engine if it has tick work.
func (c *CoreMem) arm() {
	if c.wake != nil && c.tickWork() {
		c.wake()
	}
}

// Line returns addr's line base address.
func (c *CoreMem) Line(addr uint64) uint64 { return addr &^ (c.lineSize - 1) }

// Policy returns the active coherence policy.
func (c *CoreMem) Policy() Policy { return c.policy }

// MSHRFree reports the number of free MSHR entries (the DMA engine
// throttles on this).
func (c *CoreMem) MSHRFree() int { return c.mshrCap - c.mshr.Len() }

// ReleaseInProgress reports whether a release flush is draining; the LSU
// blocks memory issue with cause pending-release while true (unless SFIFO).
func (c *CoreMem) ReleaseInProgress() bool { return c.flushing && c.flushRelease }

// Flushing reports any flush in progress.
func (c *CoreMem) Flushing() bool { return c.flushing }

// Load requests the line containing addr on behalf of target, during cycle
// now (the caller's current cycle).
func (c *CoreMem) Load(addr uint64, t Target, now uint64) LoadOutcome {
	c.cycle = now
	line := c.Line(addr)
	if c.array.Lookup(line, c.cycle) != nil {
		c.Stats.Hits++
		return LoadHit
	}
	if e := c.mshr.Find(line); e != nil {
		c.Stats.Merges++
		e.secondaries = append(e.secondaries, t)
		return LoadMerged
	}
	if c.mshr.Len() >= c.mshrCap {
		c.Stats.MSHRFullEvents++
		return LoadMSHRFull
	}
	c.Stats.Misses++
	e := c.mshr.Insert(line)
	e.primary, e.secondaries = t, e.secondaries[:0]
	c.toBank(Msg{Kind: ReadReq, Addr: line})
	c.arm()
	return LoadMiss
}

// Store enters addr's line into the write-combining store buffer during
// cycle now. The caller writes the value to the backing store itself
// (stores are non-blocking). A full buffer triggers an automatic flush, per
// the paper: the buffer "is flushed when it becomes full, at the end of a
// kernel, and on a release operation".
func (c *CoreMem) Store(addr uint64, now uint64) StoreOutcome { return c.store(addr, true, now) }

// StoreNoL1 is Store for stash writes: the dirty data lives in the stash,
// so the store buffer tracks the line for flushing (ownership registration
// under DeNovo) without installing it in the L1.
func (c *CoreMem) StoreNoL1(addr uint64, now uint64) StoreOutcome {
	return c.store(addr, false, now)
}

func (c *CoreMem) store(addr uint64, installL1 bool, now uint64) StoreOutcome {
	c.cycle = now
	defer c.arm()
	if c.flushing {
		if c.flushRelease && !c.SFIFO {
			return StoreBlockedRelease
		}
		if !c.SFIFO {
			// Whole-buffer flush events: stores wait for the drain.
			return StoreSBFull
		}
		// SFIFO: stores may enter fresh entries during a flush, but
		// lines with an in-flight flush cannot merge.
		if c.acksWanted.Find(c.Line(addr)) != nil {
			return StoreSBFull
		}
	}
	line := c.Line(addr)
	if c.sbSet.Find(line) != nil {
		// Write combining: the pending entry absorbs the store.
		if installL1 {
			c.markDirty(line)
		}
		return StoreOK
	}
	if len(c.sb) >= c.sbCap {
		c.Stats.SBFullEvents++
		c.startFlush(false)
		return StoreSBFull
	}
	if installL1 && !c.markDirty(line) {
		// Could not install (every way pinned): treat as buffer
		// pressure and drain.
		c.Stats.SBFullEvents++
		c.startFlush(false)
		return StoreSBFull
	}
	c.sb = append(c.sb, line)
	c.sbSet.Insert(line)
	return StoreOK
}

// markDirty installs (write-allocate, no fetch) and pins the line. It
// reports false if no way could be claimed.
func (c *CoreMem) markDirty(line uint64) bool {
	w := c.array.Lookup(line, c.cycle)
	if w == nil {
		var victim Way
		var evicted bool
		w, victim, evicted = c.array.Install(line, c.cycle)
		if w == nil {
			return false
		}
		if evicted {
			c.evict(victim)
		}
	}
	w.Dirty = true
	w.Pinned = true
	return true
}

// evict handles a victim pushed out by Install: owned lines return to the
// L2 (data + deregistration).
func (c *CoreMem) evict(victim Way) {
	c.Stats.Evictions++
	if victim.State == LineOwned {
		c.Stats.OwnedEvicts++
		c.toBank(Msg{Kind: WbOwned, Addr: victim.Line})
	}
}

// toBank sends m, stamped with this core as the requestor, to the home bank
// of the line m.Addr lies in; it is injected next cycle.
func (c *CoreMem) toBank(m Msg) {
	m.Core = int32(c.coreID)
	c.out.send(c.cycle+1, c.bankTile(c.Line(m.Addr)), noc.PortL2, &m)
}

// Atomic sequences a warp atomic during cycle now: release-ordered atomics
// wait behind a store buffer flush; others go straight to the home bank.
// The warp is expected to block (synchronization stall) until OnAtomicDone
// fires.
func (c *CoreMem) Atomic(op AtomicOp, now uint64) {
	c.cycle = now
	c.Stats.Atomics++
	if op.Order.IsRelease() {
		c.releaseQ.push(op)
		c.startFlush(true)
		c.arm()
		return
	}
	c.sendAtomic(op)
	c.arm()
}

// localAtomic is an owned-atomic executing at the L1 (short fixed latency).
type localAtomic struct {
	at  uint64
	op  AtomicOp
	old uint64
}

// localAtomicLat is the L1-side atomic latency (tag check + RMW).
const localAtomicLat = 3

func (c *CoreMem) sendAtomic(op AtomicOp) {
	c.inflightAtomics++
	ownedMode := c.OwnedAtomics && c.policy.UsesOwnership()
	if ownedMode {
		if w := c.array.Peek(c.Line(op.Addr)); w != nil && w.State == LineOwned {
			// The line is registered here: execute at the L1. The
			// RMW is the linearization point; losing ownership later
			// cannot reorder it because the backing operation is
			// already done.
			c.Stats.LocalAtomics++
			old := ExecRMW(c.backing, op.AOp, op.Addr, op.B, op.C)
			c.localAtomics = append(c.localAtomics, localAtomic{
				at: c.cycle + localAtomicLat, op: op, old: old,
			})
			return
		}
	}
	c.toBank(Msg{Kind: AtomicReq, Addr: op.Addr, Op: op, Own: ownedMode})
}

// SelfInvalidate applies acquire semantics: every line that is neither
// pinned by a pending flush nor in a state the policy keeps (owned, under
// DeNovo) is dropped. Only sets flagged droppable are visited: Install and
// completeFlush, the two places a way can become droppable, flag its set.
// Called on acquire-atomic completion and at kernel launch.
func (c *CoreMem) SelfInvalidate() {
	c.array.dropUnkept(c.keep)
}

// FlushAll starts a kernel-end flush (release semantics, no atomic).
func (c *CoreMem) FlushAll() {
	c.startFlush(true)
	c.arm()
}

func (c *CoreMem) startFlush(release bool) {
	if c.flushing {
		if release {
			c.flushRelease = true
		}
		return
	}
	c.Stats.Flushes++
	if release {
		c.Stats.ReleaseFlushes++
	}
	c.flushing = true
	c.flushRelease = release
	// No flush was draining, so flushQ is empty.
	for _, line := range c.sb {
		c.flushQ.push(line)
	}
}

// Tick drains one flush line per cycle, dispatches release atomics once
// their flush has completed, and sends due messages. It reports whether
// tick-serviced work remains; a unit waiting only on fills or atomic
// responses sleeps and is re-armed by Deliver.
func (c *CoreMem) Tick(cycle uint64) bool {
	c.cycle = cycle
	if c.flushing && c.flushQ.len() > 0 {
		c.flushLine(c.flushQ.pop())
	}
	if c.flushing && c.flushQ.len() == 0 && c.acksWanted.Len() == 0 {
		c.pokeCore(cycle)
		c.flushing = false
		c.flushRelease = false
	}
	if !c.flushing && c.releaseQ.len() > 0 {
		c.sendAtomic(c.releaseQ.pop())
	}
	if len(c.localAtomics) > 0 {
		n := 0
		for _, la := range c.localAtomics {
			if la.at > cycle {
				c.localAtomics[n] = la
				n++
				continue
			}
			c.pokeCore(cycle)
			c.inflightAtomics--
			if la.op.Order.IsAcquire() {
				c.SelfInvalidate()
			}
			if c.OnAtomicDone != nil {
				c.OnAtomicDone(la.op, la.old)
			}
		}
		c.localAtomics = c.localAtomics[:n]
	}
	c.out.tick(cycle)
	return c.tickWork()
}

func (c *CoreMem) flushLine(line uint64) {
	w := c.array.Peek(line)
	state := LineValid
	if w != nil {
		state = w.State
	}
	switch c.policy.FlushLine(state) {
	case FlushNone:
		// Already owned: a release has nothing to do (DeNovo).
		c.Stats.FlushNoops++
		c.completeFlush(line)
	case FlushWriteThrough:
		c.Stats.WriteThroughs++
		c.acksWanted.Insert(line)
		c.toBank(Msg{Kind: WriteThrough, Addr: line})
	case FlushOwnReq:
		c.Stats.OwnReqs++
		c.acksWanted.Insert(line)
		c.toBank(Msg{Kind: OwnReq, Addr: line})
	}
}

// completeFlush retires one store buffer entry.
func (c *CoreMem) completeFlush(line uint64) {
	c.acksWanted.Remove(line)
	if c.sbSet.Remove(line) {
		for i, l := range c.sb {
			if l == line {
				c.sb = append(c.sb[:i], c.sb[i+1:]...)
				break
			}
		}
	}
	if w := c.array.Peek(line); w != nil {
		w.Dirty = false
		w.Pinned = false
		if c.keep&(1<<w.State) == 0 {
			c.array.markDroppable(line)
		}
	}
}

// Deliver handles a mesh message addressed to this core. now is the cycle
// timings reference: the mesh delivers before cores tick within a cycle, so
// the System passes the previous cycle — the unit's most recent tick
// opportunity — keeping response times and LRU stamps identical to a dense
// loop that ticked the unit every cycle.
//
// m is the mesh's own copy of the message in flight, valid for this call
// only; every kind is consumed here and nothing keeps the pointer.
func (c *CoreMem) Deliver(m *Msg, now uint64) {
	// The delivery happens during cycle now+1, before the core's tick.
	c.pokeCore(now + 1)
	c.cycle = now
	defer c.arm()
	switch m.Kind {
	case ReadResp:
		c.fill(m.Addr, m.Where)
	case WriteAck:
		c.completeFlush(m.Addr)
		if c.OnWriteAck != nil {
			c.OnWriteAck(m.Addr)
		}
	case OwnAck:
		if w := c.array.Peek(m.Addr); w != nil {
			w.State = LineOwned
		}
		c.completeFlush(m.Addr)
	case FwdRead:
		// Serve a remote reader from this L1 (DeNovo): respond
		// directly to the requestor. Answer even if the line has been
		// evicted in the meantime (the WbOwned is racing to the L2;
		// data is functionally in the backing store).
		c.Stats.RemoteServed++
		c.out.send(c.cycle+2, c.coreTile(int(m.Core)), noc.PortCore,
			&Msg{Kind: ReadResp, Addr: m.Addr, Where: core.WhereRemoteL1})
	case OwnTransfer:
		// Lost ownership to another core (the directory already acked
		// the new owner). Drop the line; if it had an unflushed entry
		// (a data race under DRF, but stay robust) retire the entry so
		// the flush cannot deadlock.
		if w := c.array.Peek(m.Addr); w != nil {
			c.array.Invalidate(m.Addr)
		}
		c.completeFlush(m.Addr)
	case AtomicResp:
		c.inflightAtomics--
		if m.Own {
			// Owned atomics: the bank registered us; install the
			// line owned so the next atomic runs locally. If no way
			// can be claimed, give the registration straight back
			// rather than leaving a dangling directory entry.
			line := c.Line(m.Addr)
			if w, victim, evicted := c.array.Install(line, c.cycle); w != nil {
				if evicted {
					c.evict(victim)
				}
				w.State = LineOwned
			} else {
				c.toBank(Msg{Kind: WbOwned, Addr: line})
			}
		}
		if m.Op.Order.IsAcquire() {
			c.SelfInvalidate()
		}
		if c.OnAtomicDone != nil {
			c.OnAtomicDone(m.Op, m.Old)
		}
	default:
		panic(fmt.Sprintf("mem: core %d: unexpected message %s", c.coreID, m.Kind))
	}
}

// fill completes an MSHR entry: install the line and finish every target.
// The primary target is charged where the response was serviced; merged
// secondaries are charged L1-coalescing per the paper's definition.
//
// A completion callback may start a miss, which can claim or shift the very
// slot being completed: the entry's targets leave the table (the merged ones
// by exchanging slice storage with c.filling) and the slot is freed before
// the first callback runs.
func (c *CoreMem) fill(line uint64, where core.DataWhere) {
	e := c.mshr.Find(line)
	if e == nil {
		// A fill for a line we no longer track (e.g. a FwdRead answer
		// arriving after invalidation): nothing to complete.
		return
	}
	primary := e.primary
	merged := e.secondaries
	e.secondaries, c.filling = c.filling[:0], nil
	c.mshr.Remove(line)
	install := !primary.NoL1
	for _, t := range merged {
		if !t.NoL1 {
			install = true
		}
	}
	if install {
		if _, victim, evicted := c.array.Install(line, c.cycle); evicted {
			c.evict(victim)
		}
	}
	if c.OnLoadDone != nil {
		c.OnLoadDone(primary, where)
		for _, t := range merged {
			c.OnLoadDone(t, core.WhereL1Coalescing)
		}
	}
	c.filling = merged
}

// NextEvent implements the engine's skip-ahead extension: the earliest
// cycle after now at which Tick has real work. A draining flush and a
// dispatchable release atomic are one-per-cycle work (next cycle); local
// atomics and the outbox carry their own due times; a flush waiting only on
// acks is external (the acks arrive through Deliver, which is bounded by
// the mesh's own next event).
func (c *CoreMem) NextEvent(now uint64) uint64 {
	if c.flushing && (c.flushQ.len() > 0 || c.acksWanted.Len() == 0) {
		// Either a line drains next cycle, or the flush is already
		// complete (an empty-buffer flush started after this unit's
		// tick) and the next tick must clear it — and possibly
		// dispatch a waiting release atomic.
		return now + 1
	}
	if !c.flushing && c.releaseQ.len() > 0 {
		return now + 1
	}
	next := c.out.nextDue()
	for _, la := range c.localAtomics {
		if la.at < next {
			next = la.at
		}
	}
	if next != noEvent && next <= now {
		return now + 1
	}
	return next
}

// Quiesced reports that no miss, flush, atomic, or outbound message is in
// flight.
func (c *CoreMem) Quiesced() bool {
	return c.mshr.Len() == 0 && !c.flushing && len(c.sb) == 0 &&
		c.releaseQ.len() == 0 && c.inflightAtomics == 0 && c.out.pending() == 0
}

// Diagnose describes pending work for engine deadlock dumps.
func (c *CoreMem) Diagnose() string {
	return fmt.Sprintf("mshr=%d sb=%d flushQ=%d acks=%d relQ=%d atomics=%d out=%d",
		c.mshr.Len(), len(c.sb), c.flushQ.len(), c.acksWanted.Len(),
		c.releaseQ.len(), c.inflightAtomics, c.out.pending())
}

// SBLen reports current store buffer occupancy (tests).
func (c *CoreMem) SBLen() int { return len(c.sb) }

// LineStateOf reports the L1 state of addr's line (tests).
func (c *CoreMem) LineStateOf(addr uint64) LineState {
	if w := c.array.Peek(c.Line(addr)); w != nil {
		return w.State
	}
	return LineInvalid
}
