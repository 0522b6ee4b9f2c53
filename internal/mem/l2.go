package mem

import (
	"fmt"

	"gsi/internal/core"
	"gsi/internal/isa"
	"gsi/internal/noc"
)

// L2Bank is one NUCA bank of the shared last-level cache. It owns a slice
// of the address space (line interleaved), the DeNovo ownership directory
// for that slice, and the atomic execution unit (all atomics in the
// simulated system execute at the L2).
//
// The bank processes one delivered message per occupancy period and answers
// after its access latency via the outbox, so end-to-end L2 hit latency is
// network distance + queueing + access latency — the 29-61 cycle range of
// Table 5.1.
type L2Bank struct {
	id        int // bank id == tile index
	array     *Array
	owner     map[uint64]int // line -> owning core (DeNovo registration)
	backing   *Backing
	ctrl      *MemCtrl
	coreTile  func(core int) int
	accessLat uint64
	occupancy uint64
	busyUntil uint64

	inQ     fifo[any]
	out     outbox
	pending map[uint64]*l2Miss
	wake    func()

	// Stats.
	Hits, Misses, Forwards, Atomics, OwnershipChanges uint64
}

// l2Miss tracks requestors waiting on one in-flight memory fill.
type l2Miss struct {
	waiters []l2Waiter
}

// l2Waiter is one blocked request: a plain read (atomic == nil) or an
// atomic continuation executed on fill.
type l2Waiter struct {
	core   int
	atomic *AtomicReq
}

// NewL2Bank builds bank id with sizePerBank bytes of capacity.
func NewL2Bank(id, sizePerBank, assoc, lineSize int, accessLat int, backing *Backing,
	ctrl *MemCtrl, mesh *noc.Mesh, coreTile func(int) int) *L2Bank {
	return &L2Bank{
		id:        id,
		array:     NewArray(sizePerBank, assoc, lineSize),
		owner:     make(map[uint64]int),
		backing:   backing,
		ctrl:      ctrl,
		coreTile:  coreTile,
		accessLat: uint64(accessLat),
		occupancy: 2,
		out:       outbox{mesh: mesh, from: id},
		pending:   make(map[uint64]*l2Miss),
	}
}

// SetWaker installs the engine re-arm callback; Deliver invokes it so an
// idle bank resumes ticking when the mesh or the memory controller hands it
// a message.
func (b *L2Bank) SetWaker(wake func()) { b.wake = wake }

// Deliver receives a message from the mesh; processing happens in Tick.
func (b *L2Bank) Deliver(payload any) {
	b.inQ.push(payload)
	if b.wake != nil {
		b.wake()
	}
}

// Tick processes at most one queued message per occupancy period and
// flushes due responses. It reports whether queued messages or undelivered
// responses remain; in-flight memory fills re-arm the bank via Deliver.
func (b *L2Bank) Tick(cycle uint64) bool {
	if b.inQ.len() > 0 && cycle >= b.busyUntil {
		m := b.inQ.pop()
		b.busyUntil = cycle + b.occupancy
		b.process(m, cycle)
	}
	b.out.tick(cycle)
	return b.inQ.len() > 0 || b.out.pending() > 0
}

func (b *L2Bank) process(m any, cycle uint64) {
	switch msg := m.(type) {
	case ReadReq:
		b.read(msg, cycle)
	case WriteThrough:
		b.writeThrough(msg, cycle)
	case OwnReq:
		b.ownReq(msg, cycle)
	case WbOwned:
		// Owned line returned on eviction: clear registration and
		// install the data locally.
		if b.owner[msg.Line] == msg.Requestor {
			delete(b.owner, msg.Line)
		}
		b.array.Install(msg.Line, cycle)
	case AtomicReq:
		b.atomic(msg, cycle)
	case memFill:
		b.fill(msg.line, cycle)
	default:
		panic(fmt.Sprintf("mem: L2 bank %d: unexpected message %T", b.id, m))
	}
}

// memFill is the internal event the memory controller posts back to the
// bank when a fill completes.
type memFill struct{ line uint64 }

func (b *L2Bank) read(msg ReadReq, cycle uint64) {
	if owner, ok := b.owner[msg.Line]; ok && owner != msg.Requestor {
		// DeNovo: the up-to-date copy is registered in a remote L1;
		// forward after the full tag+directory access, the owner
		// responds directly to the requestor (the extra hop that makes
		// remote L1 hits slower than L2 hits).
		b.Forwards++
		b.out.send(cycle+b.accessLat, b.coreTile(owner), noc.PortCore,
			FwdRead{Line: msg.Line, Requestor: msg.Requestor})
		return
	}
	if b.array.Lookup(msg.Line, cycle) != nil {
		b.Hits++
		b.respond(cycle, msg.Requestor, ReadResp{Line: msg.Line, Where: core.WhereL2})
		return
	}
	b.Misses++
	b.miss(msg.Line, l2Waiter{core: msg.Requestor})
}

// miss coalesces waiters on an in-flight fill, issuing the fetch for the
// first one.
func (b *L2Bank) miss(line uint64, w l2Waiter) {
	if p, ok := b.pending[line]; ok {
		p.waiters = append(p.waiters, w)
		return
	}
	b.pending[line] = &l2Miss{waiters: []l2Waiter{w}}
	b.ctrl.Request(line, func(l uint64) { b.Deliver(memFill{line: l}) })
}

// fill completes an in-flight memory fetch: install the line and satisfy
// every waiter in arrival order.
func (b *L2Bank) fill(line uint64, cycle uint64) {
	b.array.Install(line, cycle)
	p := b.pending[line]
	if p == nil {
		return
	}
	delete(b.pending, line)
	for _, w := range p.waiters {
		if w.atomic != nil {
			b.finishAtomic(*w.atomic, cycle)
			continue
		}
		b.respond(cycle, w.core, ReadResp{Line: line, Where: core.WhereMemory})
	}
}

func (b *L2Bank) writeThrough(msg WriteThrough, cycle uint64) {
	// Write-through data supersedes any stale registration (should not
	// occur for data-race-free programs, but stay robust).
	if owner, ok := b.owner[msg.Line]; ok && owner == msg.Requestor {
		delete(b.owner, msg.Line)
	}
	b.array.Install(msg.Line, cycle)
	b.respond(cycle, msg.Requestor, WriteAck{Line: msg.Line})
}

func (b *L2Bank) ownReq(msg OwnReq, cycle uint64) {
	prev, wasOwned := b.owner[msg.Line]
	b.owner[msg.Line] = msg.Requestor
	b.OwnershipChanges++
	if wasOwned && prev != msg.Requestor {
		// The directory is the serialization point: ack the new owner
		// immediately and invalidate the previous owner in parallel
		// (the old copy's data is already superseded by the new
		// owner's dirty words).
		b.out.send(cycle+b.accessLat/2, b.coreTile(prev), noc.PortCore,
			OwnTransfer{Line: msg.Line, NewOwner: msg.Requestor})
	}
	// The L2 copy is stale once a core owns the line.
	b.array.Invalidate(msg.Line)
	b.respond(cycle, msg.Requestor, OwnAck{Line: msg.Line})
}

func (b *L2Bank) atomic(msg AtomicReq, cycle uint64) {
	b.Atomics++
	line := msg.Addr &^ (b.array.lineSize - 1)
	if msg.TakeOwnership {
		// Owned atomics: execute here, then register the requestor so
		// its next atomic to this line runs locally at its L1. A
		// previous owner is invalidated in parallel.
		if prev, ok := b.owner[line]; ok && prev != msg.Requestor {
			b.out.send(cycle+b.accessLat/2, b.coreTile(prev), noc.PortCore,
				OwnTransfer{Line: line, NewOwner: msg.Requestor})
		}
		b.owner[line] = msg.Requestor
		b.OwnershipChanges++
		b.array.Invalidate(line)
		b.finishAtomic(msg, cycle)
		return
	}
	if _, ok := b.owner[line]; ok {
		// Atomics execute at the L2 in the baseline system (see
		// methodology: atomics are not owned). Values live in the
		// backing store, which the owner also updates, so executing
		// here stays functionally correct; we charge only the L2 path.
		b.finishAtomic(msg, cycle)
		return
	}
	if b.array.Lookup(line, cycle) != nil {
		b.finishAtomic(msg, cycle)
		return
	}
	// Copy here so only a miss heap-allocates the request: taking &msg
	// would make the parameter escape on every call, hits included.
	m := msg
	b.miss(line, l2Waiter{core: m.Requestor, atomic: &m})
}

// finishAtomic performs the read-modify-write and responds.
func (b *L2Bank) finishAtomic(msg AtomicReq, cycle uint64) {
	old := ExecRMW(b.backing, msg.AOp, msg.Addr, msg.B, msg.C)
	b.respond(cycle, msg.Requestor, AtomicResp{
		Addr: msg.Addr, Old: old, Op: msg.Op, Granted: msg.TakeOwnership,
	})
}

// ExecRMW executes one atomic read-modify-write against the functional
// backing store and returns the old value. Shared by the L2 banks and the
// owned-atomics fast path at the L1.
func ExecRMW(backing *Backing, op isa.Op, addr, b2, c uint64) uint64 {
	switch op {
	case isa.OpAtomCAS:
		return backing.CAS64(addr, b2, c)
	case isa.OpAtomExch:
		return backing.Exch64(addr, b2)
	case isa.OpAtomAdd:
		return backing.Add64(addr, b2)
	}
	panic(fmt.Sprintf("mem: bad atomic op %s", op))
}

func (b *L2Bank) respond(cycle uint64, coreID int, payload any) {
	b.out.send(cycle+b.accessLat, b.coreTile(coreID), noc.PortCore, payload)
}

// Owner exposes the directory for tests.
func (b *L2Bank) Owner(line uint64) (int, bool) {
	c, ok := b.owner[line]
	return c, ok
}

// Quiesced reports no queued work, in-flight fills, or undelivered
// responses.
func (b *L2Bank) Quiesced() bool {
	return b.inQ.len() == 0 && len(b.pending) == 0 && b.out.pending() == 0
}

// NextEvent implements the engine's skip-ahead extension: the earliest
// cycle after now at which the bank can process a queued message (once its
// occupancy window ends) or inject a due response. In-flight memory fills
// re-arm the bank through Deliver and are therefore external.
func (b *L2Bank) NextEvent(now uint64) uint64 {
	next := b.out.nextDue()
	if b.inQ.len() > 0 {
		t := b.busyUntil
		if t < now+1 {
			t = now + 1
		}
		if t < next {
			next = t
		}
	}
	if next != noEvent && next <= now {
		return now + 1
	}
	return next
}

// Diagnose describes pending work for engine deadlock dumps.
func (b *L2Bank) Diagnose() string {
	return fmt.Sprintf("inq=%d fills=%d out=%d", b.inQ.len(), len(b.pending), b.out.pending())
}
