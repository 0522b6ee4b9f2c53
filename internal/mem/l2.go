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
	id    int // bank id == tile index
	array *Array
	// owner is the DeNovo directory, line -> owning core. It stays a map:
	// its keys are every line ever registered, not the few in flight.
	owner     map[uint64]int
	backing   *Backing
	ctrl      *MemCtrl
	coreTile  func(core int) int
	accessLat uint64
	occupancy uint64
	busyUntil uint64

	// inQ is the bank's one input queue: mesh deliveries and the memory
	// controller's fills share it, in arrival order.
	inQ fifo[Msg]
	out outbox
	// pending holds, per line with a memory fill in flight, the ReadReqs
	// and AtomicReqs waiting on it as they arrived; filling is the list
	// fill is answering, already out of the table.
	pending LineTable[[]Msg]
	filling []Msg
	wake    func()

	// Stats.
	Hits, Misses, Forwards, Atomics, OwnershipChanges uint64
}

// NewL2Bank builds bank id with sizePerBank bytes of capacity.
func NewL2Bank(id, sizePerBank, assoc, lineSize int, accessLat int, backing *Backing,
	ctrl *MemCtrl, mesh *noc.Mesh[Msg], coreTile func(int) int) *L2Bank {
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
	}
}

// SetWaker installs the engine re-arm callback; Deliver invokes it so an
// idle bank resumes ticking when the mesh or the memory controller hands it
// a message.
func (b *L2Bank) SetWaker(wake func()) { b.wake = wake }

// Deliver receives a message from the mesh or a fill from the memory
// controller; processing happens in Tick. m is valid for this call only, so
// the queue takes a copy.
func (b *L2Bank) Deliver(m *Msg) {
	b.inQ.push(*m)
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
		b.process(&m, cycle)
	}
	b.out.tick(cycle)
	return b.inQ.len() > 0 || b.out.pending() > 0
}

func (b *L2Bank) process(m *Msg, cycle uint64) {
	switch m.Kind {
	case ReadReq:
		b.read(m, cycle)
	case WriteThrough:
		b.writeThrough(m, cycle)
	case OwnReq:
		b.ownReq(m, cycle)
	case WbOwned:
		// Owned line returned on eviction: clear registration and
		// install the data locally.
		if b.owner[m.Addr] == int(m.Core) {
			delete(b.owner, m.Addr)
		}
		b.array.Install(m.Addr, cycle)
	case AtomicReq:
		b.atomic(m, cycle)
	case memFill:
		b.fill(m.Addr, cycle)
	default:
		panic(fmt.Sprintf("mem: L2 bank %d: unexpected message %s", b.id, m.Kind))
	}
}

func (b *L2Bank) read(m *Msg, cycle uint64) {
	if owner, ok := b.owner[m.Addr]; ok && owner != int(m.Core) {
		// DeNovo: the up-to-date copy is registered in a remote L1;
		// forward after the full tag+directory access, the owner
		// responds directly to the requestor (the extra hop that makes
		// remote L1 hits slower than L2 hits).
		b.Forwards++
		b.out.send(cycle+b.accessLat, b.coreTile(owner), noc.PortCore,
			&Msg{Kind: FwdRead, Addr: m.Addr, Core: m.Core})
		return
	}
	if b.array.Lookup(m.Addr, cycle) != nil {
		b.Hits++
		b.respond(cycle, m.Core, &Msg{Kind: ReadResp, Addr: m.Addr, Where: core.WhereL2})
		return
	}
	b.Misses++
	b.miss(m.Addr, m)
}

// miss parks the request w on line's in-flight fill, issuing the fetch for
// the first one.
func (b *L2Bank) miss(line uint64, w *Msg) {
	waiters := b.pending.Find(line)
	if waiters == nil {
		waiters = b.pending.Insert(line)
		*waiters = (*waiters)[:0]
		b.ctrl.Request(line, b)
	}
	*waiters = append(*waiters, *w)
}

// fill completes an in-flight memory fetch: install the line and satisfy
// every waiter in arrival order. Like CoreMem.fill, it takes the waiters out
// of the table and frees the slot before answering the first.
func (b *L2Bank) fill(line uint64, cycle uint64) {
	b.array.Install(line, cycle)
	p := b.pending.Find(line)
	if p == nil {
		return
	}
	waiters := *p
	*p, b.filling = b.filling[:0], nil
	b.pending.Remove(line)
	for i := range waiters {
		if w := &waiters[i]; w.Kind == AtomicReq {
			b.finishAtomic(w, cycle)
		} else {
			b.respond(cycle, w.Core, &Msg{Kind: ReadResp, Addr: line, Where: core.WhereMemory})
		}
	}
	b.filling = waiters
}

func (b *L2Bank) writeThrough(m *Msg, cycle uint64) {
	// Write-through data supersedes any stale registration (should not
	// occur for data-race-free programs, but stay robust).
	if owner, ok := b.owner[m.Addr]; ok && owner == int(m.Core) {
		delete(b.owner, m.Addr)
	}
	b.array.Install(m.Addr, cycle)
	b.respond(cycle, m.Core, &Msg{Kind: WriteAck, Addr: m.Addr})
}

func (b *L2Bank) ownReq(m *Msg, cycle uint64) {
	prev, wasOwned := b.owner[m.Addr]
	b.owner[m.Addr] = int(m.Core)
	b.OwnershipChanges++
	if wasOwned && prev != int(m.Core) {
		// The directory is the serialization point: ack the new owner
		// immediately and invalidate the previous owner in parallel
		// (the old copy's data is already superseded by the new
		// owner's dirty words).
		b.out.send(cycle+b.accessLat/2, b.coreTile(prev), noc.PortCore,
			&Msg{Kind: OwnTransfer, Addr: m.Addr, Core: m.Core})
	}
	// The L2 copy is stale once a core owns the line.
	b.array.Invalidate(m.Addr)
	b.respond(cycle, m.Core, &Msg{Kind: OwnAck, Addr: m.Addr})
}

func (b *L2Bank) atomic(m *Msg, cycle uint64) {
	b.Atomics++
	line := m.Addr &^ (b.array.lineSize - 1)
	if m.Own {
		// Owned atomics: execute here, then register the requestor so
		// its next atomic to this line runs locally at its L1. A
		// previous owner is invalidated in parallel.
		if prev, ok := b.owner[line]; ok && prev != int(m.Core) {
			b.out.send(cycle+b.accessLat/2, b.coreTile(prev), noc.PortCore,
				&Msg{Kind: OwnTransfer, Addr: line, Core: m.Core})
		}
		b.owner[line] = int(m.Core)
		b.OwnershipChanges++
		b.array.Invalidate(line)
		b.finishAtomic(m, cycle)
		return
	}
	if _, ok := b.owner[line]; ok {
		// Atomics execute at the L2 in the baseline system (see
		// methodology: atomics are not owned). Values live in the
		// backing store, which the owner also updates, so executing
		// here stays functionally correct; we charge only the L2 path.
		b.finishAtomic(m, cycle)
		return
	}
	if b.array.Lookup(line, cycle) != nil {
		b.finishAtomic(m, cycle)
		return
	}
	b.miss(line, m)
}

// finishAtomic performs the read-modify-write and responds.
func (b *L2Bank) finishAtomic(m *Msg, cycle uint64) {
	op := &m.Op
	old := ExecRMW(b.backing, op.AOp, op.Addr, op.B, op.C)
	b.respond(cycle, m.Core, &Msg{Kind: AtomicResp, Addr: m.Addr, Old: old, Op: *op, Own: m.Own})
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

// respond sends m to a core once the bank's access latency has elapsed.
func (b *L2Bank) respond(cycle uint64, coreID int32, m *Msg) {
	b.out.send(cycle+b.accessLat, b.coreTile(int(coreID)), noc.PortCore, m)
}

// Owner exposes the directory for tests.
func (b *L2Bank) Owner(line uint64) (int, bool) {
	c, ok := b.owner[line]
	return c, ok
}

// Quiesced reports no queued work, in-flight fills, or undelivered
// responses.
func (b *L2Bank) Quiesced() bool {
	return b.inQ.len() == 0 && b.pending.Len() == 0 && b.out.pending() == 0
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
	return fmt.Sprintf("inq=%d fills=%d out=%d", b.inQ.len(), b.pending.Len(), b.out.pending())
}
