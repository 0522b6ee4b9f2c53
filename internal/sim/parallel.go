package sim

import (
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the parallel tick engine (EngineParallel): a tick
// pass that partitions the grouped components of the active set across a
// bounded worker pool while keeping results byte-identical to the serial
// engines. The pass has three phases:
//
//  1. Serial phase — the registration-order prefix of ungrouped ("hub")
//     components ticks exactly as under the serial engines. The hub holds
//     the components that exchange work with everyone in the same cycle
//     (the mesh, the memory controller, the L2 banks); running them first,
//     serially, means every delivery they make lands before any grouped
//     component observes the cycle.
//  2. Group phase — components registered with RegisterGroup tick on the
//     worker pool, whole groups at a time. Members of one group tick in
//     registration order on one worker. The component contract (see
//     docs/ARCHITECTURE.md) is that during this phase a component may only
//     touch its own group's state, thread-safe shared fabric (the memory
//     backing, the inspector's per-SM shards), and its own staging
//     buffers; every cross-group side effect — a mesh send, a wake of
//     another group, a shared-counter update — must be deferred to the
//     commit phase. Wakes targeting a component whose slot already passed
//     (or another group) are buffered and applied after the phase barrier;
//     waking is idempotent, so the application order cannot matter.
//  3. Commit phase — after the barrier, every Committer runs in
//     registration order on the main goroutine and applies its staged
//     side effects. Registration order is exactly the order the serial
//     engines would have produced those effects mid-tick, so downstream
//     state (mesh FIFO order, block handout order) is bit-for-bit the
//     same.
//
// Skip-ahead planning then runs unchanged on the merged active set: the
// parallel engine is the skip engine with a concurrent tick pass.
type Committer interface {
	// Commit applies the side effects the component staged during the
	// tick pass at cycle. It runs on the engine goroutine, in
	// registration order, and may freely send messages and wake other
	// components. Commit is called every parallel tick pass, staged work
	// or not, so implementations must make the empty case cheap.
	Commit(cycle uint64)
}

// cursorIdle marks a group that is not being processed by the current
// group phase: no member index ever compares >= to it, so wakes for its
// members take the buffered path.
const cursorIdle = math.MaxInt

// SetParallel sets the worker count for the parallel tick pass. Worker
// count is a pure wall-clock knob: results are identical for any value,
// including 1 (which runs the parallel phases inline on the engine
// goroutine). The pool is started by Run and stopped when Run returns.
func (e *Engine) SetParallel(workers int) { e.workers = workers }

// RegisterGroup appends a component to the tick order like Register and
// assigns it to a parallel tick group. Components sharing a group tick on
// one worker in registration order; distinct groups may tick concurrently
// during a parallel pass, so everything a grouped component touches
// mid-tick must stay within its group (see Committer). Under the serial
// engines the group is ignored and RegisterGroup behaves exactly like
// Register. All ungrouped (hub) components must be registered before the
// first grouped one — the parallel pass ticks the hub prefix serially
// before the group phase.
func (e *Engine) RegisterGroup(name string, c Component, group int) Handle {
	if group < 0 {
		panic("sim: RegisterGroup requires group >= 0")
	}
	return e.register(name, c, group)
}

// register is the shared registration path; group -1 marks a hub (serial
// phase) component.
func (e *Engine) register(name string, c Component, group int) Handle {
	if group < 0 && len(e.groups) > 0 {
		panic("sim: hub component " + name + " registered after grouped components (hub must be a registration prefix)")
	}
	id := len(e.comps)
	e.comps = append(e.comps, c)
	e.names = append(e.names, name)
	if id&63 == 0 {
		e.active = append(e.active, 0)
		e.parked = append(e.parked, 0)
	}
	w, mask := bitOf(id)
	e.active[w] |= mask
	e.activeCount++
	e.parkUntil = append(e.parkUntil, NoEvent)
	ne, _ := c.(NextEventer)
	e.nexters = append(e.nexters, ne)
	cm, _ := c.(Committer)
	e.committers = append(e.committers, cm)
	e.compGroup = append(e.compGroup, group)
	if group >= 0 {
		for len(e.groups) <= group {
			e.groups = append(e.groups, nil)
			e.groupCursor = append(e.groupCursor, cursorIdle)
			e.groupDelta = append(e.groupDelta, 0)
			e.groupVisits = append(e.groupVisits, 0)
		}
		e.memberIdx = append(e.memberIdx, len(e.groups[group]))
		e.groups[group] = append(e.groups[group], id)
	} else {
		e.memberIdx = append(e.memberIdx, 0)
		e.hubLen = id + 1
	}
	return Handle{e: e, id: id}
}

// stepParallel executes one parallel tick pass (the EngineParallel body of
// Step): serial hub prefix, concurrent group phase, then the
// registration-order commit phase. Wall time is attributed per phase into
// EngineStats.PhaseNanos — a pure measurement (a few clock reads per pass,
// dwarfed by the pool barriers) that never influences scheduling.
func (e *Engine) stepParallel() {
	cycle := e.cycle
	t0 := time.Now()
	// Phase 1: hub components, serial, exactly the serial engines' loop.
	for i := 0; i < e.hubLen; i++ {
		if !e.isActive(i) {
			continue
		}
		w, mask := bitOf(i)
		e.active[w] &^= mask
		e.activeCount--
		e.stats.Visits++
		if e.comps[i].Tick(cycle) && e.active[w]&mask == 0 {
			e.active[w] |= mask
			e.activeCount++
		}
	}
	t1 := time.Now()
	// Phase 2: grouped components on the pool.
	if len(e.groups) > 0 {
		e.runGroupPhase(cycle)
	}
	t2 := time.Now()
	// Phase 3: staged side effects, registration order.
	for _, cm := range e.committers {
		if cm != nil {
			cm.Commit(cycle)
		}
	}
	t3 := time.Now()
	hub, group, commit := t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	e.stats.PhaseNanos.Hub += uint64(hub)
	e.stats.PhaseNanos.Group += uint64(group)
	e.stats.PhaseNanos.Commit += uint64(commit)
	if e.obs != nil {
		e.obs.TickPhases(cycle, int64(hub), int64(group), int64(commit))
	}
}

// runGroupPhase ticks every group holding at least one active component.
// The active-group list is a pure function of the active set, and the
// inline fallback (single worker, or fewer than two active groups) runs
// the identical code on the engine goroutine, so scheduling never leaks
// into results.
func (e *Engine) runGroupPhase(cycle uint64) {
	act := e.activeGroups[:0]
	for g, members := range e.groups {
		for _, i := range members {
			if e.isActive(i) {
				act = append(act, g)
				break
			}
		}
	}
	e.activeGroups = act
	if len(act) == 0 {
		return
	}
	e.inParallel = true
	if e.pool == nil || len(act) < 2 {
		for _, g := range act {
			e.runGroup(g, cycle)
		}
	} else {
		e.pool.run(e, act, cycle)
	}
	e.inParallel = false
	// Merge: fold the per-group active-count deltas, then apply buffered
	// wakes. Waking is idempotent (a flag set), so the buffer's arrival
	// order — the only schedule-dependent state of the pass — cannot
	// influence the merged result.
	for _, g := range act {
		e.activeCount += e.groupDelta[g]
		e.groupDelta[g] = 0
		e.stats.Visits += e.groupVisits[g]
		e.groupVisits[g] = 0
	}
	for _, id := range e.stagedWakes {
		if w, mask := bitOf(id); e.active[w]&mask == 0 {
			e.active[w] |= mask
			e.activeCount++
		}
	}
	e.stagedWakes = e.stagedWakes[:0]
}

// runGroup ticks one group's members in registration order, applying the
// serial engine's deactivate-tick-reactivate bookkeeping with the
// active-count delta accumulated per group (only this worker touches it).
// The cursor publishes the member currently ticking so same-group forward
// wakes (a member arming a later member, or itself) take effect within
// this pass exactly as they would mid-loop under the serial engines. Groups
// on different workers share words of the active bitmap, so during the group
// phase bits are tested and flipped atomically; each bit still has one
// writer, the worker that owns its group.
func (e *Engine) runGroup(g int, cycle uint64) {
	members := e.groups[g]
	for idx, i := range members {
		e.groupCursor[g] = idx
		if !flipBit(e.active, i, false) {
			continue
		}
		e.groupDelta[g]--
		e.groupVisits[g]++
		if e.comps[i].Tick(cycle) && flipBit(e.active, i, true) {
			e.groupDelta[g]++
		}
	}
	e.groupCursor[g] = cursorIdle
}

// flipBit atomically sets bit i of the bitmap to on and reports whether that
// changed it.
func flipBit(bitmap []uint64, i int, on bool) (changed bool) {
	w, mask := bitOf(i)
	p := &bitmap[w]
	for {
		old := atomic.LoadUint64(p)
		if (old&mask != 0) == on {
			return false
		}
		if atomic.CompareAndSwapUint64(p, old, old^mask) {
			return true
		}
	}
}

// parallelWake is Handle.Wake's group-phase path. A forward wake within
// the group currently ticking on the calling worker is applied directly —
// the target's slot has not passed, matching the serial engines' same-
// cycle semantics. Everything else (later groups, passed slots, hub
// components) is buffered and applied after the barrier, which is when a
// serial pass would next let the target tick anyway.
func (e *Engine) parallelWake(id int) {
	if g := e.compGroup[id]; g >= 0 && e.memberIdx[id] >= e.groupCursor[g] {
		if flipBit(e.active, id, true) {
			e.groupDelta[g]++
		}
		return
	}
	e.wakeMu.Lock()
	e.stagedWakes = append(e.stagedWakes, id)
	e.wakeMu.Unlock()
}

// tickPool is the persistent worker pool behind the group phase. Workers
// are assigned active groups round-robin by position; the engine
// goroutine takes stripe 0 itself, so -parallel-ticks N costs N-1
// goroutines. Channel handoffs give the usual happens-before edges: pass
// state written before the kick is visible to workers, worker writes are
// visible to the engine after the barrier.
type tickPool struct {
	n     int // total workers including the engine goroutine
	kicks []chan struct{}
	wg    sync.WaitGroup
	quit  chan struct{}

	// pass state, written by the engine goroutine before kicking
	eng   *Engine
	act   []int
	cycle uint64

	// Panic containment: a component panic on a worker goroutine would
	// kill the whole process (a goroutine panic cannot be recovered by
	// anyone else), so every stripe runs under a recover that parks the
	// first panic here; run re-throws it on the engine goroutine after
	// the barrier, where the caller's own recover (the sweep pool, the
	// serve layer) can contain it to one simulation.
	panicMu    sync.Mutex
	panicVal   any
	panicStack []byte
}

// PanicError is the value re-panicked on the engine goroutine when a
// parallel tick-pass worker panicked: the original panic value plus the
// worker's stack at the point of failure, which would otherwise be lost
// with the worker goroutine.
type PanicError struct {
	// Value is the original panic value.
	Value any
	// Stack is the panicking worker's stack trace.
	Stack []byte
}

// Error renders the original panic value and the worker stack.
func (p *PanicError) Error() string {
	return fmt.Sprintf("panic on parallel tick worker: %v\n%s", p.Value, p.Stack)
}

func newTickPool(workers int) *tickPool {
	p := &tickPool{n: workers, quit: make(chan struct{})}
	for w := 1; w < workers; w++ {
		kick := make(chan struct{}, 1)
		p.kicks = append(p.kicks, kick)
		go p.worker(w, kick)
	}
	return p
}

func (p *tickPool) worker(w int, kick chan struct{}) {
	for {
		select {
		case <-kick:
			p.runStripe(w)
			p.wg.Done()
		case <-p.quit:
			return
		}
	}
}

// runStripe ticks this worker's round-robin share of the active groups,
// containing any component panic to the pool's panic slot (first panic
// wins; later ones on other stripes describe the same broken pass).
func (p *tickPool) runStripe(w int) {
	defer func() {
		if r := recover(); r != nil {
			p.panicMu.Lock()
			if p.panicVal == nil {
				p.panicVal = r
				p.panicStack = debug.Stack()
			}
			p.panicMu.Unlock()
		}
	}()
	for j := w; j < len(p.act); j += p.n {
		p.eng.runGroup(p.act[j], p.cycle)
	}
}

// run executes one group phase across the pool and blocks until every
// group has ticked. A panic captured on any stripe is re-thrown here, on
// the engine goroutine, as a *PanicError — after the barrier, so no worker
// is still touching engine state while the caller unwinds.
func (p *tickPool) run(e *Engine, act []int, cycle uint64) {
	p.eng, p.act, p.cycle = e, act, cycle
	p.wg.Add(len(p.kicks))
	for _, kick := range p.kicks {
		kick <- struct{}{}
	}
	p.runStripe(0)
	p.wg.Wait()
	if p.panicVal != nil {
		err := &PanicError{Value: p.panicVal, Stack: p.panicStack}
		p.panicVal, p.panicStack = nil, nil
		panic(err)
	}
}

// stop terminates the pool's goroutines.
func (p *tickPool) stop() { close(p.quit) }

// startPool brings the worker pool up for a Run in parallel mode; Run
// tears it down on return so engines never leak goroutines.
func (e *Engine) startPool() {
	if e.mode == EngineParallel && e.workers >= 2 && e.pool == nil {
		e.pool = newTickPool(e.workers)
	}
}

func (e *Engine) stopPool() {
	if e.pool != nil {
		e.pool.stop()
		e.pool = nil
	}
}
