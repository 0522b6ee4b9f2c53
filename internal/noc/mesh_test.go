package noc

import (
	"fmt"
	"math/bits"
	"strings"
	"testing"
	"testing/quick"
)

// delivery is one logged ejection; the payload is copied out of the pointer
// the handler is lent.
type delivery[P comparable] struct {
	tile    int
	port    Port
	payload P
	cycle   uint64
}

// testMesh builds a mesh whose deliveries append to a slice.
func testMesh[P comparable](w, h int) (*Mesh[P], *[]delivery[P]) {
	var got []delivery[P]
	m := New(w, h, 1, 1, func(cycle uint64, tile int, port Port, payload *P) {
		got = append(got, delivery[P]{tile, port, *payload, cycle})
	})
	return m, &got
}

func runCycles[P any](m *Mesh[P], from, n uint64) {
	for c := from; c < from+n; c++ {
		m.Tick(c)
	}
}

// wheelErr checks the invariants Tick and NextEvent rest on, for a mesh whose
// last Tick or Send was at cycle now: every nonempty queue is marked in
// exactly one slot, at a cycle no earlier than its head's readyAt and at most
// linkLat+routerLat ahead (so no two pending cycles share a slot); empty
// queues and unused positions are unmarked (a stale mark would pop an empty
// queue, a missing one would strand a message); each slot's count matches its
// bits; and due is the earliest marked cycle, so NextEvent is neither late nor
// needlessly early.
func wheelErr[P any](m *Mesh[P], now uint64) error {
	markedAt := map[int]uint64{} // pos -> the cycle its mark stands for
	due := noEvent
	for s := range m.marks {
		// The one cycle in (now, now+slots] that slot s stands for.
		d := now + 1 + (uint64(s)-now-1)&m.mask
		n := 0
		for w, word := range m.wheel[s*m.words : (s+1)*m.words] {
			for ; word != 0; word &= word - 1 {
				pos := w<<6 | bits.TrailingZeros64(word)
				tile, dir := pos>>posShift, pos&(1<<posShift-1)
				if tile >= len(m.routers) || dir >= numDirs {
					return fmt.Errorf("slot %d marks unused position (%d,%d)", s, tile, dir)
				}
				if prev, ok := markedAt[pos]; ok {
					return fmt.Errorf("queue (%d,%d) marked at cycles %d and %d", tile, dir, prev, d)
				}
				markedAt[pos] = d
				due = min(due, d)
				n++
			}
		}
		if n != m.marks[s] {
			return fmt.Errorf("slot %d holds %d marks, counted %d", s, n, m.marks[s])
		}
	}
	for tile := range m.routers {
		for dir := 0; dir < numDirs; dir++ {
			q := &m.routers[tile].out[dir]
			d, marked := markedAt[posOf(tile, dir)]
			switch {
			case marked != (q.n > 0):
				return fmt.Errorf("queue (%d,%d): marked %v, %d buffered", tile, dir, marked, q.n)
			case !marked:
			case d < q.buf[q.head].readyAt:
				return fmt.Errorf("queue (%d,%d) marked at %d, before its head's readyAt %d", tile, dir, d, q.buf[q.head].readyAt)
			case d > now+m.linkLat+m.routerLat:
				return fmt.Errorf("queue (%d,%d) marked at %d, more than %d+%d cycles after %d", tile, dir, d, m.linkLat, m.routerLat, now)
			}
		}
	}
	if m.due != due {
		return fmt.Errorf("due = %d, earliest mark %d", m.due, due)
	}
	return nil
}

func TestMeshDistance(t *testing.T) {
	m, _ := testMesh[int](4, 4)
	tests := []struct{ a, b, want int }{
		{0, 0, 0}, {0, 1, 1}, {0, 4, 1}, {0, 5, 2}, {0, 15, 6}, {3, 12, 6},
	}
	for _, tt := range tests {
		if got := m.Distance(tt.a, tt.b); got != tt.want {
			t.Errorf("Distance(%d,%d) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestMeshDeliveryAndLatency(t *testing.T) {
	m, got := testMesh[string](4, 4)
	m.Send(0, 0, 0, PortL2, "local")
	runCycles(m, 0, 5)
	if len(*got) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(*got))
	}
	d := (*got)[0]
	if d.tile != 0 || d.port != PortL2 || d.payload != "local" {
		t.Fatalf("delivery = %+v", d)
	}
	localLat := d.cycle

	// A remote message takes longer, by roughly 2 cycles per hop.
	*got = (*got)[:0]
	m.Send(5, 0, 15, PortCore, "far")
	runCycles(m, 5, 40)
	if len(*got) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(*got))
	}
	farLat := (*got)[0].cycle - 5
	wantMin := uint64(2 * m.Distance(0, 15)) // link+router per hop
	if farLat < wantMin {
		t.Errorf("far latency %d < expected minimum %d", farLat, wantMin)
	}
	if farLat <= localLat {
		t.Errorf("far latency %d not greater than local %d", farLat, localLat)
	}
}

func TestMeshXYOrderingPreserved(t *testing.T) {
	// Two messages on the same path arrive in send order (link FIFOs).
	m, got := testMesh[int](4, 4)
	m.Send(0, 0, 3, PortL2, 1)
	m.Send(0, 0, 3, PortL2, 2)
	runCycles(m, 0, 30)
	if len(*got) != 2 {
		t.Fatalf("deliveries = %d, want 2", len(*got))
	}
	if (*got)[0].payload != 1 || (*got)[1].payload != 2 {
		t.Fatalf("out of order: %+v", *got)
	}
	if (*got)[1].cycle <= (*got)[0].cycle {
		t.Fatalf("no serialization: %d then %d", (*got)[0].cycle, (*got)[1].cycle)
	}
}

func TestMeshContentionSerializes(t *testing.T) {
	// Ejection bandwidth is one message per tile per cycle: n messages to
	// the same tile take at least n cycles to deliver.
	m, got := testMesh[int](4, 4)
	const n = 8
	for i := 0; i < n; i++ {
		m.Send(0, i%4, 5, PortL2, i)
	}
	runCycles(m, 0, 60)
	if len(*got) != n {
		t.Fatalf("deliveries = %d, want %d", len(*got), n)
	}
	first, last := (*got)[0].cycle, (*got)[n-1].cycle
	if last-first < n/2 {
		t.Errorf("contention did not serialize: first %d last %d", first, last)
	}
}

func TestMeshStatsAndQuiesce(t *testing.T) {
	m, _ := testMesh[string](2, 2)
	if !m.Quiesced() {
		t.Fatal("fresh mesh not quiesced")
	}
	m.Send(0, 0, 3, PortCore, "x")
	if m.Quiesced() {
		t.Fatal("mesh quiesced with message in flight")
	}
	runCycles(m, 0, 20)
	if !m.Quiesced() {
		t.Fatal("mesh not quiesced after delivery")
	}
	if m.Stats.Injected != 1 || m.Stats.Messages != 1 {
		t.Fatalf("stats = %+v", m.Stats)
	}
	if m.Stats.Hops != uint64(m.Distance(0, 3)) {
		t.Fatalf("hops = %d, want %d", m.Stats.Hops, m.Distance(0, 3))
	}
}

func TestMeshSendValidation(t *testing.T) {
	m, _ := testMesh[int](2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range tile")
		}
	}()
	m.Send(0, 0, 9, PortL2, 0)
}

// sendEv is one scheduled injection of the NextEvent replay tests; its
// payload is its index in the schedule.
type sendEv struct {
	cycle    uint64
	src, dst int
	port     Port
}

// replay drives a fresh 4x4 mesh through sched (sorted by cycle). Every Send
// lands after its own cycle's Tick — the engine's order, the mesh being
// registered first. With every set the mesh ticks each cycle; otherwise it
// ticks only at the cycles its own NextEvent named and at injection cycles,
// as under the skip engine. It returns the delivery log, the final stats
// and the number of ticks taken.
func replay(t *testing.T, linkLat, routerLat int, sched []sendEv, every bool) ([]delivery[int], Stats, int) {
	t.Helper()
	var got []delivery[int]
	m := New(4, 4, linkLat, routerLat, func(cycle uint64, tile int, port Port, payload *int) {
		got = append(got, delivery[int]{tile, port, *payload, cycle})
	})
	ticks, i := 0, 0
	for c := uint64(0); ; {
		m.Tick(c)
		ticks++
		if err := wheelErr(m, c); err != nil {
			t.Fatalf("after Tick %d: %v", c, err)
		}
		for ; i < len(sched) && sched[i].cycle == c; i++ {
			m.Send(c, sched[i].src, sched[i].dst, sched[i].port, i)
			if err := wheelErr(m, c); err != nil {
				t.Fatalf("after Send %d at cycle %d: %v", i, c, err)
			}
		}
		next := m.NextEvent(c)
		if m.Quiesced() != (next == noEvent) {
			t.Fatalf("cycle %d: NextEvent = %d with %d in flight", c, next, m.Stats.InFlight)
		}
		if next <= c {
			t.Fatalf("cycle %d: NextEvent = %d, not strictly in the future", c, next)
		}
		if every {
			next = c + 1
		}
		if i < len(sched) && sched[i].cycle < next {
			next = sched[i].cycle
		}
		if i == len(sched) && m.Quiesced() {
			return got, m.Stats, ticks
		}
		if c = next; c > 1_000_000 {
			t.Fatalf("mesh did not quiesce: %+v", m.Stats)
		}
	}
}

// checkNeverLate replays sched on a mesh ticked every cycle and on one
// ticked only when its NextEvent says so: a NextEvent that ever named a
// cycle later than the mesh's true next movement would delay or reorder a
// delivery in the second. It returns both tick counts.
func checkNeverLate(t *testing.T, label string, linkLat, routerLat int, sched []sendEv) (dense, sparse int) {
	t.Helper()
	wantLog, wantStats, dense := replay(t, linkLat, routerLat, sched, true)
	gotLog, gotStats, sparse := replay(t, linkLat, routerLat, sched, false)
	if len(gotLog) != len(sched) || len(wantLog) != len(sched) {
		t.Fatalf("%s: delivered %d (event-driven) and %d (every cycle) of %d",
			label, len(gotLog), len(wantLog), len(sched))
	}
	for i := range wantLog {
		if gotLog[i] != wantLog[i] {
			t.Fatalf("%s: delivery %d diverges: event-driven %+v, every-cycle %+v",
				label, i, gotLog[i], wantLog[i])
		}
	}
	if gotStats != wantStats {
		t.Fatalf("%s: stats diverge: event-driven %+v, every-cycle %+v", label, gotStats, wantStats)
	}
	return dense, sparse
}

// TestMeshNextEventNeverLate is the NextEvent contract itself: ticking a
// mesh only at the cycles it names must change nothing observable — the
// (cycle, tile, port, payload) delivery sequence and the traffic stats —
// for randomized schedules of bursts and quiet gaps. The latency pairs sit
// on every wheel-size boundary: a link+router of one below a power of two
// fills its wheel ({0,1}, {2,1}: marks up to slots-1 cycles ahead plus the
// slot being walked), one at a power of two starts the next size ({1,1},
// {1,3}, {4,4}), and {3,2} lands between.
func TestMeshNextEventNeverLate(t *testing.T) {
	lats := []struct{ link, router, slots int }{
		{0, 1, 2}, {1, 1, 4}, {2, 1, 4}, {1, 3, 8}, {3, 2, 8}, {4, 4, 16},
	}
	for _, l := range lats {
		if got := len(New(1, 1, l.link, l.router, func(uint64, int, Port, *int) {}).marks); got != l.slots {
			t.Fatalf("link %d + router %d: %d wheel slots, want %d", l.link, l.router, got, l.slots)
		}
	}
	var dense, sparse int
	for seed := 1; seed <= 48; seed++ {
		rng := xorshift(uint64(seed) * 0x9E3779B97F4A7C15)
		lat := lats[seed%len(lats)]
		var sched []sendEv
		for c := uint64(0); len(sched) < 150; c += 1 + rng.next(25) {
			for n := rng.next(6); n > 0; n-- {
				sched = append(sched, sendEv{c, int(rng.next(16)), int(rng.next(16)), Port(rng.next(2))})
			}
		}
		d, s := checkNeverLate(t, fmt.Sprintf("seed %d (link %d, router %d)", seed, lat.link, lat.router), lat.link, lat.router, sched)
		dense, sparse = dense+d, sparse+s
	}
	// Vacuous unless the event-driven mesh actually slept.
	if sparse >= dense {
		t.Fatalf("event-driven meshes ticked %d times, every-cycle ones %d", sparse, dense)
	}
}

// TestMeshNextEventFIFOInversion: a message injected behind one that just
// hopped in is due earlier than the queue's head but cannot move before
// it. NextEvent names the head's cycle, and sleeping until then loses
// nothing.
func TestMeshNextEventFIFOInversion(t *testing.T) {
	m, _ := testMesh[string](4, 1)
	m.Send(0, 0, 3, PortL2, "hopped")
	m.Tick(0)
	m.Tick(1)                           // pops (0,E) into (1,E), due at 1+link+router = 3
	m.Send(1, 1, 3, PortL2, "injected") // queued behind it, due at 1+router = 2
	q := &m.routers[1].out[dirEast]
	if q.n != 2 || q.buf[q.head].readyAt != 3 || q.buf[(q.head+1)&(len(q.buf)-1)].readyAt != 2 {
		t.Fatalf("queue (1,E) does not hold the inversion: %+v", q)
	}
	if next := m.NextEvent(1); next != 3 {
		t.Fatalf("NextEvent = %d, want the head's due cycle 3", next)
	}
	checkNeverLate(t, "inversion", 1, 1, []sendEv{{0, 0, 3, PortL2}, {1, 1, 3, PortL2}})
}

// TestMeshHandlerMaySendIntoVacatedSlot: what a handler is lent stays intact
// while it sends, even when the send lands in the ring slot the delivered
// message has just left — a full local queue whose handler answers to its own
// tile.
func TestMeshHandlerMaySendIntoVacatedSlot(t *testing.T) {
	var m *Mesh[int]
	var seen []int
	m = New(1, 1, 1, 1, func(cycle uint64, tile int, port Port, payload *int) {
		if *payload < 100 {
			m.Send(cycle, 0, 0, port, *payload+100)
		}
		seen = append(seen, *payload)
	})
	for v := 1; v <= 4; v++ { // fills the 4-slot ring exactly
		m.Send(0, 0, 0, PortL2, v)
	}
	if q := &m.routers[0].out[dirLocal]; q.n != len(q.buf) {
		t.Fatalf("local queue holds %d of %d slots, want it full", q.n, len(q.buf))
	}
	runCycles(m, 0, 20)
	want := []int{1, 2, 3, 4, 101, 102, 103, 104}
	if fmt.Sprint(seen) != fmt.Sprint(want) {
		t.Fatalf("handler saw %v, want %v", seen, want)
	}
	if q := &m.routers[0].out[dirLocal]; len(q.buf) != 4 {
		t.Fatalf("ring grew to %d slots: the answers did not reuse vacated ones", len(q.buf))
	}
}

// TestOutQueueRing: the ring preserves FIFO order across wrap-arounds and
// growths.
func TestOutQueueRing(t *testing.T) {
	var q outQueue[int]
	pushed, popped := 0, 0
	push := func(n int) {
		for ; n > 0; n-- {
			q.push(&msg[int]{payload: pushed, hops: int32(pushed)})
			pushed++
		}
	}
	pop := func(n int) {
		t.Helper()
		for ; n > 0; n-- {
			if q.n == 0 {
				t.Fatalf("pop %d: queue empty", popped)
			}
			if m := q.pop(); m.payload != popped || m.hops != int32(popped) {
				t.Fatalf("pop %d = %+v", popped, *m)
			}
			popped++
		}
	}
	check := func(wantCap int) {
		t.Helper()
		if len(q.buf) != wantCap || q.n != pushed-popped {
			t.Fatalf("cap %d n %d, want cap %d n %d", len(q.buf), q.n, wantCap, pushed-popped)
		}
	}
	for lap := 0; lap < 5; lap++ { // wraps a 4-slot ring several times
		push(3)
		pop(3)
		check(4)
	}
	push(3)
	pop(1)
	push(4) // 6 buffered, head mid-ring: first growth unwraps
	check(8)
	pop(5)
	for lap := 0; lap < 5; lap++ {
		push(6)
		pop(6)
		check(8)
	}
	push(12) // 13 buffered across the wrap: second growth
	check(16)
	pop(13)
	check(16)
}

// TestMeshTickCostIndependentOfSize: the same four messages, on the same
// routes in the top-left corner, cost a 64x64 mesh exactly the queue visits
// they cost a 4x4 one — Tick visits what moves, not what exists or waits —
// and arrive on the same cycles.
func TestMeshTickCostIndependentOfSize(t *testing.T) {
	type result struct {
		visits uint64
		log    []delivery[string]
	}
	run := func(side int) result {
		var r result
		m := New(side, side, 1, 1, func(cycle uint64, tile int, port Port, payload *string) {
			r.log = append(r.log, delivery[string]{tile, port, *payload, cycle})
		})
		at := func(x, y int) int { return y*side + x }
		m.Send(0, at(0, 0), at(3, 3), PortL2, "a")
		m.Send(0, at(3, 0), at(0, 2), PortCore, "b")
		m.Send(0, at(1, 3), at(1, 0), PortL2, "c")
		m.Send(0, at(2, 2), at(2, 2), PortL2, "d")
		if m.Stats.InFlight != 4 {
			t.Fatalf("%dx%d: %d in flight, want 4", side, side, m.Stats.InFlight)
		}
		for c := uint64(0); c < 40; c++ {
			m.Tick(c)
		}
		if !m.Quiesced() {
			t.Fatalf("%dx%d mesh did not quiesce", side, side)
		}
		// Every visit moves a message one hop or delivers it.
		if moved := m.Stats.Hops + m.Stats.Messages; m.queueVisits != moved {
			t.Errorf("%dx%d: Tick visited %d queues to make %d moves", side, side, m.queueVisits, moved)
		}
		r.visits = m.queueVisits
		return r
	}
	small, large := run(4), run(64)
	if small.visits == 0 || small.visits != large.visits {
		t.Errorf("Tick visited %d queues on 4x4 and %d on 64x64 for the same traffic", small.visits, large.visits)
	}
	if len(small.log) != 4 || len(large.log) != 4 {
		t.Fatalf("delivered %d and %d of 4", len(small.log), len(large.log))
	}
	for i := range small.log {
		if s, l := small.log[i], large.log[i]; s.cycle != l.cycle || s.payload != l.payload {
			t.Errorf("delivery %d at cycle %d (%v) on 4x4, cycle %d (%v) on 64x64",
				i, s.cycle, s.payload, l.cycle, l.payload)
		}
	}
}

// xorshift is a tiny deterministic generator for the property tests.
type xorshift uint64

func (x *xorshift) next(bound uint64) uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v % bound
}

// wide is a payload the size of the simulator's message, so the mesh
// benchmarks copy what the simulator copies.
type wide [7]uint64

// saturatedMesh returns a warmed 4x4 mesh and the step that keeps it at 30
// messages of steady random traffic in flight: one step is one cycle, and
// every delivery is answered from inside the handler — a send to a random
// tile carrying the payload the handler was lent — as a bank answers a core.
func saturatedMesh() (*Mesh[wide], func()) {
	rng := xorshift(1)
	var m *Mesh[wide]
	m = New(4, 4, 1, 1, func(cycle uint64, tile int, _ Port, payload *wide) {
		payload[0]++
		m.Send(cycle, tile, int(rng.next(16)), PortL2, *payload)
	})
	c := uint64(0)
	step := func() {
		for m.Stats.InFlight < 30 {
			m.Send(c, int(rng.next(16)), int(rng.next(16)), PortL2, wide{})
		}
		m.Tick(c)
		c++
	}
	for i := 0; i < 2000; i++ {
		step()
	}
	return m, step
}

// TestMeshSteadyStateAllocatesNothing: once the rings have grown to the
// traffic's depth, moving a message, delivering it and sending from the
// handler allocate nothing — in particular the payload a handler is lent does
// not move to the heap.
func TestMeshSteadyStateAllocatesNothing(t *testing.T) {
	m, step := saturatedMesh()
	if m.Stats.Hops == 0 {
		t.Fatalf("warm-up moved no traffic: %+v", m.Stats)
	}
	if avg := testing.AllocsPerRun(500, step); avg != 0 {
		t.Fatalf("steady-state Send+Tick allocates %.2f objects per cycle", avg)
	}
}

// TestMeshTickVisitsOnlyWhatMoves: under saturatedMesh's steady traffic, with
// queues several deep and deliveries answered from the handler, every queue a
// tick visits moves a message one hop or delivers it. The visits therefore
// equal the hops and deliveries made, the hops of messages still in flight
// included.
func TestMeshTickVisitsOnlyWhatMoves(t *testing.T) {
	m, step := saturatedMesh()
	for i := 0; i < 1000; i++ {
		step()
	}
	var inFlightHops uint64
	for tile := range m.routers {
		for dir := range m.routers[tile].out {
			q := &m.routers[tile].out[dir]
			for i := 0; i < q.n; i++ {
				inFlightHops += uint64(q.buf[(q.head+i)&(len(q.buf)-1)].hops)
			}
		}
	}
	moved := m.Stats.Hops + inFlightHops + m.Stats.Messages
	if m.Stats.Messages == 0 || m.queueVisits != moved {
		t.Fatalf("Tick visited %d queues to make %d moves (%d delivered with %d hops, %d hops in flight)",
			m.queueVisits, moved, m.Stats.Messages, m.Stats.Hops, inFlightHops)
	}
}

// TestMeshRejectsLatencies: a negative link latency, or a router that takes
// no cycle, is a mesh the wheel cannot order (a message could move in the
// tick that placed it), so New panics on it as it does on a bad size.
func TestMeshRejectsLatencies(t *testing.T) {
	for _, l := range [][2]int{{-1, 1}, {1, -1}, {1, 0}, {0, 0}} {
		func() {
			defer func() {
				if r := recover(); !strings.Contains(fmt.Sprint(r), "noc: invalid mesh") {
					t.Errorf("New with link %d, router %d: recovered %v, want an invalid-mesh panic", l[0], l[1], r)
				}
			}()
			New(2, 2, l[0], l[1], func(uint64, int, Port, *int) {})
		}()
	}
}

// TestMeshTickPastDuePanics: a tick later than the mesh's NextEvent would
// pass over the wheel slot of the cycle it skipped and strand the queues
// marked there. The NextEvent contract rules that out, so it panics, naming
// both cycles.
func TestMeshTickPastDuePanics(t *testing.T) {
	m, _ := testMesh[int](2, 2)
	m.Send(0, 0, 3, PortL2, 1) // its first hop is due at cycle 1
	defer func() {
		r := fmt.Sprint(recover())
		if !strings.Contains(r, "cycle 2") || !strings.Contains(r, "cycle 1") {
			t.Fatalf("Tick past due recovered %q, want a panic naming cycles 2 and 1", r)
		}
	}()
	m.Tick(2)
}

// TestMeshAllDelivered: every injected message is eventually delivered to
// its destination exactly once, for arbitrary traffic patterns.
func TestMeshAllDelivered(t *testing.T) {
	prop := func(pairs []uint8) bool {
		if len(pairs) > 64 {
			pairs = pairs[:64]
		}
		m, got := testMesh[int](4, 4)
		want := map[int]int{} // dst -> count
		for i, p := range pairs {
			src, dst := int(p)%16, int(p>>4)%16
			m.Send(0, src, dst, PortL2, i)
			want[dst]++
		}
		runCycles(m, 0, 600)
		if !m.Quiesced() || len(*got) != len(pairs) {
			return false
		}
		have := map[int]int{}
		for _, d := range *got {
			have[d.tile]++
		}
		for dst, n := range want {
			if have[dst] != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkMeshSaturated: one op is one cycle of saturatedMesh, and ns/hop
// the cost of one link traversal.
func BenchmarkMeshSaturated(b *testing.B) {
	m, step := saturatedMesh()
	hops := m.Stats.Hops
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	if moved := m.Stats.Hops - hops; moved > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(moved), "ns/hop")
	}
}

// BenchmarkMeshSparse: four messages in flight on a 64x64 mesh (a delivered
// one is replaced at once), one op is one cycle. The cost is the moving
// queues', not the 4096 routers' or the waiting queues', and a hop allocates
// nothing.
func BenchmarkMeshSparse(b *testing.B) {
	m := New(64, 64, 1, 1, func(uint64, int, Port, *wide) {})
	rng := xorshift(1)
	c := uint64(0)
	step := func() {
		for m.Stats.InFlight < 4 {
			m.Send(c, int(rng.next(4096)), int(rng.next(4096)), PortL2, wide{})
		}
		m.Tick(c)
		c++
	}
	for i := 0; i < 20000; i++ {
		step()
	}
	visits := m.queueVisits
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.ReportMetric(float64(m.queueVisits-visits)/float64(b.N), "queues/tick")
}
