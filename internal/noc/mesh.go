// Package noc models the on-chip interconnect: a 2D mesh with XY routing,
// per-output-port FIFOs with single-message-per-cycle link bandwidth, and a
// fixed per-router pipeline latency. Latency between tiles is therefore
// distance dependent plus contention, which is what produces the paper's
// reported latency ranges (L2 hit 29-61 cycles, remote L1 35-83, memory
// 197-261) from single base parameters.
//
// A tick costs what the mesh moves, not what it spans or holds: each occupied
// output queue is marked in a due wheel at the exact cycle its head moves,
// kept where messages are pushed and popped, and Tick visits only the queues
// marked for its cycle, in the router-by-router, port-by-port order a full
// walk would take. Every queue it visits moves a message.
//
// The mesh tells the engine when it next needs a tick through NextEvent: the
// earliest cycle any buffered message can move, which is the wheel's earliest
// marked cycle. Tick and Send keep it as they go, so answering costs a
// compare.
//
// The mesh is generic over what it carries: Mesh[P] copies a P by value into
// each ring slot a message passes through and knows nothing else about it, so
// the package imports nothing from the simulator, the message type lives with
// the protocol (mem.Msg), and with a pointer-free P the rings hold nothing for
// the collector to scan. A Handler is lent the delivered payload for the call.
package noc

import (
	"fmt"
	"math/bits"
)

// Port selects the endpoint within a tile a message is delivered to: each
// tile hosts one core-side endpoint (an L1 / LSU) and one L2 bank.
type Port uint8

const (
	// PortCore delivers to the tile's core-side endpoint (L1 miss
	// handler, DMA engine, stash fill unit).
	PortCore Port = iota
	// PortL2 delivers to the tile's L2 bank.
	PortL2
)

// Handler receives delivered message payloads. Delivery happens during the
// mesh tick of the given cycle, before cores and caches tick in the same
// cycle (the mesh is registered first).
//
// payload points at the mesh's one copy of the message being delivered: it is
// valid until the handler returns and overwritten by the next delivery, so a
// handler that queues the message copies *payload. The handler may Send.
type Handler[P any] func(cycle uint64, tile int, port Port, payload *P)

type msg[P any] struct {
	readyAt uint64
	dst     int32
	hops    int32
	port    Port
	payload P
}

const (
	dirNorth = iota
	dirEast
	dirSouth
	dirWest
	dirLocal
	numDirs
)

// outQueue is one output port's FIFO: a power-of-two ring of msg values,
// allocated on first use and grown by doubling, so a hop copies a msg into
// a slot and steady-state traffic allocates nothing.
type outQueue[P any] struct {
	buf  []msg[P] // len is zero or a power of two
	head int      // slot of the oldest message
	n    int      // messages buffered
}

func (q *outQueue[P]) push(m *msg[P]) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = *m
	q.n++
}

// grow doubles the ring, unwrapping the buffered messages to its start.
func (q *outQueue[P]) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 4
	}
	buf := make([]msg[P], size)
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

// pop removes the head message and returns it where it lies: the vacated slot
// is intact until the next push into this queue. The queue must not be empty.
func (q *outQueue[P]) pop() *msg[P] {
	m := &q.buf[q.head]
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return m
}

type router[P any] struct {
	out [numDirs]outQueue[P]
}

// Mesh is a W x H mesh of routers with deterministic XY (X-first) routing,
// carrying payloads of type P by value.
type Mesh[P any] struct {
	w, h int
	// xy holds each tile's mesh coordinates, so routing a hop compares
	// four loaded values instead of dividing twice by the mesh width.
	xy        []coord
	linkLat   uint64
	routerLat uint64
	routers   []router[P]
	// wheel is mask+1 slots of words bitmap words. Bit posOf(tile, dir) of
	// slot d&mask marks that queue's head as moving at cycle d; a nonempty
	// queue has one mark in the wheel, an empty one none. A mark lies at most
	// linkLat+routerLat <= mask cycles ahead, so no two share a slot.
	wheel []uint64
	words int
	mask  uint64
	// marks counts the marks in each slot.
	marks []int
	// due is the earliest marked cycle (noEvent when the mesh is empty).
	due uint64
	// queueVisits counts the queues Tick has visited.
	queueVisits uint64
	handler     Handler[P]
	// arrived is the payload a Handler is lent. It lives here, not in a
	// local of Tick: the handler is a func value, so a local whose address
	// it is passed would move to the heap on every delivery.
	arrived P
	wake    func()

	// Stats counts traffic for network reporting.
	Stats Stats
}

// Stats aggregates mesh traffic counters.
type Stats struct {
	Messages uint64 // messages delivered
	Hops     uint64 // total link traversals
	Injected uint64 // messages injected
	InFlight int    // messages currently buffered
}

type coord struct{ x, y int32 }

// New builds a w x h mesh. handler receives every delivered message. A router
// takes a cycle or more, so no message moves in the tick that placed it.
func New[P any](w, h, linkLat, routerLat int, handler Handler[P]) *Mesh[P] {
	if w <= 0 || h <= 0 || linkLat < 0 || routerLat < 1 {
		panic(fmt.Sprintf("noc: invalid mesh %dx%d, link %d + router %d cycles", w, h, linkLat, routerLat))
	}
	slots := 1 << bits.Len(uint(linkLat+routerLat)) // > linkLat+routerLat
	words := (w*h<<posShift + 63) / 64
	m := &Mesh[P]{
		w: w, h: h,
		linkLat:   uint64(linkLat),
		routerLat: uint64(routerLat),
		routers:   make([]router[P], w*h),
		xy:        make([]coord, w*h),
		wheel:     make([]uint64, slots*words),
		words:     words,
		mask:      uint64(slots - 1),
		marks:     make([]int, slots),
		due:       noEvent,
		handler:   handler,
	}
	for t := range m.xy {
		m.xy[t] = coord{int32(t % w), int32(t / w)}
	}
	return m
}

// SetWaker installs the callback that re-arms the mesh in the scheduling
// engine; Send invokes it so an idle mesh starts ticking again as soon as a
// message is injected.
func (m *Mesh[P]) SetWaker(wake func()) { m.wake = wake }

// Tiles returns the number of tiles.
func (m *Mesh[P]) Tiles() int { return m.w * m.h }

// Distance returns the Manhattan hop distance between two tiles.
func (m *Mesh[P]) Distance(a, b int) int {
	ca, cb := m.xy[a], m.xy[b]
	return int(abs(ca.x-cb.x) + abs(ca.y-cb.y))
}

func abs(x int32) int32 {
	if x < 0 {
		return -x
	}
	return x
}

// Send injects a message at tile src destined for (dst, port) during the
// given cycle. It may be called at any point within the cycle; the message
// becomes eligible to move on the next mesh tick.
func (m *Mesh[P]) Send(cycle uint64, src, dst int, port Port, payload P) {
	if src < 0 || src >= m.Tiles() || dst < 0 || dst >= m.Tiles() {
		panic(fmt.Sprintf("noc: send %d->%d outside %d-tile mesh", src, dst, m.Tiles()))
	}
	m.Stats.Injected++
	m.Stats.InFlight++
	m.route(src, &msg[P]{dst: int32(dst), port: port, payload: payload, readyAt: cycle + m.routerLat})
	if m.wake != nil {
		m.wake()
	}
}

// route places a message in the proper output queue of tile's router. A
// message that lands in an empty queue is its new head, and marks the queue
// at its readyAt.
func (m *Mesh[P]) route(tile int, mg *msg[P]) {
	dir := m.dirToward(tile, int(mg.dst))
	q := &m.routers[tile].out[dir]
	if q.n == 0 {
		m.mark(posOf(tile, dir), mg.readyAt)
	}
	q.push(mg)
}

// mark records in the wheel that the queue at pos moves its head at cycle d.
func (m *Mesh[P]) mark(pos int, d uint64) {
	s := d & m.mask
	m.wheel[int(s)*m.words+pos>>6] |= 1 << (pos & 63)
	m.marks[s]++
	m.due = min(m.due, d)
}

// dirToward returns the XY-routing output direction at tile for a message
// headed to dst (X first, then Y, then local ejection).
func (m *Mesh[P]) dirToward(tile, dst int) int {
	t, d := m.xy[tile], m.xy[dst]
	switch {
	case d.x > t.x:
		return dirEast
	case d.x < t.x:
		return dirWest
	case d.y > t.y:
		return dirSouth
	case d.y < t.y:
		return dirNorth
	}
	return dirLocal
}

// posOf is a queue's position in a wheel slot and within a tick: Tick
// processes routers in index order and each router's output queues in
// direction order, so events of the same cycle are ordered by (tile, dir). A
// tile spans 1<<posShift positions (numDirs of them used) so that the slot
// walk splits a position with a shift and a mask.
func posOf(tile, dir int) int { return tile<<posShift | dir }

const posShift = 3

// neighbor returns the tile index one hop in dir from tile.
func (m *Mesh[P]) neighbor(tile, dir int) int {
	switch dir {
	case dirNorth:
		return tile - m.w
	case dirSouth:
		return tile + m.w
	case dirEast:
		return tile + 1
	case dirWest:
		return tile - 1
	}
	return tile
}

// Tick advances every router by one cycle: each output port forwards at
// most one message (link bandwidth), and each local port delivers at most
// one message to its endpoint (ejection bandwidth). It walks and clears this
// cycle's wheel slot in ascending posOf order, the order a walk over every
// router and port would take; every queue marked there is due, so each visit
// moves a head, and every mark the walk makes is at cycle+1 or later. It
// reports whether any message remains buffered (the mesh sleeps otherwise).
func (m *Mesh[P]) Tick(cycle uint64) bool {
	if cycle > m.due {
		panic(fmt.Sprintf("noc: Tick at cycle %d skipped the queues due at cycle %d", cycle, m.due))
	}
	s := cycle & m.mask
	slot := m.wheel[int(s)*m.words:][:m.words]
	n := m.marks[s]
	m.marks[s] = 0
	for w := 0; n > 0; w++ {
		word := slot[w]
		slot[w] = 0
		n -= bits.OnesCount64(word)
		for ; word != 0; word &= word - 1 {
			pos := w<<6 | bits.TrailingZeros64(word)
			tile, dir := pos>>posShift, pos&(1<<posShift-1)
			m.queueVisits++
			q := &m.routers[tile].out[dir]
			mg := q.pop()
			// The new head is marked before the message moves on: if the
			// pop emptied the queue, a send the move triggers into it marks
			// it itself, once.
			if q.n > 0 {
				m.mark(pos, max(q.buf[q.head].readyAt, cycle+1))
			}
			if dir != dirLocal {
				// Copied from the slot it just left into a neighbour's
				// queue, never this one.
				mg.hops++
				mg.readyAt = cycle + m.linkLat + m.routerLat
				m.route(m.neighbor(tile, dir), mg)
			} else {
				m.Stats.Messages++
				m.Stats.Hops += uint64(mg.hops)
				m.Stats.InFlight--
				// The handler may send into this queue and reuse the
				// slot, so it is lent a copy.
				m.arrived = mg.payload
				m.handler(cycle, tile, mg.port, &m.arrived)
			}
		}
	}
	m.due = noEvent
	for d := cycle + 1; m.Stats.InFlight > 0 && d <= cycle+m.mask; d++ {
		if m.marks[d&m.mask] > 0 {
			m.due = d
			break
		}
	}
	return m.Stats.InFlight > 0
}

// Quiesced reports whether no messages are buffered anywhere in the mesh.
func (m *Mesh[P]) Quiesced() bool { return m.Stats.InFlight == 0 }

// noEvent mirrors sim.NoEvent (the package is deliberately free of
// simulator dependencies).
const noEvent = ^uint64(0)

// NextEvent implements the engine's NextEventer: the earliest cycle after now
// at which any router can move a message — the wheel's earliest mark (a
// message behind a head cannot move before it), kept in due.
func (m *Mesh[P]) NextEvent(now uint64) uint64 {
	if m.due <= now {
		return now + 1
	}
	return m.due
}

// Diagnose describes pending traffic for engine deadlock dumps.
func (m *Mesh[P]) Diagnose() string {
	return fmt.Sprintf("in-flight=%d injected=%d delivered=%d",
		m.Stats.InFlight, m.Stats.Injected, m.Stats.Messages)
}
