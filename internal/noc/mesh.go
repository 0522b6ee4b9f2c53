// Package noc models the on-chip interconnect: a 2D mesh with XY routing,
// per-output-port FIFOs with single-message-per-cycle link bandwidth, and a
// fixed per-router pipeline latency. Latency between tiles is therefore
// distance dependent plus contention, which is what produces the paper's
// reported latency ranges (L2 hit 29-61 cycles, remote L1 35-83, memory
// 197-261) from single base parameters.
//
// A tick costs what the mesh carries, not what it spans: one live bit per
// output queue, kept where messages are pushed and popped, and Tick visits
// set bits only, in the router-by-router, port-by-port order a full walk
// would take.
//
// The mesh tells the engine when it next needs a tick through NextEvent: the
// earliest cycle any buffered message can move, which is the earliest due
// cycle among the queue heads. Tick and Send keep that minimum as they go,
// so answering costs a compare.
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

// ready reports whether the head message is due by cycle.
func (q *outQueue[P]) ready(cycle uint64) bool {
	return q.n > 0 && q.buf[q.head].readyAt <= cycle
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
	// live has bit posOf(tile, dir) set iff that output queue holds a
	// message.
	live []uint64
	// due is the earliest readyAt among the queue heads (noEvent when the
	// mesh is empty): Tick recomputes it over the heads it visits, and a
	// push that makes a new head folds that head in.
	due uint64
	// queueVisits counts the live bits Tick has visited.
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

// New builds a w x h mesh. handler receives every delivered message.
func New[P any](w, h, linkLat, routerLat int, handler Handler[P]) *Mesh[P] {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("noc: invalid mesh %dx%d", w, h))
	}
	m := &Mesh[P]{
		w: w, h: h,
		linkLat:   uint64(linkLat),
		routerLat: uint64(routerLat),
		routers:   make([]router[P], w*h),
		xy:        make([]coord, w*h),
		live:      make([]uint64, (w*h<<posShift+63)/64),
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

// route places a message in the proper output queue of tile's router and
// marks the queue live. A message that lands in an empty queue is its new
// head.
func (m *Mesh[P]) route(tile int, mg *msg[P]) {
	dir := m.dirToward(tile, int(mg.dst))
	q := &m.routers[tile].out[dir]
	if q.n == 0 {
		m.due = min(m.due, mg.readyAt)
	}
	q.push(mg)
	m.setLive(posOf(tile, dir), true)
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

// posOf is a queue's position in the live bitmap and within a tick: Tick
// processes routers in index order and each router's output queues in
// direction order, so events of the same cycle are ordered by (tile, dir). A
// tile spans 1<<posShift positions (numDirs of them used) so that the
// live-bit walk splits a position with a shift and a mask.
func posOf(tile, dir int) int { return tile<<posShift | dir }

const posShift = 3

// setLive sets or clears the live bit at pos.
func (m *Mesh[P]) setLive(pos int, on bool) {
	if on {
		m.live[pos>>6] |= 1 << (pos & 63)
	} else {
		m.live[pos>>6] &^= 1 << (pos & 63)
	}
}

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
// most one ready message (link bandwidth), and each local port delivers at
// most one ready message to its endpoint (ejection bandwidth). Only live
// queues are visited, in ascending posOf order — the order a walk over every
// router and port would take — and the head each one is left with is folded
// into due. It reports whether any message remains buffered (the mesh sleeps
// otherwise).
func (m *Mesh[P]) Tick(cycle uint64) bool {
	m.due = noEvent
	for w := range m.live {
		for word := m.live[w]; word != 0; {
			b := bits.TrailingZeros64(word)
			pos := w<<6 | b
			tile, dir := pos>>posShift, pos&(1<<posShift-1)
			m.queueVisits++
			q := &m.routers[tile].out[dir]
			if q.ready(cycle) {
				mg := q.pop()
				// The live bit is cleared before the message moves on, so
				// a push the move triggers into this same queue sets it
				// again.
				if q.n == 0 {
					m.setLive(pos, false)
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
					// The handler may send into this queue and reuse
					// the slot, so it is lent a copy.
					m.arrived = mg.payload
					m.handler(cycle, tile, mg.port, &m.arrived)
				}
			}
			if q.n > 0 {
				m.due = min(m.due, q.buf[q.head].readyAt)
			}
			// Re-read the word: a queue that went live mid-walk above
			// this position (a hop into a later router, a handler's send)
			// is visited this tick, as a full walk would.
			word = m.live[w] &^ (uint64(2)<<b - 1)
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
// at which any router can move a message — the earliest queue head (a message
// behind a head cannot move before it), kept in due.
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
