// Package noc models the on-chip interconnect: a 2D mesh with XY routing,
// per-output-port FIFOs with single-message-per-cycle link bandwidth, and a
// fixed per-router pipeline latency. Latency between tiles is therefore
// distance dependent plus contention, which is what produces the paper's
// reported latency ranges (L2 hit 29-61 cycles, remote L1 35-83, memory
// 197-261) from single base parameters.
//
// The mesh participates in event-driven skip-ahead through two mechanisms.
// NextEvent reports the earliest cycle any buffered message can move, found
// by scanning the queue heads when the engine plans a jump. Express routing
// (see express.go, enabled via SetExpress) goes further: a message whose
// whole route is uncontended is modeled as one timed delivery event instead
// of per-hop queue movements, and is demoted back into the per-hop pipeline —
// materialized at its current interpolated hop — the moment potentially
// contending traffic enters its path. Both preserve the per-hop latency
// model exactly; they only change how many simulation events it takes to
// realize it.
package noc

import "fmt"

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
type Handler func(cycle uint64, tile int, port Port, payload any)

type msg struct {
	dst     int
	port    Port
	payload any
	readyAt uint64
	hops    int
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
type outQueue struct {
	buf  []msg // len is zero or a power of two
	head int   // slot of the oldest message
	n    int   // messages buffered
}

func (q *outQueue) push(m msg) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = m
	q.n++
}

// grow doubles the ring, unwrapping the buffered messages to its start.
func (q *outQueue) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 4
	}
	buf := make([]msg, size)
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

// popReady removes and returns the head message if it is due by cycle. The
// vacated slot drops its payload so the ring does not keep it reachable.
func (q *outQueue) popReady(cycle uint64) (msg, bool) {
	if q.n == 0 {
		return msg{}, false
	}
	slot := &q.buf[q.head]
	if slot.readyAt > cycle {
		return msg{}, false
	}
	m := *slot
	slot.payload = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return m, true
}

type router struct {
	out    [numDirs]outQueue
	queued int // messages buffered across all output queues
}

// Mesh is a W x H mesh of routers with deterministic XY (X-first) routing.
type Mesh struct {
	w, h      int
	linkLat   uint64
	routerLat uint64
	routers   []router
	handler   Handler
	wake      func()
	obs       Observer

	// Express-routing state (see express.go): exEdges indexes every
	// pending (router, direction) queue of every in-flight express flit
	// for O(1) demotion triggering, exLocal holds at most one pending
	// express delivery per destination tile, and exCount the flits in
	// flight. The intra-tick fields record how far the router loop has
	// progressed so a demotion can materialize a flit at exactly the
	// per-hop position the reference pipeline would hold it.
	express   bool
	exEdges   []exEdge
	exLocal   []*exFlit
	exCount   int
	inTick    bool
	tickCycle uint64
	tickPos   int
	ticked    uint64
	hasTicked bool

	// Per-region occupancy for the express grant pre-filter (see
	// regionGateClear in express.go): tiles are coarsened into square
	// blocks (at most 64 regions, so a region set fits one uint64 mask),
	// regionQueued counts buffered per-hop messages per region, regionBusy
	// mirrors it as a bitmask, and pathMasks lazily caches the region mask
	// of each src->dst XY route (0 = not yet computed; a real mask always
	// includes the source tile's region bit).
	regionOf     []int
	regionQueued []int
	regionBusy   uint64
	pathMasks    []uint64

	// Stats counts traffic for network reporting.
	Stats Stats
}

// Stats aggregates mesh traffic counters.
type Stats struct {
	Messages uint64 // messages delivered
	Hops     uint64 // total link traversals
	Injected uint64 // messages injected
	InFlight int    // messages currently buffered (incl. express flits)

	// ExpressDeliveries counts messages whose whole traversal was
	// modeled as one timed event; ExpressDemotions counts express flits
	// that were materialized back into the per-hop pipeline because
	// potentially contending traffic entered their path.
	ExpressDeliveries uint64
	ExpressDemotions  uint64
}

// New builds a w x h mesh. handler receives every delivered message.
func New(w, h, linkLat, routerLat int, handler Handler) *Mesh {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("noc: invalid mesh %dx%d", w, h))
	}
	m := &Mesh{
		w: w, h: h,
		linkLat:   uint64(linkLat),
		routerLat: uint64(routerLat),
		routers:   make([]router, w*h),
		handler:   handler,
		exEdges:   make([]exEdge, w*h*numDirs),
		exLocal:   make([]*exFlit, w*h),
		pathMasks: make([]uint64, w*h*w*h),
	}
	m.buildRegions()
	return m
}

// buildRegions partitions the mesh into square tile blocks for the express
// occupancy pre-filter. Blocks start at 2x2 and double in side length until
// at most 64 regions remain, so any mesh's region set fits one uint64.
func (m *Mesh) buildRegions() {
	bs := 2
	for ((m.w+bs-1)/bs)*((m.h+bs-1)/bs) > 64 {
		bs *= 2
	}
	rw := (m.w + bs - 1) / bs
	m.regionOf = make([]int, m.w*m.h)
	nRegions := 0
	for t := range m.regionOf {
		r := (t/m.w/bs)*rw + (t % m.w / bs)
		m.regionOf[t] = r
		if r+1 > nRegions {
			nRegions = r + 1
		}
	}
	m.regionQueued = make([]int, nRegions)
}

// regionAdd records one per-hop message buffered at tile's router.
func (m *Mesh) regionAdd(tile int) {
	r := m.regionOf[tile]
	m.regionQueued[r]++
	if m.regionQueued[r] == 1 {
		m.regionBusy |= 1 << uint(r)
	}
}

// regionSub records one per-hop message leaving tile's router.
func (m *Mesh) regionSub(tile int) {
	r := m.regionOf[tile]
	m.regionQueued[r]--
	if m.regionQueued[r] == 0 {
		m.regionBusy &^= 1 << uint(r)
	}
}

// SetExpress enables or disables express routing (off by default; the
// memory system enables it per sim.Config.Express, never in dense mode, so
// the dense reference loop always exercises the per-hop pipeline the
// engine diff compares against).
func (m *Mesh) SetExpress(on bool) { m.express = on }

// SetWaker installs the callback that re-arms the mesh in the scheduling
// engine; Send invokes it so an idle mesh starts ticking again as soon as a
// message is injected.
func (m *Mesh) SetWaker(wake func()) { m.wake = wake }

// Observer receives express-routing events for structured tracing
// (implemented by trace.Collector; defined here so noc stays dependency
// free). Both callbacks run during mesh operations on the engine
// goroutine and must not touch mesh state.
type Observer interface {
	// ExpressDelivery reports a completed express traversal: injected at
	// inject, delivered at cycle, src to dst over hops links.
	ExpressDelivery(cycle, inject uint64, src, dst, hops int)
	// ExpressDemotion reports an express flit materialized back into the
	// per-hop pipeline at hop index hop, with its queue entry due at at.
	ExpressDemotion(at, inject uint64, src, dst, hop int)
}

// SetObserver installs (or, with nil, removes) the express-event observer.
// Observation never changes routing decisions or timing.
func (m *Mesh) SetObserver(o Observer) { m.obs = o }

// Tiles returns the number of tiles.
func (m *Mesh) Tiles() int { return m.w * m.h }

// Distance returns the Manhattan hop distance between two tiles.
func (m *Mesh) Distance(a, b int) int {
	ax, ay := a%m.w, a/m.w
	bx, by := b%m.w, b/m.w
	return abs(ax-bx) + abs(ay-by)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Send injects a message at tile src destined for (dst, port) during the
// given cycle. It may be called at any point within the cycle; the message
// becomes eligible to move on the next mesh tick.
func (m *Mesh) Send(cycle uint64, src, dst int, port Port, payload any) {
	if src < 0 || src >= m.Tiles() || dst < 0 || dst >= m.Tiles() {
		panic(fmt.Sprintf("noc: send %d->%d outside %d-tile mesh", src, dst, m.Tiles()))
	}
	m.Stats.Injected++
	m.Stats.InFlight++
	if m.tryExpress(cycle, src, dst, port, payload) {
		if m.wake != nil {
			m.wake()
		}
		return
	}
	m.route(src, msg{dst: dst, port: port, payload: payload, readyAt: cycle + m.routerLat})
	if m.wake != nil {
		m.wake()
	}
}

// route places a message in the proper output queue of tile's router.
// XY routing: correct X first, then Y, then eject locally. Any express
// flit whose remaining path still includes the target queue is demoted
// first (materialized into the per-hop pipeline), so the pushed message
// lands behind it in FIFO order exactly as the per-hop world would have
// it.
func (m *Mesh) route(tile int, mg msg) {
	dir := m.dirToward(tile, mg.dst)
	if m.exCount > 0 {
		m.contend(tile, dir)
	}
	m.routers[tile].out[dir].push(mg)
	m.routers[tile].queued++
	m.regionAdd(tile)
}

// neighbor returns the tile index one hop in dir from tile.
func (m *Mesh) neighbor(tile, dir int) int {
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
// most one ready message to its endpoint (ejection bandwidth) — a due
// express flit ejects from the same slot, at the same intra-cycle
// position, the per-hop pipeline would deliver it from. It reports whether
// any message remains buffered (the mesh sleeps otherwise).
func (m *Mesh) Tick(cycle uint64) bool {
	m.inTick = true
	m.tickCycle = cycle
	m.tickPos = 0
	for i := range m.routers {
		r := &m.routers[i]
		if r.queued == 0 {
			// Idle router: no queue can pop anything; skip the scan
			// unless an express delivery is due here this cycle.
			if f := m.exLocal[i]; f == nil || f.deliverAt > cycle {
				continue
			}
		}
		for dir := 0; dir < dirLocal; dir++ {
			m.tickPos = posOf(i, dir)
			mg, ok := r.out[dir].popReady(cycle)
			if !ok {
				continue
			}
			r.queued--
			m.regionSub(i)
			mg.hops++
			mg.readyAt = cycle + m.linkLat + m.routerLat
			m.route(m.neighbor(i, dir), mg)
		}
		m.tickPos = posOf(i, dirLocal)
		// Re-read the delivery slot: a demotion triggered by one of the
		// pops above may have materialized the flit into a real queue.
		if f := m.exLocal[i]; f != nil && f.deliverAt <= cycle {
			m.deliverExpress(f, cycle, i)
		} else if mg, ok := r.out[dirLocal].popReady(cycle); ok {
			r.queued--
			m.regionSub(i)
			m.Stats.Messages++
			m.Stats.Hops += uint64(mg.hops)
			m.Stats.InFlight--
			m.handler(cycle, i, mg.port, mg.payload)
		}
	}
	m.inTick = false
	m.ticked = cycle
	m.hasTicked = true
	return m.Stats.InFlight > 0
}

// Quiesced reports whether no messages are buffered anywhere in the mesh.
func (m *Mesh) Quiesced() bool { return m.Stats.InFlight == 0 }

// noEvent mirrors sim.NoEvent (the package is deliberately free of
// simulator dependencies).
const noEvent = ^uint64(0)

// NextEvent implements the engine's skip-ahead extension: the earliest
// cycle after now at which any router can move a message. Nothing is
// maintained for it on the push/pop path; planning a jump scans, on demand,
// the head of every non-empty output queue (a message behind the head
// cannot move before it) plus each tile's pending express delivery — the
// same O(routers) walk one Tick does.
func (m *Mesh) NextEvent(now uint64) uint64 {
	if m.Stats.InFlight == 0 {
		return noEvent
	}
	next := noEvent
	for i := range m.routers {
		if r := &m.routers[i]; r.queued > 0 {
			for dir := range r.out {
				if q := &r.out[dir]; q.n > 0 && q.buf[q.head].readyAt < next {
					next = q.buf[q.head].readyAt
				}
			}
		}
		if f := m.exLocal[i]; f != nil && f.deliverAt < next {
			next = f.deliverAt
		}
	}
	if next <= now {
		return now + 1
	}
	return next
}

// Diagnose describes pending traffic for engine deadlock dumps.
func (m *Mesh) Diagnose() string {
	return fmt.Sprintf("in-flight=%d (express %d) injected=%d delivered=%d",
		m.Stats.InFlight, m.exCount, m.Stats.Injected, m.Stats.Messages)
}
