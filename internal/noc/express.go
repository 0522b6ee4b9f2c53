package noc

// Express routing: when a message's entire XY route is uncontended — every
// output queue it would occupy is empty and no other express flit's pending
// path shares an edge — the mesh schedules one timed delivery event at
//
//	inject + routerLat + hops*(linkLat+routerLat)
//
// instead of moving the flit hop by hop. Mesh.NextEvent's scan includes
// that delivery time, so the skip-ahead engine can jump the whole
// traversal in one step; this is what breaks the event-density
// ceiling on mesh-bound workloads (UTS spin traffic used to bound every
// jump to the 1-2 cycles between per-hop events).
//
// The latency model is unchanged: the express delivery time is exactly the
// cycle the per-hop pipeline would deliver an uncontended message, because
// with empty queues each hop pops precisely at its readyAt. The moment any
// traffic is pushed into a queue the flit has not yet traversed — traffic
// that could contend for that link's bandwidth — the flit is demoted: it
// materializes as an ordinary buffered message at the hop the per-hop
// pipeline would place it at that instant (interpolated from its virtual
// pop schedule, including intra-cycle router order) and re-enters per-hop
// simulation, so contended links keep byte-identical timing and occupancy
// accounting with the dense model. Demotion is conservative — pushed
// traffic that would not actually have delayed the flit still demotes it —
// but never wrong, since the materialized flit's timing is exact either
// way. The congestion-adaptive switch has a second, preventive half: while
// any region (square tile block; see Mesh.buildRegions) of a message's
// route holds buffered per-hop traffic, a grant is not attempted (see the
// gate in tryExpress) — refusing a grant is timing-neutral, and on
// congested phases it zeroes the express bookkeeping for traversals that
// would only be demoted, while disjoint routes on a moderately loaded mesh
// keep expressing past the hot spot. A pending flit holds its destination's
// local-port live bit (see Mesh.setExLocal), so the tick that walks live
// queues only still reaches its delivery slot, and a demotion mid-walk sets
// the bit of the queue it materializes into. The equivalence is enforced by
// TestExpressMatchesPerHop (randomized traffic, lockstep express-on vs
// express-off meshes) and TestExpressMaterializationEachHop in
// express_test.go — both also check, after every Send and Tick, that a live
// bit is set exactly where a queue is occupied or a delivery pending — and
// end-to-end by the cross-engine diff (dense mode always runs per-hop).

// exFlit is one in-flight express message. It occupies no router queue;
// its position at any instant is interpolated from the virtual pop
// schedule popAt(k) = inject + routerLat + k*(linkLat+routerLat) for edge
// k of its path (edge hops = the local ejection at dst).
type exFlit struct {
	src, dst  int
	port      Port
	payload   any
	inject    uint64 // Send cycle
	hops      int    // Manhattan distance src->dst
	deliverAt uint64 // popAt(hops): the single timed event
}

// popAt returns the cycle edge k's virtual pop happens: the flit leaves
// queue k of its path (k == hops is the local ejection, i.e. delivery).
func (m *Mesh) popAt(f *exFlit, k int) uint64 {
	return f.inject + m.routerLat + uint64(k)*(m.linkLat+m.routerLat)
}

// exEdge is one entry of the flat pending-edge table: the express flit
// whose path crosses this (tile, direction) queue, plus the edge's index
// on that flit's path. Storing the index makes staleness checks O(1) —
// no re-walk of the flit's route per contention probe.
type exEdge struct {
	f *exFlit
	k int
}

// edgeKey indexes a (tile, output direction) queue in the flat pending
// edge table (tiles x numDirs entries, allocated once): express grant,
// demotion trigger, and cleanup all touch it with plain array stores, so
// the bookkeeping adds no hashing or allocation to the send hot path.
func edgeKey(tile, dir int) int { return tile*numDirs + dir }

// posOf is a queue's intra-tick position: Tick processes routers in index
// order and each router's output queues in direction order, so events of
// the same cycle are ordered by (tile, dir). Materialization compares these
// positions to decide whether a virtual pop scheduled for the current tick
// cycle has conceptually already happened. A tile spans 1<<posShift
// positions (numDirs of them used) so that the live-bit walk splits a
// position with a shift and a mask.
func posOf(tile, dir int) int { return tile<<posShift | dir }

const posShift = 3

// posEnd orders after every queue of a tick (the send phase between ticks).
const posEnd = int(^uint(0) >> 1)

// pathMask returns the bitmask of regions the XY route src->dst touches: the
// source's region row from the source's region column to the destination's,
// then the destination's region column down or up to its region row — a
// handful of steps whatever the mesh size, so nothing is cached.
func (m *Mesh) pathMask(src, dst int) uint64 {
	sh := m.regionShift
	sx, sy := int(m.xy[src].x>>sh), int(m.xy[src].y>>sh)
	dx, dy := int(m.xy[dst].x>>sh), int(m.xy[dst].y>>sh)
	var mask uint64
	for x := min(sx, dx); x <= max(sx, dx); x++ {
		mask |= 1 << uint(sy*m.regionCols+x)
	}
	for y := min(sy, dy); y <= max(sy, dy); y++ {
		mask |= 1 << uint(y*m.regionCols+dx)
	}
	return mask
}

// walkPath visits the XY route from src to dst: fn is called once per edge
// with the edge index, the router holding the queue, and the output
// direction (the final edge is (dst, dirLocal)). Visiting stops early when
// fn returns false.
func (m *Mesh) walkPath(src, dst int, fn func(k, tile, dir int) bool) {
	tile := src
	for k := 0; ; k++ {
		dir := m.dirToward(tile, dst)
		if !fn(k, tile, dir) || dir == dirLocal {
			return
		}
		tile = m.neighbor(tile, dir)
	}
}

// dirToward returns the XY-routing output direction at tile for a message
// headed to dst (X first, then Y, then local ejection).
func (m *Mesh) dirToward(tile, dst int) int {
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

// curPos returns the reference per-hop world's intra-cycle progress for
// events scheduled at cycle t, at the moment of the current call: every
// queue position strictly below the returned value has already been
// processed for cycle t. Outside a tick, a cycle the mesh has ticked is
// fully processed and a cycle it has not ticked yet is untouched.
func (m *Mesh) curPos(t uint64) int {
	if m.inTick {
		if t < m.tickCycle {
			return posEnd
		}
		if t > m.tickCycle {
			return -1
		}
		return m.tickPos
	}
	if m.hasTicked && t <= m.ticked {
		return posEnd
	}
	return -1
}

// executed reports whether edge k's virtual pop has conceptually happened
// by now: its scheduled cycle has been ticked past, or it is scheduled for
// the cycle currently being processed at a queue position the router loop
// has already passed.
func (m *Mesh) executed(f *exFlit, k, tile, dir int) bool {
	at := m.popAt(f, k)
	pos := m.curPos(at)
	return posOf(tile, dir) < pos
}

// tryExpress grants the express path for a Send when the whole route is
// provably uncontended: every queue on it is empty and no other express
// flit's pending path shares an edge (stale entries for edges a flit has
// already virtually passed are pruned rather than counted as conflicts).
// Grants are denied during the mesh's own tick — a mid-tick injection's
// per-hop timing depends on router processing order, which the per-hop
// pipeline already models exactly. On success the flit takes its
// destination's delivery slot (one event for the whole traversal) and every
// path edge is indexed for demotion triggering.
func (m *Mesh) tryExpress(cycle uint64, src, dst int, port Port, payload any) bool {
	if !m.express || m.inTick || m.routerLat == 0 {
		return false
	}
	// Congestion gate, per region: grants are only attempted while every
	// region the route touches holds no buffered per-hop traffic
	// (in-flight express flits don't count — they occupy no queues).
	// Refusing a grant is always timing-neutral: the message simply runs
	// per-hop, which delivers at the identical cycle whenever express
	// would have. On congested phases — where a granted flit would almost
	// certainly be demoted a few cycles later — this zeroes the express
	// bookkeeping cost (path probing, edge indexing, demotion) instead of
	// paying it for traversals that never pan out. Unlike the old
	// whole-mesh version of this gate, a hot corner of the mesh no longer
	// stops disjoint routes elsewhere from expressing: the pre-filter
	// compares the route's cached region mask against the busy-region
	// bitmask, one AND per probe.
	if m.regionBusy&m.pathMask(src, dst) != 0 {
		return false
	}
	free := true
	m.walkPath(src, dst, func(k, tile, dir int) bool {
		if m.routers[tile].out[dir].n > 0 {
			free = false
			return false
		}
		if g := m.exEdges[edgeKey(tile, dir)]; g.f != nil {
			if m.executed(g.f, g.k, tile, dir) {
				m.exEdges[edgeKey(tile, dir)] = exEdge{}
				return true
			}
			free = false
			return false
		}
		return true
	})
	if !free {
		return false
	}
	f := &exFlit{src: src, dst: dst, port: port, payload: payload,
		inject: cycle, hops: m.Distance(src, dst)}
	f.deliverAt = m.popAt(f, f.hops)
	m.walkPath(src, dst, func(k, tile, dir int) bool {
		m.exEdges[edgeKey(tile, dir)] = exEdge{f: f, k: k}
		return true
	})
	m.setExLocal(dst, f)
	m.exCount++
	return true
}

// contend is the demotion trigger, called before every push into a router
// queue: if an express flit still has that queue on its remaining path,
// the flit materializes first, so the pushed message lands behind it in
// FIFO order exactly as it would in the per-hop world.
func (m *Mesh) contend(tile, dir int) {
	key := edgeKey(tile, dir)
	g := m.exEdges[key]
	if g.f == nil {
		return
	}
	if m.executed(g.f, g.k, tile, dir) {
		// The edge is already behind the flit — traffic entering the
		// queue now can no longer contend with it. Prune the entry.
		m.exEdges[key] = exEdge{}
		return
	}
	m.demote(g.f)
}

// demote materializes an in-flight express flit at its current
// interpolated hop and re-enters it into the per-hop pipeline: the first
// edge whose virtual pop has not yet happened is where the per-hop world
// would hold the flit right now, so a message with that queue's readyAt is
// inserted there (the queue is empty by the express invariant — any
// earlier push would have demoted sooner). The flit's delivery event and
// pending-edge index are removed; from here on its timing is the ordinary
// per-hop model's, byte-identical to a run that never granted express.
func (m *Mesh) demote(f *exFlit) {
	mtile, mdir, mk := -1, -1, -1
	m.walkPath(f.src, f.dst, func(k, tile, dir int) bool {
		if m.exEdges[edgeKey(tile, dir)].f == f {
			m.exEdges[edgeKey(tile, dir)] = exEdge{}
		}
		if mk < 0 && !m.executed(f, k, tile, dir) {
			mtile, mdir, mk = tile, dir, k
		}
		return true
	})
	m.setExLocal(f.dst, nil)
	m.exCount--
	m.Stats.ExpressDemotions++
	if m.obs != nil && mk >= 0 {
		m.obs.ExpressDemotion(m.popAt(f, mk), f.inject, f.src, f.dst, mk)
	}
	if mk < 0 {
		// Every edge including the local ejection has conceptually
		// executed, yet the flit was not delivered — unreachable, because
		// the delivery edge only executes by delivering. Drop to the
		// defensive path: deliver immediately at the ejection queue.
		mtile, mdir, mk = f.dst, dirLocal, f.hops
	}
	m.routers[mtile].out[mdir].push(&msg{dst: f.dst, port: f.port, payload: f.payload,
		readyAt: m.popAt(f, mk), hops: mk})
	m.pushed(mtile, mdir)
}

// deliverExpress ejects a due express flit at its destination tile during
// the router loop's local-queue slot — the same intra-cycle position the
// per-hop pipeline delivers from, so handler side effects interleave
// identically. Bookkeeping is cleared before the handler runs: a handler
// that immediately injects new traffic must not see the delivered flit as
// still pending.
func (m *Mesh) deliverExpress(f *exFlit, cycle uint64, tile int) {
	m.walkPath(f.src, f.dst, func(k, etile, edir int) bool {
		if m.exEdges[edgeKey(etile, edir)].f == f {
			m.exEdges[edgeKey(etile, edir)] = exEdge{}
		}
		return true
	})
	m.setExLocal(tile, nil)
	m.exCount--
	m.Stats.Messages++
	m.Stats.Hops += uint64(f.hops)
	m.Stats.InFlight--
	m.Stats.ExpressDeliveries++
	if m.obs != nil {
		m.obs.ExpressDelivery(cycle, f.inject, f.src, f.dst, f.hops)
	}
	m.handler(cycle, tile, f.port, f.payload)
}
