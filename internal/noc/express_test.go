package noc

import (
	"fmt"
	"testing"
)

// lockstep drives two meshes — express-on and express-off — through the
// identical send schedule. send injects at the cycle the meshes have not
// ticked yet; sendPostTick injects at the cycle they just ticked, which is
// the engine's actual per-cycle ordering (the mesh is registered first, so
// cores Send after it has ticked their cycle). Both orderings must produce
// identical worlds.
type lockstep struct {
	on, off *Mesh
	logOn   []delivery
	logOff  []delivery
	cycle   uint64
	// liveErr is the first live-bit violation seen after any Send or Tick
	// on either mesh (see liveBitsErr); diff reports it.
	liveErr error
}

func (ls *lockstep) checkLive(after string) {
	for _, m := range []*Mesh{ls.on, ls.off} {
		if err := liveBitsErr(m); err != nil && ls.liveErr == nil {
			ls.liveErr = fmt.Errorf("after %s at cycle %d (express %v): %w", after, ls.cycle, m.express, err)
		}
	}
}

func newLockstep(w, h, linkLat, routerLat int) *lockstep {
	ls := &lockstep{}
	ls.on = New(w, h, linkLat, routerLat, func(cycle uint64, tile int, port Port, payload any) {
		ls.logOn = append(ls.logOn, delivery{tile, port, payload, cycle})
	})
	ls.on.SetExpress(true)
	ls.off = New(w, h, linkLat, routerLat, func(cycle uint64, tile int, port Port, payload any) {
		ls.logOff = append(ls.logOff, delivery{tile, port, payload, cycle})
	})
	return ls
}

func (ls *lockstep) tick() {
	ls.on.Tick(ls.cycle)
	ls.off.Tick(ls.cycle)
	ls.checkLive("Tick")
	ls.cycle++
}

func (ls *lockstep) send(src, dst int, payload any) {
	ls.on.Send(ls.cycle, src, dst, PortL2, payload)
	ls.off.Send(ls.cycle, src, dst, PortL2, payload)
	ls.checkLive("Send")
}

// sendPostTick injects during the most recently ticked cycle — legal only
// after at least one tick. This exercises curPos's fully-processed branch
// (hasTicked && t <= ticked), which every engine-driven Send goes through.
func (ls *lockstep) sendPostTick(src, dst int, payload any) {
	ls.on.Send(ls.cycle-1, src, dst, PortL2, payload)
	ls.off.Send(ls.cycle-1, src, dst, PortL2, payload)
	ls.checkLive("post-tick Send")
}

// diff compares the two worlds: every delivery (cycle, tile, port,
// payload, order) and the shared traffic statistics must match exactly.
func (ls *lockstep) diff(t *testing.T, label string) {
	t.Helper()
	if ls.liveErr != nil {
		t.Fatalf("%s: %v", label, ls.liveErr)
	}
	if len(ls.logOn) != len(ls.logOff) {
		t.Fatalf("%s: express delivered %d messages, per-hop %d", label, len(ls.logOn), len(ls.logOff))
	}
	for i := range ls.logOn {
		if ls.logOn[i] != ls.logOff[i] {
			t.Fatalf("%s: delivery %d diverges: express %+v, per-hop %+v",
				label, i, ls.logOn[i], ls.logOff[i])
		}
	}
	on, off := ls.on.Stats, ls.off.Stats
	if on.Messages != off.Messages || on.Hops != off.Hops ||
		on.Injected != off.Injected || on.InFlight != off.InFlight {
		t.Fatalf("%s: stats diverge: express %+v, per-hop %+v", label, on, off)
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

// TestExpressUncontendedDeliveryMatchesPerHop: a lone message's express
// delivery cycle is exactly the per-hop pipeline's, for every source and
// destination pair (including src == dst) and several latency settings.
func TestExpressUncontendedDeliveryMatchesPerHop(t *testing.T) {
	for _, lat := range [][2]int{{1, 1}, {2, 1}, {0, 1}, {3, 2}} {
		for src := 0; src < 16; src += 3 {
			for dst := 0; dst < 16; dst += 2 {
				ls := newLockstep(4, 4, lat[0], lat[1])
				ls.send(src, dst, "p")
				for i := 0; i < 80; i++ {
					ls.tick()
				}
				label := fmt.Sprintf("link %d router %d, %d->%d", lat[0], lat[1], src, dst)
				ls.diff(t, label)
				if !ls.on.Quiesced() {
					t.Fatalf("%s: express mesh did not quiesce", label)
				}
				if ls.on.Stats.ExpressDeliveries != 1 {
					t.Fatalf("%s: express deliveries = %d, want 1 (grant should succeed on an empty mesh)",
						label, ls.on.Stats.ExpressDeliveries)
				}
			}
		}
	}
}

// TestExpressMatchesPerHop is the express-routing property test: for
// randomized traffic — bursts that force contention and demotion, quiet
// gaps that let express engage, overlapping and disjoint routes — the
// express-on mesh must produce the byte-identical delivery sequence and
// traffic statistics of the per-hop mesh, at every cycle.
func TestExpressMatchesPerHop(t *testing.T) {
	var demotions, expressed uint64
	for seed := 1; seed <= 60; seed++ {
		rng := xorshift(uint64(seed) * 0x9E3779B97F4A7C15)
		ls := newLockstep(4, 4, 1, 1)
		sent := 0
		for step := 0; step < 120; step++ {
			// A burst of 0-3 sends this cycle — each randomly landing
			// before the cycle's tick or just after the previous one
			// (the engine's ordering) — then a 0-12 cycle gap.
			for n := rng.next(4); n > 0; n-- {
				if ls.cycle > 0 && rng.next(2) == 0 {
					ls.sendPostTick(int(rng.next(16)), int(rng.next(16)), sent)
				} else {
					ls.send(int(rng.next(16)), int(rng.next(16)), sent)
				}
				sent++
			}
			for gap := rng.next(13); ; gap-- {
				ls.tick()
				if gap == 0 {
					break
				}
			}
			ls.diff(t, fmt.Sprintf("seed %d step %d", seed, step))
		}
		for i := 0; i < 200 && !ls.on.Quiesced(); i++ {
			ls.tick()
		}
		label := fmt.Sprintf("seed %d drain", seed)
		ls.diff(t, label)
		if !ls.on.Quiesced() || !ls.off.Quiesced() {
			t.Fatalf("%s: meshes did not quiesce (express in-flight %d, per-hop %d)",
				label, ls.on.Stats.InFlight, ls.off.Stats.InFlight)
		}
		if got := len(ls.logOn); got != sent {
			t.Fatalf("%s: delivered %d of %d messages", label, got, sent)
		}
		demotions += ls.on.Stats.ExpressDemotions
		expressed += ls.on.Stats.ExpressDeliveries
	}
	// The property is vacuous if the schedule never exercised both paths.
	if expressed == 0 {
		t.Fatal("no traffic pattern ever completed an express traversal")
	}
	if demotions == 0 {
		t.Fatal("no traffic pattern ever demoted an express flit back to per-hop")
	}
}

// TestExpressMaterializationEachHop pins mid-flight demotion at every
// interpolated hop: a flit crossing a 4x1 row (virtual pops at cycles 1,
// 3, 5 and delivery at 7) is contended at each cycle of its traversal by
// a message entering each edge of its remaining path, and the resulting
// delivery times must match the per-hop world exactly, with exactly one
// demotion recorded.
func TestExpressMaterializationEachHop(t *testing.T) {
	// Contender sources chosen so the contender's own route enters the
	// express path edge under test: tile k sending east enters (k, East);
	// tile 3 sending to itself enters (3, Local).
	triggers := []struct {
		src, dst int
		name     string
	}{
		{0, 3, "src queue (0,E)"},
		{1, 3, "mid queue (1,E)"},
		{2, 3, "mid queue (2,E)"},
		{3, 3, "ejection queue (3,L)"},
	}
	for _, trig := range triggers {
		for contendAt := uint64(0); contendAt <= 7; contendAt++ {
			ls := newLockstep(4, 1, 1, 1)
			ls.send(0, 3, "flit")
			if ls.on.exCount != 1 {
				t.Fatalf("flit was not granted express on an empty mesh")
			}
			for ls.cycle <= 40 {
				if ls.cycle == contendAt {
					ls.send(trig.src, trig.dst, "contender")
				}
				ls.tick()
			}
			label := fmt.Sprintf("%s at cycle %d", trig.name, contendAt)
			ls.diff(t, label)
			if !ls.on.Quiesced() {
				t.Fatalf("%s: express mesh did not quiesce", label)
			}
			// Demotion fires iff the contender entered a path edge the
			// flit had not yet virtually crossed; in every such case the
			// flit must have re-entered the per-hop pipeline (exactly one
			// demotion, no express delivery for it).
			st := ls.on.Stats
			if st.ExpressDemotions > 1 {
				t.Fatalf("%s: %d demotions for one flit", label, st.ExpressDemotions)
			}
			if st.ExpressDemotions+st.ExpressDeliveries < 1 {
				t.Fatalf("%s: flit neither delivered express nor demoted: %+v", label, st)
			}
		}
	}
}

// TestExpressGrantRequiresCleanPath: a non-empty queue anywhere on the
// route, or a pending express flit sharing an edge, denies the grant; the
// denied message runs per-hop and, on reaching the shared edge, demotes
// the earlier flit.
func TestExpressGrantRequiresCleanPath(t *testing.T) {
	ls := newLockstep(4, 1, 1, 1)
	ls.send(0, 3, 1) // granted: empty mesh
	if ls.on.exCount != 1 {
		t.Fatal("first send was not granted express")
	}
	// The second send shares (1,E),(2,E),(3,L) with the pending flit, so
	// the grant is denied; it then travels per-hop, and its injection push
	// into (1,E) — a pending edge — demotes the first flit on the spot.
	ls.send(1, 3, 2)
	if ls.on.exCount > 1 {
		t.Fatal("overlapping send was granted express despite shared edges")
	}
	if ls.on.Stats.ExpressDemotions != 1 || ls.on.exCount != 0 {
		t.Fatalf("demotions = %d, express in flight = %d; want the overlap to demote the first flit (1, 0)",
			ls.on.Stats.ExpressDemotions, ls.on.exCount)
	}
	for i := 0; i < 40; i++ {
		ls.tick()
	}
	ls.diff(t, "overlap")
	if !ls.on.Quiesced() {
		t.Fatal("express mesh did not quiesce")
	}
}

// TestExpressNextEventReportsDelivery: NextEvent's scan includes the
// express delivery time, so the skip engine can jump the whole traversal
// rather than the 1-2 cycles between per-hop events.
func TestExpressNextEventReportsDelivery(t *testing.T) {
	var got []delivery
	m := New(4, 4, 1, 1, func(cycle uint64, tile int, port Port, payload any) {
		got = append(got, delivery{tile, port, payload, cycle})
	})
	m.SetExpress(true)
	m.Send(0, 0, 15, PortCore, "x")
	want := uint64(0) + 1 + uint64(m.Distance(0, 15))*2 // inject + routerLat + hops*(link+router)
	if next := m.NextEvent(0); next != want {
		t.Fatalf("NextEvent = %d, want the express delivery time %d", next, want)
	}
	// Jump straight to the delivery cycle, as the skip engine would.
	if m.Tick(want) {
		t.Fatalf("mesh still busy after express delivery tick")
	}
	if len(got) != 1 || got[0].cycle != want {
		t.Fatalf("deliveries = %+v, want one at cycle %d", got, want)
	}
	if m.Stats.ExpressDeliveries != 1 || m.Stats.Hops != uint64(m.Distance(0, 15)) {
		t.Fatalf("stats = %+v", m.Stats)
	}
}
