package gpu

import (
	"testing"

	"gsi/internal/coherence"
	"gsi/internal/core"
	"gsi/internal/sim"
)

// parkedSM returns SM 0 of a fresh GPU as the engine leaves it parked after
// a Sync-stalled tick at credited-1, with a wake handle that counts calls.
func parkedSM(t *testing.T, credited uint64) (*GPU, *SM, *int) {
	t.Helper()
	g, err := New(sim.Default(), coherence.PoliciesFor(sim.Default().NumSMs, coherence.DeNovo{}))
	if err != nil {
		t.Fatal(err)
	}
	sm := g.SMs[0]
	woken := new(int)
	sm.wake = func() { *woken++ }
	sm.lastClass = core.CycleClass{Kind: core.Sync}
	sm.credited = credited
	return g, sm, woken
}

// TestNapPokeAtTimedBoundCreditsOnce: a nap can end two ways in the same
// cycle — CoreMem pokes the SM (the mesh delivers before SMs tick) and the
// engine's park falls due and ticks it. Each napped cycle must be credited
// exactly once, and the tick at the bound itself exactly once.
func TestNapPokeAtTimedBoundCreditsOnce(t *testing.T) {
	for _, poked := range []bool{false, true} {
		g, sm, woken := parkedSM(t, 10)
		if poked {
			sm.poke(20)
			sm.poke(20) // a second delivery in the same cycle owes nothing more
			if *woken != 2 {
				t.Fatalf("two pokes called Wake %d times, want 2", *woken)
			}
		}
		sm.Tick(20) // no block resident: the tick itself observes one Idle cycle
		c := g.Insp.SM(0)
		if c.Cycles[core.Sync] != 10 || c.Cycles[core.Idle] != 1 || c.Total() != 11 {
			t.Errorf("poked=%v: credited sync=%d idle=%d total=%d, want 10/1/11",
				poked, c.Cycles[core.Sync], c.Cycles[core.Idle], c.Total())
		}
		if sm.naps != 1 || sm.nappedCycles != 10 {
			t.Errorf("poked=%v: naps=%d nappedCycles=%d, want 1/10", poked, sm.naps, sm.nappedCycles)
		}
		if sm.credited != 21 {
			t.Errorf("poked=%v: credited = %d after the tick at 20, want 21", poked, sm.credited)
		}
		if got := sm.NextEvent(20); got != sim.NoEvent {
			t.Errorf("poked=%v: drained SM's NextEvent = %d, want NoEvent", poked, got)
		}
	}
}

// TestNapPokeWithNothingOwedStillWakes: an SM parked after its tick at
// cycle-1 owes nothing when a delivery lands at cycle, yet the poke must
// still end the park so the SM ticks in the cycle the delivery lands.
func TestNapPokeWithNothingOwedStillWakes(t *testing.T) {
	g, sm, woken := parkedSM(t, 20)
	sm.poke(20)
	if *woken != 1 {
		t.Errorf("poke with nothing owed called Wake %d times, want 1", *woken)
	}
	if n := g.Insp.SM(0).Total(); n != 0 || sm.naps != 0 || sm.credited != 20 {
		t.Errorf("poke with nothing owed credited %d cycles (naps=%d credited=%d), want 0/0/20", n, sm.naps, sm.credited)
	}
}
