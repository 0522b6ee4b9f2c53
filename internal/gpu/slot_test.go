package gpu

import (
	"testing"

	"gsi/internal/coherence"
	"gsi/internal/core"
	"gsi/internal/sim"
)

// TestNapPokeAtTimedBoundCreditsOnce: a nap can end two ways in the same
// cycle — CoreMem pokes it (the mesh delivers before SMs tick) and its
// timed bound falls due in the slot's own Tick. Each napped cycle must be
// credited exactly once, and the tick at the bound itself exactly once.
func TestNapPokeAtTimedBoundCreditsOnce(t *testing.T) {
	for _, poked := range []bool{false, true} {
		g, err := New(sim.Default(), coherence.PoliciesFor(sim.Default().NumSMs, coherence.DeNovo{}))
		if err != nil {
			t.Fatal(err)
		}
		sm := g.SMs[0]
		woken := 0
		s := &smSlot{sm: sm, naps: true, wake: func() { woken++ }}
		sm.lastClass = core.CycleClass{Kind: core.Sync}
		s.napping, s.napFrom, s.napUntil = true, 10, 20
		if got := s.NextEvent(12); got != 20 {
			t.Fatalf("NextEvent while napping = %d, want the bound 20 for the engine to park on", got)
		}
		if n := g.Insp.SM(0).Total(); n != 0 {
			t.Fatalf("%d cycles credited mid-nap, want none until the nap ends", n)
		}
		if poked {
			s.poke(20)
			if woken != 1 {
				t.Fatalf("poke re-armed the slot %d times, want 1", woken)
			}
			s.poke(20) // a second delivery in the same cycle finds no nap
		}
		s.Tick(20) // no block resident: the tick itself observes one Idle cycle
		c := g.Insp.SM(0)
		if c.Cycles[core.Sync] != 10 || c.Cycles[core.Idle] != 1 || c.Total() != 11 {
			t.Errorf("poked=%v: credited sync=%d idle=%d total=%d, want 10/1/11",
				poked, c.Cycles[core.Sync], c.Cycles[core.Idle], c.Total())
		}
		if s.nappedCycles != 10 {
			t.Errorf("poked=%v: nappedCycles = %d, want 10", poked, s.nappedCycles)
		}
		if got := s.NextEvent(20); !s.napping || got != sim.NoEvent {
			t.Errorf("poked=%v: drained SM should nap with no bound after its tick (napping=%v next=%d)", poked, s.napping, got)
		}
	}
}
