package gpu

import (
	"fmt"
	"sort"
	"testing"

	"gsi/internal/coherence"
	"gsi/internal/core"
	"gsi/internal/isa"
	"gsi/internal/sim"
)

// rebuiltOrder is the consideration order sorted from scratch — greedy warp
// first, the other unfinished warps by (lastIssue, idx) — the permutation
// schedOrder's repair has to reproduce.
func rebuiltOrder(sm *SM) []int {
	var order, rest []int
	for i, w := range sm.warps {
		switch {
		case w.state == warpFinished:
		case i == sm.greedy:
			order = append(order, i)
		default:
			rest = append(rest, i)
		}
	}
	sort.Slice(rest, func(a, b int) bool {
		wa, wb := sm.warps[rest[a]], sm.warps[rest[b]]
		if wa.lastIssue != wb.lastIssue {
			return wa.lastIssue < wb.lastIssue
		}
		return rest[a] < rest[b]
	})
	return append(order, rest...)
}

// schedSM returns the one SM of a default-configuration GPU (IssueWidth 2).
func schedSM(tb testing.TB) *SM {
	cfg := sim.Default()
	cfg.NumSMs = 1
	g, err := New(cfg, coherence.PoliciesFor(1, coherence.DeNovo{}))
	if err != nil {
		tb.Fatal(err)
	}
	return g.SMs[0]
}

type schedRNG uint64

func (r *schedRNG) next(bound int) int {
	*r = *r*6364136223846793005 + 1442695040888963407
	return int(uint64(*r) >> 33 % uint64(bound))
}

// TestSchedOrderRepairMatchesRebuild drives the real issue stage — eight
// warps, each on its own random run of no-ops and barriers ending in an exit,
// random instruction-buffer stalls deciding who can issue each cycle — and
// holds the repaired order to the one sorted from scratch before every cycle:
// across issues by the greedy warp alone, by two warps in one cycle (equal
// lastIssue, ordered by index), exits anywhere in the order, barrier releases
// and a second block on the same SM.
func TestSchedOrderRepairMatchesRebuild(t *testing.T) {
	var repairs, ties, reused int
	for seed := 1; seed <= 40; seed++ {
		rng := schedRNG(seed)
		sm := schedSM(t)
		if sm.gpu.Cfg.IssueWidth != 2 {
			t.Fatalf("IssueWidth = %d; the tie cases need 2", sm.gpu.Cfg.IssueWidth)
		}
		const warps = 8
		cycle := uint64(0)
		for block := 0; block < 2; block++ {
			k := &Kernel{Name: "sched", Program: isa.NewBuilder("exit").Exit().MustBuild(), Blocks: 2, WarpsPerBlock: warps}
			sm.startBlock(k, block)
			for _, w := range sm.warps {
				b := isa.NewBuilder(fmt.Sprintf("w%d", w.idx))
				for n := rng.next(40); n > 0; n-- {
					if rng.next(8) == 0 {
						b.Bar()
					} else {
						b.Nop()
					}
				}
				w.prog = b.Exit().MustBuild()
			}
			for steps := 0; sm.finished < warps; steps++ {
				if steps > 5000 {
					t.Fatalf("seed %d block %d: warps did not finish: %s", seed, block, sm.Diagnose())
				}
				cycle++
				for _, w := range sm.warps {
					if rng.next(3) == 0 {
						w.ibufReadyAt = cycle + uint64(rng.next(3))
					}
				}
				if sm.orderValid {
					reused++
				} else {
					repairs++
				}
				got, want := fmt.Sprint(sm.schedOrder()), fmt.Sprint(rebuiltOrder(sm))
				if got != want {
					t.Fatalf("seed %d block %d cycle %d: repaired order %s, rebuilt %s (greedy %d)",
						seed, block, cycle, got, want, sm.greedy)
				}
				sm.issueStage(cycle)
				if sm.slots == 0 {
					ties++
				}
			}
		}
	}
	// Vacuous unless the runs repaired, reused and tied.
	if repairs < 1000 || reused < 1000 || ties < 1000 {
		t.Fatalf("%d repairs, %d reuses, %d two-issue cycles: the sequences did not exercise the cache", repairs, reused, ties)
	}
}

// TestConsiderWarpMatchesClassifyInstruction: in every warp state the issue
// stage appends the observation Algorithm 1 derives from the warp's issue
// condition — the sync stall that blocked warps get without building one
// included — and only an issuable warp with a free slot moves.
func TestConsiderWarpMatchesClassifyInstruction(t *testing.T) {
	const cycle = 100
	for _, tc := range []struct {
		name        string
		state       warpState
		ibufReadyAt uint64
		slots       int
		cond        core.Cond
	}{
		{"atomic", warpAtomic, 0, 2, core.Cond{SyncBlocked: true}},
		{"barrier", warpBarrier, 0, 2, core.Cond{SyncBlocked: true}},
		{"atomic behind a refilling buffer", warpAtomic, cycle + 5, 2, core.Cond{SyncBlocked: true}},
		{"finished", warpFinished, 0, 2, core.Cond{}},
		{"ready, buffer refilling", warpReady, cycle + 1, 2, core.Cond{NextUnavailable: true}},
		{"ready, issues", warpReady, 0, 2, core.Cond{Issued: true}},
		{"ready, no slot left", warpReady, 0, 0, core.Cond{}},
	} {
		sm := schedSM(t)
		prog := isa.NewBuilder("nops").Nop().Nop().Exit().MustBuild()
		sm.startBlock(&Kernel{Name: "nops", Program: prog, Blocks: 1, WarpsPerBlock: 2}, 0)
		w := sm.warps[1]
		w.state, w.ibufReadyAt = tc.state, tc.ibufReadyAt
		sm.slots = tc.slots
		sm.considerWarp(w, cycle)
		if len(sm.obsBuf) != 1 || sm.obsBuf[0] != core.ClassifyInstruction(tc.cond) {
			t.Errorf("%s: observed %+v, Algorithm 1 says %+v", tc.name, sm.obsBuf, core.ClassifyInstruction(tc.cond))
		}
		if issued := w.pc == 1; issued != tc.cond.Issued || sm.issuedThisTick != tc.cond.Issued {
			t.Errorf("%s: pc %d, issuedThisTick %v; want issued = %v", tc.name, w.pc, sm.issuedThisTick, tc.cond.Issued)
		}
	}
}

// BenchmarkIssueStageSpin is the spin shape: eight warps, seven blocked on
// an atomic, one looping on ALU work. One op is one issue stage; it allocates
// nothing.
func BenchmarkIssueStageSpin(b *testing.B) {
	sm := schedSM(b)
	p := isa.NewBuilder("spin")
	top := p.Here()
	p.AddI(1, 1, 1).AddI(2, 2, 1).AddI(3, 3, 1).AddI(4, 4, 1).Br(top).Exit()
	sm.startBlock(&Kernel{Name: "spin", Program: p.MustBuild(), Blocks: 1, WarpsPerBlock: 8}, 0)
	for _, w := range sm.warps[1:] {
		w.state = warpAtomic
	}
	cycle := uint64(0)
	for ; cycle < 1000; cycle++ {
		sm.issueStage(cycle)
	}
	issued := sm.InstrsIssued
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sm.issueStage(cycle)
		cycle++
	}
	b.ReportMetric(float64(sm.InstrsIssued-issued)/float64(b.N), "instrs/op")
}
