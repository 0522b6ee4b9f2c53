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

// TestConsiderWarpLattice holds the issue stage's early returns to Algorithm
// 1's specification on the whole situation lattice: warp state × instruction
// buffer ready or refilling × head operand free, behind a load or behind a
// compute result × instruction class × LSU accepting or refusing (three
// causes) × SFU busy or free × issue slot free or taken. In every situation
// considerWarp's observation is core.ClassifyInstruction of the equivalent
// Cond, and only the issuing situations move the pc, the slots and
// issuedThisTick.
func TestConsiderWarpLattice(t *testing.T) {
	const (
		cycle = 100
		load  = core.LoadID(77)
	)
	type pend int
	const (
		pendFree pend = iota
		pendOnLoad
		pendOnCompute
	)
	classes := []struct {
		name  string
		prog  *isa.Program
		class isa.Class
	}{
		{"alu", isa.NewBuilder("alu").AddI(2, 1, 1).Exit().MustBuild(), isa.ClassALU},
		{"sfu", isa.NewBuilder("sfu").SFU(2, 1).Exit().MustBuild(), isa.ClassSFU},
		{"mem", isa.NewBuilder("mem").Ld(2, 1, 0).Exit().MustBuild(), isa.ClassMem},
		{"atomic", isa.NewBuilder("atomic").AtomAdd(2, 1, 3, isa.Relaxed).Exit().MustBuild(), isa.ClassAtomic},
	}
	lsuCauses := []core.StructCause{core.StructNone, core.StructBankConflict, core.StructMSHRFull, core.StructStoreBufferFull}
	var cases, issues int
	for _, state := range []warpState{warpReady, warpBarrier, warpAtomic, warpFinished} {
		for _, ibufReady := range []bool{true, false} {
			for _, p := range []pend{pendFree, pendOnLoad, pendOnCompute} {
				for _, cl := range classes {
					if got := cl.prog.Fetch(0).Class; got != cl.class {
						t.Fatalf("%s program decodes as class %v", cl.name, got)
					}
					for _, cause := range lsuCauses {
						for _, sfuBusy := range []bool{false, true} {
							for _, slots := range []int{0, 1} {
								sm := schedSM(t)
								sm.startBlock(&Kernel{Name: cl.name, Program: cl.prog, Blocks: 1, WarpsPerBlock: 2}, 0)
								w := sm.warps[1]
								w.state = state
								w.regs[1] = 0x1000
								if !ibufReady {
									w.ibufReadyAt = cycle + 1
								}
								switch p {
								case pendOnLoad:
									w.setPendingLoad(1, load)
								case pendOnCompute:
									w.setPendingCompute(1, cycle+3, core.UnitSFU)
								}
								switch cause {
								case core.StructNone:
								case core.StructBankConflict:
									sm.lsu.busyUntil = cycle + 1
								default:
									sm.lsu.held, sm.lsu.blockCause = true, cause
								}
								if sfuBusy {
									sm.sfuBusyUntil = cycle + 1
								}
								sm.slots = slots

								var cond core.Cond
								switch {
								case state == warpBarrier || state == warpAtomic:
									cond.SyncBlocked = true
								case state == warpFinished:
								case !ibufReady:
									cond.NextUnavailable = true
								default:
									cond.MemDataHazard, cond.PendingLoad = p == pendOnLoad, load
									cond.CompDataHazard, cond.CompDataUnit = p == pendOnCompute, core.UnitSFU
									mem := cl.class == isa.ClassMem || cl.class == isa.ClassAtomic
									cond.MemStructHazard, cond.StructCause = mem && cause != core.StructNone, cause
									cond.CompStructHazard, cond.CompStructUnit = cl.class == isa.ClassSFU && sfuBusy, core.UnitSFU
									cond.Issued = slots > 0 && !cond.MemDataHazard && !cond.CompDataHazard &&
										!cond.MemStructHazard && !cond.CompStructHazard
								}

								name := fmt.Sprintf("state %d ibuf-ready %v pend %d %s lsu %v sfu-busy %v slots %d",
									state, ibufReady, p, cl.name, cause, sfuBusy, slots)
								want := core.ClassifyInstruction(cond)
								if got := sm.considerWarp(w, cycle); got != want {
									t.Errorf("%s: observed %+v, Algorithm 1 says %+v", name, got, want)
								}
								wantSlots := slots
								if cond.Issued {
									wantSlots--
									issues++
								}
								if moved := w.pc == 1; moved != cond.Issued || sm.issuedThisTick != cond.Issued || sm.slots != wantSlots {
									t.Errorf("%s: pc %d, issuedThisTick %v, slots %d; want issued = %v", name, w.pc, sm.issuedThisTick, sm.slots, cond.Issued)
								}
								cases++
							}
						}
					}
				}
			}
		}
	}
	// Vacuous unless every class issued where it can: with the warp ready, its
	// buffer full, its operand free and a slot open, ALU issues under all 8
	// LSU × SFU settings, SFU under the 4 with it free, memory and atomics
	// under the 2 with the LSU accepting.
	if cases != 4*2*3*4*4*2*2 || issues != 8+4+2+2 {
		t.Fatalf("%d situations, %d issuing", cases, issues)
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

// BenchmarkIssueStageCompute is the stencil shape: two warps, each on a
// dependent ALU chain with a 4-cycle ALU latency, so most cycles every warp
// is a compute-data stall and the rest issue. One op is one issue stage; it
// allocates nothing.
func BenchmarkIssueStageCompute(b *testing.B) {
	sm := schedSM(b)
	sm.gpu.Cfg.ALULat = 4
	p := isa.NewBuilder("chain")
	top := p.Here()
	p.AddI(1, 1, 1).Add(2, 2, 1).Mul(3, 3, 2).Add(1, 1, 3).Br(top).Exit()
	sm.startBlock(&Kernel{Name: "chain", Program: p.MustBuild(), Blocks: 1, WarpsPerBlock: 2}, 0)
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
