package gpu_test

import (
	"errors"
	"strings"
	"testing"

	"gsi/internal/coherence"
	"gsi/internal/core"
	"gsi/internal/cpu"
	"gsi/internal/gpu"
	"gsi/internal/isa"
	"gsi/internal/mem"
	"gsi/internal/sim"
	"gsi/internal/workloads"
)

// runEntry runs one registry workload at small scale the way gsi.Run does
// and returns the GPU for inspection. tune adjusts the system after the
// entry's own tuning; prep adjusts the GPU before the workload is built
// (the nap audit, the memory units' ablation switches).
func runEntry(t *testing.T, e *workloads.Entry, policy mem.Policy, mode sim.EngineMode,
	tune func(*sim.Config), prep func(*gpu.GPU)) *gpu.GPU {
	t.Helper()
	w, err := e.BuildSmall(nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := e.TuneSystem(true, nil, sim.Default())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Engine = mode
	if tune != nil {
		tune(&cfg)
	}
	g, err := gpu.New(cfg, coherence.PoliciesFor(cfg.NumSMs, policy))
	if err != nil {
		t.Fatal(err)
	}
	if prep != nil {
		prep(g)
	}
	h := cpu.NewHost(g.Sys.Backing)
	k, verify, err := w.Build(h)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Launch(k); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if err := verify(h); err != nil {
		t.Fatal(err)
	}
	return g
}

// mshrFullEvents sums the counter over every core.
func mshrFullEvents(g *gpu.GPU) (n uint64) {
	for _, c := range g.Sys.Cores {
		n += c.Stats.MSHRFullEvents
	}
	return n
}

// sfifo and ownedAtomics turn on the memory units' ablation switches:
// stores keep issuing during a release flush, and atomics to an owned line
// run at the L1 — the path on which CoreMem's own Tick, not a delivery,
// hands the SM its atomic result. (Not both at once: spin-locking UTS
// livelocks under the combination on the dense loop too.)
func sfifo(g *gpu.GPU) {
	for _, cm := range g.Sys.Cores {
		cm.SFIFO = true
	}
}

func ownedAtomics(g *gpu.GPU) {
	for _, cm := range g.Sys.Cores {
		cm.OwnedAtomics = true
	}
}

// napVariants are the memory-side configurations the nap tests cover. skip
// names a workload left out of a variant: under owned atomics UTS's one
// global lock makes the spinners issue forty times the instructions, which
// costs the suite more than the rest of the pool together, and UTSD drives
// the same local-atomic path.
var napVariants = []struct {
	name   string
	policy mem.Policy
	prep   func(*gpu.GPU)
	skip   string
}{
	{name: "gpu", policy: coherence.GPUCoherence{}},
	{name: "denovo", policy: coherence.DeNovo{}},
	{name: "denovo-sfifo", policy: coherence.DeNovo{}, prep: sfifo},
	{name: "denovo-owned-atomics", policy: coherence.DeNovo{}, prep: ownedAtomics, skip: "uts"},
}

// TestNapAuditWorkloadPool enforces the poke contract where it is broken,
// not as a byte diff 200k cycles later: every registry workload runs under
// both protocols (and with the ablation switches on) with the nap audit
// on, which ticks each napping SM anyway and fails the moment a warp
// issues, the block retires or the classification moves inside a window
// the SM promised was frozen — the signature of a callback that feeds SM
// state without poking, or of a NextEvent that under-promises. The ablation
// variants are configurations the figure lattice does not run, so there the
// audited run is also held to one dense run: same stall counts, same
// per-core memory statistics.
func TestNapAuditWorkloadPool(t *testing.T) {
	reg := workloads.Builtins()
	for _, name := range reg.Names() {
		for _, v := range napVariants {
			if name == v.skip {
				continue
			}
			name, v := name, v
			t.Run(name+"/"+v.name, func(t *testing.T) {
				t.Parallel()
				e, _ := reg.Lookup(name)
				failures := 0
				g := runEntry(t, e, v.policy, sim.EngineSkip, nil, func(g *gpu.GPU) {
					if v.prep != nil {
						v.prep(g)
					}
					g.SetNapAudit(func(sm int, cycle uint64, problem string) {
						if failures++; failures <= 3 {
							t.Errorf("sm%d cycle %d: %s", sm, cycle, problem)
						}
					})
				})
				if g.EngineStats.Naps == 0 {
					t.Errorf("no SM ever napped: the audit checked nothing")
				}
				if v.prep == nil {
					return // the plain protocols are the figure lattice's job
				}
				dense := runEntry(t, e, v.policy, sim.EngineDense, nil, v.prep)
				if d, n := dense.Insp.Aggregate(), g.Insp.Aggregate(); d != n {
					t.Errorf("counts diverge from dense:\n%+v\nvs\n%+v", n, d)
				}
				for i, c := range dense.Sys.Cores {
					if got := g.Sys.Cores[i].Stats; got != c.Stats {
						t.Errorf("core %d memory stats diverge from dense:\n%+v\nvs\n%+v", i, got, c.Stats)
					}
				}
			})
		}
	}
}

// TestNapMemDataAttributionMatchesDense: a warp blocked on a load naps
// through the miss, and the fill lands mid-nap. The poke credits the napped
// cycles before the load completes, so deferred attribution files them in
// the same DataWhere bucket the dense loop does.
func TestNapMemDataAttributionMatchesDense(t *testing.T) {
	const data = uint64(0x2_0000)
	b := isa.NewBuilder("loaduse")
	b.MovI(1, int64(data))
	b.Ld(2, 1, 0)
	b.Add(3, 2, 2) // blocks until the fill returns
	b.Exit()
	prog := b.MustBuild()
	runMode := func(mode sim.EngineMode) (*gpu.GPU, uint64) {
		cfg := smallCfg(1)
		cfg.Engine = mode
		g, err := gpu.New(cfg, coherence.PoliciesFor(1, coherence.DeNovo{}))
		if err != nil {
			t.Fatal(err)
		}
		cycles := run(t, g, &gpu.Kernel{Name: "loaduse", Program: prog, Blocks: 1, WarpsPerBlock: 1})
		return g, cycles
	}
	dense, denseCycles := runMode(sim.EngineDense)
	want := *dense.Insp.SM(0)
	if want.Cycles[core.MemData] == 0 || want.MemData[core.WhereMemory] == 0 {
		t.Fatalf("dense run has no memory-serviced data stalls to attribute: %+v", want)
	}
	for _, mode := range []sim.EngineMode{sim.EngineQuiescent, sim.EngineSkip} {
		g, cycles := runMode(mode)
		if cycles != denseCycles {
			t.Errorf("%s: %d cycles, dense %d", mode, cycles, denseCycles)
		}
		if got := *g.Insp.SM(0); got != want {
			t.Errorf("%s: counts diverge from dense:\n%+v\nvs\n%+v", mode, got, want)
		}
		if st := g.EngineStats; st.NappedSMCycles < want.Cycles[core.MemData]/2 {
			t.Errorf("%s: only %d SM-cycles napped of %d memory-data stall cycles", mode, st.NappedSMCycles, want.Cycles[core.MemData])
		}
	}
}

// TestNapCreditsMSHRFullEvents: with four MSHR entries GUPS spends most of
// its time with the LSU op refused for a full MSHR. Those retries no longer
// keep the SM awake; the nap owes one MSHRFullEvents per napped cycle, and
// the total must equal the dense loop's retry-by-retry count.
func TestNapCreditsMSHRFullEvents(t *testing.T) {
	e, _ := workloads.Builtins().Lookup("gups")
	for _, p := range []mem.Policy{coherence.GPUCoherence{}, coherence.DeNovo{}} {
		small := func(cfg *sim.Config) { cfg.MSHREntries = 4 }
		dense := runEntry(t, e, p, sim.EngineDense, small, nil)
		want := mshrFullEvents(dense)
		if want == 0 {
			t.Fatalf("%s: dense GUPS with mshr=4 recorded no MSHR-full events", p.Name())
		}
		for _, mode := range []sim.EngineMode{sim.EngineQuiescent, sim.EngineSkip} {
			g := runEntry(t, e, p, mode, small, nil)
			if got := mshrFullEvents(g); got != want {
				t.Errorf("%s %s: MSHRFullEvents = %d, dense %d", p.Name(), mode, got, want)
			}
			if agg, denseAgg := g.Insp.Aggregate(), dense.Insp.Aggregate(); agg != denseAgg {
				t.Errorf("%s %s: counts diverge from dense:\n%+v\nvs\n%+v", p.Name(), mode, agg, denseAgg)
			}
		}
	}
}

// TestNapDiagnosisAndConservationOnWatchdog: a napping SM is parked in the
// engine, so the watchdog dump must say on its line until when it is parked
// (the engine) and what it owes, credited through which cycle in which
// classification (the SM); and the cycles still owed when the run fails are
// credited through the final cycle, so every SM cycle is classified exactly
// once on the error path too.
func TestNapDiagnosisAndConservationOnWatchdog(t *testing.T) {
	const data = uint64(0x2_0000)
	b := isa.NewBuilder("loaduse")
	b.MovI(1, int64(data))
	b.Ld(2, 1, 0)
	b.Add(3, 2, 2)
	b.Exit()
	for _, mode := range []sim.EngineMode{sim.EngineQuiescent, sim.EngineSkip} {
		cfg := smallCfg(2)
		cfg.Engine = mode
		cfg.MaxCycles = 40 // well inside the miss latency
		g, err := gpu.New(cfg, coherence.PoliciesFor(2, coherence.DeNovo{}))
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Launch(&gpu.Kernel{Name: "loaduse", Program: b.MustBuild(), Blocks: 1, WarpsPerBlock: 1}); err != nil {
			t.Fatal(err)
		}
		cycles, err := g.Run()
		if !errors.Is(err, sim.ErrMaxCycles) {
			t.Fatalf("%s: err = %v, want ErrMaxCycles", mode, err)
		}
		var line string
		for _, l := range strings.Split(err.Error(), "\n") {
			if strings.HasPrefix(strings.TrimSpace(l), "sm0 ") {
				line = l
			}
		}
		for _, want := range []string{"parked until woken", "credited through ", "class=memory data", "kernel=loaduse"} {
			if !strings.Contains(line, want) {
				t.Errorf("%s: sm0's diagnosis line %q missing %q:\n%v", mode, line, want, err)
			}
		}
		if got := g.Insp.Aggregate().Total(); got != cycles*2 {
			t.Errorf("%s: classified %d SM-cycles, want %d (2 SMs x %d cycles)", mode, got, cycles*2, cycles)
		}
	}
}
