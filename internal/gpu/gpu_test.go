// Tests for the SM core model: tiny kernels run on a real memory system,
// checking functional results, scoreboard behaviour, synchronization, and
// the stall classifications GSI observes.
package gpu_test

import (
	"errors"
	"strings"
	"testing"

	"gsi/internal/coherence"
	"gsi/internal/core"
	"gsi/internal/gpu"
	"gsi/internal/isa"
	"gsi/internal/mem"
	"gsi/internal/scratchpad"
	"gsi/internal/sim"
)

func smallCfg(sms int) sim.Config {
	cfg := sim.Default()
	cfg.NumSMs = sms
	cfg.MaxCycles = 2_000_000
	return cfg
}

func newGPU(t *testing.T, sms int, policy mem.Policy) *gpu.GPU {
	t.Helper()
	g, err := gpu.New(smallCfg(sms), coherence.PoliciesFor(sms, policy))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func run(t *testing.T, g *gpu.GPU, k *gpu.Kernel) uint64 {
	t.Helper()
	if err := g.Launch(k); err != nil {
		t.Fatal(err)
	}
	cycles, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	return cycles
}

func TestALUAndStoreKernel(t *testing.T) {
	// result = (3+4)*6 stored per warp at RES + warp*8.
	const res = uint64(0x1_0000)
	b := isa.NewBuilder("alu")
	b.MovI(1, 3).MovI(2, 4).Add(3, 1, 2).MovI(4, 6).Mul(3, 3, 4)
	b.St(10, 0, 3)
	b.Exit()
	prog := b.MustBuild()

	g := newGPU(t, 1, coherence.DeNovo{})
	k := &gpu.Kernel{
		Name: "alu", Program: prog, Blocks: 1, WarpsPerBlock: 4,
		InitRegs: func(block, warp int, regs *[isa.NumRegs]uint64) {
			regs[10] = res + uint64(warp)*8
		},
	}
	run(t, g, k)
	for w := 0; w < 4; w++ {
		if got := g.Sys.Backing.Load64(res + uint64(w)*8); got != 42 {
			t.Errorf("warp %d result = %d, want 42", w, got)
		}
	}
}

func TestLoopAndBranchKernel(t *testing.T) {
	// Sum 1..10 with a loop; exercises backward branches and the
	// instruction buffer refill (control stalls).
	const res = uint64(0x1_0000)
	b := isa.NewBuilder("loop")
	b.MovI(1, 0)  // sum
	b.MovI(2, 1)  // i
	b.MovI(3, 11) // bound
	top := b.Here()
	b.Add(1, 1, 2)
	b.AddI(2, 2, 1)
	b.BLT(2, 3, top)
	b.MovI(4, int64(res))
	b.St(4, 0, 1)
	b.Exit()
	g := newGPU(t, 1, coherence.DeNovo{})
	run(t, g, &gpu.Kernel{Name: "loop", Program: b.MustBuild(), Blocks: 1, WarpsPerBlock: 1})
	if got := g.Sys.Backing.Load64(res); got != 55 {
		t.Fatalf("sum = %d, want 55", got)
	}
	// Control stalls must have been observed (taken branches flush the
	// instruction buffer).
	if g.Insp.SM(0).Cycles[core.Control] == 0 {
		t.Error("no control stalls recorded for a branchy kernel")
	}
}

func TestLoadUseProducesMemDataStalls(t *testing.T) {
	const data = uint64(0x2_0000)
	b := isa.NewBuilder("loaduse")
	b.MovI(1, int64(data))
	b.Ld(2, 1, 0)   // cold load
	b.AddI(3, 2, 1) // immediately dependent
	b.St(1, 8, 3)
	b.Exit()
	g := newGPU(t, 1, coherence.DeNovo{})
	g.Sys.Backing.Store64(data, 41)
	run(t, g, &gpu.Kernel{Name: "loaduse", Program: b.MustBuild(), Blocks: 1, WarpsPerBlock: 1})
	if got := g.Sys.Backing.Load64(data + 8); got != 42 {
		t.Fatalf("result = %d, want 42", got)
	}
	c := g.Insp.SM(0)
	if c.Cycles[core.MemData] == 0 {
		t.Fatal("no memory data stalls for a load-use chain")
	}
	if c.MemData[core.WhereMemory] == 0 {
		t.Fatal("cold miss stalls not attributed to main memory")
	}
}

func TestScoreboardWAW(t *testing.T) {
	// A second write to a pending-load register must wait (WAW), so the
	// final value is the MovI's, not the load's.
	const data = uint64(0x2_0000)
	b := isa.NewBuilder("waw")
	b.MovI(1, int64(data))
	b.Ld(2, 1, 0)
	b.MovI(2, 7) // WAW on r2: must not complete before the load
	b.St(1, 8, 2)
	b.Exit()
	g := newGPU(t, 1, coherence.DeNovo{})
	g.Sys.Backing.Store64(data, 999)
	run(t, g, &gpu.Kernel{Name: "waw", Program: b.MustBuild(), Blocks: 1, WarpsPerBlock: 1})
	if got := g.Sys.Backing.Load64(data + 8); got != 7 {
		t.Fatalf("result = %d, want 7 (MovI after load)", got)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	// Each warp stores its id, all barrier, then warp 0 sums the values:
	// without the barrier the sum would miss late warps. Uses the
	// scratchpad so data is SM-local.
	const n = 4
	b := isa.NewBuilder("bar")
	b.StL(10, 0, 11) // pad[warp*8] = warp id + 1
	atBar := b.NewLabel()
	b.BNE(11, 12, atBar) // warps 1..3 go straight to the barrier
	b.MovI(7, 0x3_1000)
	b.AtomAdd(8, 7, 12, isa.Relaxed) // warp 0 blocks on an L2 atomic first
	b.Bind(atBar)
	b.Bar()
	done := b.NewLabel()
	b.BNE(11, 12, done) // only warp with id+1==1 (warp 0) sums
	b.MovI(1, 0)
	b.MovI(2, 0) // i
	b.MovI(3, n)
	top := b.Here()
	b.MulI(4, 2, 8)
	b.LdL(5, 4, 0)
	b.Add(1, 1, 5)
	b.AddI(2, 2, 1)
	b.BLT(2, 3, top)
	b.MovI(6, 0x3_0000)
	b.St(6, 0, 1)
	b.Bind(done)
	b.Exit()
	g := newGPU(t, 1, coherence.DeNovo{})
	k := &gpu.Kernel{
		Name: "bar", Program: b.MustBuild(), Blocks: 1, WarpsPerBlock: n,
		Local: gpu.LocalScratch,
		InitRegs: func(block, warp int, regs *[isa.NumRegs]uint64) {
			regs[10] = uint64(warp) * 8
			regs[11] = uint64(warp) + 1
			regs[12] = 1
		},
	}
	run(t, g, k)
	want := uint64(n * (n + 1) / 2)
	if got := g.Sys.Backing.Load64(0x3_0000); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
	if g.Insp.SM(0).Cycles[core.Sync] == 0 {
		t.Error("no synchronization stalls recorded around a barrier")
	}
}

func TestAtomicCASLockBetweenWarps(t *testing.T) {
	// Two warps increment a shared counter 10 times each under a CAS
	// lock; the final value proves mutual exclusion (a lost update would
	// leave it short).
	const lock, counter = uint64(0x4_0000), uint64(0x4_0040)
	b := isa.NewBuilder("lock")
	b.MovI(1, int64(lock))
	b.MovI(2, int64(counter))
	b.MovI(3, 0)  // zero
	b.MovI(4, 1)  // one
	b.MovI(5, 0)  // i
	b.MovI(6, 10) // iters
	top := b.Here()
	acq := b.Here()
	b.AtomCAS(7, 1, 3, 4, isa.Acquire)
	b.BNE(7, 3, acq)
	b.Ld(8, 2, 0)
	b.AddI(8, 8, 1)
	b.St(2, 0, 8)
	b.AtomExch(7, 1, 3, isa.Release)
	b.AddI(5, 5, 1)
	b.BLT(5, 6, top)
	b.Exit()
	g := newGPU(t, 2, coherence.DeNovo{})
	// One warp per block, two blocks on two SMs: true inter-SM locking.
	run(t, g, &gpu.Kernel{Name: "lock", Program: b.MustBuild(), Blocks: 2, WarpsPerBlock: 1})
	if got := g.Sys.Backing.Load64(counter); got != 20 {
		t.Fatalf("counter = %d, want 20 (lost update => mutual exclusion broken)", got)
	}
}

func TestNoRetAtomicDoesNotBlock(t *testing.T) {
	const ctr = uint64(0x5_0000)
	b := isa.NewBuilder("noret")
	b.MovI(1, int64(ctr))
	b.MovI(2, 1)
	b.AtomAddNR(1, 2, isa.Relaxed)
	b.AtomAddNR(1, 2, isa.Relaxed)
	b.Exit()
	g := newGPU(t, 1, coherence.DeNovo{})
	cycles := run(t, g, &gpu.Kernel{Name: "noret", Program: b.MustBuild(), Blocks: 1, WarpsPerBlock: 1})
	if got := g.Sys.Backing.Load64(ctr); got != 2 {
		t.Fatalf("counter = %d, want 2", got)
	}
	// Two blocking atomics would serialize into ~2 L2 round trips; the
	// fire-and-forget pair plus drain must be well under that.
	if cycles > 250 {
		t.Errorf("fire-and-forget atomics took %d cycles", cycles)
	}
}

func TestCycleAccounting(t *testing.T) {
	// The inspector must classify exactly one observation per SM per
	// cycle: totals equal the run length times the SM count.
	b := isa.NewBuilder("acct")
	b.MovI(1, 1)
	b.FMA(2, 1, 1)
	b.Exit()
	g := newGPU(t, 3, coherence.DeNovo{})
	cycles := run(t, g, &gpu.Kernel{Name: "acct", Program: b.MustBuild(), Blocks: 3, WarpsPerBlock: 2})
	agg := g.Insp.Aggregate()
	if agg.Total() != cycles*3 {
		t.Fatalf("classified %d cycles, want %d (3 SMs x %d)", agg.Total(), cycles*3, cycles)
	}
}

func TestBlockDispatchRoundRobin(t *testing.T) {
	// More blocks than SMs: blocks queue and every block runs.
	const res = uint64(0x6_0000)
	b := isa.NewBuilder("blocks")
	b.MovI(2, 1)
	b.St(1, 0, 2)
	b.Exit()
	g := newGPU(t, 2, coherence.DeNovo{})
	const blocks = 5
	k := &gpu.Kernel{
		Name: "blocks", Program: b.MustBuild(), Blocks: blocks, WarpsPerBlock: 1,
		InitRegs: func(block, warp int, regs *[isa.NumRegs]uint64) {
			regs[1] = res + uint64(block)*8
		},
	}
	run(t, g, k)
	for blk := 0; blk < blocks; blk++ {
		if g.Sys.Backing.Load64(res+uint64(blk)*8) != 1 {
			t.Errorf("block %d never ran", blk)
		}
	}
}

func TestLaunchValidation(t *testing.T) {
	g := newGPU(t, 1, coherence.DeNovo{})
	b := isa.NewBuilder("v")
	b.Exit()
	prog := b.MustBuild()
	if err := g.Launch(&gpu.Kernel{Name: "v", Program: prog, Blocks: 0, WarpsPerBlock: 1}); err == nil {
		t.Error("zero blocks accepted")
	}
	if err := g.Launch(&gpu.Kernel{Name: "v", Program: prog, Blocks: 1, WarpsPerBlock: 99}); err == nil {
		t.Error("oversubscribed warps accepted")
	}
	if err := g.Launch(&gpu.Kernel{Name: "v", Program: prog, Blocks: 1, WarpsPerBlock: 1,
		Local: gpu.LocalStash}); err == nil {
		t.Error("stash kernel without mapping accepted")
	}
}

// TestLaunchRejectsLocalWindowOutsideScratchpad: a block whose local window
// does not fit in the scratchpad is a Launch error, for every local-memory
// kind and for the last block as well as the first, instead of a panic on
// the first access past the end mid-run. A window that fills the scratchpad
// exactly is accepted.
func TestLaunchRejectsLocalWindowOutsideScratchpad(t *testing.T) {
	b := isa.NewBuilder("v")
	b.Exit()
	prog := b.MustBuild()
	size := uint64(sim.Default().ScratchSize)
	for _, kind := range []gpu.LocalKind{gpu.LocalScratch, gpu.LocalScratchDMA, gpu.LocalStash} {
		for _, tc := range []struct {
			base, bytes uint64
			lastOnly    bool
			ok          bool
		}{
			{0, size, false, true},
			{0, size + 8, false, false},
			{size / 2, size/2 + 8, false, false},
			{8, size, true, false},
			{size + 8, 0, false, false},
		} {
			g := newGPU(t, 2, coherence.DeNovo{})
			k := &gpu.Kernel{Name: "v", Program: prog, Blocks: 2, WarpsPerBlock: 1, Local: kind,
				LocalMap: func(block int) scratchpad.Mapping {
					if tc.lastOnly && block == 0 {
						return scratchpad.Mapping{Bytes: size}
					}
					return scratchpad.Mapping{LocalBase: tc.base, Bytes: tc.bytes}
				}}
			err := g.Launch(k)
			if tc.ok != (err == nil) {
				t.Errorf("%s window [%d, %d) last-only=%v: Launch err = %v", kind, tc.base, tc.base+tc.bytes, tc.lastOnly, err)
			}
			if err != nil && !strings.Contains(err.Error(), "outside the 16384-byte scratchpad") {
				t.Errorf("%s: error %q does not name the scratchpad size", kind, err)
			}
		}
	}
}

func TestScratchpadKernelBankConflicts(t *testing.T) {
	// 32 lanes striding 32 words alias a single scratchpad bank:
	// the access serializes and bank-conflict stalls appear.
	b := isa.NewBuilder("conflict")
	b.MovI(1, 0)
	b.MovI(3, 42)
	for i := 0; i < 8; i++ {
		b.StLV(1, 32*8, 3) // stride 32 words -> all lanes on bank 0
	}
	b.Exit()
	g := newGPU(t, 1, coherence.DeNovo{})
	run(t, g, &gpu.Kernel{
		Name: "conflict", Program: b.MustBuild(), Blocks: 1, WarpsPerBlock: 2,
		Local: gpu.LocalScratch,
	})
	if got := g.Insp.SM(0).MemStruct[core.StructBankConflict]; got == 0 {
		t.Error("no bank-conflict stalls for a fully aliased access pattern")
	}
}

func TestStashKernelFillsOnDemand(t *testing.T) {
	const base = uint64(0x7_0000)
	b := isa.NewBuilder("stash")
	b.MovI(1, 0)
	b.LdL(2, 1, 0) // first touch: global fill
	b.LdL(3, 1, 8) // same line: hit or merge
	b.Add(4, 2, 3)
	b.MovI(5, int64(base+0x100))
	b.St(5, 0, 4)
	b.Exit()
	g := newGPU(t, 1, coherence.DeNovo{})
	g.Sys.Backing.Store64(base, 30)
	g.Sys.Backing.Store64(base+8, 12)
	k := &gpu.Kernel{
		Name: "stash", Program: b.MustBuild(), Blocks: 1, WarpsPerBlock: 1,
		Local: gpu.LocalStash,
		LocalMap: func(int) scratchpad.Mapping {
			return scratchpad.Mapping{GlobalBase: base, LocalBase: 0, Bytes: 0x100}
		},
	}
	run(t, g, k)
	if got := g.Sys.Backing.Load64(base + 0x100); got != 42 {
		t.Fatalf("stash sum = %d, want 42", got)
	}
	// The stash fill must not have polluted the L1.
	if g.Sys.Cores[0].LineStateOf(base) != mem.LineInvalid {
		t.Error("stash fill installed the line in the L1")
	}
}

func TestDeterminism(t *testing.T) {
	build := func() (*gpu.GPU, *gpu.Kernel) {
		g := newGPU(t, 2, coherence.GPUCoherence{})
		b := isa.NewBuilder("det")
		b.MovI(1, 0x9_0000)
		b.LdV(2, 1, 8)
		b.FMA(2, 2, 2)
		b.StV(1, 8, 2)
		b.Exit()
		return g, &gpu.Kernel{Name: "det", Program: b.MustBuild(), Blocks: 2, WarpsPerBlock: 4}
	}
	g1, k1 := build()
	c1 := run(t, g1, k1)
	g2, k2 := build()
	c2 := run(t, g2, k2)
	if c1 != c2 {
		t.Fatalf("cycle counts differ: %d vs %d", c1, c2)
	}
	a1, a2 := g1.Insp.Aggregate(), g2.Insp.Aggregate()
	if a1 != a2 {
		t.Fatalf("breakdowns differ:\n%v\n%v", a1, a2)
	}
}

// TestSchedulerFairness: a lock holder must make progress even when cheap
// local atomics let sibling warps spin at issue-port rate — the livelock
// mode that motivates the scheduler's least-recently-issued fallback.
func TestSchedulerFairness(t *testing.T) {
	const lock, res = uint64(0xA_0000), uint64(0xA_1000)
	b := isa.NewBuilder("fair")
	b.MovI(1, int64(lock))
	b.MovI(2, 0) // zero
	b.MovI(3, 1) // one
	holder := b.NewLabel()
	b.BEQ(11, 3, holder) // warp 0 (r11=1) takes the critical section
	// Spinners: hammer the lock until it reads 0 (released at the end).
	spin := b.Here()
	b.AtomCAS(4, 1, 2, 3, isa.Acquire)
	b.BNE(4, 2, spin)
	// Got the lock: pass it on so the remaining spinners can finish.
	b.AtomExch(4, 1, 2, isa.Release)
	b.Exit()
	b.Bind(holder)
	// Holder: the lock starts held by it (host init); do some work, then
	// release so the spinners can finish.
	b.MovI(5, 0)
	b.MovI(6, 200)
	work := b.Here()
	b.AddI(5, 5, 1)
	b.BLT(5, 6, work)
	b.MovI(7, int64(res))
	b.St(7, 0, 5)
	b.AtomExch(4, 1, 2, isa.Release)
	b.Exit()

	cfg := smallCfg(1)
	cfg.MaxCycles = 400_000
	g, err := gpu.New(cfg, coherence.PoliciesFor(1, coherence.DeNovo{}))
	if err != nil {
		t.Fatal(err)
	}
	for _, cm := range g.Sys.Cores {
		cm.OwnedAtomics = true // cheapest possible spinning
	}
	g.Sys.Backing.Store64(lock, 1) // held by the "holder" warp
	k := &gpu.Kernel{
		Name: "fair", Program: b.MustBuild(), Blocks: 1, WarpsPerBlock: 8,
		InitRegs: func(block, warp int, regs *[isa.NumRegs]uint64) {
			if warp == 0 {
				regs[11] = 1
			}
		},
	}
	run(t, g, k) // a starved holder would hit MaxCycles and fail
	if got := g.Sys.Backing.Load64(res); got != 200 {
		t.Fatalf("holder result = %d, want 200", got)
	}
}

// TestWatchdogDumpsDiagnosis: an unbounded spin loop trips the engine
// watchdog, and the error names the stuck components with their pending
// work instead of just "max cycles exceeded".
func TestWatchdogDumpsDiagnosis(t *testing.T) {
	b := isa.NewBuilder("spin")
	top := b.Here()
	b.Br(top)
	b.Exit()
	prog := b.MustBuild()

	cfg := smallCfg(1)
	cfg.MaxCycles = 2000
	g, err := gpu.New(cfg, coherence.PoliciesFor(1, coherence.DeNovo{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Launch(&gpu.Kernel{Name: "spin", Program: prog, Blocks: 1, WarpsPerBlock: 1}); err != nil {
		t.Fatal(err)
	}
	_, err = g.Run()
	if !errors.Is(err, sim.ErrMaxCycles) {
		t.Fatalf("err = %v, want ErrMaxCycles", err)
	}
	for _, want := range []string{"sm0", "busy", "kernel=spin", "mesh", "memctrl"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("diagnosis missing %q:\n%v", want, err)
		}
	}
}

// TestEnginesAgreeOnEmptyReleaseFlush pins a subtle skip-ahead hazard: a
// release atomic issued with an empty store buffer starts a flush that is
// already complete, and the core memory unit's next tick must clear it and
// dispatch the atomic. A second SM sits in a long SFU dependency chain, so
// the skip-ahead engine has a far event it could wrongly jump to if the
// flushing unit failed to demand the very next cycle — which would delay
// the release and diverge from the dense loop.
func TestEnginesAgreeOnEmptyReleaseFlush(t *testing.T) {
	const lock = uint64(0x1_0000)
	// One program, two blocks: block 0 runs the SFU chain, block 1 the
	// back-to-back release atomics (nothing dirty, so both flushes are
	// empty).
	b := isa.NewBuilder("mixed")
	release := b.NewLabel()
	b.BNE(11, 12, release) // block 1 jumps to the release path
	b.MovI(1, 7)
	for i := 0; i < 8; i++ {
		b.SFU(1, 1)
	}
	b.St(1, int64(lock+64), 1)
	b.Exit()
	b.Bind(release)
	b.MovI(1, int64(lock)).MovI(2, 1)
	b.AtomAdd(3, 1, 2, isa.Release)
	b.AtomAdd(3, 1, 2, isa.Release)
	b.Exit()
	prog := b.MustBuild()

	runMode := func(mode sim.EngineMode) (uint64, [2]core.Counts) {
		cfg := smallCfg(2)
		cfg.Engine = mode
		g, err := gpu.New(cfg, coherence.PoliciesFor(2, coherence.DeNovo{}))
		if err != nil {
			t.Fatal(err)
		}
		k := &gpu.Kernel{
			Name: "mixed", Program: prog, Blocks: 2, WarpsPerBlock: 1,
			InitRegs: func(block, warp int, regs *[isa.NumRegs]uint64) {
				regs[11] = uint64(block)
				regs[12] = 0
			},
		}
		cycles := run(t, g, k)
		if got := g.Sys.Backing.Load64(lock); got != 2 {
			t.Fatalf("%s: lock = %d, want 2", mode, got)
		}
		return cycles, [2]core.Counts{*g.Insp.SM(0), *g.Insp.SM(1)}
	}
	denseCycles, denseCounts := runMode(sim.EngineDense)
	for _, mode := range []sim.EngineMode{sim.EngineQuiescent, sim.EngineSkip} {
		cycles, counts := runMode(mode)
		if cycles != denseCycles {
			t.Errorf("%s: %d cycles, dense: %d", mode, cycles, denseCycles)
		}
		// The total is dominated by the SFU chain, so a delayed release
		// would hide in the cycle count — but it shifts the releasing
		// SM's breakdown from idle toward synchronization stalls.
		if counts != denseCounts {
			t.Errorf("%s: per-SM counts diverge from dense:\n%+v\nvs\n%+v", mode, counts, denseCounts)
		}
	}
}
