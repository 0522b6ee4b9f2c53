package workloads

import (
	"fmt"

	"gsi/internal/cpu"
	"gsi/internal/gpu"
	"gsi/internal/isa"
	"gsi/internal/scratchpad"
	"gsi/internal/sim"
)

// Implicit is the synthetic microbenchmark of case study 2: an array is
// mapped to scratchpad/stash memory, each thread block owns a chunk, and
// every element is read, computed on, and written back in place.
//
// Three kernels exercise the three local-memory organizations:
//
//   - scratchpad: explicit load (global->register->scratchpad) and
//     write-back loops around the compute phase; the extra instructions
//     throttle the memory request rate (fewer structural stalls, more
//     "no stall" cycles — figure 6.3).
//   - scratchpad+DMA: the engine preloads the mapping; the kernel is just
//     the compute phase, but the first mapped access blocks the core until
//     the bulk transfer completes (pending-DMA stalls).
//   - stash: the compute phase loads mapped lines on demand (MSHR traffic,
//     warp-granularity blocking) and dirty lines register lazily through
//     the store buffer.
type Implicit struct {
	// Local is the local-memory organization the kernel targets.
	Local gpu.LocalKind `param:"local" help:"local-memory organization: scratchpad | dma | stash" default:"scratchpad"`
	// Warps work on DataBytes/Warps-byte chunks (one block, one SM).
	Warps     int `param:"warps" help:"warp count (memory-level parallelism)" default:"32"`
	DataBytes int `param:"databytes" help:"array size in bytes" default:"16384"`
	// FMAs per element group per round, and Rounds compute passes.
	FMAs   int    `param:"fmas" help:"FMA chain per element group" default:"4"`
	Rounds int    `param:"rounds" help:"compute passes over the array" default:"2"`
	Seed   uint64 `param:"seed" help:"data fill seed" default:"0xD17A"`
}

// Name identifies the workload in reports; Report.LocalMem parses the
// organization back out of it.
func (im Implicit) Name() string { return "implicit (" + im.Local.String() + ")" }

// Tune shapes case study 2's machine: one SM holding the whole block.
func (im Implicit) Tune(cfg sim.Config) sim.Config {
	cfg.NumSMs = 1
	cfg.WarpsPerSM = 32
	if im.Warps > 0 && im.Warps < cfg.WarpsPerSM {
		cfg.WarpsPerSM = im.Warps
	}
	return cfg
}

func (im Implicit) blockWarps() int { return im.Warps }

// Implicit kernel registers.
const (
	riGBase   isa.Reg = 2
	riLBase   isa.Reg = 3
	riItersLd isa.Reg = 4
	riItersC  isa.Reg = 5
	riItersWB isa.Reg = 6
	riI       isa.Reg = 7
	riTmp     isa.Reg = 8
	riGA      isa.Reg = 9
	riLA      isa.Reg = 10
	riV0      isa.Reg = 11
	riV1      isa.Reg = 12
	riV2      isa.Reg = 13
	riV3      isa.Reg = 14
	riRound   isa.Reg = 15
	riRounds  isa.Reg = 16
	riT2      isa.Reg = 17
)

const (
	groupBytes = 256 // one warp-wide vector access (32 lanes x 8 B)
	loadUnroll = 2   // explicit-load unrolling (independent loads in flight)
	compUnroll = 1
	loadIterB  = groupBytes * loadUnroll
	compIterB  = groupBytes * compUnroll
)

// emitComputePhase appends the shared compute loop: Rounds passes over the
// chunk, each loading one group, applying FMAs, and storing it back to
// local (scratchpad or stash) memory. Under the stash this loop is also the
// demand-fill generator: each first-touch group produces global requests.
func emitComputePhase(b *isa.Builder, fmas int) {
	b.MovI(riRound, 0)
	round := b.Here()
	roundDone := b.NewLabel()
	b.BGE(riRound, riRounds, roundDone)
	b.MovI(riI, 0)
	comp := b.Here()
	compDone := b.NewLabel()
	b.BGE(riI, riItersC, compDone)
	b.MulI(riTmp, riI, compIterB)
	b.Add(riLA, riLBase, riTmp)
	b.LdLV(riV0, riLA, 8)
	for i := 0; i < fmas; i++ {
		b.FMA(riV0, riV0, riV0)
	}
	b.StLV(riLA, 8, riV0)
	b.AddI(riI, riI, 1)
	b.Br(comp)
	b.Bind(compDone)
	b.AddI(riRound, riRound, 1)
	b.Br(round)
	b.Bind(roundDone)
}

// implicitScratchProgram is the baseline: an explicit load phase (unrolled
// so several independent loads are in flight per warp — the MSHR-sweep
// dependency effect of figure 6.4b — but with the full per-access address
// computation the paper describes, which throttles the request rate),
// barrier, compute, barrier, explicit write-back.
func implicitScratchProgram(fmas int) *isa.Program {
	b := isa.NewBuilder("implicit-scratchpad")

	b.MovI(riI, 0)
	load := b.Here()
	loadDone := b.NewLabel()
	b.BGE(riI, riItersLd, loadDone)
	vregs := [loadUnroll]isa.Reg{riV0, riV1}
	for u := 0; u < loadUnroll; u++ {
		// Explicit per-access address computation (compiled scratchpad
		// code recomputes base + i*loadIterB + u*groupBytes each
		// time), then the load and the *dependent* store to the
		// scratchpad. The store following its load is the dependency
		// the paper names: with a small MSHR these waits classify as
		// full-MSHR structural stalls, with a large one they surface
		// as memory data stalls (figure 6.4b's 13X).
		b.MulI(riTmp, riI, loadIterB)
		b.AddI(riTmp, riTmp, int64(u*groupBytes))
		b.Add(riGA, riGBase, riTmp)
		b.Add(riLA, riLBase, riTmp)
		b.LdV(vregs[u], riGA, 8)
		b.StLV(riLA, 8, vregs[u])
	}
	b.AddI(riI, riI, 1)
	b.Br(load)
	b.Bind(loadDone)
	b.Bar()

	emitComputePhase(b, fmas)
	b.Bar()

	b.MovI(riI, 0)
	wb := b.Here()
	wbDone := b.NewLabel()
	b.BGE(riI, riItersWB, wbDone)
	b.MulI(riTmp, riI, groupBytes)
	b.Add(riLA, riLBase, riTmp)
	b.Add(riGA, riGBase, riTmp)
	b.LdLV(riV0, riLA, 8)
	b.StV(riGA, 8, riV0)
	b.AddI(riI, riI, 1)
	b.Br(wb)
	b.Bind(wbDone)
	b.Exit()
	return b.MustBuild()
}

// implicitLocalProgram is the kernel for scratchpad+DMA and stash: the
// data-movement loops disappear (the DMA engine or the stash's implicit
// loads do the work), leaving only the compute phase.
func implicitLocalProgram(name string, fmas int) *isa.Program {
	b := isa.NewBuilder(name)
	emitComputePhase(b, fmas)
	b.Exit()
	return b.MustBuild()
}

// Build initializes the data array and returns the kernel for the
// workload's local-memory organization plus its verifier.
func (im Implicit) Build(h *cpu.Host) (*gpu.Kernel, func(*cpu.Host) error, error) {
	if im.Warps < 1 || im.DataBytes < 1 {
		return nil, nil, fmt.Errorf("workloads: invalid implicit %+v", im)
	}
	chunk := im.DataBytes / im.Warps
	if chunk%loadIterB != 0 {
		return nil, nil, fmt.Errorf("workloads: chunk %d not a multiple of %d", chunk, loadIterB)
	}
	for j := 0; j < im.DataBytes/8; j++ {
		h.Write64(addrData+uint64(j)*8, isa.Mix64(im.Seed^uint64(j)))
	}

	var prog *isa.Program
	switch im.Local {
	case gpu.LocalScratch:
		prog = implicitScratchProgram(im.FMAs)
	case gpu.LocalScratchDMA:
		prog = implicitLocalProgram("implicit-dma", im.FMAs)
	case gpu.LocalStash:
		prog = implicitLocalProgram("implicit-stash", im.FMAs)
	default:
		return nil, nil, fmt.Errorf("workloads: implicit needs a local-memory kind, got %s", im.Local)
	}

	k := &gpu.Kernel{
		Name:          "implicit-" + im.Local.String(),
		Program:       prog,
		Blocks:        1,
		WarpsPerBlock: im.Warps,
		Local:         im.Local,
		InitRegs: func(block, warp int, regs *[isa.NumRegs]uint64) {
			base := uint64(warp * chunk)
			regs[riGBase] = addrData + base
			regs[riLBase] = base
			regs[riItersLd] = uint64(chunk / loadIterB)
			regs[riItersC] = uint64(chunk / compIterB)
			regs[riItersWB] = uint64(chunk / groupBytes)
			regs[riRounds] = uint64(im.Rounds)
		},
	}
	// Every kind stages the whole array in local memory, so every kind
	// declares the window (the plain scratchpad only for Launch's bounds
	// check: it moves the data with explicit instructions).
	k.LocalMap = func(block int) scratchpad.Mapping {
		return scratchpad.Mapping{GlobalBase: addrData, LocalBase: 0, Bytes: uint64(im.DataBytes)}
	}
	return k, im.verify, nil
}

// applyFMA iterates v = v*v + v.
func applyFMA(v uint64, n int) uint64 {
	for i := 0; i < n; i++ {
		v = v*v + v
	}
	return v
}

// verify checks the post-run array contents. Vector stores write
// the warp-scalar register to every lane, so after the kernel every word of
// a 256-byte group holds the FMA chain applied to the group's original
// first word (consistently across all three configurations — this is the
// cross-configuration functional check).
func (im Implicit) verify(h *cpu.Host) error {
	words := im.DataBytes / 8
	perGroup := groupBytes / 8
	for g := 0; g < words/perGroup; g++ {
		orig := isa.Mix64(im.Seed ^ uint64(g*perGroup))
		want := orig
		for r := 0; r < im.Rounds; r++ {
			want = applyFMA(want, im.FMAs)
		}
		for w := 0; w < perGroup; w++ {
			j := g*perGroup + w
			got := h.Read64(addrData + uint64(j)*8)
			if got != want {
				return fmt.Errorf("workloads: data[%d] = %#x, want %#x (group %d)", j, got, want, g)
			}
		}
	}
	return nil
}
