package workloads

import (
	"fmt"

	"gsi/internal/cpu"
	"gsi/internal/gpu"
	"gsi/internal/isa"
	"gsi/internal/sim"
)

// Pipeline is a producer-consumer pipeline with long idle phases between
// stages — the bursty, latency-dominated case the skip-ahead engine
// exists for. One thread block alternates two phases per round, separated
// by block barriers: producer warps walk a pointer chase through a seeded
// permutation (a chain of dependent scalar loads, each a full memory
// round trip with zero memory-level parallelism) and publish one token
// each; consumer warps then run a long dependent special-function chain
// over every token and store the results. While one stage runs, the other
// stage's warps sit at the barrier with nothing to issue, so the SM spends
// most of the round waiting on a single known future event — exactly the
// windows the engine jumps.
type Pipeline struct {
	// Rounds is the number of produce/consume handoffs.
	Rounds int `param:"rounds" help:"produce/consume handoffs" default:"12"`
	// Chase is the pointer-chase length per producer per round.
	Chase int `param:"chase" help:"pointer-chase length per producer per round" default:"64"`
	// Work is the dependent hash-chain length a consumer runs per token.
	Work int `param:"work" help:"hash-chain length per token" default:"24"`
	// Producers and Consumers partition the block's warps: warps
	// [0,Producers) produce, [Producers, Producers+Consumers) consume.
	Producers int `param:"producers" help:"producer warps" default:"1"`
	Consumers int `param:"consumers" help:"consumer warps" default:"1"`
	// PermWords is the pointer-chase permutation size in words.
	PermWords int `param:"permwords" help:"pointer-chase permutation words (>= 2)" default:"4096"`
	// Seed drives the permutation and chase starting points.
	Seed uint64 `param:"seed" help:"permutation seed" default:"0x9199"`
}

// Name identifies the workload in reports.
func (w Pipeline) Name() string { return "pipeline" }

// Tune runs the block on one SM: the idle stage's warps are the only
// other residents, so the bursty phases are pure waits.
func (w Pipeline) Tune(cfg sim.Config) sim.Config {
	cfg.NumSMs = 1
	return cfg
}

// blockWarps is the block size: every producer plus every consumer.
func (w Pipeline) blockWarps() int { return w.Producers + w.Consumers }

// GenPerm builds the seeded pointer-chase permutation: a Fisher-Yates
// shuffle of [0,n) driven by splitmix64, giving one big cycle-free random
// successor function (perm[i] = next index).
func GenPerm(seed uint64, n int) []uint64 {
	perm := make([]uint64, n)
	for i := range perm {
		perm[i] = uint64(i)
	}
	for i := n - 1; i > 0; i-- {
		j := int(isa.Mix64(seed^uint64(i)) % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// Pipeline kernel registers (rZero/rOne shared, see framework.go).
const (
	rPlPermB  isa.Reg = 2
	rPlTokB   isa.Reg = 3
	rPlResB   isa.Reg = 4
	rPlRound  isa.Reg = 5
	rPlRounds isa.Reg = 6
	rPlPtr    isa.Reg = 7
	rPlI      isa.Reg = 8
	rPlChase  isa.Reg = 9
	rPlTmp    isa.Reg = 10
	rPlWid    isa.Reg = 11
	rPlP      isa.Reg = 12
	rPlC      isa.Reg = 13
	rPlIdx    isa.Reg = 14
	rPlV      isa.Reg = 15
)

// pipelineProgram assembles the two-phase round loop. work is the
// statically unrolled consumer hash-chain length.
func pipelineProgram(work int) *isa.Program {
	b := isa.NewBuilder("pipeline")
	roundLoop := b.NewLabel()
	produceBar := b.NewLabel()
	chase := b.NewLabel()
	chaseDone := b.NewLabel()
	consLoop := b.NewLabel()
	consumeBar := b.NewLabel()
	done := b.NewLabel()

	b.Bind(roundLoop)
	b.BGE(rPlRound, rPlRounds, done)
	b.BGE(rPlWid, rPlP, produceBar) // consumers skip the produce phase

	// --- produce: pointer chase, then publish one token ---
	b.MovI(rPlI, 0)
	b.Bind(chase)
	b.BGE(rPlI, rPlChase, chaseDone)
	b.MulI(rPlTmp, rPlPtr, 8)
	b.Add(rPlTmp, rPlPermB, rPlTmp)
	b.Ld(rPlPtr, rPlTmp, 0) // dependent load: the whole phase serializes
	b.AddI(rPlI, rPlI, 1)
	b.Br(chase)
	b.Bind(chaseDone)
	b.Mul(rPlTmp, rPlRound, rPlP) // token index = round*P + wid
	b.Add(rPlTmp, rPlTmp, rPlWid)
	b.MulI(rPlTmp, rPlTmp, 8)
	b.Add(rPlTmp, rPlTokB, rPlTmp)
	b.St(rPlTmp, 0, rPlPtr)

	b.Bind(produceBar)
	b.Bar()
	b.BLT(rPlWid, rPlP, consumeBar) // producers skip the consume phase

	// --- consume: hash-chain every token of this round ---
	b.Sub(rPlIdx, rPlWid, rPlP) // consumer c starts at token c, steps by C
	b.Bind(consLoop)
	b.BGE(rPlIdx, rPlP, consumeBar)
	b.Mul(rPlTmp, rPlRound, rPlP)
	b.Add(rPlTmp, rPlTmp, rPlIdx)
	b.MulI(rPlTmp, rPlTmp, 8)
	b.Add(rPlV, rPlTokB, rPlTmp)
	b.Ld(rPlV, rPlV, 0)
	emitHashChain(b, rPlV, work)
	b.Add(rPlTmp, rPlResB, rPlTmp)
	b.St(rPlTmp, 0, rPlV)
	b.Add(rPlIdx, rPlIdx, rPlC)
	b.Br(consLoop)

	b.Bind(consumeBar)
	b.Bar()
	b.AddI(rPlRound, rPlRound, 1)
	b.Br(roundLoop)
	b.Bind(done)
	b.Exit()
	return b.MustBuild()
}

// chaseStart returns producer p's deterministic starting index.
func (w Pipeline) chaseStart(p int) uint64 {
	return isa.Mix64(w.Seed^0xCAFE^uint64(p)) % uint64(w.PermWords)
}

// Reference replays the pipeline on the CPU and returns the expected token
// and result arrays (Rounds*Producers entries each).
func (w Pipeline) Reference(perm []uint64) (toks, results []uint64) {
	n := w.Rounds * w.Producers
	toks = make([]uint64, n)
	results = make([]uint64, n)
	ptr := make([]uint64, w.Producers)
	for p := range ptr {
		ptr[p] = w.chaseStart(p)
	}
	for r := 0; r < w.Rounds; r++ {
		for p := 0; p < w.Producers; p++ {
			for i := 0; i < w.Chase; i++ {
				ptr[p] = perm[ptr[p]]
			}
			toks[r*w.Producers+p] = ptr[p]
			results[r*w.Producers+p] = HashChain(ptr[p], w.Work)
		}
	}
	return toks, results
}

// Build writes the permutation into host memory and returns the kernel
// plus the verifier of the chase over that permutation.
func (w Pipeline) Build(h *cpu.Host) (*gpu.Kernel, func(*cpu.Host) error, error) {
	if w.Rounds < 1 || w.Chase < 1 || w.Work < 1 || w.Producers < 1 ||
		w.Consumers < 1 || w.PermWords < 2 {
		return nil, nil, fmt.Errorf("workloads: invalid pipeline %+v", w)
	}
	perm := GenPerm(w.Seed, w.PermWords)
	h.WriteSlice(addrPipePerm, perm)
	for i := 0; i < w.Rounds*w.Producers; i++ {
		h.Write64(addrPipeTok+uint64(i)*8, 0)
		h.Write64(addrPipeRes+uint64(i)*8, 0)
	}

	k := &gpu.Kernel{
		Name:          "pipeline",
		Program:       pipelineProgram(w.Work),
		Blocks:        1,
		WarpsPerBlock: w.blockWarps(),
		InitRegs: func(block, warp int, regs *[isa.NumRegs]uint64) {
			InitConsts(regs)
			regs[rPlPermB] = addrPipePerm
			regs[rPlTokB] = addrPipeTok
			regs[rPlResB] = addrPipeRes
			regs[rPlRounds] = uint64(w.Rounds)
			regs[rPlChase] = uint64(w.Chase)
			regs[rPlWid] = uint64(warp)
			regs[rPlP] = uint64(w.Producers)
			regs[rPlC] = uint64(w.Consumers)
			if warp < w.Producers {
				regs[rPlPtr] = w.chaseStart(warp)
			}
		},
	}
	return k, func(h *cpu.Host) error { return w.verify(h, perm) }, nil
}

// verify checks every token and result word against the CPU
// replay of the chase and hash chains.
func (w Pipeline) verify(h *cpu.Host, perm []uint64) error {
	toks, results := w.Reference(perm)
	for i := range toks {
		if got := h.Read64(addrPipeTok + uint64(i)*8); got != toks[i] {
			return fmt.Errorf("workloads: pipeline token[%d] = %#x, want %#x", i, got, toks[i])
		}
		if got := h.Read64(addrPipeRes + uint64(i)*8); got != results[i] {
			return fmt.Errorf("workloads: pipeline result[%d] = %#x, want %#x", i, got, results[i])
		}
	}
	return nil
}
