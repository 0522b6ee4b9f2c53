// Differential testing: random straight-line kernels run both on the
// cycle-level simulator and on a trivial sequential reference interpreter;
// the final memory images must match exactly. This checks the whole
// functional path — scoreboard ordering, load-value capture, store buffers,
// coherence, coalescing — against program-order semantics, for both
// protocols.
package gpu_test

import (
	"fmt"
	"testing"

	"gsi/internal/coherence"
	"gsi/internal/gpu"
	"gsi/internal/isa"
	"gsi/internal/mem"
)

const (
	diffRegionBytes = 2048 // per-warp sandbox, disjoint between warps
	diffRegionBase  = uint64(0x20_0000)
)

// diffProgram generates a deterministic random straight-line kernel.
// Register conventions: r1 = warp region base, r2..r9 data registers,
// r10 scratch address register.
func diffProgram(seed uint64, n int) *isa.Program {
	b := isa.NewBuilder(fmt.Sprintf("diff-%d", seed))
	rng := seed
	next := func(bound uint64) uint64 {
		rng = isa.Mix64(rng)
		return rng % bound
	}
	dataReg := func() isa.Reg { return isa.Reg(2 + next(8)) }
	// A word-aligned offset inside the region, leaving room for a full
	// 32-lane vector access (256 bytes).
	off := func() int64 { return int64(next(diffRegionBytes-256) &^ 7) }

	for i := 0; i < n; i++ {
		switch next(10) {
		case 0:
			b.MovI(dataReg(), int64(next(1<<30)))
		case 1:
			b.Add(dataReg(), dataReg(), dataReg())
		case 2:
			b.Mul(dataReg(), dataReg(), dataReg())
		case 3:
			b.Xor(dataReg(), dataReg(), dataReg())
		case 4:
			b.AddI(dataReg(), dataReg(), int64(next(1000)))
		case 5:
			b.SFU(dataReg(), dataReg())
		case 6:
			b.Ld(dataReg(), 1, off())
		case 7:
			b.St(1, off(), dataReg())
		case 8:
			b.AddI(10, 1, off())
			b.LdV(dataReg(), 10, 8)
		case 9:
			b.AddI(10, 1, off())
			b.StV(10, 8, dataReg())
		}
	}
	// Dump the data registers so pure-ALU results are observable.
	for r := isa.Reg(2); r <= 9; r++ {
		b.St(1, int64(diffRegionBytes-256+int64(r)*8), r)
	}
	b.Exit()
	return b.MustBuild()
}

// interpret executes the program with sequential per-warp semantics over a
// private memory overlay and returns every written word.
func interpret(p *isa.Program, base uint64, warpSize int) map[uint64]uint64 {
	var regs [isa.NumRegs]uint64
	regs[1] = base
	written := map[uint64]uint64{}
	load := func(addr uint64) uint64 { return written[addr&^7] }
	for pc := 0; pc < p.Len(); pc++ {
		in := p.Instrs[pc]
		switch in.Op.Class() {
		case isa.ClassALU, isa.ClassSFU:
			regs[in.Rd] = isa.EvalALU(in.Op, regs[in.Ra], regs[in.Rb], regs[in.Rd], in.Imm)
		case isa.ClassMem:
			switch in.Op {
			case isa.OpLd:
				regs[in.Rd] = load(regs[in.Ra] + uint64(in.Imm))
			case isa.OpSt:
				written[(regs[in.Ra]+uint64(in.Imm))&^7] = regs[in.Rb]
			case isa.OpLdV:
				regs[in.Rd] = load(regs[in.Ra]) // lane-0 value
			case isa.OpStV:
				for lane := 0; lane < warpSize; lane++ {
					written[(regs[in.Ra]+uint64(lane)*uint64(in.Imm))&^7] = regs[in.Rb]
				}
			}
		case isa.ClassExit:
			return written
		}
	}
	return written
}

func runDiff(t *testing.T, seed uint64, policy mem.Policy) {
	t.Helper()
	const warps = 4
	prog := diffProgram(seed, 60)
	g, err := gpu.New(smallCfg(1), coherence.PoliciesFor(1, policy))
	if err != nil {
		t.Fatal(err)
	}
	k := &gpu.Kernel{
		Name: prog.Name, Program: prog, Blocks: 1, WarpsPerBlock: warps,
		InitRegs: func(block, warp int, regs *[isa.NumRegs]uint64) {
			regs[1] = diffRegionBase + uint64(warp)*diffRegionBytes
		},
	}
	run(t, g, k)
	for w := 0; w < warps; w++ {
		base := diffRegionBase + uint64(w)*diffRegionBytes
		want := interpret(prog, base, g.Cfg.WarpSize)
		for addr, v := range want {
			if got := g.Sys.Backing.Load64(addr); got != v {
				t.Fatalf("seed %d warp %d: mem[%#x] = %#x, want %#x",
					seed, w, addr, got, v)
			}
		}
	}
}

func TestDifferentialRandomPrograms(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		t.Run(fmt.Sprintf("seed=%d/denovo", seed), func(t *testing.T) {
			runDiff(t, seed, coherence.DeNovo{})
		})
		t.Run(fmt.Sprintf("seed=%d/gpucoh", seed), func(t *testing.T) {
			runDiff(t, seed, coherence.GPUCoherence{})
		})
	}
}
