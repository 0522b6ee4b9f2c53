package workloads

import (
	"fmt"

	"gsi/internal/cpu"
	"gsi/internal/gpu"
	"gsi/internal/isa"
)

// gupsWindowBytes is the span one vector update touches: a full warp of
// lanes strided by one cache line (32 lanes x 64 B), so every update
// coalesces into 32 distinct line requests. The kernel assumes the Table
// 5.1 warp and line geometry, like the implicit microbenchmark's group
// constants.
const (
	gupsLanes       = 32
	gupsLineStride  = 64
	gupsWindowBytes = gupsLanes * gupsLineStride
)

// GUPS is a random-access update benchmark in the spirit of the HPCC
// giga-updates-per-second kernel, shaped to stress the MSHR and the
// coalescer: each warp owns a power-of-two slice of a large table and
// performs updates at hashed window offsets inside it. Every update is a
// vector load and store whose lanes stride by a full cache line, so a
// single instruction expands to 32 line requests — the coalescer drains
// them one per cycle while the MSHR fills, and with several warps per SM
// the breakdown is dominated by full-MSHR structural stalls (the
// small-MSHR regime of figure 6.4, sustained by every access instead of a
// load phase). Partitions are private per warp, so read-modify-write
// updates never race across warps and the CPU replay is exact.
type GUPS struct {
	// Updates is the update count per warp.
	Updates int `param:"updates" help:"updates per warp" default:"96"`
	// WindowsPerWarp is each warp's partition size in update windows
	// (must be a power of two; a window is gupsWindowBytes).
	WindowsPerWarp int `param:"windows" help:"partition size per warp in 2 KB windows (power of two)" default:"32"`
	// Blocks and WarpsPerBlock size the worker population.
	Blocks        int `param:"blocks" help:"thread blocks" default:"15"`
	WarpsPerBlock int `param:"warps" help:"warps per block" default:"4"`
	// Seed drives the per-warp update streams and initial table fill.
	Seed uint64 `param:"seed" help:"update stream seed" default:"0x6095"`
}

// Name identifies the workload in reports.
func (w GUPS) Name() string { return "GUPS" }

func (w GUPS) blockWarps() int { return w.WarpsPerBlock }

// GUPS kernel registers (rZero/rOne shared, see framework.go).
const (
	rGuPartB isa.Reg = 2
	rGuMask  isa.Reg = 3
	rGuSeedB isa.Reg = 4
	rGuI     isa.Reg = 5
	rGuUpd   isa.Reg = 6
	rGuH     isa.Reg = 7
	rGuX     isa.Reg = 8
	rGuTmp   isa.Reg = 9
	rGuAddr  isa.Reg = 10
	rGuV     isa.Reg = 11
)

// gupsProgram assembles the update loop: hash the update counter through
// the SFU, mask it to a window slot, then read-modify-write the window
// with line-strided vector accesses.
func gupsProgram() *isa.Program {
	b := isa.NewBuilder("gups")
	loop := b.NewLabel()
	done := b.NewLabel()

	b.Bind(loop)
	b.BGE(rGuI, rGuUpd, done)
	b.Add(rGuX, rGuSeedB, rGuI)
	b.SFU(rGuH, rGuX) // h = Mix64(seedBase + i)
	b.And(rGuTmp, rGuH, rGuMask)
	b.MulI(rGuTmp, rGuTmp, gupsWindowBytes)
	b.Add(rGuAddr, rGuPartB, rGuTmp)
	b.LdV(rGuV, rGuAddr, gupsLineStride) // 32 distinct lines per access
	b.FMA(rGuV, rGuV, rGuH)              // v = v*h + v
	b.StV(rGuAddr, gupsLineStride, rGuV)
	b.AddI(rGuI, rGuI, 1)
	b.Br(loop)
	b.Bind(done)
	b.Exit()
	return b.MustBuild()
}

// warps returns the total warp count.
func (w GUPS) warps() int { return w.Blocks * w.WarpsPerBlock }

// partBase returns the table base address of global warp gid's partition.
func (w GUPS) partBase(gid int) uint64 {
	return addrGupsTable + uint64(gid)*uint64(w.WindowsPerWarp)*gupsWindowBytes
}

// seedBase returns the hash-stream base for global warp gid.
func (w GUPS) seedBase(gid int) uint64 { return isa.Mix64(w.Seed ^ uint64(gid)) }

// tableWords returns the total table size in words.
func (w GUPS) tableWords() int {
	return w.warps() * w.WindowsPerWarp * gupsWindowBytes / 8
}

// initWord returns the deterministic initial table fill.
func (w GUPS) initWord(j int) uint64 { return isa.Mix64(w.Seed ^ 0x7AB1E ^ uint64(j)) }

// Reference replays every warp's update stream against a CPU copy of the
// table and returns the expected final contents.
func (w GUPS) Reference() []uint64 {
	tab := make([]uint64, w.tableWords())
	for j := range tab {
		tab[j] = w.initWord(j)
	}
	for gid := 0; gid < w.warps(); gid++ {
		base := (w.partBase(gid) - addrGupsTable) / 8
		sb := w.seedBase(gid)
		for i := 0; i < w.Updates; i++ {
			h := isa.Mix64(sb + uint64(i))
			slot := h & uint64(w.WindowsPerWarp-1)
			word := base + slot*gupsWindowBytes/8
			// A vector load takes lane 0's word; the vector store
			// writes the warp-scalar result to every lane address.
			v := tab[word]
			v = v*h + v
			for lane := 0; lane < gupsLanes; lane++ {
				tab[word+uint64(lane*gupsLineStride/8)] = v
			}
		}
	}
	return tab
}

// Build initializes the table and returns the kernel plus its verifier.
func (w GUPS) Build(h *cpu.Host) (*gpu.Kernel, func(*cpu.Host) error, error) {
	if w.Updates < 1 || w.Blocks < 1 || w.WarpsPerBlock < 1 {
		return nil, nil, fmt.Errorf("workloads: invalid GUPS %+v", w)
	}
	if w.WindowsPerWarp < 1 || w.WindowsPerWarp&(w.WindowsPerWarp-1) != 0 {
		return nil, nil, fmt.Errorf("workloads: GUPS WindowsPerWarp %d must be a power of two", w.WindowsPerWarp)
	}
	for j := 0; j < w.tableWords(); j++ {
		h.Write64(addrGupsTable+uint64(j)*8, w.initWord(j))
	}
	k := &gpu.Kernel{
		Name:          "gups",
		Program:       gupsProgram(),
		Blocks:        w.Blocks,
		WarpsPerBlock: w.WarpsPerBlock,
		InitRegs: func(block, warp int, regs *[isa.NumRegs]uint64) {
			InitConsts(regs)
			gid := block*w.WarpsPerBlock + warp
			regs[rGuPartB] = w.partBase(gid)
			regs[rGuMask] = uint64(w.WindowsPerWarp - 1)
			regs[rGuSeedB] = w.seedBase(gid)
			regs[rGuUpd] = uint64(w.Updates)
		},
	}
	return k, w.verify, nil
}

// verify checks the final table contents against the CPU replay.
func (w GUPS) verify(h *cpu.Host) error {
	want := w.Reference()
	for j, wv := range want {
		if got := h.Read64(addrGupsTable + uint64(j)*8); got != wv {
			return fmt.Errorf("workloads: gups table[%d] = %#x, want %#x", j, got, wv)
		}
	}
	return nil
}
