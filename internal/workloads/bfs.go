package workloads

import (
	"fmt"

	"gsi/internal/cpu"
	"gsi/internal/gpu"
	"gsi/internal/isa"
)

// BFS is level-synchronized breadth-first search over a CSR graph: all
// warps (across all blocks) cooperatively drain the current frontier
// queue through an atomic pop cursor, gather each vertex's neighbor list
// (irregular indirect loads), claim undiscovered neighbors with a CAS on
// the distance array, and push claims into the next frontier through an
// atomic push cursor. Levels are separated by a software global barrier
// (monotonic arrival counter + generation word), so the workload stresses
// exactly the stall sources GSI classifies for graph codes: scattered
// gathers that miss the L1, frontier atomics that serialize at the L2
// banks, and synchronization waits at the level barrier.
type BFS struct {
	// Vertices is the exact vertex count; Root is always vertex 0.
	Vertices int `param:"vertices" help:"graph size" default:"4000"`
	// AvgDeg is the mean out-degree (degrees are drawn uniformly from
	// [0, 2*AvgDeg]).
	AvgDeg int `param:"avgdeg" help:"mean out-degree" default:"4"`
	// Blocks and WarpsPerBlock size the worker population. Every block
	// must be co-resident for the global barrier, so Blocks may not
	// exceed the SM count of the system the kernel runs on.
	Blocks        int `param:"blocks" help:"thread blocks (must all be co-resident)" default:"15"`
	WarpsPerBlock int `param:"warps" help:"warps per block" default:"4"`
	// Seed drives deterministic graph generation.
	Seed uint64 `param:"seed" help:"graph generation seed" default:"0xB4B4"`
}

// Name identifies the workload in reports.
func (w BFS) Name() string { return "BFS" }

func (w BFS) blockWarps() int { return w.WarpsPerBlock }

// Graph is a CSR adjacency structure: vertex v's neighbors are
// Col[RowPtr[v]:RowPtr[v+1]].
type Graph struct {
	RowPtr []uint64 // len n+1
	Col    []uint64
}

// Vertices returns the vertex count.
func (g *Graph) Vertices() int { return len(g.RowPtr) - 1 }

// GenGraph synthesizes a seeded directed graph with n vertices and
// degrees drawn uniformly from [0, 2*avgDeg] via splitmix64; neighbor ids
// are uniform over all vertices (duplicates and self-loops are legal —
// the CAS claim simply fails on them).
func GenGraph(seed uint64, n, avgDeg int) *Graph {
	g := &Graph{RowPtr: make([]uint64, 1, n+1)}
	for v := 0; v < n; v++ {
		deg := int(isa.Mix64(seed^uint64(v)) % uint64(2*avgDeg+1))
		for e := 0; e < deg; e++ {
			g.Col = append(g.Col, isa.Mix64(seed^(uint64(v)<<20)^uint64(e))%uint64(n))
		}
		g.RowPtr = append(g.RowPtr, uint64(len(g.Col)))
	}
	return g
}

// Levels runs the reference CPU BFS from vertex 0 and returns the
// distance array (dist[v] = BFS level + 1, 0 for unreachable vertices)
// and the number of nonempty frontiers processed — the exact values the
// GPU kernel must reproduce.
func (g *Graph) Levels() (dist []uint64, levels int) {
	n := g.Vertices()
	dist = make([]uint64, n)
	if n == 0 {
		return dist, 0
	}
	dist[0] = 1
	frontier := []uint64{0}
	for level := uint64(1); len(frontier) > 0; level++ {
		levels++
		var next []uint64
		for _, v := range frontier {
			for e := g.RowPtr[v]; e < g.RowPtr[v+1]; e++ {
				n := g.Col[e]
				if dist[n] == 0 {
					dist[n] = level + 1
					next = append(next, n)
				}
			}
		}
		frontier = next
	}
	return dist, levels
}

// BFS kernel registers (rZero/rOne shared, see framework.go).
const (
	rBfRowPB   isa.Reg = 2
	rBfColB    isa.Reg = 3
	rBfDistB   isa.Reg = 4
	rBfCurQ    isa.Reg = 5
	rBfNxtQ    isa.Reg = 6
	rBfCurHdA  isa.Reg = 7
	rBfNxtHdA  isa.Reg = 8
	rBfCurTlA  isa.Reg = 9
	rBfNxtTlA  isa.Reg = 10
	rBfBarCntA isa.Reg = 11
	rBfBarGenA isa.Reg = 12
	rBfWTot    isa.Reg = 13
	rBfLvlP1   isa.Reg = 14
	rBfLen     isa.Reg = 15
	rBfIdx     isa.Reg = 16
	rBfV       isa.Reg = 17
	rBfE       isa.Reg = 18
	rBfEEnd    isa.Reg = 19
	rBfN       isa.Reg = 20
	rBfOld     isa.Reg = 21
	rBfTmp     isa.Reg = 22
	rBfTmp2    isa.Reg = 23
	rBfSlot    isa.Reg = 24
	rBfBarTgt  isa.Reg = 25
	rBfGenWant isa.Reg = 26
	rBfSwap    isa.Reg = 27
)

// bfsProgram assembles the level-synchronized worker loop. Each level: pop
// vertices from the current frontier via fetch-add until the cursor passes
// the frontier length, gather and CAS-claim neighbors (claims push into
// the next frontier), then cross a global barrier. The last arriver resets
// the drained queue's cursors (it becomes the push target next level) and
// bumps the generation word; everyone spins on the generation with acquire
// semantics, swaps queue roles in registers, and reads the next frontier
// length. An empty frontier terminates.
func bfsProgram() *isa.Program {
	b := isa.NewBuilder("bfs")
	popLoop := b.NewLabel()
	edgeLoop := b.NewLabel()
	nextEdge := b.NewLabel()
	barrier := b.NewLabel()
	spin := b.NewLabel()

	// --- pop one frontier vertex ---
	b.Bind(popLoop)
	b.AtomAdd(rBfIdx, rBfCurHdA, rOne, isa.Relaxed)
	b.BGE(rBfIdx, rBfLen, barrier)
	b.MulI(rBfTmp, rBfIdx, 8)
	b.Add(rBfTmp, rBfCurQ, rBfTmp)
	b.Ld(rBfV, rBfTmp, 0)
	// Neighbor range: rowPtr[v], rowPtr[v+1].
	b.MulI(rBfTmp, rBfV, 8)
	b.Add(rBfTmp, rBfRowPB, rBfTmp)
	b.Ld(rBfE, rBfTmp, 0)
	b.Ld(rBfEEnd, rBfTmp, 8)

	// --- gather and claim neighbors ---
	b.Bind(edgeLoop)
	b.BGE(rBfE, rBfEEnd, popLoop)
	b.MulI(rBfTmp, rBfE, 8)
	b.Add(rBfTmp, rBfColB, rBfTmp)
	b.Ld(rBfN, rBfTmp, 0)
	b.MulI(rBfTmp2, rBfN, 8)
	b.Add(rBfTmp2, rBfDistB, rBfTmp2)
	b.AtomCAS(rBfOld, rBfTmp2, rZero, rBfLvlP1, isa.Relaxed)
	b.BNE(rBfOld, rZero, nextEdge)
	// Claimed: push into the next frontier.
	b.AtomAdd(rBfSlot, rBfNxtTlA, rOne, isa.Relaxed)
	b.MulI(rBfTmp2, rBfSlot, 8)
	b.Add(rBfTmp2, rBfNxtQ, rBfTmp2)
	b.St(rBfTmp2, 0, rBfN)
	b.Bind(nextEdge)
	b.AddI(rBfE, rBfE, 1)
	b.Br(edgeLoop)

	// --- global barrier: frontier drained ---
	b.Bind(barrier)
	b.Add(rBfBarTgt, rBfBarTgt, rBfWTot)
	b.AddI(rBfGenWant, rBfGenWant, 1)
	// Arrive with release semantics: every push store is flushed before
	// the arrival is visible.
	b.AtomAdd(rBfOld, rBfBarCntA, rOne, isa.Release)
	b.AddI(rBfTmp, rBfOld, 1)
	b.BNE(rBfTmp, rBfBarTgt, spin)
	// Last arriver: recycle the drained queue (it is next level's push
	// target) and publish the new generation. The release on the bump
	// flushes the cursor resets first.
	b.St(rBfCurHdA, 0, rZero)
	b.St(rBfCurTlA, 0, rZero)
	b.AtomAddNR(rBfBarGenA, rOne, isa.Release)
	b.Bind(spin)
	// Generation spin: an atomic read (fetch-add 0) with acquire
	// semantics, so passing the barrier self-invalidates the L1 and the
	// frontier reads below are fresh.
	b.AtomAdd(rBfOld, rBfBarGenA, rZero, isa.Acquire)
	b.BLT(rBfOld, rBfGenWant, spin)
	// Swap queue roles in registers.
	b.Mov(rBfSwap, rBfCurQ)
	b.Mov(rBfCurQ, rBfNxtQ)
	b.Mov(rBfNxtQ, rBfSwap)
	b.Mov(rBfSwap, rBfCurHdA)
	b.Mov(rBfCurHdA, rBfNxtHdA)
	b.Mov(rBfNxtHdA, rBfSwap)
	b.Mov(rBfSwap, rBfCurTlA)
	b.Mov(rBfCurTlA, rBfNxtTlA)
	b.Mov(rBfNxtTlA, rBfSwap)
	b.AddI(rBfLvlP1, rBfLvlP1, 1)
	b.Ld(rBfLen, rBfCurTlA, 0)
	b.BNE(rBfLen, rZero, popLoop)
	b.Exit()
	return b.MustBuild()
}

// Build writes the graph and frontier state into host memory and returns
// the kernel plus the verifier of a traversal of that graph.
func (w BFS) Build(h *cpu.Host) (*gpu.Kernel, func(*cpu.Host) error, error) {
	if w.Vertices < 1 || w.Blocks < 1 || w.WarpsPerBlock < 1 || w.AvgDeg < 1 {
		return nil, nil, fmt.Errorf("workloads: invalid BFS %+v", w)
	}
	g := GenGraph(w.Seed, w.Vertices, w.AvgDeg)
	h.WriteSlice(addrBfsRowPtr, g.RowPtr)
	h.WriteSlice(addrBfsCol, g.Col)
	for v := 0; v < w.Vertices; v++ {
		h.Write64(addrBfsDist+uint64(v)*8, 0)
	}
	// Root pre-claimed at distance 1 and seeded into queue A.
	h.Write64(addrBfsDist, 1)
	h.Write64(addrBfsQueueA, 0)
	h.Write64(addrBfsHeadA, 0)
	h.Write64(addrBfsHeadB, 0)
	h.Write64(addrBfsTailA, 1)
	h.Write64(addrBfsTailB, 0)
	h.Write64(addrBfsBarCnt, 0)
	h.Write64(addrBfsBarGen, 0)

	total := uint64(w.Blocks * w.WarpsPerBlock)
	k := &gpu.Kernel{
		Name:          "bfs",
		Program:       bfsProgram(),
		Blocks:        w.Blocks,
		WarpsPerBlock: w.WarpsPerBlock,
		Coresident:    true,
		InitRegs: func(block, warp int, regs *[isa.NumRegs]uint64) {
			InitConsts(regs)
			regs[rBfRowPB] = addrBfsRowPtr
			regs[rBfColB] = addrBfsCol
			regs[rBfDistB] = addrBfsDist
			regs[rBfCurQ] = addrBfsQueueA
			regs[rBfNxtQ] = addrBfsQueueB
			regs[rBfCurHdA] = addrBfsHeadA
			regs[rBfNxtHdA] = addrBfsHeadB
			regs[rBfCurTlA] = addrBfsTailA
			regs[rBfNxtTlA] = addrBfsTailB
			regs[rBfBarCntA] = addrBfsBarCnt
			regs[rBfBarGenA] = addrBfsBarGen
			regs[rBfWTot] = total
			regs[rBfLvlP1] = 2 // first frontier holds distance-1 vertices
			regs[rBfLen] = 1   // queue A starts with the root
		},
	}
	return k, func(h *cpu.Host) error { return w.verify(h, g) }, nil
}

// verify checks the post-run state against the reference CPU traversal:
// the distance array must match exactly (level-synchronization makes BFS
// levels deterministic even though claim order is not), and the barrier
// words must record exactly one generation per nonempty frontier with
// every warp arriving at each one.
func (w BFS) verify(h *cpu.Host, g *Graph) error {
	want, levels := g.Levels()
	for v := range want {
		if got := h.Read64(addrBfsDist + uint64(v)*8); got != want[v] {
			return fmt.Errorf("workloads: bfs dist[%d] = %d, want %d", v, got, want[v])
		}
	}
	if gen := h.Read64(addrBfsBarGen); gen != uint64(levels) {
		return fmt.Errorf("workloads: bfs ran %d levels, want %d", gen, levels)
	}
	warps := uint64(w.Blocks * w.WarpsPerBlock)
	if cnt := h.Read64(addrBfsBarCnt); cnt != uint64(levels)*warps {
		return fmt.Errorf("workloads: bfs barrier count %d, want %d arrivals", cnt, uint64(levels)*warps)
	}
	return nil
}
