package workloads

import (
	"fmt"

	"gsi/internal/cpu"
	"gsi/internal/gpu"
	"gsi/internal/isa"
)

// UTS is the unbalanced tree search benchmark of case study 1: workers
// (one per warp) pop nodes from a single global task queue protected by one
// lock, process the node's payload, and push its children back. The single
// lock is the benchmark's defining property: all workers serialize on it,
// so synchronization stalls dominate (figure 6.1a).
type UTS struct {
	// Nodes is the exact tree size.
	Nodes int `param:"nodes" help:"tree size" default:"6000"`
	// FrontierMin is the host pre-expansion width before launch.
	FrontierMin int `param:"frontier" help:"host pre-expansion width" default:"120"`
	// Blocks and WarpsPerBlock size the worker population (the paper
	// uses all 15 SMs).
	Blocks        int `param:"blocks" help:"thread blocks (one per SM)" default:"15"`
	WarpsPerBlock int `param:"warps" help:"warps per block" default:"8"`
	// Work is the dependent special-function (hash) chain length per
	// node: real UTS hashes a descriptor per node (SHA-1), so processing
	// is compute-heavy relative to the queue operations.
	Work int `param:"work" help:"hash chain length per node" default:"16"`
	// FMAs extends the per-node compute with an FMA chain.
	FMAs int `param:"fmas" help:"FMA chain length per node" default:"4"`
	// Seed drives deterministic tree generation.
	Seed uint64 `param:"seed" help:"tree generation seed" default:"0xC0FFEE"`
}

// Name identifies the workload in reports.
func (u UTS) Name() string { return "UTS" }

func (u UTS) blockWarps() int { return u.WarpsPerBlock }

// Registers used by the UTS/UTSD kernels (r0 and r1 hold the constants 0
// and 1 and are never written).
const (
	rZero   isa.Reg = 0
	rOne    isa.Reg = 1
	rLockA  isa.Reg = 2
	rHeadA  isa.Reg = 3
	rTailA  isa.Reg = 4
	rDoneA  isa.Reg = 5
	rTasksB isa.Reg = 6
	rCCB    isa.Reg = 7
	rCBB    isa.Reg = 8
	rTotal  isa.Reg = 10
	rOld    isa.Reg = 11
	rHead   isa.Reg = 12
	rTail   isa.Reg = 13
	rNode   isa.Reg = 14
	rCount  isa.Reg = 15
	rCBase  isa.Reg = 16
	rTmp    isa.Reg = 17
	rTmp2   isa.Reg = 18
	rAcc    isa.Reg = 19
	rI      isa.Reg = 20
	rDone   isa.Reg = 21
	rPayA   isa.Reg = 22
	// UTSD extras.
	rLLockA  isa.Reg = 23
	rLHeadA  isa.Reg = 24
	rLTailA  isa.Reg = 25
	rLTasksB isa.Reg = 26
	rLQMask  isa.Reg = 27 // local ring capacity - 1 (power of two)
	rLQCap   isa.Reg = 28
	rLHead   isa.Reg = 29
	rLTail   isa.Reg = 30
	rResB    isa.Reg = 31 // result array base
)

// emitProcessNode appends the shared node-processing sequence: fetch child
// metadata, hash the node descriptor (real UTS derives children by hashing,
// so processing is compute- not data-bound), and write the node's result.
// The result store is what repeat releases pay for under GPU coherence and
// what ownership makes cheap under DeNovo; the queue structures remain the
// memory hot path, as in the paper.
func emitProcessNode(b *isa.Builder, work, fmas int) {
	b.MulI(rTmp, rNode, 8)
	b.Add(rTmp2, rCCB, rTmp)
	b.Ld(rCount, rTmp2, 0)
	b.Add(rTmp2, rCBB, rTmp)
	b.Ld(rCBase, rTmp2, 0)
	if work < 1 {
		work = 1
	}
	b.SFU(rAcc, rNode)
	for i := 1; i < work; i++ {
		b.SFU(rAcc, rAcc)
	}
	for i := 0; i < fmas; i++ {
		b.FMA(rAcc, rAcc, rAcc)
	}
	b.MulI(rPayA, rNode, 8)
	b.Add(rPayA, rResB, rPayA)
	b.St(rPayA, 0, rAcc)
}

// utsProgram assembles the global-queue worker loop.
func utsProgram(work, fmas int) *isa.Program {
	b := isa.NewBuilder("uts")
	main := b.NewLabel()
	empty := b.NewLabel()
	noteDone := b.NewLabel()
	exitL := b.NewLabel()

	b.Bind(main)
	// Acquire the global queue lock: CAS(lock, 0 -> 1) with acquire
	// semantics; spin until the old value is 0.
	emitSpinAcquire(b, rOld, rLockA)
	// Pop: if head == tail the queue is empty.
	b.Ld(rHead, rHeadA, 0)
	b.Ld(rTail, rTailA, 0)
	b.BEQ(rHead, rTail, empty)
	b.MulI(rTmp, rHead, 8)
	b.Add(rTmp, rTasksB, rTmp)
	b.Ld(rNode, rTmp, 0)
	b.AddI(rHead, rHead, 1)
	b.St(rHeadA, 0, rHead)
	// Unlock: exchange with release semantics (flushes the store
	// buffer: the head update becomes visible before the lock frees).
	emitUnlock(b, rOld, rLockA)

	// Process the node: fetch child metadata, stream the payload,
	// compute on it, store its result.
	emitProcessNode(b, work, fmas)

	// Push children, if any, under the same global lock.
	b.BEQ(rCount, rZero, noteDone)
	emitSpinAcquire(b, rOld, rLockA)
	b.Ld(rTail, rTailA, 0)
	b.MovI(rI, 0)
	pushLoop := b.Here()
	pushDone := b.NewLabel()
	b.BGE(rI, rCount, pushDone)
	b.MulI(rTmp, rTail, 8)
	b.Add(rTmp, rTasksB, rTmp)
	b.Add(rTmp2, rCBase, rI)
	b.St(rTmp, 0, rTmp2)
	b.AddI(rTail, rTail, 1)
	b.AddI(rI, rI, 1)
	b.Br(pushLoop)
	b.Bind(pushDone)
	b.St(rTailA, 0, rTail)
	emitUnlock(b, rOld, rLockA)

	b.Bind(noteDone)
	// Count the node processed: fire-and-forget fetch-add at the L2.
	b.AtomAddNR(rDoneA, rOne, isa.Relaxed)
	b.Br(main)

	b.Bind(empty)
	emitUnlock(b, rOld, rLockA)
	// Termination: all nodes processed? The done line was
	// self-invalidated by this iteration's acquire, so the load is
	// fresh.
	b.Ld(rDone, rDoneA, 0)
	b.BLT(rDone, rTotal, main)
	b.Bind(exitL)
	b.Exit()
	return b.MustBuild()
}

// Build writes the tree and queue into host memory and returns the kernel
// plus the verifier of a global-queue run over that tree.
func (u UTS) Build(h *cpu.Host) (*gpu.Kernel, func(*cpu.Host) error, error) {
	if u.Nodes < 1 || u.Blocks < 1 || u.WarpsPerBlock < 1 {
		return nil, nil, fmt.Errorf("workloads: invalid UTS %+v", u)
	}
	tree := GenTree(u.Seed, u.Nodes)
	seed := tree.SeedFrontier(u.FrontierMin)
	initTreeMemory(h, tree)

	// Global queue: the frontier is pre-loaded, head at 0.
	h.WriteSlice(addrTasks, seed.Frontier)
	h.Write64(addrLock, 0)
	h.Write64(addrHead, 0)
	h.Write64(addrTail, uint64(len(seed.Frontier)))
	h.Write64(addrDone, seed.HostProcessed)

	total := uint64(tree.Nodes())
	k := &gpu.Kernel{
		Name:          "uts",
		Program:       utsProgram(u.Work, u.FMAs),
		Blocks:        u.Blocks,
		WarpsPerBlock: u.WarpsPerBlock,
		InitRegs: func(block, warp int, regs *[isa.NumRegs]uint64) {
			InitConsts(regs)
			regs[rLockA] = addrLock
			regs[rHeadA] = addrHead
			regs[rTailA] = addrTail
			regs[rDoneA] = addrDone
			regs[rTasksB] = addrTasks
			regs[rCCB] = addrChildCount
			regs[rCBB] = addrChildBase
			regs[rResB] = addrResult
			regs[rTotal] = total
		},
	}
	return k, func(h *cpu.Host) error { return verifyQueueRun(h, tree, seed, u.Work, u.FMAs) }, nil
}

// initTreeMemory writes the tree's metadata arrays.
func initTreeMemory(h *cpu.Host, tree *Tree) {
	h.WriteSlice(addrChildCount, tree.ChildCount)
	h.WriteSlice(addrChildBase, tree.ChildBase)
}

// verifyQueueRun checks the post-run invariants of a global-queue
// execution: every node processed exactly once, the queue drained, and
// every node's result word holding the exact hash+FMA chain.
func verifyQueueRun(h *cpu.Host, tree *Tree, seed Seeding, work, fmas int) error {
	total := uint64(tree.Nodes())
	if done := h.Read64(addrDone); done != total {
		return fmt.Errorf("workloads: done=%d, want %d", done, total)
	}
	head, tail := h.Read64(addrHead), h.Read64(addrTail)
	if head != tail {
		return fmt.Errorf("workloads: queue not drained: head=%d tail=%d", head, tail)
	}
	wantPushed := total - seed.HostProcessed
	if tail != wantPushed {
		return fmt.Errorf("workloads: pushed %d tasks, want %d", tail, wantPushed)
	}
	return verifyResults(h, tree, seed, work, fmas)
}

// verifyResults checks every GPU-processed node's result word: the kernel
// computes result[n] = FMA^fmas(Mix64^work(n)). Host pre-expansion pops
// nodes in BFS (= id) order, so nodes 0 through HostProcessed-1 were
// handled by the host and have no GPU result.
func verifyResults(h *cpu.Host, tree *Tree, seed Seeding, work, fmas int) error {
	if work < 1 {
		work = 1
	}
	for n := int(seed.HostProcessed); n < tree.Nodes(); n++ {
		v := uint64(n)
		for i := 0; i < work; i++ {
			v = isa.Mix64(v)
		}
		for i := 0; i < fmas; i++ {
			v = v*v + v
		}
		if got := h.Read64(addrResult + uint64(n)*8); got != v {
			return fmt.Errorf("workloads: result[%d] = %#x, want %#x", n, got, v)
		}
	}
	return nil
}
