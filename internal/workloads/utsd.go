package workloads

import (
	"fmt"

	"gsi/internal/cpu"
	"gsi/internal/gpu"
	"gsi/internal/isa"
)

// UTSD is the decentralized variant of section 6.1.4: each SM owns a local
// task queue (its own lock, ring buffer) and falls back to the shared
// global queue only when the local queue overflows (push) or runs dry
// (pop). Locality makes producers and consumers meet on the same SM, which
// is what lets DeNovo's ownership pay off (figure 6.2).
type UTSD struct {
	Nodes         int `param:"nodes" help:"tree size" default:"6000"`
	FrontierMin   int `param:"frontier" help:"host pre-expansion width" default:"120"`
	Blocks        int `param:"blocks" help:"thread blocks (one per SM)" default:"15"`
	WarpsPerBlock int `param:"warps" help:"warps per block" default:"8"`
	Work          int `param:"work" help:"hash chain length per node" default:"16"`
	FMAs          int `param:"fmas" help:"FMA chain length per node" default:"4"`
	// LQCap is the per-SM ring capacity (power of two).
	LQCap int    `param:"lqcap" help:"per-SM ring capacity (power of two)" default:"128"`
	Seed  uint64 `param:"seed" help:"tree generation seed" default:"0xC0FFEE"`
}

// Name identifies the workload in reports.
func (u UTSD) Name() string { return "UTSD" }

func (u UTSD) blockWarps() int { return u.WarpsPerBlock }

// utsdProgram assembles the local-queue worker loop.
func utsdProgram(work, fmas int) *isa.Program {
	b := isa.NewBuilder("utsd")
	main := b.NewLabel()
	process := b.NewLabel()
	noteDone := b.NewLabel()
	lempty := b.NewLabel()
	gempty := b.NewLabel()

	// --- pop: local queue first ---
	b.Bind(main)
	emitSpinAcquire(b, rOld, rLLockA)
	b.Ld(rLHead, rLHeadA, 0)
	b.Ld(rLTail, rLTailA, 0)
	b.BEQ(rLHead, rLTail, lempty)
	b.And(rTmp, rLHead, rLQMask)
	b.MulI(rTmp, rTmp, 8)
	b.Add(rTmp, rLTasksB, rTmp)
	b.Ld(rNode, rTmp, 0)
	b.AddI(rLHead, rLHead, 1)
	b.St(rLHeadA, 0, rLHead)
	emitUnlock(b, rOld, rLLockA)
	b.Br(process)

	// --- local empty: try the global queue ---
	b.Bind(lempty)
	emitUnlock(b, rOld, rLLockA)
	emitSpinAcquire(b, rOld, rLockA)
	b.Ld(rHead, rHeadA, 0)
	b.Ld(rTail, rTailA, 0)
	b.BEQ(rHead, rTail, gempty)
	b.MulI(rTmp, rHead, 8)
	b.Add(rTmp, rTasksB, rTmp)
	b.Ld(rNode, rTmp, 0)
	b.AddI(rHead, rHead, 1)
	b.St(rHeadA, 0, rHead)
	emitUnlock(b, rOld, rLockA)
	b.Br(process)

	// --- both empty: terminate once every node is processed ---
	b.Bind(gempty)
	emitUnlock(b, rOld, rLockA)
	b.Ld(rDone, rDoneA, 0)
	b.BLT(rDone, rTotal, main)
	b.Exit()

	// --- process one node ---
	b.Bind(process)
	emitProcessNode(b, work, fmas)
	b.BEQ(rCount, rZero, noteDone)

	// --- push children: local ring while it has space ---
	b.MovI(rI, 0)
	emitSpinAcquire(b, rOld, rLLockA)
	b.Ld(rLHead, rLHeadA, 0)
	b.Ld(rLTail, rLTailA, 0)
	plocLoop := b.Here()
	plocDone := b.NewLabel()
	b.BGE(rI, rCount, plocDone)
	b.Sub(rTmp, rLTail, rLHead)
	b.BGE(rTmp, rLQCap, plocDone) // ring full: overflow to global
	b.And(rTmp, rLTail, rLQMask)
	b.MulI(rTmp, rTmp, 8)
	b.Add(rTmp, rLTasksB, rTmp)
	b.Add(rTmp2, rCBase, rI)
	b.St(rTmp, 0, rTmp2)
	b.AddI(rLTail, rLTail, 1)
	b.AddI(rI, rI, 1)
	b.Br(plocLoop)
	b.Bind(plocDone)
	b.St(rLTailA, 0, rLTail)
	emitUnlock(b, rOld, rLLockA)
	b.BGE(rI, rCount, noteDone)

	// --- overflow remainder to the global queue ---
	emitSpinAcquire(b, rOld, rLockA)
	b.Ld(rTail, rTailA, 0)
	pgLoop := b.Here()
	pgDone := b.NewLabel()
	b.BGE(rI, rCount, pgDone)
	b.MulI(rTmp, rTail, 8)
	b.Add(rTmp, rTasksB, rTmp)
	b.Add(rTmp2, rCBase, rI)
	b.St(rTmp, 0, rTmp2)
	b.AddI(rTail, rTail, 1)
	b.AddI(rI, rI, 1)
	b.Br(pgLoop)
	b.Bind(pgDone)
	b.St(rTailA, 0, rTail)
	emitUnlock(b, rOld, rLockA)

	b.Bind(noteDone)
	b.AtomAddNR(rDoneA, rOne, isa.Relaxed)
	b.Br(main)
	return b.MustBuild()
}

// Build initializes memory (frontier spread round-robin over the local
// queues) and returns the kernel plus its run verifier.
func (u UTSD) Build(h *cpu.Host) (*gpu.Kernel, func(*cpu.Host) error, error) {
	if u.Nodes < 1 || u.Blocks < 1 || u.WarpsPerBlock < 1 {
		return nil, nil, fmt.Errorf("workloads: invalid UTSD %+v", u)
	}
	if u.LQCap < 2 || u.LQCap&(u.LQCap-1) != 0 {
		return nil, nil, fmt.Errorf("workloads: UTSD LQCap %d must be a power of two", u.LQCap)
	}
	tree := GenTree(u.Seed, u.Nodes)
	seed := tree.SeedFrontier(u.FrontierMin)
	initTreeMemory(h, tree)

	// Distribute the frontier round-robin across the local queues.
	counts := make([]uint64, u.Blocks)
	for i, n := range seed.Frontier {
		q := i % u.Blocks
		h.Write64(lqTasksBase(q)+counts[q]*8, n)
		counts[q]++
	}
	for q := 0; q < u.Blocks; q++ {
		h.Write64(lqLockAddr(q), 0)
		h.Write64(lqHeadAddr(q), 0)
		h.Write64(lqTailAddr(q), counts[q])
	}
	h.Write64(addrLock, 0)
	h.Write64(addrHead, 0)
	h.Write64(addrTail, 0)
	h.Write64(addrDone, seed.HostProcessed)

	total := uint64(tree.Nodes())
	k := &gpu.Kernel{
		Name:          "utsd",
		Program:       utsdProgram(u.Work, u.FMAs),
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
			regs[rLLockA] = lqLockAddr(block)
			regs[rLHeadA] = lqHeadAddr(block)
			regs[rLTailA] = lqTailAddr(block)
			regs[rLTasksB] = lqTasksBase(block)
			regs[rLQMask] = uint64(u.LQCap - 1)
			regs[rLQCap] = uint64(u.LQCap)
		},
	}
	return k, func(h *cpu.Host) error { return u.verify(h, tree, seed) }, nil
}

// verify checks post-run invariants: every node processed, every queue
// (global and local) drained, and every result word exact.
func (u UTSD) verify(h *cpu.Host, tree *Tree, seed Seeding) error {
	total := uint64(tree.Nodes())
	if done := h.Read64(addrDone); done != total {
		return fmt.Errorf("workloads: done=%d, want %d", done, total)
	}
	if head, tail := h.Read64(addrHead), h.Read64(addrTail); head != tail {
		return fmt.Errorf("workloads: global queue not drained: head=%d tail=%d", head, tail)
	}
	for q := 0; q < u.Blocks; q++ {
		head, tail := h.Read64(lqHeadAddr(q)), h.Read64(lqTailAddr(q))
		if head != tail {
			return fmt.Errorf("workloads: local queue %d not drained: head=%d tail=%d", q, head, tail)
		}
	}
	return verifyResults(h, tree, seed, u.Work, u.FMAs)
}
