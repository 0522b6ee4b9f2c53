package workloads

import (
	"fmt"

	"gsi/internal/cpu"
	"gsi/internal/gpu"
	"gsi/internal/isa"
)

// Steal is a work-stealing scheduler microbenchmark: every thread block
// owns a lock-protected deque of task ids, warps drain their own block's
// deque, and a warp that finds it empty rotates through victim deques
// stealing half the victim's tasks (round up) into its own — the classic
// steal-half policy. The initial distribution is skewed (by default every
// task starts in block 0's deque), so work diffuses through cascading
// steals: workers oscillate between processing and lock-spinning as the
// imbalance drains, which is exactly the contended-atomics pressure and
// irregular quiescence the fixed-shape workloads never produce. Results
// are schedule-independent (result[id] is a pure function of id), so the
// functional check stays exact no matter which warp processed a task.
//
// Steals take the thief's and the victim's deque locks together, acquired
// in lock-address order, so thieves can never deadlock against each other;
// owner pops take only the owner's lock and therefore never participate in
// a cycle. Termination is a rotation that finds every deque empty followed
// by an atomic read of the processed counter.
type Steal struct {
	// Tasks is the total task count; ids are 0..Tasks-1.
	Tasks int `param:"tasks" help:"total task count" default:"2000"`
	// Cap is the per-deque ring capacity (a power of two >= Tasks, since
	// the skewed seeding can put every task in one deque).
	Cap int `param:"cap" help:"per-deque ring capacity (power of two >= tasks)" default:"2048"`
	// Blocks is the deque count (one deque per thread block) and
	// WarpsPerBlock the workers sharing each deque.
	Blocks        int `param:"blocks" help:"thread blocks (one deque each)" default:"15"`
	WarpsPerBlock int `param:"warps" help:"warps per block" default:"4"`
	// Work is the dependent hash-chain length per task and FMAs the FMA
	// chain extending it, as in the UTS node processing.
	Work int `param:"work" help:"hash chain length per task" default:"12"`
	FMAs int `param:"fmas" help:"FMA chain length per task" default:"4"`
	// Skew is the percentage of tasks seeded into block 0's deque; the
	// remainder round-robin across the other deques. 100 means total
	// imbalance (every steal chain starts at deque 0).
	Skew int `param:"skew" help:"percent of tasks seeded into deque 0" default:"100"`
}

// Name identifies the workload in reports.
func (w Steal) Name() string { return "steal" }

func (w Steal) blockWarps() int { return w.WarpsPerBlock }

// Steal kernel registers (rZero/rOne shared, see framework.go).
const (
	rSlMyQ    isa.Reg = 2
	rSlVq     isa.Reg = 3
	rSlQn     isa.Reg = 4
	rSlMyLkA  isa.Reg = 5
	rSlMyHdA  isa.Reg = 6
	rSlMyTlA  isa.Reg = 7
	rSlMyRing isa.Reg = 8
	rSlVLkA   isa.Reg = 9
	rSlVHdA   isa.Reg = 10
	rSlVTlA   isa.Reg = 11
	rSlVRing  isa.Reg = 12
	rSlLoLk   isa.Reg = 13
	rSlHiLk   isa.Reg = 14
	rSlHead   isa.Reg = 15
	rSlTail   isa.Reg = 16
	rSlVHead  isa.Reg = 17
	rSlVTail  isa.Reg = 18
	rSlN      isa.Reg = 19
	rSlTask   isa.Reg = 20
	rSlI      isa.Reg = 21
	rSlOld    isa.Reg = 22
	rSlTmp    isa.Reg = 23
	rSlTmp2   isa.Reg = 24
	rSlAcc    isa.Reg = 25
	rSlMask   isa.Reg = 26
	rSlDoneA  isa.Reg = 27
	rSlTotal  isa.Reg = 28
	rSlResB   isa.Reg = 29
	rSlAtt    isa.Reg = 30
)

// stealProgram assembles the worker loop: pop own deque, process, and on
// empty rotate through victims stealing half under both locks (acquired in
// lock-address order).
func stealProgram(work, fmas int) *isa.Program {
	if work < 1 {
		work = 1
	}
	b := isa.NewBuilder("steal")
	main := b.NewLabel()
	ownEmpty := b.NewLabel()
	stealLoop := b.NewLabel()
	noWrap := b.NewLabel()
	xferDone := b.NewLabel()
	releaseNext := b.NewLabel()
	checkDone := b.NewLabel()
	retry := b.NewLabel()
	exitL := b.NewLabel()

	// --- pop one task from the own deque ---
	b.Bind(main)
	emitSpinAcquire(b, rSlOld, rSlMyLkA)
	b.Ld(rSlHead, rSlMyHdA, 0)
	b.Ld(rSlTail, rSlMyTlA, 0)
	b.BEQ(rSlHead, rSlTail, ownEmpty)
	b.And(rSlTmp, rSlHead, rSlMask)
	b.MulI(rSlTmp, rSlTmp, 8)
	b.Add(rSlTmp, rSlMyRing, rSlTmp)
	b.Ld(rSlTask, rSlTmp, 0)
	b.AddI(rSlHead, rSlHead, 1)
	b.St(rSlMyHdA, 0, rSlHead)
	emitUnlock(b, rSlOld, rSlMyLkA)

	// --- process: hash chain, FMA chain, result store, done count ---
	b.SFU(rSlAcc, rSlTask)
	for i := 1; i < work; i++ {
		b.SFU(rSlAcc, rSlAcc)
	}
	for i := 0; i < fmas; i++ {
		b.FMA(rSlAcc, rSlAcc, rSlAcc)
	}
	b.MulI(rSlTmp, rSlTask, 8)
	b.Add(rSlTmp, rSlResB, rSlTmp)
	b.St(rSlTmp, 0, rSlAcc)
	b.AtomAddNR(rSlDoneA, rOne, isa.Relaxed)
	b.Br(main)

	// --- own deque empty: rotate through victims ---
	b.Bind(ownEmpty)
	emitUnlock(b, rSlOld, rSlMyLkA)
	b.Bind(retry)
	b.MovI(rSlAtt, 1)
	b.Bind(stealLoop)
	b.BGE(rSlAtt, rSlQn, checkDone)
	b.Add(rSlVq, rSlMyQ, rSlAtt)
	b.BLT(rSlVq, rSlQn, noWrap)
	b.Sub(rSlVq, rSlVq, rSlQn)
	b.Bind(noWrap)
	b.MulI(rSlVLkA, rSlVq, sqMetaStride)
	b.AddI(rSlVLkA, rSlVLkA, addrSqMeta)
	b.AddI(rSlVHdA, rSlVLkA, 0x40)
	b.AddI(rSlVTlA, rSlVLkA, 0x80)
	b.MulI(rSlVRing, rSlVq, sqTaskStride)
	b.AddI(rSlVRing, rSlVRing, addrSqTasks)
	// Double acquire in lock-address order: no thief-thief deadlock.
	b.Min(rSlLoLk, rSlVLkA, rSlMyLkA)
	b.Add(rSlHiLk, rSlVLkA, rSlMyLkA)
	b.Sub(rSlHiLk, rSlHiLk, rSlLoLk)
	emitSpinAcquire(b, rSlOld, rSlLoLk)
	emitSpinAcquire(b, rSlOld, rSlHiLk)
	b.Ld(rSlVHead, rSlVHdA, 0)
	b.Ld(rSlVTail, rSlVTlA, 0)
	b.Sub(rSlN, rSlVTail, rSlVHead)
	b.BEQ(rSlN, rZero, releaseNext)
	// Steal half, round up: k = (n+1)>>1.
	b.AddI(rSlN, rSlN, 1)
	b.Shr(rSlN, rSlN, rOne)
	b.Ld(rSlTail, rSlMyTlA, 0)
	b.MovI(rSlI, 0)
	xfer := b.Here()
	b.BGE(rSlI, rSlN, xferDone)
	b.Add(rSlTmp, rSlVHead, rSlI)
	b.And(rSlTmp, rSlTmp, rSlMask)
	b.MulI(rSlTmp, rSlTmp, 8)
	b.Add(rSlTmp, rSlVRing, rSlTmp)
	b.Ld(rSlTask, rSlTmp, 0)
	b.Add(rSlTmp2, rSlTail, rSlI)
	b.And(rSlTmp2, rSlTmp2, rSlMask)
	b.MulI(rSlTmp2, rSlTmp2, 8)
	b.Add(rSlTmp2, rSlMyRing, rSlTmp2)
	b.St(rSlTmp2, 0, rSlTask)
	b.AddI(rSlI, rSlI, 1)
	b.Br(xfer)
	b.Bind(xferDone)
	b.Add(rSlVHead, rSlVHead, rSlN)
	b.St(rSlVHdA, 0, rSlVHead)
	b.Add(rSlTail, rSlTail, rSlN)
	b.St(rSlMyTlA, 0, rSlTail)
	emitUnlock(b, rSlOld, rSlHiLk)
	emitUnlock(b, rSlOld, rSlLoLk)
	b.Br(main)

	b.Bind(releaseNext)
	emitUnlock(b, rSlOld, rSlHiLk)
	emitUnlock(b, rSlOld, rSlLoLk)
	b.AddI(rSlAtt, rSlAtt, 1)
	b.Br(stealLoop)

	// --- every deque empty this rotation: all tasks processed? ---
	b.Bind(checkDone)
	// Atomic read (fetch-add 0) with acquire semantics: always fresh.
	b.AtomAdd(rSlTmp, rSlDoneA, rZero, isa.Acquire)
	b.BLT(rSlTmp, rSlTotal, retry)
	b.Bind(exitL)
	b.Exit()
	return b.MustBuild()
}

// seedDeques returns the initial per-deque task lists: the first
// Tasks*Skew/100 task ids into deque 0, the remainder round-robin over the
// other deques (deque 0 again when there is only one).
func (w Steal) seedDeques() [][]uint64 {
	qs := make([][]uint64, w.Blocks)
	hot := w.Tasks * w.Skew / 100
	for id := 0; id < w.Tasks; id++ {
		q := 0
		if id >= hot && w.Blocks > 1 {
			q = 1 + (id-hot)%(w.Blocks-1)
		}
		qs[q] = append(qs[q], uint64(id))
	}
	return qs
}

// Build writes the deques and task rings into host memory and returns the
// kernel plus its verifier.
func (w Steal) Build(h *cpu.Host) (*gpu.Kernel, func(*cpu.Host) error, error) {
	if w.Tasks < 1 || w.Blocks < 1 || w.WarpsPerBlock < 1 {
		return nil, nil, fmt.Errorf("workloads: invalid steal %+v", w)
	}
	if w.Cap < w.Tasks || w.Cap&(w.Cap-1) != 0 {
		return nil, nil, fmt.Errorf("workloads: steal ring cap %d must be a power of two >= %d tasks", w.Cap, w.Tasks)
	}
	if w.Skew < 0 || w.Skew > 100 {
		return nil, nil, fmt.Errorf("workloads: steal skew %d%% out of range", w.Skew)
	}
	if sqMetaStride*uint64(w.Blocks) > addrSqTasks-addrSqMeta ||
		sqTaskStride*uint64(w.Blocks) > addrStealRes-addrSqTasks {
		return nil, nil, fmt.Errorf("workloads: steal blocks %d overflow the deque regions", w.Blocks)
	}
	for q, tasks := range w.seedDeques() {
		h.Write64(sqLockAddr(q), 0)
		h.Write64(sqHeadAddr(q), 0)
		h.Write64(sqTailAddr(q), uint64(len(tasks)))
		h.WriteSlice(sqTasksBase(q), tasks)
	}
	h.Write64(addrStealDone, 0)
	for id := 0; id < w.Tasks; id++ {
		h.Write64(addrStealRes+uint64(id)*8, 0)
	}

	k := &gpu.Kernel{
		Name:          "steal",
		Program:       stealProgram(w.Work, w.FMAs),
		Blocks:        w.Blocks,
		WarpsPerBlock: w.WarpsPerBlock,
		InitRegs: func(block, warp int, regs *[isa.NumRegs]uint64) {
			InitConsts(regs)
			regs[rSlMyQ] = uint64(block)
			regs[rSlQn] = uint64(w.Blocks)
			regs[rSlMyLkA] = sqLockAddr(block)
			regs[rSlMyHdA] = sqHeadAddr(block)
			regs[rSlMyTlA] = sqTailAddr(block)
			regs[rSlMyRing] = sqTasksBase(block)
			regs[rSlMask] = uint64(w.Cap - 1)
			regs[rSlDoneA] = addrStealDone
			regs[rSlTotal] = uint64(w.Tasks)
			regs[rSlResB] = addrStealRes
		},
	}
	return k, w.verify, nil
}

// StealResult is the reference per-task result: the hash chain extended by
// the FMA chain, a pure function of the task id (which is what makes the
// workload's outcome schedule-independent).
func StealResult(id uint64, work, fmas int) uint64 {
	if work < 1 {
		work = 1
	}
	return applyFMA(HashChain(id, work), fmas)
}

// verify checks the post-run invariants: every task processed exactly
// once (the done counter equals the task count and every result word holds
// the exact chain value), every deque drained (head == tail), and every
// lock free.
func (w Steal) verify(h *cpu.Host) error {
	if done := h.Read64(addrStealDone); done != uint64(w.Tasks) {
		return fmt.Errorf("workloads: steal done=%d, want %d", done, w.Tasks)
	}
	for id := 0; id < w.Tasks; id++ {
		want := StealResult(uint64(id), w.Work, w.FMAs)
		if got := h.Read64(addrStealRes + uint64(id)*8); got != want {
			return fmt.Errorf("workloads: steal result[%d] = %#x, want %#x", id, got, want)
		}
	}
	for q := 0; q < w.Blocks; q++ {
		head, tail := h.Read64(sqHeadAddr(q)), h.Read64(sqTailAddr(q))
		if head != tail {
			return fmt.Errorf("workloads: steal deque %d not drained (head=%d tail=%d)", q, head, tail)
		}
		if lock := h.Read64(sqLockAddr(q)); lock != 0 {
			return fmt.Errorf("workloads: steal deque %d lock still held (%d)", q, lock)
		}
	}
	return nil
}
