package workloads

import (
	"gsi/internal/cpu"
	"gsi/internal/gpu"
	"gsi/internal/isa"
)

// Instance is a runnable workload: it initializes host memory, supplies
// the kernel, and returns the functional post-check that validates the
// run. Every registry workload's parameter struct implements it, and the
// public gsi.Workload is an alias of this interface.
type Instance interface {
	// Name identifies the workload in reports.
	Name() string
	// Build writes initial memory through the host and returns the
	// kernel plus a post-run functional verification hook.
	Build(h *cpu.Host) (*gpu.Kernel, func(h *cpu.Host) error, error)
}

// WarpChunk splits total work items among parts workers and returns the
// half-open range [start, end) owned by worker idx. The first total%parts
// workers get one extra item, so ranges cover everything and differ in
// size by at most one — the per-warp chunking convention shared by the
// streaming kernels (implicit, SpMV, GUPS).
func WarpChunk(total, parts, idx int) (start, end int) {
	if parts < 1 {
		return 0, total
	}
	base := total / parts
	extra := total % parts
	start = idx*base + min(idx, extra)
	end = start + base
	if idx < extra {
		end++
	}
	return start, end
}

// Shared register conventions: every kernel assembled in this package
// reserves r0 as the constant 0 and r1 as the constant 1 (see rZero and
// rOne in uts.go); InitConsts seeds them. The lock and queue emit helpers
// below rely on that convention.
func InitConsts(regs *[isa.NumRegs]uint64) {
	regs[rZero] = 0
	regs[rOne] = 1
}

// emitSpinAcquire appends the shared spin-lock acquire idiom: CAS the lock
// word at [rLock] from 0 to 1 with acquire semantics, spinning until the
// old value comes back 0. rOld receives the exchanged value and is
// clobbered. Uses the rZero/rOne register convention.
func emitSpinAcquire(b *isa.Builder, rOld, rLock isa.Reg) {
	spin := b.Here()
	b.AtomCAS(rOld, rLock, rZero, rOne, isa.Acquire)
	b.BNE(rOld, rZero, spin)
}

// emitUnlock appends the matching release: exchange the lock word back to
// 0 with release semantics (flushing the store buffer first, so every
// update made under the lock is visible before the lock frees). rOld is
// clobbered.
func emitUnlock(b *isa.Builder, rOld, rLock isa.Reg) {
	b.AtomExch(rOld, rLock, rZero, isa.Release)
}

// emitHashChain appends a dependent special-function chain of length n on
// rd (rd = Mix64^n(rd)) — the shared "process a token" compute phase.
func emitHashChain(b *isa.Builder, rd isa.Reg, n int) {
	for i := 0; i < n; i++ {
		b.SFU(rd, rd)
	}
}

// HashChain is the CPU-side mirror of emitHashChain for verifiers.
func HashChain(v uint64, n int) uint64 {
	for i := 0; i < n; i++ {
		v = isa.Mix64(v)
	}
	return v
}
