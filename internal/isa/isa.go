// Package isa defines the warp-level instruction set the simulated GPU
// executes, and a small assembler-style builder for writing kernels.
//
// Programs are warp programs: all lanes of a warp follow one control path
// (the paper's UTS kernels behave this way too — one lock holder per warp).
// Registers hold warp-scalar 64-bit values; vector memory operations expand
// a (base, stride) pair into per-lane addresses which the load/store unit
// coalesces into cache-line requests exactly as a SIMT coalescer would.
package isa

import "fmt"

// Reg names a warp-scalar register. Kernels may use registers 0 through
// NumRegs-1.
type Reg uint8

// NumRegs is the architectural register count per warp.
const NumRegs = 32

// Op enumerates the instruction opcodes.
type Op uint8

const (
	// OpNop does nothing for one issue slot.
	OpNop Op = iota

	// --- warp-scalar ALU (result latency: ALULat) ---

	OpMovI // Rd = Imm
	OpMov  // Rd = Ra
	OpAdd  // Rd = Ra + Rb
	OpSub  // Rd = Ra - Rb
	OpMul  // Rd = Ra * Rb
	OpAnd  // Rd = Ra & Rb
	OpOr   // Rd = Ra | Rb
	OpXor  // Rd = Ra ^ Rb
	OpShl  // Rd = Ra << (Rb & 63)
	OpShr  // Rd = Ra >> (Rb & 63)
	OpAddI // Rd = Ra + Imm
	OpMulI // Rd = Ra * Imm
	OpAndI // Rd = Ra & Imm
	OpMin  // Rd = min(Ra, Rb)
	OpFMA  // Rd = Ra*Rb + Rd (models a fused multiply-add; ALU class)

	// OpSFU models a long-latency special-function operation
	// (transcendental); Rd = hash(Ra). SFU class: long latency, limited
	// initiation interval, the source of compute structural stalls.
	OpSFU

	// --- global memory (unified CPU-GPU address space) ---

	OpLd  // Rd = mem64[Ra + Imm]           (scalar load)
	OpSt  // mem64[Ra + Imm] = Rb           (scalar store)
	OpLdV // per-lane load  at Ra + lane*Imm; Rd = lane-0 value
	OpStV // per-lane store at Ra + lane*Imm of Rb

	// --- local memory (scratchpad or stash address space) ---

	OpLdL  // Rd = local64[Ra + Imm]
	OpStL  // local64[Ra + Imm] = Rb
	OpLdLV // per-lane local load  at Ra + lane*Imm; Rd = lane-0 value
	OpStLV // per-lane local store at Ra + lane*Imm of Rb

	// --- atomics (execute at the L2 bank holding the address) ---

	OpAtomCAS  // Rd = old = mem64[Ra]; if old == Rb { mem64[Ra] = Rc }
	OpAtomExch // Rd = old = mem64[Ra]; mem64[Ra] = Rb
	OpAtomAdd  // Rd = old = mem64[Ra]; mem64[Ra] = old + Rb

	// --- control ---

	OpBar // block-wide thread barrier
	OpBr  // unconditional branch to Target
	OpBEQ // if Ra == Rb branch to Target
	OpBNE // if Ra != Rb branch to Target
	OpBLT // if Ra <  Rb branch to Target (unsigned)
	OpBGE // if Ra >= Rb branch to Target (unsigned)

	OpExit // warp terminates

	numOps
)

// Class groups opcodes by the pipeline resource they use.
type Class uint8

const (
	// ClassALU executes on the fully pipelined integer/FP unit.
	ClassALU Class = iota
	// ClassSFU executes on the special function unit.
	ClassSFU
	// ClassMem issues to the load/store unit (global or local space).
	ClassMem
	// ClassAtomic issues to the load/store unit and carries
	// synchronization semantics (the warp blocks until it completes).
	ClassAtomic
	// ClassBarrier blocks the warp at a thread-block barrier.
	ClassBarrier
	// ClassCtrl is a branch (resolved at issue; a taken branch flushes
	// the instruction buffer).
	ClassCtrl
	// ClassExit terminates the warp.
	ClassExit
	// ClassNop occupies an issue slot only.
	ClassNop
)

// Class returns the pipeline class of the opcode.
func (op Op) Class() Class {
	switch op {
	case OpNop:
		return ClassNop
	case OpMovI, OpMov, OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor, OpShl,
		OpShr, OpAddI, OpMulI, OpAndI, OpMin, OpFMA:
		return ClassALU
	case OpSFU:
		return ClassSFU
	case OpLd, OpSt, OpLdV, OpStV, OpLdL, OpStL, OpLdLV, OpStLV:
		return ClassMem
	case OpAtomCAS, OpAtomExch, OpAtomAdd:
		return ClassAtomic
	case OpBar:
		return ClassBarrier
	case OpBr, OpBEQ, OpBNE, OpBLT, OpBGE:
		return ClassCtrl
	case OpExit:
		return ClassExit
	}
	panic(fmt.Sprintf("isa: unknown op %d", op))
}

// IsLoad reports whether the op reads memory into Rd via the LSU.
func (op Op) IsLoad() bool {
	switch op {
	case OpLd, OpLdV, OpLdL, OpLdLV:
		return true
	}
	return false
}

// IsStore reports whether the op writes memory via the LSU.
func (op Op) IsStore() bool {
	switch op {
	case OpSt, OpStV, OpStL, OpStLV:
		return true
	}
	return false
}

// IsLocal reports whether the op targets the local (scratchpad/stash)
// address space.
func (op Op) IsLocal() bool {
	switch op {
	case OpLdL, OpStL, OpLdLV, OpStLV:
		return true
	}
	return false
}

// IsVector reports whether the op expands to per-lane addresses.
func (op Op) IsVector() bool {
	switch op {
	case OpLdV, OpStV, OpLdLV, OpStLV:
		return true
	}
	return false
}

// String returns the mnemonic.
func (op Op) String() string {
	names := [...]string{
		OpNop: "nop", OpMovI: "movi", OpMov: "mov", OpAdd: "add",
		OpSub: "sub", OpMul: "mul", OpAnd: "and", OpOr: "or",
		OpXor: "xor", OpShl: "shl", OpShr: "shr", OpAddI: "addi",
		OpMulI: "muli", OpAndI: "andi", OpMin: "min", OpFMA: "fma",
		OpSFU: "sfu", OpLd: "ld", OpSt: "st", OpLdV: "ldv",
		OpStV: "stv", OpLdL: "ldl", OpStL: "stl", OpLdLV: "ldlv",
		OpStLV: "stlv", OpAtomCAS: "atom.cas", OpAtomExch: "atom.exch",
		OpAtomAdd: "atom.add", OpBar: "bar", OpBr: "br", OpBEQ: "beq",
		OpBNE: "bne", OpBLT: "blt", OpBGE: "bge", OpExit: "exit",
	}
	if int(op) < len(names) && names[op] != "" {
		return names[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Order is the memory-ordering annotation on an atomic operation; the
// simulated system uses a data-race-free model where acquires
// self-invalidate the L1 and releases flush the store buffer first.
type Order uint8

const (
	// Relaxed has no ordering side effects.
	Relaxed Order = iota
	// Acquire self-invalidates the L1 when the atomic completes.
	Acquire
	// Release flushes the store buffer before the atomic executes.
	Release
	// AcqRel combines both.
	AcqRel
)

// String returns the annotation's conventional name.
func (o Order) String() string {
	switch o {
	case Relaxed:
		return "relaxed"
	case Acquire:
		return "acquire"
	case Release:
		return "release"
	case AcqRel:
		return "acq_rel"
	}
	return fmt.Sprintf("order(%d)", uint8(o))
}

// IsAcquire reports whether the order has acquire semantics.
func (o Order) IsAcquire() bool { return o == Acquire || o == AcqRel }

// IsRelease reports whether the order has release semantics.
func (o Order) IsRelease() bool { return o == Release || o == AcqRel }

// Instr is one decoded instruction.
type Instr struct {
	Op     Op
	Rd     Reg
	Ra     Reg
	Rb     Reg
	Rc     Reg
	Imm    int64
	Target int   // branch target: instruction index
	Order  Order // atomics only
	Lanes  int   // active lanes for vector ops; 0 means the full warp
	// NoRet marks an atomic whose result is discarded: the warp does not
	// block waiting for the old value (GPU fire-and-forget atomics).
	NoRet bool
}

// String renders the instruction in assembly-like form.
func (i Instr) String() string {
	switch i.Op.Class() {
	case ClassCtrl:
		if i.Op == OpBr {
			return fmt.Sprintf("br @%d", i.Target)
		}
		return fmt.Sprintf("%s r%d, r%d, @%d", i.Op, i.Ra, i.Rb, i.Target)
	case ClassAtomic:
		return fmt.Sprintf("%s.%s r%d, [r%d], r%d, r%d", i.Op, i.Order, i.Rd, i.Ra, i.Rb, i.Rc)
	case ClassMem:
		if i.Op.IsLoad() {
			return fmt.Sprintf("%s r%d, [r%d+%d]", i.Op, i.Rd, i.Ra, i.Imm)
		}
		return fmt.Sprintf("%s [r%d+%d], r%d", i.Op, i.Ra, i.Imm, i.Rb)
	default:
		return fmt.Sprintf("%s r%d, r%d, r%d, %d", i.Op, i.Rd, i.Ra, i.Rb, i.Imm)
	}
}

// Program is a validated, immutable instruction sequence. Builder.Build is
// its only constructor: it decodes every instruction once, and the decoded
// table is read-only afterwards, so SMs ticking in parallel share it freely.
type Program struct {
	Name    string
	Instrs  []Instr
	decoded []Decoded
}

// Decoded is an instruction plus what the issue stage asks of it every
// cycle, worked out once at Build from the definitions in Op.Class,
// Instr.ReadRegs and Instr.WritesReg.
type Decoded struct {
	Instr
	// Class is Op.Class().
	Class Class
	nscan uint8
	scan  [MaxScanRegs]Reg
}

// MaxScanRegs is the most registers one instruction puts on its scoreboard
// scan list (FMA and a returning CAS: three reads plus the destination).
const MaxScanRegs = 4

// ScanRegs returns the registers the scoreboard checks before issue: the
// registers read, then the destination (a write-after-write hazard). The
// slice aliases the table; callers must not modify it.
func (d *Decoded) ScanRegs() []Reg { return d.scan[:d.nscan] }

// Fetch returns the decoded instruction at pc. Build guarantees a warp that
// starts at 0 never leaves the program: every branch target is in range and
// the last instruction cannot fall through.
func (p *Program) Fetch(pc int) *Decoded { return &p.decoded[pc] }

// decode builds the Decoded entry for one instruction.
func decode(in Instr) (Decoded, error) {
	d := Decoded{Instr: in, Class: in.Op.Class()}
	regs := in.ReadRegs(nil)
	if rd, ok := in.WritesReg(); ok {
		regs = append(regs, rd)
	}
	if len(regs) > MaxScanRegs {
		return d, fmt.Errorf("%s scans %d registers, the decoded table holds %d", in.Op, len(regs), MaxScanRegs)
	}
	d.nscan = uint8(copy(d.scan[:], regs))
	return d, nil
}

// Len returns the instruction count.
func (p *Program) Len() int { return len(p.Instrs) }

// EvalALU computes the functional result of a warp-scalar ALU op.
func EvalALU(op Op, a, b, d uint64, imm int64) uint64 {
	switch op {
	case OpMovI:
		return uint64(imm)
	case OpMov:
		return a
	case OpAdd:
		return a + b
	case OpSub:
		return a - b
	case OpMul:
		return a * b
	case OpAnd:
		return a & b
	case OpOr:
		return a | b
	case OpXor:
		return a ^ b
	case OpShl:
		return a << (b & 63)
	case OpShr:
		return a >> (b & 63)
	case OpAddI:
		return a + uint64(imm)
	case OpMulI:
		return a * uint64(imm)
	case OpAndI:
		return a & uint64(imm)
	case OpMin:
		if a < b {
			return a
		}
		return b
	case OpFMA:
		return a*b + d
	case OpSFU:
		return Mix64(a)
	}
	panic(fmt.Sprintf("isa: EvalALU on non-ALU op %s", op))
}

// Mix64 is the splitmix64 finalizer; workloads and the SFU use it as the
// deterministic hash underlying synthetic data.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// BranchTaken evaluates a branch condition on warp-scalar values.
func BranchTaken(op Op, a, b uint64) bool {
	switch op {
	case OpBr:
		return true
	case OpBEQ:
		return a == b
	case OpBNE:
		return a != b
	case OpBLT:
		return a < b
	case OpBGE:
		return a >= b
	}
	panic(fmt.Sprintf("isa: BranchTaken on non-branch op %s", op))
}
