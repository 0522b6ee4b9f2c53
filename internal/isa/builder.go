package isa

import "fmt"

// Label is a forward-referenceable branch target managed by a Builder.
type Label int

// Builder assembles a Program with label patching and validation. Methods
// append one instruction each and return the Builder for chaining.
type Builder struct {
	name    string
	instrs  []Instr
	bound   map[Label]int // label -> instruction index
	uses    map[Label][]int
	nlabels int
}

// NewBuilder starts an empty program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{
		name:  name,
		bound: make(map[Label]int),
		uses:  make(map[Label][]int),
	}
}

// NewLabel allocates an unbound label.
func (b *Builder) NewLabel() Label {
	b.nlabels++
	return Label(b.nlabels)
}

// Bind attaches a label to the next instruction appended. Binding a label
// twice is a programming error and panics.
func (b *Builder) Bind(l Label) *Builder {
	if _, dup := b.bound[l]; dup {
		panic(fmt.Sprintf("isa: label %d bound twice in %q", l, b.name))
	}
	b.bound[l] = len(b.instrs)
	return b
}

// Here allocates a label bound to the next instruction (for backward
// branches: `top := b.Here()` ... `b.BNE(r1, r2, top)`).
func (b *Builder) Here() Label {
	l := b.NewLabel()
	b.Bind(l)
	return l
}

func (b *Builder) emit(i Instr) *Builder {
	b.instrs = append(b.instrs, i)
	return b
}

func (b *Builder) emitBranch(op Op, ra, rb Reg, l Label) *Builder {
	b.uses[l] = append(b.uses[l], len(b.instrs))
	return b.emit(Instr{Op: op, Ra: ra, Rb: rb, Target: -1})
}

// Nop appends a no-op.
func (b *Builder) Nop() *Builder { return b.emit(Instr{Op: OpNop}) }

// MovI sets rd to an immediate.
func (b *Builder) MovI(rd Reg, imm int64) *Builder {
	return b.emit(Instr{Op: OpMovI, Rd: rd, Imm: imm})
}

// Mov copies ra to rd.
func (b *Builder) Mov(rd, ra Reg) *Builder {
	return b.emit(Instr{Op: OpMov, Rd: rd, Ra: ra})
}

// Add appends rd = ra + rb.
func (b *Builder) Add(rd, ra, rb Reg) *Builder {
	return b.emit(Instr{Op: OpAdd, Rd: rd, Ra: ra, Rb: rb})
}

// Sub appends rd = ra - rb.
func (b *Builder) Sub(rd, ra, rb Reg) *Builder {
	return b.emit(Instr{Op: OpSub, Rd: rd, Ra: ra, Rb: rb})
}

// Mul appends rd = ra * rb.
func (b *Builder) Mul(rd, ra, rb Reg) *Builder {
	return b.emit(Instr{Op: OpMul, Rd: rd, Ra: ra, Rb: rb})
}

// And appends rd = ra & rb.
func (b *Builder) And(rd, ra, rb Reg) *Builder {
	return b.emit(Instr{Op: OpAnd, Rd: rd, Ra: ra, Rb: rb})
}

// Or appends rd = ra | rb.
func (b *Builder) Or(rd, ra, rb Reg) *Builder {
	return b.emit(Instr{Op: OpOr, Rd: rd, Ra: ra, Rb: rb})
}

// Xor appends rd = ra ^ rb.
func (b *Builder) Xor(rd, ra, rb Reg) *Builder {
	return b.emit(Instr{Op: OpXor, Rd: rd, Ra: ra, Rb: rb})
}

// Shl appends rd = ra << (rb & 63).
func (b *Builder) Shl(rd, ra, rb Reg) *Builder {
	return b.emit(Instr{Op: OpShl, Rd: rd, Ra: ra, Rb: rb})
}

// Shr appends rd = ra >> rb.
func (b *Builder) Shr(rd, ra, rb Reg) *Builder {
	return b.emit(Instr{Op: OpShr, Rd: rd, Ra: ra, Rb: rb})
}

// AddI appends rd = ra + imm.
func (b *Builder) AddI(rd, ra Reg, imm int64) *Builder {
	return b.emit(Instr{Op: OpAddI, Rd: rd, Ra: ra, Imm: imm})
}

// MulI appends rd = ra * imm.
func (b *Builder) MulI(rd, ra Reg, imm int64) *Builder {
	return b.emit(Instr{Op: OpMulI, Rd: rd, Ra: ra, Imm: imm})
}

// AndI appends rd = ra & imm.
func (b *Builder) AndI(rd, ra Reg, imm int64) *Builder {
	return b.emit(Instr{Op: OpAndI, Rd: rd, Ra: ra, Imm: imm})
}

// Min appends rd = min(ra, rb).
func (b *Builder) Min(rd, ra, rb Reg) *Builder {
	return b.emit(Instr{Op: OpMin, Rd: rd, Ra: ra, Rb: rb})
}

// FMA appends the ALU-class fused multiply-add rd = ra*rb + rd.
func (b *Builder) FMA(rd, ra, rb Reg) *Builder {
	return b.emit(Instr{Op: OpFMA, Rd: rd, Ra: ra, Rb: rb})
}

// SFU appends a long-latency special-function op rd = hash(ra).
func (b *Builder) SFU(rd, ra Reg) *Builder {
	return b.emit(Instr{Op: OpSFU, Rd: rd, Ra: ra})
}

// Ld appends a scalar global load rd = mem[ra+imm].
func (b *Builder) Ld(rd, ra Reg, imm int64) *Builder {
	return b.emit(Instr{Op: OpLd, Rd: rd, Ra: ra, Imm: imm})
}

// St appends a scalar global store mem[ra+imm] = rb.
func (b *Builder) St(ra Reg, imm int64, rb Reg) *Builder {
	return b.emit(Instr{Op: OpSt, Ra: ra, Imm: imm, Rb: rb})
}

// LdV appends a vector global load from ra + lane*stride.
func (b *Builder) LdV(rd, ra Reg, stride int64) *Builder {
	return b.emit(Instr{Op: OpLdV, Rd: rd, Ra: ra, Imm: stride})
}

// StV appends a vector global store of rb to ra + lane*stride.
func (b *Builder) StV(ra Reg, stride int64, rb Reg) *Builder {
	return b.emit(Instr{Op: OpStV, Ra: ra, Imm: stride, Rb: rb})
}

// LdL appends a scalar local (scratchpad/stash) load.
func (b *Builder) LdL(rd, ra Reg, imm int64) *Builder {
	return b.emit(Instr{Op: OpLdL, Rd: rd, Ra: ra, Imm: imm})
}

// StL appends a scalar local store.
func (b *Builder) StL(ra Reg, imm int64, rb Reg) *Builder {
	return b.emit(Instr{Op: OpStL, Ra: ra, Imm: imm, Rb: rb})
}

// LdLV appends a vector local load from ra + lane*stride.
func (b *Builder) LdLV(rd, ra Reg, stride int64) *Builder {
	return b.emit(Instr{Op: OpLdLV, Rd: rd, Ra: ra, Imm: stride})
}

// StLV appends a vector local store of rb to ra + lane*stride.
func (b *Builder) StLV(ra Reg, stride int64, rb Reg) *Builder {
	return b.emit(Instr{Op: OpStLV, Ra: ra, Imm: stride, Rb: rb})
}

// AtomCAS appends rd = CAS(mem[ra], rb -> rc) with the given order.
func (b *Builder) AtomCAS(rd, ra, rb, rc Reg, o Order) *Builder {
	return b.emit(Instr{Op: OpAtomCAS, Rd: rd, Ra: ra, Rb: rb, Rc: rc, Order: o})
}

// AtomExch appends rd = exchange(mem[ra], rb) with the given order.
func (b *Builder) AtomExch(rd, ra, rb Reg, o Order) *Builder {
	return b.emit(Instr{Op: OpAtomExch, Rd: rd, Ra: ra, Rb: rb, Order: o})
}

// AtomAdd appends rd = fetch-add(mem[ra], rb) with the given order.
func (b *Builder) AtomAdd(rd, ra, rb Reg, o Order) *Builder {
	return b.emit(Instr{Op: OpAtomAdd, Rd: rd, Ra: ra, Rb: rb, Order: o})
}

// AtomAddNR appends a fire-and-forget fetch-add: the result is discarded
// and the warp does not block on completion.
func (b *Builder) AtomAddNR(ra, rb Reg, o Order) *Builder {
	return b.emit(Instr{Op: OpAtomAdd, Ra: ra, Rb: rb, Order: o, NoRet: true})
}

// Bar appends a thread-block barrier.
func (b *Builder) Bar() *Builder { return b.emit(Instr{Op: OpBar}) }

// Br appends an unconditional branch.
func (b *Builder) Br(l Label) *Builder { return b.emitBranch(OpBr, 0, 0, l) }

// BEQ appends if ra == rb goto l.
func (b *Builder) BEQ(ra, rb Reg, l Label) *Builder { return b.emitBranch(OpBEQ, ra, rb, l) }

// BNE appends if ra != rb goto l.
func (b *Builder) BNE(ra, rb Reg, l Label) *Builder { return b.emitBranch(OpBNE, ra, rb, l) }

// BLT appends if ra < rb goto l.
func (b *Builder) BLT(ra, rb Reg, l Label) *Builder { return b.emitBranch(OpBLT, ra, rb, l) }

// BGE appends if ra >= rb goto l.
func (b *Builder) BGE(ra, rb Reg, l Label) *Builder { return b.emitBranch(OpBGE, ra, rb, l) }

// Exit appends warp termination.
func (b *Builder) Exit() *Builder { return b.emit(Instr{Op: OpExit}) }

// FallthroughError is Build's error for a program whose last instruction is
// neither an exit nor an unconditional branch: a warp reaching it would run
// off the end of the program.
type FallthroughError struct {
	Program string // program name
	PC      int    // index of the last instruction
	Last    Op     // its opcode
}

func (e *FallthroughError) Error() string {
	return fmt.Sprintf("isa: program %q: last instruction %d (%s) can fall off the end; end with exit or br",
		e.Program, e.PC, e.Last)
}

// Build patches labels, validates the program, decodes it, and returns it.
// It returns an error for unbound labels, out-of-range registers or branch
// targets, a program with no exit, and (a *FallthroughError) a program whose
// last instruction can fall through.
func (b *Builder) Build() (*Program, error) {
	instrs := append([]Instr(nil), b.instrs...)
	for l, sites := range b.uses {
		target, ok := b.bound[l]
		if !ok {
			return nil, fmt.Errorf("isa: program %q: label %d used but never bound", b.name, l)
		}
		for _, site := range sites {
			instrs[site].Target = target
		}
	}
	hasExit := false
	decoded := make([]Decoded, len(instrs))
	for idx, in := range instrs {
		if in.Op == OpExit {
			hasExit = true
		}
		if in.Op.Class() == ClassCtrl && (in.Target < 0 || in.Target >= len(instrs)) {
			return nil, fmt.Errorf("isa: program %q: instr %d branches to %d, out of range", b.name, idx, in.Target)
		}
		for _, r := range [...]Reg{in.Rd, in.Ra, in.Rb, in.Rc} {
			if r >= NumRegs {
				return nil, fmt.Errorf("isa: program %q: instr %d uses register %d >= %d", b.name, idx, r, NumRegs)
			}
		}
		d, err := decode(in)
		if err != nil {
			return nil, fmt.Errorf("isa: program %q: instr %d: %v", b.name, idx, err)
		}
		decoded[idx] = d
	}
	if !hasExit {
		return nil, fmt.Errorf("isa: program %q has no exit instruction", b.name)
	}
	if last := instrs[len(instrs)-1].Op; last != OpExit && last != OpBr {
		return nil, &FallthroughError{Program: b.name, PC: len(instrs) - 1, Last: last}
	}
	return &Program{Name: b.name, Instrs: instrs, decoded: decoded}, nil
}

// MustBuild is Build for statically known-good programs; it panics on error.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
