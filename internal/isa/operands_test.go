package isa

import (
	"slices"
	"testing"
)

func TestReadRegsPrecision(t *testing.T) {
	// Unused operand fields must not be reported: register 0 is a real
	// register, and phantom reads of it would create false scoreboard
	// hazards.
	tests := []struct {
		in    Instr
		reads []Reg
	}{
		{Instr{Op: OpNop}, nil},
		{Instr{Op: OpMovI, Rd: 1, Imm: 5}, nil},
		{Instr{Op: OpMov, Rd: 1, Ra: 2}, []Reg{2}},
		{Instr{Op: OpAdd, Rd: 1, Ra: 2, Rb: 3}, []Reg{2, 3}},
		{Instr{Op: OpAddI, Rd: 1, Ra: 2}, []Reg{2}},
		{Instr{Op: OpFMA, Rd: 1, Ra: 2, Rb: 3}, []Reg{2, 3, 1}},
		{Instr{Op: OpSFU, Rd: 1, Ra: 2}, []Reg{2}},
		{Instr{Op: OpLd, Rd: 1, Ra: 2}, []Reg{2}},
		{Instr{Op: OpSt, Ra: 2, Rb: 1}, []Reg{2, 1}},
		{Instr{Op: OpLdLV, Rd: 1, Ra: 2}, []Reg{2}},
		{Instr{Op: OpAtomCAS, Rd: 1, Ra: 2, Rb: 3, Rc: 4}, []Reg{2, 3, 4}},
		{Instr{Op: OpAtomExch, Rd: 1, Ra: 2, Rb: 3}, []Reg{2, 3}},
		{Instr{Op: OpBr}, nil},
		{Instr{Op: OpBEQ, Ra: 5, Rb: 6}, []Reg{5, 6}},
		{Instr{Op: OpBar}, nil},
		{Instr{Op: OpExit}, nil},
	}
	for _, tt := range tests {
		got := tt.in.ReadRegs(nil)
		if len(got) != len(tt.reads) {
			t.Errorf("%s reads %v, want %v", tt.in.Op, got, tt.reads)
			continue
		}
		for i := range got {
			if got[i] != tt.reads[i] {
				t.Errorf("%s reads %v, want %v", tt.in.Op, got, tt.reads)
				break
			}
		}
	}
}

func TestWritesReg(t *testing.T) {
	tests := []struct {
		in     Instr
		wantRd Reg
		writes bool
	}{
		{Instr{Op: OpMovI, Rd: 3}, 3, true},
		{Instr{Op: OpLd, Rd: 4}, 4, true},
		{Instr{Op: OpSt}, 0, false},
		{Instr{Op: OpStLV}, 0, false},
		{Instr{Op: OpAtomAdd, Rd: 5}, 5, true},
		{Instr{Op: OpAtomAdd, Rd: 5, NoRet: true}, 0, false},
		{Instr{Op: OpBr}, 0, false},
		{Instr{Op: OpBar}, 0, false},
		{Instr{Op: OpExit}, 0, false},
	}
	for _, tt := range tests {
		rd, ok := tt.in.WritesReg()
		if ok != tt.writes || (ok && rd != tt.wantRd) {
			t.Errorf("%s WritesReg = (%d, %v), want (%d, %v)",
				tt.in.Op, rd, ok, tt.wantRd, tt.writes)
		}
	}
}

func TestReadRegsAppendsToBuffer(t *testing.T) {
	var buf [4]Reg
	got := Instr{Op: OpAdd, Ra: 1, Rb: 2}.ReadRegs(buf[:0])
	if &got[0] != &buf[0] {
		t.Error("ReadRegs reallocated despite sufficient capacity")
	}
}

// wantScan is the scoreboard scan list by definition: the registers read,
// then the destination.
func wantScan(in Instr) []Reg {
	regs := in.ReadRegs(nil)
	if rd, ok := in.WritesReg(); ok {
		regs = append(regs, rd)
	}
	return regs
}

// TestDecodeMatchesDefinitions: for every opcode — atomics with and without
// a returned value — the decoded class and scan list are exactly what
// Op.Class, ReadRegs and WritesReg define, and fit the table.
func TestDecodeMatchesDefinitions(t *testing.T) {
	longest := 0
	for op := Op(0); op < numOps; op++ {
		for _, noRet := range []bool{false, true} {
			if noRet && op.Class() != ClassAtomic {
				continue
			}
			in := Instr{Op: op, Rd: 5, Ra: 6, Rb: 7, Rc: 8, Imm: 9, NoRet: noRet}
			d, err := decode(in)
			if err != nil {
				t.Errorf("%s noret=%v: %v", op, noRet, err)
				continue
			}
			if d.Instr != in {
				t.Errorf("%s: decoded instruction %+v, want %+v", op, d.Instr, in)
			}
			if d.Class != op.Class() {
				t.Errorf("%s: decoded class %d, want %d", op, d.Class, op.Class())
			}
			if want := wantScan(in); !slices.Equal(d.ScanRegs(), want) {
				t.Errorf("%s noret=%v: scan list %v, want %v", op, noRet, d.ScanRegs(), want)
			}
			longest = max(longest, len(d.ScanRegs()))
		}
	}
	if longest != MaxScanRegs {
		t.Errorf("longest scan list is %d registers, MaxScanRegs is %d", longest, MaxScanRegs)
	}
	// The write-after-write half, by name: a load scans its destination.
	d, _ := decode(Instr{Op: OpLd, Rd: 3, Ra: 4})
	if !slices.Equal(d.ScanRegs(), []Reg{4, 3}) {
		t.Errorf("ld r3,[r4] scans %v, want [4 3]", d.ScanRegs())
	}
}

// TestBuildDecodesEveryInstruction: Fetch returns, for each pc, the entry
// decoded from that instruction.
func TestBuildDecodesEveryInstruction(t *testing.T) {
	b := NewBuilder("decoded")
	top := b.Here()
	b.Ld(2, 1, 0).FMA(3, 2, 2).AtomCAS(4, 1, 2, 3, AcqRel).AtomAddNR(1, 2, Relaxed)
	b.St(1, 8, 3).SFU(5, 3).Bar().BNE(4, 5, top).Exit()
	p := b.MustBuild()
	for pc, in := range p.Instrs {
		d := p.Fetch(pc)
		if d.Instr != in || d.Class != in.Op.Class() || !slices.Equal(d.ScanRegs(), wantScan(in)) {
			t.Errorf("pc %d (%s): decoded %+v", pc, in, *d)
		}
	}
}
