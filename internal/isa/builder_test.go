package isa

import (
	"errors"
	"strings"
	"testing"
)

func TestBuilderBackwardBranch(t *testing.T) {
	b := NewBuilder("loop")
	b.MovI(1, 3)
	top := b.Here()
	b.AddI(1, 1, -1)
	b.BNE(1, 0, top)
	b.Exit()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 4 {
		t.Fatalf("len = %d, want 4", p.Len())
	}
	if p.Instrs[2].Target != 1 {
		t.Fatalf("branch target = %d, want 1", p.Instrs[2].Target)
	}
}

func TestBuilderForwardBranch(t *testing.T) {
	b := NewBuilder("fwd")
	done := b.NewLabel()
	b.BEQ(1, 2, done)
	b.Nop()
	b.Bind(done)
	b.Exit()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Instrs[0].Target != 2 {
		t.Fatalf("forward target = %d, want 2", p.Instrs[0].Target)
	}
}

func TestBuilderSharedLabelMultipleUses(t *testing.T) {
	b := NewBuilder("multi")
	l := b.NewLabel()
	b.Br(l)
	b.BEQ(1, 1, l)
	b.Bind(l)
	b.Exit()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Instrs[0].Target != 2 || p.Instrs[1].Target != 2 {
		t.Fatalf("targets = %d, %d, want 2, 2", p.Instrs[0].Target, p.Instrs[1].Target)
	}
}

func TestBuilderErrors(t *testing.T) {
	t.Run("unbound label", func(t *testing.T) {
		b := NewBuilder("bad")
		b.Br(b.NewLabel())
		b.Exit()
		if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "never bound") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("no exit", func(t *testing.T) {
		b := NewBuilder("noexit")
		b.Nop()
		if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "no exit") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("register out of range", func(t *testing.T) {
		b := NewBuilder("regs")
		b.MovI(Reg(NumRegs), 1)
		b.Exit()
		if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "register") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("double bind panics", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		b := NewBuilder("dup")
		l := b.NewLabel()
		b.Bind(l)
		b.Nop()
		b.Bind(l)
	})
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder("empty").MustBuild()
}

// TestBuildRejectsFallthrough: a program whose last instruction can fall
// through would walk a warp off the decoded table mid-run; Build refuses it
// with a typed error instead.
func TestBuildRejectsFallthrough(t *testing.T) {
	cases := map[string]func(b *Builder){
		"alu":          func(b *Builder) { b.Exit().MovI(1, 1) },
		"cond branch":  func(b *Builder) { top := b.Here(); b.Exit().BNE(1, 2, top) },
		"store":        func(b *Builder) { b.Exit().St(1, 0, 2) },
		"barrier":      func(b *Builder) { b.Exit().Bar() },
		"noret atomic": func(b *Builder) { b.Exit().AtomAddNR(1, 2, Relaxed) },
	}
	for name, emit := range cases {
		b := NewBuilder(name)
		emit(b)
		_, err := b.Build()
		var ft *FallthroughError
		if !errors.As(err, &ft) {
			t.Errorf("%s: err = %v, want *FallthroughError", name, err)
			continue
		}
		if ft.Program != name || ft.PC != 1 || ft.Last != b.instrs[1].Op {
			t.Errorf("%s: error fields = %+v", name, *ft)
		}
	}
	// The two terminators that cannot fall through are accepted.
	loop := NewBuilder("loop")
	top := loop.Here()
	loop.Exit().Br(top)
	if _, err := loop.Build(); err != nil {
		t.Errorf("program ending in br rejected: %v", err)
	}
	if _, err := NewBuilder("exit").Nop().Exit().Build(); err != nil {
		t.Errorf("program ending in exit rejected: %v", err)
	}
}

func TestBuilderEmitsExpectedOps(t *testing.T) {
	b := NewBuilder("all")
	l := b.NewLabel()
	b.Nop().MovI(1, 5).Mov(2, 1).Add(3, 1, 2).Sub(3, 1, 2).Mul(3, 1, 2)
	b.And(3, 1, 2).Or(3, 1, 2).Xor(3, 1, 2).Shl(3, 1, 2).Shr(3, 1, 2).AddI(3, 1, 1).MulI(3, 1, 2)
	b.AndI(3, 1, 7).Min(3, 1, 2).FMA(3, 1, 2).SFU(3, 1)
	b.Ld(4, 1, 0).St(1, 0, 4).LdV(4, 1, 8).StV(1, 8, 4)
	b.LdL(4, 1, 0).StL(1, 0, 4).LdLV(4, 1, 8).StLV(1, 8, 4)
	b.AtomCAS(4, 1, 0, 2, Acquire).AtomExch(4, 1, 0, Release).AtomAdd(4, 1, 2, Relaxed)
	b.AtomAddNR(1, 2, Relaxed)
	b.Bar().Bind(l).BEQ(1, 2, l).BNE(1, 2, l).BLT(1, 2, l).BGE(1, 2, l).Br(l)
	b.Exit()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	wantOps := []Op{
		OpNop, OpMovI, OpMov, OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor,
		OpShl, OpShr, OpAddI, OpMulI, OpAndI, OpMin, OpFMA, OpSFU,
		OpLd, OpSt, OpLdV, OpStV, OpLdL, OpStL, OpLdLV, OpStLV,
		OpAtomCAS, OpAtomExch, OpAtomAdd, OpAtomAdd,
		OpBar, OpBEQ, OpBNE, OpBLT, OpBGE, OpBr, OpExit,
	}
	if p.Len() != len(wantOps) {
		t.Fatalf("len = %d, want %d", p.Len(), len(wantOps))
	}
	for i, op := range wantOps {
		if p.Instrs[i].Op != op {
			t.Errorf("instr %d = %s, want %s", i, p.Instrs[i].Op, op)
		}
	}
	if !p.Instrs[28].NoRet {
		t.Errorf("AtomAddNR lost NoRet flag")
	}
}
