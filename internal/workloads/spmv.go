package workloads

import (
	"fmt"

	"gsi/internal/cpu"
	"gsi/internal/gpu"
	"gsi/internal/isa"
)

// SpMV is sparse matrix-vector multiplication in CSR form: each warp owns
// a contiguous row range (the shared WarpChunk convention) and streams its
// rows' values and column indices while gathering x[col] through an
// indirect load per nonzero. The value/index streams prefetch well but the
// gathers scatter across the whole vector, so the breakdown is dominated
// by memory data stalls split between the L2 and main memory — the classic
// streaming-with-indirection signature, with no synchronization at all.
type SpMV struct {
	// Rows is the matrix dimension (square: columns = rows).
	Rows int `param:"rows" help:"matrix dimension" default:"2048"`
	// NnzPerRow is the mean nonzeros per row (drawn uniformly from
	// [1, 2*NnzPerRow+1]).
	NnzPerRow int `param:"nnz" help:"mean nonzeros per row" default:"8"`
	// Blocks and WarpsPerBlock size the worker population; rows are
	// chunked over Blocks*WarpsPerBlock warps.
	Blocks        int `param:"blocks" help:"thread blocks" default:"15"`
	WarpsPerBlock int `param:"warps" help:"warps per block" default:"8"`
	// Seed drives deterministic matrix and vector generation.
	Seed uint64 `param:"seed" help:"matrix generation seed" default:"0x59A7"`
}

// Name identifies the workload in reports.
func (w SpMV) Name() string { return "SpMV" }

func (w SpMV) blockWarps() int { return w.WarpsPerBlock }

// Matrix is a CSR sparse matrix with 64-bit integer values (arithmetic is
// wrap-around, matching the GPU's ALU).
type Matrix struct {
	RowPtr []uint64 // len rows+1
	Col    []uint64
	Val    []uint64
}

// GenMatrix synthesizes a seeded CSR matrix with the given shape.
func GenMatrix(seed uint64, rows, nnzPerRow int) *Matrix {
	m := &Matrix{RowPtr: make([]uint64, 1, rows+1)}
	for r := 0; r < rows; r++ {
		nnz := 1 + int(isa.Mix64(seed^uint64(r))%uint64(2*nnzPerRow+1))
		for e := 0; e < nnz; e++ {
			h := isa.Mix64(seed ^ (uint64(r) << 24) ^ uint64(e))
			m.Col = append(m.Col, h%uint64(rows))
			m.Val = append(m.Val, isa.Mix64(h))
		}
		m.RowPtr = append(m.RowPtr, uint64(len(m.Col)))
	}
	return m
}

// Multiply computes y = A*x with wrap-around 64-bit arithmetic using the
// same fused multiply-add the kernel issues (acc = val*x + acc).
func (m *Matrix) Multiply(x []uint64) []uint64 {
	rows := len(m.RowPtr) - 1
	y := make([]uint64, rows)
	for r := 0; r < rows; r++ {
		var acc uint64
		for e := m.RowPtr[r]; e < m.RowPtr[r+1]; e++ {
			acc = m.Val[e]*x[m.Col[e]] + acc
		}
		y[r] = acc
	}
	return y
}

// SpMV kernel registers (rZero/rOne shared, see framework.go).
const (
	rSpRowPB  isa.Reg = 2
	rSpColB   isa.Reg = 3
	rSpValB   isa.Reg = 4
	rSpXB     isa.Reg = 5
	rSpYB     isa.Reg = 6
	rSpRow    isa.Reg = 7
	rSpRowEnd isa.Reg = 8
	rSpE      isa.Reg = 9
	rSpEEnd   isa.Reg = 10
	rSpTmp    isa.Reg = 11
	rSpTmp2   isa.Reg = 12
	rSpAcc    isa.Reg = 13
	rSpC      isa.Reg = 14
	rSpV      isa.Reg = 15
)

// spmvProgram assembles the per-warp row loop.
func spmvProgram() *isa.Program {
	b := isa.NewBuilder("spmv")
	rowLoop := b.NewLabel()
	edgeLoop := b.NewLabel()
	rowDone := b.NewLabel()
	done := b.NewLabel()

	b.Bind(rowLoop)
	b.BGE(rSpRow, rSpRowEnd, done)
	b.MulI(rSpTmp, rSpRow, 8)
	b.Add(rSpTmp, rSpRowPB, rSpTmp)
	b.Ld(rSpE, rSpTmp, 0)
	b.Ld(rSpEEnd, rSpTmp, 8)
	b.MovI(rSpAcc, 0)

	b.Bind(edgeLoop)
	b.BGE(rSpE, rSpEEnd, rowDone)
	b.MulI(rSpTmp, rSpE, 8)
	b.Add(rSpTmp2, rSpColB, rSpTmp)
	b.Ld(rSpC, rSpTmp2, 0) // column index (streaming)
	b.Add(rSpTmp2, rSpValB, rSpTmp)
	b.Ld(rSpV, rSpTmp2, 0) // value (streaming)
	b.MulI(rSpTmp2, rSpC, 8)
	b.Add(rSpTmp2, rSpXB, rSpTmp2)
	b.Ld(rSpC, rSpTmp2, 0) // x[col] (indirect gather)
	b.FMA(rSpAcc, rSpV, rSpC)
	b.AddI(rSpE, rSpE, 1)
	b.Br(edgeLoop)

	b.Bind(rowDone)
	b.MulI(rSpTmp, rSpRow, 8)
	b.Add(rSpTmp, rSpYB, rSpTmp)
	b.St(rSpTmp, 0, rSpAcc)
	b.AddI(rSpRow, rSpRow, 1)
	b.Br(rowLoop)
	b.Bind(done)
	b.Exit()
	return b.MustBuild()
}

// Build writes the matrix and vectors into host memory and returns the
// kernel plus the verifier of their product.
func (w SpMV) Build(h *cpu.Host) (*gpu.Kernel, func(*cpu.Host) error, error) {
	if w.Rows < 1 || w.Blocks < 1 || w.WarpsPerBlock < 1 || w.NnzPerRow < 1 {
		return nil, nil, fmt.Errorf("workloads: invalid SpMV %+v", w)
	}
	m := GenMatrix(w.Seed, w.Rows, w.NnzPerRow)
	x := make([]uint64, w.Rows)
	for i := range x {
		x[i] = isa.Mix64(w.Seed ^ 0xF00D ^ uint64(i))
	}
	h.WriteSlice(addrSpmRowPtr, m.RowPtr)
	h.WriteSlice(addrSpmCol, m.Col)
	h.WriteSlice(addrSpmVal, m.Val)
	h.WriteSlice(addrSpmX, x)
	for r := 0; r < w.Rows; r++ {
		h.Write64(addrSpmY+uint64(r)*8, 0)
	}

	warps := w.Blocks * w.WarpsPerBlock
	k := &gpu.Kernel{
		Name:          "spmv",
		Program:       spmvProgram(),
		Blocks:        w.Blocks,
		WarpsPerBlock: w.WarpsPerBlock,
		InitRegs: func(block, warp int, regs *[isa.NumRegs]uint64) {
			InitConsts(regs)
			regs[rSpRowPB] = addrSpmRowPtr
			regs[rSpColB] = addrSpmCol
			regs[rSpValB] = addrSpmVal
			regs[rSpXB] = addrSpmX
			regs[rSpYB] = addrSpmY
			start, end := WarpChunk(w.Rows, warps, block*w.WarpsPerBlock+warp)
			regs[rSpRow] = uint64(start)
			regs[rSpRowEnd] = uint64(end)
		},
	}
	return k, func(h *cpu.Host) error { return verifySpMV(h, m, x) }, nil
}

// verifySpMV checks every output word against the reference product.
func verifySpMV(h *cpu.Host, m *Matrix, x []uint64) error {
	want := m.Multiply(x)
	for r, wv := range want {
		if got := h.Read64(addrSpmY + uint64(r)*8); got != wv {
			return fmt.Errorf("workloads: spmv y[%d] = %#x, want %#x", r, got, wv)
		}
	}
	return nil
}
