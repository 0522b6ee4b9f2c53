package workloads

import (
	"fmt"

	"gsi/internal/cpu"
	"gsi/internal/gpu"
	"gsi/internal/isa"
	"gsi/internal/scratchpad"
)

// Stencil is a 2D 5-point Jacobi iteration with halo exchange and DMA
// double-buffering: the logical grid (Blocks*Rows interior rows plus fixed
// boundary rows, Width columns with fixed edge columns) is banded across
// co-resident thread blocks. Each block's band lives in its scratchpad as
// two ping-pong planes with ghost rows, bulk-loaded by the DMA engine at
// block start (the pending-DMA stall burst) and bulk-written back at
// kernel end. Every time step each warp copies the ghost rows it alone
// consumes from the global halo slots, updates its interior rows from the
// source plane into the destination plane (wrapping uint64 sums through a
// hash chain), publishes its band-boundary rows to the parity-indexed
// halo slots of the *next* step, and crosses a BFS-style global barrier.
// The workload stresses bulk-transfer/latency overlap (DMA in/out),
// neighbor communication through the L2 (halo stores and loads), and
// barrier synchronization — the structured-grid pattern none of the
// irregular workloads produce.
type Stencil struct {
	// Width is the column count including the two fixed edge columns; it
	// must be a multiple of 8 so rows are whole cache lines.
	Width int `param:"width" help:"grid columns including fixed edges (multiple of 8)" default:"64"`
	// Rows is the interior row count per block; the logical grid has
	// Blocks*Rows interior rows plus the two fixed boundary rows.
	Rows int `param:"rows" help:"interior rows per block band" default:"4"`
	// Steps is the Jacobi time-step count.
	Steps int `param:"steps" help:"Jacobi time steps" default:"8"`
	// Blocks bands the grid (one block per SM — the global barrier needs
	// every block co-resident); WarpsPerBlock splits each band's rows.
	Blocks        int `param:"blocks" help:"thread blocks (must all be co-resident)" default:"15"`
	WarpsPerBlock int `param:"warps" help:"warps per block" default:"2"`
	// Work is the hash-chain length applied to each 5-point sum.
	Work int `param:"work" help:"hash chain length per cell update" default:"2"`
	// Seed drives the deterministic initial grid fill.
	Seed uint64 `param:"seed" help:"initial grid fill seed" default:"0x57E9"`
}

// Name identifies the workload in reports.
func (w Stencil) Name() string { return "stencil" }

func (w Stencil) blockWarps() int { return w.WarpsPerBlock }

// Derived layout: a block's window holds two (Rows+2)-row planes
// back-to-back; halo slots are one row plus a line of padding apart so
// consecutive slots spread across the L2 banks.
func (w Stencil) rowBytes() uint64    { return uint64(w.Width) * 8 }
func (w Stencil) planeBytes() uint64  { return uint64(w.Rows+2) * w.rowBytes() }
func (w Stencil) windowBytes() uint64 { return 2 * w.planeBytes() }
func (w Stencil) haloStride() uint64  { return w.rowBytes() + 64 }

func (w Stencil) windowAddr(b int) uint64 {
	return addrStenGrid + uint64(b)*w.windowBytes()
}

// haloDnAddr is the slot holding block b's last band row (the row its
// down-neighbor reads as its top ghost); b ranges from -1 (the fixed top
// boundary row of the grid) to Blocks-1. p is the step parity the slot
// serves as input.
func (w Stencil) haloDnAddr(b, p int) uint64 {
	return addrStenHaloDn + uint64((b+1)*2+p)*w.haloStride()
}

// haloUpAddr is the slot holding block b's first band row (the up
// neighbor's bottom ghost); b ranges from 0 to Blocks (the fixed bottom
// boundary row).
func (w Stencil) haloUpAddr(b, p int) uint64 {
	return addrStenHaloUp + uint64(b*2+p)*w.haloStride()
}

// globalRow maps a block's plane row index (0 = top ghost, 1..Rows = band,
// Rows+1 = bottom ghost) to the logical grid row.
func (w Stencil) globalRow(b, planeRow int) int { return b*w.Rows + planeRow }

// cellInit is the deterministic initial value of logical grid cell (g, c).
func (w Stencil) cellInit(g, c int) uint64 {
	return isa.Mix64(w.Seed ^ (uint64(g) << 20) ^ uint64(c))
}

// Stencil kernel registers (rZero/rOne shared, see framework.go).
const (
	rStT       isa.Reg = 2
	rStParity  isa.Reg = 3
	rStSrcP    isa.Reg = 4
	rStDstP    isa.Reg = 5
	rStRow0    isa.Reg = 6
	rStRow1    isa.Reg = 7
	rStRow     isa.Reg = 8
	rStC       isa.Reg = 9
	rStA       isa.Reg = 10
	rStVal     isa.Reg = 11
	rStAcc     isa.Reg = 12
	rStHAb     isa.Reg = 13
	rStHBe     isa.Reg = 14
	rStHUpW    isa.Reg = 15
	rStHDnW    isa.Reg = 16
	rStROff    isa.Reg = 17
	rStWOff    isa.Reg = 18
	rStBarCntA isa.Reg = 19
	rStBarGenA isa.Reg = 20
	rStBarTgt  isa.Reg = 21
	rStGenWant isa.Reg = 22
	rStWTot    isa.Reg = 23
	rStOld     isa.Reg = 24
	rStTmp     isa.Reg = 25
	rStTmp2    isa.Reg = 26
)

// emitHaloRowCopy appends a loop over interior columns 1..Width-2 copying
// a row between a global halo slot and a scratchpad plane row: global
// reads feed local ghost stores when toLocal, local boundary-row loads
// feed global halo stores otherwise. rStTmp2 must hold the global row
// base and localOff the plane-row byte offset from the source/destination
// plane base (held in planeBase).
func (w Stencil) emitHaloRowCopy(b *isa.Builder, planeBase isa.Reg, localOff int64, toLocal bool) {
	b.MovI(rStC, 1)
	loop := b.Here()
	done := b.NewLabel()
	b.MovI(rStTmp, int64(w.Width-1))
	b.BGE(rStC, rStTmp, done)
	b.MulI(rStTmp, rStC, 8)
	if toLocal {
		b.Add(rStA, rStTmp2, rStTmp)
		b.Ld(rStVal, rStA, 0)
		b.AddI(rStA, rStTmp, localOff)
		b.Add(rStA, planeBase, rStA)
		b.StL(rStA, 0, rStVal)
	} else {
		b.AddI(rStA, rStTmp, localOff)
		b.Add(rStA, planeBase, rStA)
		b.LdL(rStVal, rStA, 0)
		b.Add(rStA, rStTmp2, rStTmp)
		b.St(rStA, 0, rStVal)
	}
	b.AddI(rStC, rStC, 1)
	b.Br(loop)
	b.Bind(done)
}

// stencilProgram assembles the time-step loop: ghost copies, the 5-point
// update between the ping-pong planes, halo publication, and the global
// barrier.
func (w Stencil) stencilProgram() *isa.Program {
	rowB := int64(w.rowBytes())
	planeB := int64(w.planeBytes())
	haloS := int64(w.haloStride())
	b := isa.NewBuilder("stencil")
	iterLoop := b.NewLabel()
	barrier := b.NewLabel()
	spin := b.NewLabel()
	done := b.NewLabel()
	noTop := b.NewLabel()
	noBot := b.NewLabel()
	rowLoop := b.NewLabel()
	rowsDone := b.NewLabel()
	colLoop := b.NewLabel()
	colsDone := b.NewLabel()
	noPubTop := b.NewLabel()
	noPubBot := b.NewLabel()

	// DMA warm-up: touch the pad and consume the value immediately. The
	// load parks until the bulk-in completes while the dependent add
	// freezes this warp with its registers intact (a parked access is
	// replayed with the warp's *current* registers, so the kernel must
	// never let a mapped store park with address arithmetic running
	// ahead of it). Every later mapped access finds the DMA finished.
	b.LdL(rStVal, rZero, 0)
	b.Add(rStVal, rStVal, rZero)

	b.MovI(rStT, 0)
	b.Bind(iterLoop)
	b.MovI(rStTmp, int64(w.Steps))
	b.BGE(rStT, rStTmp, done)
	// Parity selects the source plane and the halo read slots; the
	// destination plane and halo write slots are the other parity.
	b.AndI(rStParity, rStT, 1)
	b.MulI(rStSrcP, rStParity, planeB)
	b.MovI(rStDstP, planeB)
	b.Sub(rStDstP, rStDstP, rStSrcP)
	b.MulI(rStROff, rStParity, haloS)
	b.MovI(rStWOff, haloS)
	b.Sub(rStWOff, rStWOff, rStROff)
	// Warps with no rows only keep the barrier count.
	b.BEQ(rStRow0, rStRow1, barrier)

	// Ghost copies: each boundary-owning warp fetches exactly the ghost
	// row it alone consumes, so no intra-block synchronization is needed.
	b.BNE(rStRow0, rOne, noTop)
	b.Add(rStTmp2, rStHAb, rStROff)
	w.emitHaloRowCopy(b, rStSrcP, 0, true)
	b.Bind(noTop)
	b.MovI(rStTmp, int64(w.Rows+1))
	b.BNE(rStRow1, rStTmp, noBot)
	b.Add(rStTmp2, rStHBe, rStROff)
	w.emitHaloRowCopy(b, rStSrcP, int64(w.Rows+1)*rowB, true)
	b.Bind(noBot)

	// 5-point update: dst[r][c] = hash^Work(sum of src neighborhood).
	b.Mov(rStRow, rStRow0)
	b.Bind(rowLoop)
	b.BGE(rStRow, rStRow1, rowsDone)
	b.MovI(rStC, 1)
	b.Bind(colLoop)
	b.MovI(rStTmp, int64(w.Width-1))
	b.BGE(rStC, rStTmp, colsDone)
	b.MulI(rStA, rStRow, rowB)
	b.Add(rStA, rStSrcP, rStA)
	b.MulI(rStTmp, rStC, 8)
	b.Add(rStA, rStA, rStTmp)
	b.LdL(rStAcc, rStA, -rowB)
	b.LdL(rStVal, rStA, rowB)
	b.Add(rStAcc, rStAcc, rStVal)
	b.LdL(rStVal, rStA, -8)
	b.Add(rStAcc, rStAcc, rStVal)
	b.LdL(rStVal, rStA, 8)
	b.Add(rStAcc, rStAcc, rStVal)
	b.LdL(rStVal, rStA, 0)
	b.Add(rStAcc, rStAcc, rStVal)
	emitHashChain(b, rStAcc, w.Work)
	b.Sub(rStA, rStA, rStSrcP)
	b.Add(rStA, rStA, rStDstP)
	b.StL(rStA, 0, rStAcc)
	b.AddI(rStC, rStC, 1)
	b.Br(colLoop)
	b.Bind(colsDone)
	b.AddI(rStRow, rStRow, 1)
	b.Br(rowLoop)
	b.Bind(rowsDone)

	// Publish the band-boundary rows of the destination plane into the
	// next step's halo slots (the other parity).
	b.BNE(rStRow0, rOne, noPubTop)
	b.Add(rStTmp2, rStHUpW, rStWOff)
	w.emitHaloRowCopy(b, rStDstP, rowB, false)
	b.Bind(noPubTop)
	b.MovI(rStTmp, int64(w.Rows+1))
	b.BNE(rStRow1, rStTmp, noPubBot)
	b.Add(rStTmp2, rStHDnW, rStWOff)
	w.emitHaloRowCopy(b, rStDstP, int64(w.Rows)*rowB, false)
	b.Bind(noPubBot)

	// Global barrier, the BFS idiom: arrive with release (flushing the
	// halo stores), last arriver publishes the generation, everyone
	// spins with acquire (self-invalidating, so next step's halo reads
	// are fresh).
	b.Bind(barrier)
	b.Add(rStBarTgt, rStBarTgt, rStWTot)
	b.AddI(rStGenWant, rStGenWant, 1)
	b.AtomAdd(rStOld, rStBarCntA, rOne, isa.Release)
	b.AddI(rStTmp, rStOld, 1)
	b.BNE(rStTmp, rStBarTgt, spin)
	b.AtomAddNR(rStBarGenA, rOne, isa.Release)
	b.Bind(spin)
	b.AtomAdd(rStOld, rStBarGenA, rZero, isa.Acquire)
	b.BLT(rStOld, rStGenWant, spin)
	b.AddI(rStT, rStT, 1)
	b.Br(iterLoop)
	b.Bind(done)
	b.Exit()
	return b.MustBuild()
}

// validate checks the parameter block's internal consistency.
func (w Stencil) validate() error {
	switch {
	case w.Width < 8 || w.Width%8 != 0:
		return fmt.Errorf("workloads: stencil width %d must be a multiple of 8 (whole cache lines)", w.Width)
	case w.Rows < 1 || w.Steps < 1 || w.Blocks < 1 || w.WarpsPerBlock < 1 || w.Work < 0:
		return fmt.Errorf("workloads: invalid stencil %+v", w)
	case w.windowBytes() > 16<<10:
		return fmt.Errorf("workloads: stencil band window %d B exceeds the 16 KB scratchpad", w.windowBytes())
	case uint64(w.Blocks)*w.windowBytes() > addrStenHaloDn-addrStenGrid:
		return fmt.Errorf("workloads: stencil blocks %d overflow the band region", w.Blocks)
	case uint64(w.Blocks+1)*2*w.haloStride() > addrStenHaloUp-addrStenHaloDn:
		return fmt.Errorf("workloads: stencil blocks %d overflow the halo region", w.Blocks)
	}
	return nil
}

// Build writes the band windows and halo slots into host memory and
// returns the kernel plus its verifier.
func (w Stencil) Build(h *cpu.Host) (*gpu.Kernel, func(*cpu.Host) error, error) {
	if err := w.validate(); err != nil {
		return nil, nil, err
	}
	// Band windows: both planes start as the initial grid (the plane
	// written first still exposes its untouched edge columns and ghost
	// rows to the write-back, so they must be initialized identically).
	for b := 0; b < w.Blocks; b++ {
		for p := 0; p < 2; p++ {
			for pr := 0; pr <= w.Rows+1; pr++ {
				base := w.windowAddr(b) + uint64(p)*w.planeBytes() + uint64(pr)*w.rowBytes()
				g := w.globalRow(b, pr)
				for c := 0; c < w.Width; c++ {
					h.Write64(base+uint64(c)*8, w.cellInit(g, c))
				}
			}
		}
	}
	// Halo slots, both parities: block b's boundary rows at their initial
	// values (parity 0 feeds step 0; parity 1 is overwritten before its
	// first read except for the fixed boundary-row slots, which are never
	// written at all).
	for p := 0; p < 2; p++ {
		for b := -1; b < w.Blocks; b++ {
			g := w.globalRow(b, w.Rows) // block b's last band row
			for c := 0; c < w.Width; c++ {
				h.Write64(w.haloDnAddr(b, p)+uint64(c)*8, w.cellInit(g, c))
			}
		}
		for b := 0; b <= w.Blocks; b++ {
			g := w.globalRow(b, 1) // block b's first band row
			for c := 0; c < w.Width; c++ {
				h.Write64(w.haloUpAddr(b, p)+uint64(c)*8, w.cellInit(g, c))
			}
		}
	}
	h.Write64(addrStenBarCnt, 0)
	h.Write64(addrStenBarGen, 0)

	total := uint64(w.Blocks * w.WarpsPerBlock)
	k := &gpu.Kernel{
		Name:          "stencil",
		Program:       w.stencilProgram(),
		Blocks:        w.Blocks,
		WarpsPerBlock: w.WarpsPerBlock,
		Coresident:    true,
		Local:         gpu.LocalScratchDMA,
		LocalMap: func(block int) scratchpad.Mapping {
			return scratchpad.Mapping{
				GlobalBase: w.windowAddr(block), LocalBase: 0, Bytes: w.windowBytes(),
			}
		},
		InitRegs: func(block, warp int, regs *[isa.NumRegs]uint64) {
			InitConsts(regs)
			start, end := WarpChunk(w.Rows, w.WarpsPerBlock, warp)
			regs[rStRow0] = uint64(1 + start)
			regs[rStRow1] = uint64(1 + end)
			regs[rStHAb] = w.haloDnAddr(block-1, 0)
			regs[rStHBe] = w.haloUpAddr(block+1, 0)
			regs[rStHUpW] = w.haloUpAddr(block, 0)
			regs[rStHDnW] = w.haloDnAddr(block, 0)
			regs[rStBarCntA] = addrStenBarCnt
			regs[rStBarGenA] = addrStenBarGen
			regs[rStWTot] = total
		},
	}
	return k, w.verify, nil
}

// stencilState is the CPU replay's mirror of the workload's memory: one
// window image per block and the halo slot arrays, indexed exactly like
// the device layout.
type stencilState struct {
	win    [][]uint64 // [block][2 planes * (Rows+2) rows * Width]
	haloDn [][]uint64 // [(b+1)*2+p][Width]
	haloUp [][]uint64 // [b*2+p][Width]
}

// Reference replays the kernel's semantics step by step — ghost copies,
// 5-point updates, halo publication — and returns the exact final memory
// image the hardware run must produce.
func (w Stencil) Reference() *stencilState {
	width, rows := w.Width, w.Rows
	planeWords := (rows + 2) * width
	s := &stencilState{
		win:    make([][]uint64, w.Blocks),
		haloDn: make([][]uint64, (w.Blocks+1)*2),
		haloUp: make([][]uint64, (w.Blocks+1)*2),
	}
	for b := 0; b < w.Blocks; b++ {
		s.win[b] = make([]uint64, 2*planeWords)
		for p := 0; p < 2; p++ {
			for pr := 0; pr <= rows+1; pr++ {
				for c := 0; c < width; c++ {
					s.win[b][p*planeWords+pr*width+c] = w.cellInit(w.globalRow(b, pr), c)
				}
			}
		}
	}
	for p := 0; p < 2; p++ {
		for b := -1; b < w.Blocks; b++ {
			row := make([]uint64, width)
			for c := range row {
				row[c] = w.cellInit(w.globalRow(b, rows), c)
			}
			s.haloDn[(b+1)*2+p] = row
		}
		for b := 0; b <= w.Blocks; b++ {
			row := make([]uint64, width)
			for c := range row {
				row[c] = w.cellInit(w.globalRow(b, 1), c)
			}
			s.haloUp[b*2+p] = row
		}
	}
	cell := func(b, plane, pr, c int) *uint64 {
		return &s.win[b][plane*planeWords+pr*width+c]
	}
	for t := 0; t < w.Steps; t++ {
		p := t & 1
		src, dst := p, 1-p
		for b := 0; b < w.Blocks; b++ {
			for c := 1; c < width-1; c++ {
				*cell(b, src, 0, c) = s.haloDn[b*2+p][c] // (b-1)'s down slot
				*cell(b, src, rows+1, c) = s.haloUp[(b+1)*2+p][c]
			}
		}
		for b := 0; b < w.Blocks; b++ {
			for pr := 1; pr <= rows; pr++ {
				for c := 1; c < width-1; c++ {
					sum := *cell(b, src, pr-1, c) + *cell(b, src, pr+1, c) +
						*cell(b, src, pr, c-1) + *cell(b, src, pr, c+1) +
						*cell(b, src, pr, c)
					*cell(b, dst, pr, c) = HashChain(sum, w.Work)
				}
			}
		}
		for b := 0; b < w.Blocks; b++ {
			for c := 1; c < width-1; c++ {
				s.haloUp[b*2+dst][c] = *cell(b, dst, 1, c)
				s.haloDn[(b+1)*2+dst][c] = *cell(b, dst, rows, c)
			}
		}
	}
	return s
}

// verify compares the post-run memory against the CPU replay: every
// word of every band window (the DMA write-back image, both planes, ghost
// rows and edge columns included), every halo slot, and the barrier words
// (Steps generations with every warp arriving at each).
func (w Stencil) verify(h *cpu.Host) error {
	ref := w.Reference()
	planeWords := (w.Rows + 2) * w.Width
	for b := 0; b < w.Blocks; b++ {
		for i, want := range ref.win[b] {
			if got := h.Read64(w.windowAddr(b) + uint64(i)*8); got != want {
				p, r := i/planeWords, (i%planeWords)/w.Width
				return fmt.Errorf("workloads: stencil block %d plane %d row %d col %d = %#x, want %#x",
					b, p, r, i%w.Width, got, want)
			}
		}
	}
	for p := 0; p < 2; p++ {
		for b := -1; b < w.Blocks; b++ {
			for c := 0; c < w.Width; c++ {
				want := ref.haloDn[(b+1)*2+p][c]
				if got := h.Read64(w.haloDnAddr(b, p) + uint64(c)*8); got != want {
					return fmt.Errorf("workloads: stencil haloDn[b=%d p=%d c=%d] = %#x, want %#x", b, p, c, got, want)
				}
			}
		}
		for b := 0; b <= w.Blocks; b++ {
			for c := 0; c < w.Width; c++ {
				want := ref.haloUp[b*2+p][c]
				if got := h.Read64(w.haloUpAddr(b, p) + uint64(c)*8); got != want {
					return fmt.Errorf("workloads: stencil haloUp[b=%d p=%d c=%d] = %#x, want %#x", b, p, c, got, want)
				}
			}
		}
	}
	if gen := h.Read64(addrStenBarGen); gen != uint64(w.Steps) {
		return fmt.Errorf("workloads: stencil ran %d steps, want %d", gen, w.Steps)
	}
	warps := uint64(w.Blocks * w.WarpsPerBlock)
	if cnt := h.Read64(addrStenBarCnt); cnt != uint64(w.Steps)*warps {
		return fmt.Errorf("workloads: stencil barrier count %d, want %d arrivals", cnt, uint64(w.Steps)*warps)
	}
	return nil
}
