package gpu

import (
	"gsi/internal/core"
	"gsi/internal/isa"
)

// warpState is a warp's scheduling state.
type warpState uint8

const (
	// warpReady: the warp competes for issue.
	warpReady warpState = iota
	// warpBarrier: blocked at a thread-block barrier (sync stall).
	warpBarrier
	// warpAtomic: blocked on a pending acquire/release atomic (sync
	// stall).
	warpAtomic
	// warpFinished: the warp has exited.
	warpFinished
)

// pendKind says what a scoreboarded register is waiting on.
type pendKind uint8

const (
	pendNone pendKind = iota
	// pendCompute: an ALU/SFU result arrives at readyAt.
	pendCompute
	// pendLoad: a load identified by loadID is in flight.
	pendLoad
)

// regStatus is one scoreboard slot.
type regStatus struct {
	kind    pendKind
	readyAt uint64
	loadID  core.LoadID
	unit    core.CompUnit // producing pipeline for pendCompute
}

// hazSummary caches the result of one hazards scan. The scoreboard only
// changes on issue (setPendingCompute / setPendingLoad), load delivery
// (loadArrived), or the timed retirement of a compute result, so on
// stall-heavy cycles the summary for an unchanged (pc, scoreboard) pair is
// reused instead of re-scanning the operand registers: the first two events
// invalidate explicitly, and expiresAt self-invalidates at the earliest
// compute retirement among the scanned operands.
type hazSummary struct {
	valid    bool
	pc       int
	memHaz   bool
	blocking core.LoadID
	compHaz  bool
	compUnit core.CompUnit
	// expiresAt is the earliest pendCompute readyAt among the scanned
	// operands (0 = none pending: valid until an invalidating event).
	expiresAt uint64
}

// Warp is one resident warp: program counter, warp-scalar registers, the
// scoreboard, and instruction-buffer state.
type Warp struct {
	idx   int // index within the SM
	prog  *isa.Program
	pc    int
	regs  [isa.NumRegs]uint64
	board [isa.NumRegs]regStatus
	state warpState
	haz   hazSummary

	// ibufReadyAt models the instruction buffer: after a taken branch
	// the buffer refills and the next instruction is unavailable until
	// this cycle (control stalls).
	ibufReadyAt uint64

	// lastIssue is the cycle this warp last issued; the scheduler's
	// "oldest" fallback prefers the least recently issued warp, which
	// guarantees a blocked-but-ready warp (e.g. a lock holder amid
	// cheap spinners) eventually gets an issue slot.
	lastIssue uint64
}

// reset prepares the warp to run prog from pc 0.
func (w *Warp) reset(prog *isa.Program) {
	w.prog = prog
	w.pc = 0
	w.regs = [isa.NumRegs]uint64{}
	w.board = [isa.NumRegs]regStatus{}
	w.state = warpReady
	w.ibufReadyAt = 0
	w.lastIssue = 0
	w.haz = hazSummary{}
}

// next returns the decoded instruction at the warp's pc.
func (w *Warp) next() *isa.Decoded { return w.prog.Fetch(w.pc) }

// clearReady lazily retires compute scoreboard entries whose results have
// arrived.
func (w *Warp) clearReady(r isa.Reg, cycle uint64) {
	if w.board[r].kind == pendCompute && w.board[r].readyAt <= cycle {
		w.board[r] = regStatus{}
	}
}

// hazards inspects the scoreboard for the instruction's operands (reads
// plus the write destination, for WAW). It reports a memory-data hazard
// with the blocking load, or a compute-data hazard. The scan result is
// cached in w.haz so a stalled warp whose scoreboard has not changed does
// not re-scan its registers every cycle.
func (w *Warp) hazards(in *isa.Decoded, cycle uint64) (memHaz bool, blocking core.LoadID, compHaz bool, compUnit core.CompUnit) {
	s := &w.haz
	if s.valid && s.pc == w.pc && (s.expiresAt == 0 || cycle < s.expiresAt) {
		return s.memHaz, s.blocking, s.compHaz, s.compUnit
	}
	*s = hazSummary{valid: true, pc: w.pc}
	for _, r := range in.ScanRegs() {
		w.clearReady(r, cycle)
		switch w.board[r].kind {
		case pendLoad:
			if !s.memHaz {
				s.memHaz = true
				s.blocking = w.board[r].loadID
			}
		case pendCompute:
			if !s.compHaz {
				s.compHaz = true
				s.compUnit = w.board[r].unit
			}
			if t := w.board[r].readyAt; s.expiresAt == 0 || t < s.expiresAt {
				s.expiresAt = t
			}
		}
	}
	return s.memHaz, s.blocking, s.compHaz, s.compUnit
}

// setPendingCompute marks rd as produced by a compute op on the given
// pipeline finishing at readyAt.
func (w *Warp) setPendingCompute(rd isa.Reg, readyAt uint64, unit core.CompUnit) {
	w.board[rd] = regStatus{kind: pendCompute, readyAt: readyAt, unit: unit}
	w.haz.valid = false
}

// setPendingLoad marks rd as produced by an in-flight load.
func (w *Warp) setPendingLoad(rd isa.Reg, id core.LoadID) {
	w.board[rd] = regStatus{kind: pendLoad, loadID: id}
	w.haz.valid = false
}

// loadArrived retires the scoreboard entry for a completed load and writes
// the value.
func (w *Warp) loadArrived(rd isa.Reg, id core.LoadID, value uint64) {
	if w.board[rd].kind == pendLoad && w.board[rd].loadID == id {
		w.board[rd] = regStatus{}
		w.regs[rd] = value
		w.haz.valid = false
	}
}

// nextBoardEvent supports the SM's skip-ahead promise for a ready warp
// whose head instruction is in: it reports whether any operand is blocked
// by an in-flight load (external — no internal bound), and the earliest
// compute retirement among the operands (0 = none). Unlike hazards it never
// mutates the scoreboard.
func (w *Warp) nextBoardEvent(in *isa.Decoded, now uint64) (external bool, nextReady uint64, hazard bool) {
	for _, r := range in.ScanRegs() {
		switch w.board[r].kind {
		case pendLoad:
			external = true
			hazard = true
		case pendCompute:
			hazard = true
			if t := w.board[r].readyAt; nextReady == 0 || t < nextReady {
				nextReady = t
			}
		}
	}
	return external, nextReady, hazard
}
