// Package core implements the GPU Stall Inspector (GSI) stall taxonomy and
// the two classification algorithms from the paper: per-instruction "strong"
// classification (Algorithm 1) and per-cycle "weak" classification
// (Algorithm 2), plus the memory data and memory structural sub-classifiers.
//
// The package is deliberately independent of the simulator: the GPU core
// model reports what its issue stage observed each cycle (one WarpObs per
// active warp, folded into a CycleFold) and the Inspector records the
// cycle's class into breakdowns.
//
// Cond and ClassifyInstruction are Algorithm 1's specification: the GPU core
// model decides the same observation by early returns, without a Cond, and
// its tests hold it to ClassifyInstruction on every combination of conditions.
// Memory data stalls are attributed lazily: stall cycles accrue against the
// pending load that blocks the instruction, and are charged to a service
// location (L1, L1 coalescing, L2, remote L1, main memory) only when the
// load response arrives and the location is known.
package core

import "fmt"

// StallKind is the top-level classification of an issue-stage observation.
// The zero value is NoStall so that a zeroed WarpObs reads as "issued".
type StallKind uint8

// Top-level stall kinds, section 4.1 of the paper.
const (
	// NoStall: an instruction was issued this cycle.
	NoStall StallKind = iota
	// Idle: no active warps were available to issue instructions.
	Idle
	// Control: the instruction supplied by the instruction buffer is not
	// the next instruction to be executed in the warp.
	Control
	// Sync: the warp is blocked on a pending synchronization operation
	// (acquire, release, or thread barrier).
	Sync
	// MemData: the instruction depends on the output of a pending load.
	MemData
	// MemStructural: a memory instruction cannot issue because the
	// load/store unit is full (see StructCause for the reason).
	MemStructural
	// CompData: the instruction depends on a pending compute instruction.
	CompData
	// CompStructural: a compute instruction cannot issue because the
	// appropriate compute unit is occupied.
	CompStructural

	numStallKinds = int(CompStructural) + 1
)

// NumStallKinds is the number of distinct top-level stall kinds.
const NumStallKinds = numStallKinds

// String returns the label used in reports; it matches the paper's figures.
func (k StallKind) String() string {
	switch k {
	case NoStall:
		return "no stall"
	case Idle:
		return "idle"
	case Control:
		return "control"
	case Sync:
		return "synchronization"
	case MemData:
		return "memory data"
	case MemStructural:
		return "memory structural"
	case CompData:
		return "compute data"
	case CompStructural:
		return "compute structural"
	}
	return fmt.Sprintf("StallKind(%d)", uint8(k))
}

// StallKinds lists every top-level kind in report order: the paper's
// execution-time breakdown figures stack categories in this order.
func StallKinds() []StallKind {
	return []StallKind{
		NoStall, Idle, Control, Sync,
		MemData, MemStructural, CompData, CompStructural,
	}
}

// DataWhere sub-classifies a memory data stall by where the blocking load
// was serviced (section 4.3).
type DataWhere uint8

const (
	// WhereUnknown marks a load still in flight (or lost at end of
	// simulation); accrued stalls with this value are reported under
	// main memory, the conservative choice.
	WhereUnknown DataWhere = iota
	// WhereL1: the dependency load was satisfied by the local L1 (or
	// local scratchpad/stash hit).
	WhereL1
	// WhereL1Coalescing: the request missed in the L1 but was satisfied
	// by the response for another request to the same line (MSHR merge).
	WhereL1Coalescing
	// WhereL2: the request was satisfied at the shared L2.
	WhereL2
	// WhereRemoteL1: the request was forwarded to and satisfied by a
	// remote L1 that owned the line (possible only under protocols such
	// as DeNovo that allow ownership in L1 caches).
	WhereRemoteL1
	// WhereMemory: the request was satisfied by main memory.
	WhereMemory

	numDataWheres = int(WhereMemory) + 1
)

// NumDataWheres is the number of distinct data-stall service locations.
const NumDataWheres = numDataWheres

// String returns the label used in the memory data stall breakdown figures.
func (w DataWhere) String() string {
	switch w {
	case WhereUnknown:
		return "unknown"
	case WhereL1:
		return "L1 cache"
	case WhereL1Coalescing:
		return "L1 coalescing"
	case WhereL2:
		return "L2 cache"
	case WhereRemoteL1:
		return "remote L1 cache"
	case WhereMemory:
		return "main memory"
	}
	return fmt.Sprintf("DataWhere(%d)", uint8(w))
}

// DataWheres lists the service locations in report order (paper fig. order).
func DataWheres() []DataWhere {
	return []DataWhere{
		WhereL1, WhereL1Coalescing, WhereL2, WhereRemoteL1, WhereMemory,
	}
}

// StructCause sub-classifies a memory structural stall by the load/store
// unit resource that blocked issue (section 4.4).
type StructCause uint8

const (
	// StructNone is the zero value; it never appears in a breakdown.
	StructNone StructCause = iota
	// StructMSHRFull: the miss status holding registers are full.
	StructMSHRFull
	// StructStoreBufferFull: the write-combining store buffer is full.
	StructStoreBufferFull
	// StructBankConflict: accesses serialize on a cache or local-memory
	// bank.
	StructBankConflict
	// StructPendingRelease: a release is in progress; stores (and in the
	// baseline configuration all memory operations) are blocked until all
	// prior stores are flushed.
	StructPendingRelease
	// StructPendingDMA: the instruction touches a scratchpad region whose
	// DMA transfer has not yet completed.
	StructPendingDMA

	numStructCauses = int(StructPendingDMA) + 1
)

// NumStructCauses is the number of distinct structural stall causes.
const NumStructCauses = numStructCauses

// String returns the label used in the memory structural breakdown figures.
func (c StructCause) String() string {
	switch c {
	case StructNone:
		return "none"
	case StructMSHRFull:
		return "full MSHR"
	case StructStoreBufferFull:
		return "full store buffer"
	case StructBankConflict:
		return "bank conflict"
	case StructPendingRelease:
		return "pending release"
	case StructPendingDMA:
		return "pending DMA"
	}
	return fmt.Sprintf("StructCause(%d)", uint8(c))
}

// StructCauses lists the structural causes in report order.
func StructCauses() []StructCause {
	return []StructCause{
		StructMSHRFull, StructStoreBufferFull, StructBankConflict,
		StructPendingRelease, StructPendingDMA,
	}
}

// LoadID identifies a pending load for deferred data-stall attribution.
// IDs are allocated by the memory system and are unique within a run.
// The zero value means "no load".
type LoadID uint64

// CompUnit sub-classifies compute stalls by the pipeline involved: the
// producer of a pending result (compute data stalls) or the contended
// resource (compute structural stalls). The paper's conclusion notes GSI's
// methodology extends to compute-stall subcategorization when studying
// functional-unit changes; this is that extension.
type CompUnit uint8

const (
	// UnitNone is the zero value; it never appears in a breakdown.
	UnitNone CompUnit = iota
	// UnitALU: the fully pipelined integer/FP unit.
	UnitALU
	// UnitSFU: the special function unit (long latency, limited
	// initiation interval).
	UnitSFU
	// UnitIssue: the issue ports themselves (a ready warp lost
	// arbitration every slot this cycle).
	UnitIssue

	numCompUnits = int(UnitIssue) + 1
)

// NumCompUnits is the number of distinct compute-stall units.
const NumCompUnits = numCompUnits

// String returns the label used in the compute sub-breakdowns.
func (u CompUnit) String() string {
	switch u {
	case UnitNone:
		return "none"
	case UnitALU:
		return "ALU"
	case UnitSFU:
		return "SFU"
	case UnitIssue:
		return "issue port"
	}
	return fmt.Sprintf("CompUnit(%d)", uint8(u))
}

// CompUnits lists the units in report order.
func CompUnits() []CompUnit {
	return []CompUnit{UnitALU, UnitSFU, UnitIssue}
}
