package core

// Cond captures everything the issue stage knows about one warp's next
// instruction in one cycle. The GPU core model fills one Cond per active
// warp; ClassifyInstruction reduces it to a single StallKind using the
// "strong" priority of Algorithm 1 (the cause most strongly preventing
// execution, i.e. the one most likely to still block next cycle).
type Cond struct {
	// Issued reports that the instruction issued this cycle.
	Issued bool
	// NextUnavailable reports that the instruction buffer could not
	// supply the next instruction for the warp (control stall).
	NextUnavailable bool
	// SyncBlocked reports that the warp is blocked on a pending acquire,
	// release, or thread barrier.
	SyncBlocked bool
	// MemDataHazard reports a data hazard on a pending load.
	MemDataHazard bool
	// PendingLoad identifies the blocking load when MemDataHazard is set.
	PendingLoad LoadID
	// MemStructHazard reports a structural hazard on the load/store unit.
	MemStructHazard bool
	// StructCause gives the blocking resource when MemStructHazard is set.
	StructCause StructCause
	// CompDataHazard reports a data hazard on a pending compute result.
	CompDataHazard bool
	// CompDataUnit identifies the producing pipeline when CompDataHazard
	// is set.
	CompDataUnit CompUnit
	// CompStructHazard reports that the required compute unit is busy.
	CompStructHazard bool
	// CompStructUnit identifies the contended pipeline when
	// CompStructHazard is set.
	CompStructUnit CompUnit
}

// WarpObs is the classified observation for one warp in one cycle: the
// stall kind chosen by Algorithm 1 plus the sub-classification payload
// needed if the cycle is later attributed to this warp.
type WarpObs struct {
	Kind        StallKind
	PendingLoad LoadID      // valid when Kind == MemData
	StructCause StructCause // valid when Kind == MemStructural
	CompUnit    CompUnit    // valid when Kind is a compute stall
}

// ClassifyInstruction implements Algorithm 1: it assigns a single stall
// type to one warp instruction considered in the issue stage, giving
// priority to the cause most strongly preventing execution.
//
// The priority order is exactly the paper's:
//
//	control > synchronization > memory data > memory structural >
//	compute data > compute structural > no stall
//
// (The "no active warps" case of Algorithm 1 is cycle-level and handled by
// ClassifyCycle when it receives zero observations.)
func ClassifyInstruction(c Cond) WarpObs {
	switch {
	case c.NextUnavailable:
		return WarpObs{Kind: Control}
	case c.SyncBlocked:
		return WarpObs{Kind: Sync}
	case c.MemDataHazard:
		return WarpObs{Kind: MemData, PendingLoad: c.PendingLoad}
	case c.MemStructHazard:
		return WarpObs{Kind: MemStructural, StructCause: c.StructCause}
	case c.CompDataHazard:
		return WarpObs{Kind: CompData, CompUnit: c.CompDataUnit}
	case c.CompStructHazard:
		return WarpObs{Kind: CompStructural, CompUnit: c.CompStructUnit}
	case c.Issued:
		return WarpObs{Kind: NoStall}
	default:
		// An active warp with no hazard that nevertheless did not
		// issue lost issue-port arbitration to another warp; the
		// cycle will be classified NoStall anyway (some warp issued).
		// If no warp issued this is a compute structural condition:
		// the issue ports themselves are the contended unit.
		return WarpObs{Kind: CompStructural, CompUnit: UnitIssue}
	}
}

// CycleClass is the result of Algorithm 2 for one SM-cycle: a single stall
// kind for the cycle plus the attribution payload for the memory
// sub-breakdowns.
type CycleClass struct {
	Kind        StallKind
	PendingLoad LoadID      // set when Kind == MemData
	StructCause StructCause // set when Kind == MemStructural
	CompUnit    CompUnit    // set when Kind is a compute stall
}

// cyclePriority is the "weak" order of Algorithm 2: after the no-stall
// check, the cycle takes the classification of the instruction that was
// closest to issuing, with memory and synchronization stalls prioritized
// over compute stalls because GSI targets memory-system analysis.
var cyclePriority = rankTable(
	MemStructural, MemData, Sync, CompStructural, CompData, Control, Idle)

// strongPriority is Algorithm 1's order applied at cycle level (the
// section 4.2 ablation).
var strongPriority = rankTable(
	Control, Sync, MemData, MemStructural, CompData, CompStructural, Idle)

// rankTable turns a priority order into a rank per kind (lower wins). Kinds
// the order leaves out — NoStall, which the classifier handles first — rank
// below every kind it names.
func rankTable(order ...StallKind) (rank [NumStallKinds]uint8) {
	for k := range rank {
		rank[k] = uint8(len(order))
	}
	for i, k := range order {
		rank[k] = uint8(i)
	}
	return rank
}

// ClassifyCycle implements Algorithm 2: it classifies an SM issue cycle
// from the per-warp observations. An empty slice means the SM had no
// active warps and the cycle is idle.
//
// When several warps share the winning kind, attribution (which pending
// load, which structural cause) goes to the first such warp in scheduler
// priority order, i.e. the warp that would have issued first.
func ClassifyCycle(warps []WarpObs) CycleClass {
	return classifyCycle(warps, &cyclePriority)
}

// ClassifyCycleStrong is the ablation variant discussed in section 4.2: it
// applies the *strong* (Algorithm 1) priority at cycle level instead of the
// weak one. It exists so the ablation benchmark can quantify how the choice
// of cycle-level priority shifts the breakdown.
func ClassifyCycleStrong(warps []WarpObs) CycleClass {
	return classifyCycle(warps, &strongPriority)
}

// classifyCycle is the one pass both orders share: any issued warp makes
// the cycle NoStall; otherwise the best-ranked kind wins, and the strict
// comparison leaves ties with the first warp in scheduler order.
func classifyCycle(warps []WarpObs, rank *[NumStallKinds]uint8) CycleClass {
	if len(warps) == 0 {
		return CycleClass{Kind: Idle}
	}
	best, bestRank := 0, uint8(len(rank))
	for i := range warps {
		k := warps[i].Kind
		if k == NoStall {
			return CycleClass{Kind: NoStall}
		}
		if r := rank[k]; r < bestRank {
			best, bestRank = i, r
		}
	}
	return CycleClass(warps[best])
}
