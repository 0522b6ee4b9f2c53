package core

// Counts is the per-SM (or aggregated) stall profile GSI produces: total
// cycles by top-level kind plus the two memory sub-breakdowns.
type Counts struct {
	// Cycles[k] is the number of issue cycles classified as StallKind(k).
	Cycles [NumStallKinds]uint64
	// MemData[w] is the number of memory-data stall cycles whose blocking
	// load was serviced at DataWhere(w).
	MemData [NumDataWheres]uint64
	// MemStruct[c] is the number of memory-structural stall cycles whose
	// blocking resource was StructCause(c).
	MemStruct [NumStructCauses]uint64
	// CompData[u] and CompStruct[u] sub-classify compute stalls by the
	// producing / contended pipeline (the paper's suggested extension for
	// studying functional-unit changes).
	CompData   [NumCompUnits]uint64
	CompStruct [NumCompUnits]uint64
}

// Total returns the total number of classified cycles.
func (c Counts) Total() uint64 {
	var t uint64
	for _, v := range c.Cycles {
		t += v
	}
	return t
}

// Add accumulates other into c.
func (c *Counts) Add(other *Counts) {
	for i := range c.Cycles {
		c.Cycles[i] += other.Cycles[i]
	}
	for i := range c.MemData {
		c.MemData[i] += other.MemData[i]
	}
	for i := range c.MemStruct {
		c.MemStruct[i] += other.MemStruct[i]
	}
	for i := range c.CompData {
		c.CompData[i] += other.CompData[i]
	}
	for i := range c.CompStruct {
		c.CompStruct[i] += other.CompStruct[i]
	}
}

// Inspector is the GSI collector. One Inspector profiles one simulation:
// each SM reports one CycleClass per cycle, and the memory system reports
// load completions so deferred memory-data attribution can resolve.
//
// Deferred attribution: when a cycle is classified MemData the blocking
// load is usually still in flight, so where it will be serviced is not yet
// known. The Inspector accrues such cycles against the LoadID and folds
// them into the proper DataWhere bucket when LoadCompleted is called.
// Stalls observed after completion (possible for the cycle in which the
// response is being written back) are charged directly.
type Inspector struct {
	perSM []Counts
	// pending is sharded per SM: load IDs are private to the issuing SM
	// (gpu.SM.nextLoadID stripes the ID space), so every accrual and
	// completion for a load comes from the same SM.
	pending []*LoadTable[pendingLoad]

	// StrongCycle selects the ablation classifier (strong priority at
	// cycle level); see ClassifyCycleStrong.
	StrongCycle bool
	// EagerAttribution selects the ablation data-stall attribution that
	// charges stalls immediately to main memory instead of deferring;
	// see DESIGN.md ablation 1.
	EagerAttribution bool
	// Sinks receive the classification stream: every recorded span with
	// its sub-cause payload, plus load completions for deferred-attribution
	// resolution. Empty by default; the hot path pays one length test.
	Sinks []TraceSink
}

// TraceSink receives the Inspector's classification stream. The stall views
// beyond the counters are sinks: the per-SM Timeline here and the
// structured trace export (trace.Collector; the interface lives here so
// core stays free of trace dependencies). Calls for one SM are always
// serialized by the engine, matching the Inspector's own per-SM sharding
// contract.
type TraceSink interface {
	// StallSpan reports n consecutive cycles of one classification on sm.
	// Spans arrive in per-SM cycle order with no gaps, so a sink can
	// reconstruct absolute cycle positions by accumulation.
	StallSpan(sm int, cc CycleClass, n uint64)
	// LoadResolved reports where a pending load was serviced, resolving
	// the deferred attribution of earlier MemData spans naming it.
	LoadResolved(sm int, id LoadID, where DataWhere)
}

// pendingLoad is the deferred-attribution record of one load that blocked a
// warp: live in its SM's table while the load is in flight, retired (where
// set) once it completes.
type pendingLoad struct {
	accrued uint64
	where   DataWhere // meaningful once retired
}

// NewInspector returns an Inspector profiling numSMs streaming
// multiprocessors.
func NewInspector(numSMs int) *Inspector {
	in := &Inspector{
		perSM:   make([]Counts, numSMs),
		pending: make([]*LoadTable[pendingLoad], numSMs),
	}
	for i := range in.pending {
		in.pending[i] = NewLoadTable[pendingLoad](numSMs)
	}
	return in
}

// Fold returns an empty Algorithm 2 fold under the cycle-level order this
// Inspector classifies with (the strong one when StrongCycle is set). The GPU
// core model folds each warp's observation as its issue stage decides it and
// records the fold's Class with RecordCycle.
func (in *Inspector) Fold() CycleFold {
	if in.StrongCycle {
		return newFold(&strongPriority)
	}
	return newFold(&cyclePriority)
}

// Observe classifies one SM issue cycle from a slice of per-warp
// observations and records it. The returned CycleClass is what was recorded.
func (in *Inspector) Observe(sm int, warps []WarpObs) CycleClass {
	cc := classifyCycle(in.Fold(), warps)
	in.RecordCycle(sm, cc)
	return cc
}

// RecordCycle records an already-classified cycle for an SM.
func (in *Inspector) RecordCycle(sm int, cc CycleClass) { in.RecordCycleSpan(sm, cc, 1) }

// RecordCycleSpan records n consecutive cycles of one classification for an
// SM in one call — exactly the counts and deferred-attribution accruals a
// dense loop would accumulate by recording the same CycleClass n times in a
// row, passed to every sink as one span of n cycles. It is the bulk-advance
// path for SM naps: when an SM sleeps through a window in which its
// classification provably cannot change, the whole window is credited here
// at once when the nap ends.
func (in *Inspector) RecordCycleSpan(sm int, cc CycleClass, n uint64) {
	if n == 0 {
		return
	}
	c := &in.perSM[sm]
	c.Cycles[cc.Kind] += n
	for _, s := range in.Sinks {
		s.StallSpan(sm, cc, n)
	}
	switch cc.Kind {
	case MemData:
		in.recordMemData(sm, cc.PendingLoad, n)
	case MemStructural:
		cause := cc.StructCause
		if cause == StructNone {
			// Defensive: a structural stall must have a cause;
			// charge the most generic one rather than dropping.
			cause = StructMSHRFull
		}
		c.MemStruct[cause] += n
	case CompData:
		c.CompData[unitOrALU(cc.CompUnit)] += n
	case CompStructural:
		c.CompStruct[unitOrALU(cc.CompUnit)] += n
	}
}

// unitOrALU defaults an unattributed compute stall to the ALU, the generic
// pipeline.
func unitOrALU(u CompUnit) CompUnit {
	if u == UnitNone {
		return UnitALU
	}
	return u
}

func (in *Inspector) recordMemData(sm int, id LoadID, n uint64) {
	c := &in.perSM[sm]
	if in.EagerAttribution {
		// Ablation: charge immediately to main memory (the only level
		// an eager classifier can safely assume for an in-flight
		// miss). The default deferred scheme is the paper's.
		c.MemData[WhereMemory] += n
		return
	}
	if id == 0 {
		// No load identified (e.g. dependency already resolved this
		// cycle): local L1 is the closest service point.
		c.MemData[WhereL1] += n
		return
	}
	p, live := in.pending[sm].Find(id)
	if p == nil {
		p = in.pending[sm].Insert(id)
	} else if !live {
		c.MemData[p.where] += n
		return
	}
	p.accrued += n
}

// LoadCompleted tells the Inspector where a load was serviced; sm is the SM
// that issued the load (the one whose LSU observes the completion). Accrued
// stall cycles for that load are folded into the matching bucket. The entry
// is retired, not removed, so stalls charged to the load in the completion
// cycle itself still resolve correctly; a later load reclaims its slot.
func (in *Inspector) LoadCompleted(sm int, id LoadID, where DataWhere) {
	if id == 0 {
		return
	}
	for _, s := range in.Sinks {
		s.LoadResolved(sm, id, where)
	}
	if in.EagerAttribution {
		return
	}
	p, live := in.pending[sm].Find(id)
	if !live {
		// Load completed without ever blocking anyone: nothing to
		// attribute, and nothing to remember.
		return
	}
	in.pending[sm].Retire(id)
	p.where = where
	in.perSM[sm].MemData[where] += p.accrued
	p.accrued = 0
}

// Flush resolves bookkeeping at end of simulation: loads still in flight
// have their accrued stalls charged to main memory (the conservative
// choice), and completed-load records are dropped.
func (in *Inspector) Flush() {
	for sm, shard := range in.pending {
		c := &in.perSM[sm]
		shard.Drain(func(p *pendingLoad) {
			c.MemData[WhereMemory] += p.accrued
		})
	}
}

// SM returns the counts for one SM. The pointer stays valid for the
// Inspector's lifetime.
func (in *Inspector) SM(sm int) *Counts { return &in.perSM[sm] }

// NumSMs returns the number of SMs being profiled.
func (in *Inspector) NumSMs() int { return len(in.perSM) }

// Aggregate sums the per-SM counts. Call Flush first if the simulation has
// ended and in-flight loads should resolve to main memory.
func (in *Inspector) Aggregate() Counts {
	var total Counts
	for i := range in.perSM {
		total.Add(&in.perSM[i])
	}
	return total
}

// PendingLoads reports how many loads have unresolved attribution; useful
// for leak checks in tests.
func (in *Inspector) PendingLoads() int {
	n := 0
	for _, shard := range in.pending {
		n += shard.Live()
	}
	return n
}
