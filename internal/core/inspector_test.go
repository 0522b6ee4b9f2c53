package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestInspectorDeferredAttribution(t *testing.T) {
	in := NewInspector(1)
	// Three cycles blocked on load 5, then the load completes at the L2.
	for i := 0; i < 3; i++ {
		in.Observe(0, []WarpObs{{Kind: MemData, PendingLoad: 5}})
	}
	if got := in.SM(0).MemData[WhereL2]; got != 0 {
		t.Fatalf("attributed %d cycles before completion", got)
	}
	if in.PendingLoads() != 1 {
		t.Fatalf("PendingLoads = %d, want 1", in.PendingLoads())
	}
	in.LoadCompleted(0, 5, WhereL2)
	if got := in.SM(0).MemData[WhereL2]; got != 3 {
		t.Fatalf("L2 bucket = %d, want 3", got)
	}
	// A stall charged after completion resolves immediately.
	in.Observe(0, []WarpObs{{Kind: MemData, PendingLoad: 5}})
	if got := in.SM(0).MemData[WhereL2]; got != 4 {
		t.Fatalf("post-completion L2 bucket = %d, want 4", got)
	}
}

func TestInspectorFlushUnresolved(t *testing.T) {
	in := NewInspector(1)
	in.Observe(0, []WarpObs{{Kind: MemData, PendingLoad: 9}})
	in.Observe(0, []WarpObs{{Kind: MemData, PendingLoad: 9}})
	in.Flush()
	if got := in.SM(0).MemData[WhereMemory]; got != 2 {
		t.Fatalf("flush charged %d to main memory, want 2", got)
	}
	if in.PendingLoads() != 0 {
		t.Fatalf("PendingLoads after flush = %d", in.PendingLoads())
	}
}

func TestInspectorZeroLoadID(t *testing.T) {
	in := NewInspector(1)
	// A data hazard with no identified load charges the closest service
	// point (local L1) immediately.
	in.Observe(0, []WarpObs{{Kind: MemData}})
	if got := in.SM(0).MemData[WhereL1]; got != 1 {
		t.Fatalf("L1 bucket = %d, want 1", got)
	}
}

func TestInspectorEagerAblation(t *testing.T) {
	in := NewInspector(1)
	in.EagerAttribution = true
	in.Observe(0, []WarpObs{{Kind: MemData, PendingLoad: 3}})
	in.LoadCompleted(0, 3, WhereL2) // ignored in eager mode
	if got := in.SM(0).MemData[WhereMemory]; got != 1 {
		t.Fatalf("eager main-memory bucket = %d, want 1", got)
	}
	if got := in.SM(0).MemData[WhereL2]; got != 0 {
		t.Fatalf("eager L2 bucket = %d, want 0", got)
	}
}

func TestInspectorStructuralAttribution(t *testing.T) {
	in := NewInspector(2)
	in.Observe(1, []WarpObs{{Kind: MemStructural, StructCause: StructStoreBufferFull}})
	in.Observe(1, []WarpObs{{Kind: MemStructural, StructCause: StructPendingRelease}})
	c := in.SM(1)
	if c.MemStruct[StructStoreBufferFull] != 1 || c.MemStruct[StructPendingRelease] != 1 {
		t.Fatalf("structural buckets = %v", c.MemStruct)
	}
	if c.Cycles[MemStructural] != 2 {
		t.Fatalf("structural cycles = %d, want 2", c.Cycles[MemStructural])
	}
	// Defensive: a structural cycle with no cause lands in the generic
	// bucket rather than disappearing.
	in.RecordCycle(0, CycleClass{Kind: MemStructural})
	if in.SM(0).MemStruct[StructMSHRFull] != 1 {
		t.Fatalf("causeless structural cycle not charged")
	}
}

func TestInspectorAggregate(t *testing.T) {
	in := NewInspector(3)
	in.Observe(0, []WarpObs{{Kind: NoStall}})
	in.Observe(1, nil) // idle
	in.Observe(2, []WarpObs{{Kind: Sync}})
	agg := in.Aggregate()
	if agg.Total() != 3 {
		t.Fatalf("aggregate total = %d, want 3", agg.Total())
	}
	if agg.Cycles[NoStall] != 1 || agg.Cycles[Idle] != 1 || agg.Cycles[Sync] != 1 {
		t.Fatalf("aggregate = %v", agg.Cycles)
	}
}

func TestInspectorLoadCompletedWithoutStalls(t *testing.T) {
	in := NewInspector(1)
	in.LoadCompleted(0, 77, WhereL2) // never blocked anyone
	if in.PendingLoads() != 0 {
		t.Fatalf("completion created a pending record")
	}
	if in.Aggregate().Total() != 0 {
		t.Fatalf("completion created cycles")
	}
}

// TestInspectorConservation: however stalls are interleaved with
// completions, total mem-data sub-bucket cycles equal total MemData cycles
// after Flush.
func TestInspectorConservation(t *testing.T) {
	prop := func(events []uint16) bool {
		in := NewInspector(1)
		for _, e := range events {
			id := LoadID(e%7) + 1
			if e%3 == 0 {
				in.LoadCompleted(0, id, DataWhere(int(e/3)%NumDataWheres))
			} else {
				in.Observe(0, []WarpObs{{Kind: MemData, PendingLoad: id}})
			}
		}
		in.Flush()
		c := in.SM(0)
		var sub uint64
		for _, v := range c.MemData {
			sub += v
		}
		return sub == c.Cycles[MemData]
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCountsAdd(t *testing.T) {
	var a, b Counts
	a.Cycles[Sync] = 2
	a.MemData[WhereL2] = 1
	b.Cycles[Sync] = 3
	b.MemStruct[StructMSHRFull] = 4
	a.Add(&b)
	if a.Cycles[Sync] != 5 || a.MemData[WhereL2] != 1 || a.MemStruct[StructMSHRFull] != 4 {
		t.Fatalf("Add result = %+v", a)
	}
}

// TestIdleSpanMatchesPerCycle: crediting a drained SM's idle tail as one
// span (how its nap ends) must produce the same counts and the same
// rendered timeline as observing the idle cycles one at a time, even
// though the bulk path records whole spans out of interleaving order.
func TestIdleSpanMatchesPerCycle(t *testing.T) {
	perCycle, bulk := NewInspector(2), NewInspector(2)
	perCycleTL, bulkTL := NewTimeline(2, 8), NewTimeline(2, 8)
	perCycle.Sinks, bulk.Sinks = []TraceSink{perCycleTL}, []TraceSink{bulkTL}

	for i := 0; i < 3; i++ {
		perCycle.Observe(0, []WarpObs{{Kind: NoStall}})
		bulk.Observe(0, []WarpObs{{Kind: NoStall}})
	}
	// SM0 drains after 3 cycles and idles 50 more; SM1 never runs a block.
	for i := 0; i < 50; i++ {
		perCycle.Observe(0, nil)
	}
	for i := 0; i < 53; i++ {
		perCycle.Observe(1, nil)
	}
	bulk.RecordCycleSpan(0, CycleClass{Kind: Idle}, 50)
	bulk.RecordCycleSpan(1, CycleClass{Kind: Idle}, 53)

	for sm := 0; sm < 2; sm++ {
		if *perCycle.SM(sm) != *bulk.SM(sm) {
			t.Errorf("SM%d counts diverge:\n%+v\nvs\n%+v", sm, *perCycle.SM(sm), *bulk.SM(sm))
		}
	}
	if p, b := perCycleTL.Render(), bulkTL.Render(); p != b {
		t.Errorf("timelines diverge:\n--- per-cycle ---\n%s\n--- bulk ---\n%s", p, b)
	}
}

// refInspector is the deferred-attribution bookkeeping written the obvious
// way — a map that never forgets a load — kept here as the oracle for the
// Inspector's table.
type refInspector struct {
	counts  Counts
	pending map[LoadID]*refPending
}

type refPending struct {
	accrued uint64
	where   DataWhere
	done    bool
}

func (r *refInspector) stall(id LoadID) {
	r.counts.Cycles[MemData]++
	p := r.pending[id]
	if p == nil {
		p = &refPending{}
		r.pending[id] = p
	}
	if p.done {
		r.counts.MemData[p.where]++
		return
	}
	p.accrued++
}

func (r *refInspector) complete(id LoadID, where DataWhere) {
	if p := r.pending[id]; p != nil {
		p.where, p.done = where, true
		r.counts.MemData[where] += p.accrued
		p.accrued = 0
	}
}

func (r *refInspector) flush() {
	for _, p := range r.pending {
		if !p.done {
			r.counts.MemData[WhereMemory] += p.accrued
		}
	}
}

// TestInspectorMatchesMapModel: a random interleaving of loads issued,
// stalls accrued, completions out of order and stalls charged in the
// completion cycle, wide enough to grow the table more than twice, leaves
// the same Counts after Flush as the map that never forgets.
func TestInspectorMatchesMapModel(t *testing.T) {
	const numSMs, sm = 4, 2
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := NewInspector(numSMs)
		ref := &refInspector{pending: map[LoadID]*refPending{}}
		var inflight []LoadID
		seq := 0
		for step := 0; step < 20000; step++ {
			switch op := rng.Intn(10); {
			case op < 3 && len(inflight) < 6*loadTableInitial:
				inflight = append(inflight, LoadID(seq*numSMs+sm+1))
				seq++
			case op < 8 && len(inflight) > 0:
				id := inflight[rng.Intn(len(inflight))]
				in.Observe(sm, []WarpObs{{Kind: MemData, PendingLoad: id}})
				ref.stall(id)
			case len(inflight) > 0:
				i := rng.Intn(len(inflight))
				id := inflight[i]
				inflight = append(inflight[:i], inflight[i+1:]...)
				where := DataWheres()[rng.Intn(len(DataWheres()))]
				in.LoadCompleted(sm, id, where)
				ref.complete(id, where)
				if rng.Intn(3) == 0 {
					// The completion cycle's own stall.
					in.Observe(sm, []WarpObs{{Kind: MemData, PendingLoad: id}})
					ref.stall(id)
				}
			}
		}
		if in.pending[sm].Cap() < 4*loadTableInitial {
			t.Fatalf("seed %d: capacity %d: the run did not cross two growths", seed, in.pending[sm].Cap())
		}
		in.Flush()
		ref.flush()
		if *in.SM(sm) != ref.counts {
			t.Errorf("seed %d: counts diverge from the map model:\n%+v\nvs\n%+v", seed, *in.SM(sm), ref.counts)
		}
		if in.PendingLoads() != 0 {
			t.Errorf("seed %d: PendingLoads = %d after Flush", seed, in.PendingLoads())
		}
	}
}

// TestInspectorForgetsCompletedLoads: the Inspector used to keep one record
// per load that ever blocked a warp until Flush. With at most 8 loads in
// flight its table must stay small however long the run, and a stall
// charged to a load in its completion cycle must still land in that load's
// bucket.
func TestInspectorForgetsCompletedLoads(t *testing.T) {
	const numSMs, sm, window, rounds = 15, 7, 8, 100_000
	in := NewInspector(numSMs)
	id := func(seq int) LoadID { return LoadID(seq*numSMs + sm + 1) }
	stall := func(id LoadID) { in.Observe(sm, []WarpObs{{Kind: MemData, PendingLoad: id}}) }
	for seq := 0; seq < rounds+window; seq++ {
		if seq < rounds {
			stall(id(seq))
		}
		if done := seq - window + 1; done >= 0 && done < rounds {
			// Alternate the service point so a stale record would show.
			where := WhereL2
			if done%2 == 1 {
				where = WhereRemoteL1
			}
			before := in.SM(sm).MemData[where]
			in.LoadCompleted(sm, id(done), where)
			stall(id(done))
			if got := in.SM(sm).MemData[where] - before; got != 2 {
				t.Fatalf("load %d: completion credited %d cycles to %v, want its accrued stall plus the completion cycle's", done, got, where)
			}
		}
	}
	if got := in.PendingLoads(); got != 0 {
		t.Errorf("PendingLoads = %d with every load completed", got)
	}
	if got := in.pending[sm].Cap(); got > 64 {
		t.Errorf("table holds %d slots after %d loads with %d in flight, want at most 64", got, rounds, window)
	}
	c := in.SM(sm)
	if c.MemData[WhereL2] != rounds || c.MemData[WhereRemoteL1] != rounds || c.Cycles[MemData] != 2*rounds {
		t.Errorf("buckets L2=%d remote=%d of %d MemData cycles, want %d each", c.MemData[WhereL2], c.MemData[WhereRemoteL1], c.Cycles[MemData], rounds)
	}
}
