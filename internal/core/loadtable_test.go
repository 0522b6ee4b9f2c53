package core

import (
	"math/rand"
	"testing"
)

// modelRec is the plain-map model's view of one load: its payload, and
// whether it is still live.
type modelRec struct {
	val  uint64
	live bool
}

// checkTableAgainstModel compares the table with the map model entry by
// entry: a live load is found live with its payload, a retired one is
// either still found (retired, same payload) or has been reclaimed, and
// nothing is found that the model never stored.
func checkTableAgainstModel(t *testing.T, step int, tab *LoadTable[uint64], model map[LoadID]modelRec) {
	t.Helper()
	live := 0
	for id, m := range model {
		rec, isLive := tab.Find(id)
		switch {
		case m.live && (rec == nil || !isLive || *rec != m.val):
			t.Fatalf("step %d: live load %d: found %v live=%v, want %d", step, id, rec, isLive, m.val)
		case !m.live && isLive:
			t.Fatalf("step %d: retired load %d found live", step, id)
		case !m.live && rec != nil && *rec != m.val:
			t.Fatalf("step %d: retired load %d resolves to %d, want %d", step, id, *rec, m.val)
		}
		if m.live {
			live++
		}
	}
	if tab.Live() != live {
		t.Fatalf("step %d: Live() = %d, model has %d", step, tab.Live(), live)
	}
}

// runTableModel drives a table and the map model with one random
// interleaving of insert, lookup, in-order and out-of-order retire. nextID
// draws the ids; window bounds the loads in flight.
func runTableModel(t *testing.T, seed int64, stride, window int, nextID func(seq int) LoadID) *LoadTable[uint64] {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tab := NewLoadTable[uint64](stride)
	model := map[LoadID]modelRec{}
	var inflight []LoadID // issue order
	seq := 0
	for step := 0; step < 6000; step++ {
		switch op := rng.Intn(10); {
		case op < 5 && len(inflight) < window:
			id := nextID(seq)
			seq++
			val := rng.Uint64()
			*tab.Insert(id) = val
			model[id] = modelRec{val: val, live: true}
			inflight = append(inflight, id)
		case op < 8 && len(inflight) > 0:
			// Retire: the oldest half the time, a random one otherwise.
			i := 0
			if rng.Intn(2) == 0 {
				i = rng.Intn(len(inflight))
			}
			id := inflight[i]
			inflight = append(inflight[:i], inflight[i+1:]...)
			tab.Retire(id)
			m := model[id]
			m.live = false
			model[id] = m
			// The just-retired record must still resolve.
			if rec, live := tab.Find(id); rec == nil || live || *rec != m.val {
				t.Fatalf("step %d: load %d unresolvable right after Retire", step, id)
			}
		case len(inflight) > 0:
			// Mutate a live record through Find.
			id := inflight[rng.Intn(len(inflight))]
			rec, _ := tab.Find(id)
			if rec == nil {
				t.Fatalf("step %d: live load %d not found", step, id)
			}
			*rec++
			m := model[id]
			m.val++
			model[id] = m
		}
		if step%64 == 0 {
			checkTableAgainstModel(t, step, tab, model)
		}
	}
	checkTableAgainstModel(t, -1, tab, model)
	if rec, _ := tab.Find(nextID(seq)); rec != nil {
		t.Fatalf("found a load that was never inserted")
	}
	return tab
}

// TestLoadTableMatchesMapModel: striped ids, as gpu.SM.nextLoadID draws
// them, across at least two growths.
func TestLoadTableMatchesMapModel(t *testing.T) {
	const stride, sm = 15, 3
	striped := func(seq int) LoadID { return LoadID(seq*stride + sm + 1) }
	for seed := int64(0); seed < 8; seed++ {
		tab := runTableModel(t, seed, stride, 5*loadTableInitial, striped)
		if tab.Cap() < 4*loadTableInitial {
			t.Fatalf("seed %d: capacity %d: the run did not cross two growths", seed, tab.Cap())
		}
		if tab.Cap() > 64*loadTableInitial {
			t.Errorf("seed %d: capacity %d for a window of %d loads", seed, tab.Cap(), 5*loadTableInitial)
		}
	}
}

// TestLoadTableArbitraryIDs: correctness must not depend on the striping.
// Consecutive ids under a stride of 15 share sequence numbers, which no
// amount of doubling separates; random ids collide at random.
func TestLoadTableArbitraryIDs(t *testing.T) {
	runTableModel(t, 1, 15, 40, func(seq int) LoadID { return LoadID(seq + 1) })
	rng := rand.New(rand.NewSource(2))
	seen := map[LoadID]bool{}
	runTableModel(t, 2, 4, 24, func(int) LoadID {
		for {
			if id := LoadID(rng.Intn(1<<20) + 1); !seen[id] {
				seen[id] = true
				return id
			}
		}
	})
}

// TestLoadTableDrain: Drain visits exactly the live records and leaves the
// table empty.
func TestLoadTableDrain(t *testing.T) {
	tab := NewLoadTable[uint64](1)
	for id := LoadID(1); id <= 40; id++ {
		*tab.Insert(id) = uint64(id)
	}
	for id := LoadID(2); id <= 40; id += 2 {
		tab.Retire(id)
	}
	var sum uint64
	tab.Drain(func(rec *uint64) { sum += *rec })
	if sum != 20*20 { // 1+3+…+39
		t.Errorf("Drain visited records summing to %d, want 400", sum)
	}
	if tab.Live() != 0 {
		t.Errorf("Live() = %d after Drain", tab.Live())
	}
	for id := LoadID(1); id <= 40; id++ {
		if rec, _ := tab.Find(id); rec != nil {
			t.Fatalf("load %d still found after Drain", id)
		}
	}
}
