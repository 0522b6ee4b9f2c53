package mem

import (
	"math/rand"
	"testing"
)

// tableEntry is a value that owns storage, as an MSHR entry owns its merged
// targets: buf holds the entry's tag, so two live entries sharing one backing
// array, or an entry that moved without its storage, shows as a wrong tag.
type tableEntry struct {
	tag uint64
	buf []uint64
}

// TestLineTableMatchesMapModel drives a LineTable and a map through the same
// random inserts, finds and removes, at the two strides lines arrive with —
// the line size (one core's misses) and line size x banks (one bank's) — and
// checks after every step that they agree. It is vacuous unless clusters
// formed, wrapped the end of the array and were shifted back across it, the
// table grew at least twice, and vacated slots handed their storage on.
func TestLineTableMatchesMapModel(t *testing.T) {
	for _, stride := range []uint64{64, 64 * 16} {
		var tab LineTable[tableEntry]
		model := map[uint64]uint64{}
		var live []uint64 // the model's keys, for picking one at random
		rng := rand.New(rand.NewSource(int64(stride)))
		var growths, wrappedRemoves, fresh, reused int
		nextTag := uint64(1)
		for step := 0; step < 60000; step++ {
			// Lines come from a large universe; the number held at once is
			// capped in three stages, each exactly half of a table size,
			// so the table spends a long time as full as it gets — where
			// clusters form and wrap — before each growth.
			limit := 2 << (step / 20000) // 2, 4, 8 lines in 4, 8, 16 slots
			insert := len(live) == 0 || len(live) < limit && rng.Intn(2) == 0
			line := 0x4_0000 + rng.Uint64()%4096*stride
			if !insert {
				line = live[rng.Intn(len(live))]
			}
			tag, present := model[line]
			switch {
			case !present:
				if tab.Find(line) != nil {
					t.Fatalf("stride %d step %d: Find(%#x) found a line never inserted", stride, step, line)
				}
				slots := len(tab.slots)
				e := tab.Insert(line)
				if len(tab.slots) != slots {
					growths++
				}
				// What CoreMem.Load does: keep the slot's storage,
				// reset its length.
				if cap(e.buf) == 0 {
					fresh++
				} else {
					reused++
				}
				e.tag, e.buf = nextTag, append(e.buf[:0], nextTag)
				model[line] = nextTag
				live = append(live, line)
				nextTag++
			case !insert && rng.Intn(2) == 0:
				if wraps(&tab) {
					wrappedRemoves++
				}
				if !tab.Remove(line) {
					t.Fatalf("stride %d step %d: Remove(%#x) missed a held line", stride, step, line)
				}
				if tab.Remove(line) {
					t.Fatalf("stride %d step %d: Remove(%#x) removed twice", stride, step, line)
				}
				delete(model, line)
				for i, l := range live {
					if l == line {
						live[i] = live[len(live)-1]
						live = live[:len(live)-1]
						break
					}
				}
			default:
				if e := tab.Find(line); e == nil || e.tag != tag {
					t.Fatalf("stride %d step %d: Find(%#x) = %+v, want tag %d", stride, step, line, e, tag)
				}
			}
			if tab.Len() != len(model) {
				t.Fatalf("stride %d step %d: Len = %d, model holds %d", stride, step, tab.Len(), len(model))
			}
			for l, want := range model {
				e := tab.Find(l)
				if e == nil || e.tag != want || len(e.buf) != 1 || e.buf[0] != want {
					t.Fatalf("stride %d step %d: line %#x holds %+v, want tag %d with its own storage", stride, step, l, e, want)
				}
			}
		}
		if growths < 3 { // the first allocation and two doublings
			t.Errorf("stride %d: table grew %d times, want the first allocation and two doublings", stride, growths)
		}
		if wrappedRemoves < 100 {
			t.Errorf("stride %d: only %d removes with a cluster wrapped round the array end", stride, wrappedRemoves)
		}
		// Storage is allocated when a slot is first used and lost only
		// with the old array on growth: a few dozen times in 60000 steps.
		if fresh > 2*len(tab.slots) || reused < 1000 {
			t.Errorf("stride %d: %d inserts allocated storage, %d reused a vacated slot's (%d slots)",
				stride, fresh, reused, len(tab.slots))
		}
	}
}

// wraps reports whether some entry sits below its home slot, that is, in a
// cluster that runs off the end of the array and continues at its start.
func wraps[V any](t *LineTable[V]) bool {
	for i := range t.slots {
		if t.slots[i].used && i < t.home(t.slots[i].line) {
			return true
		}
	}
	return false
}

// TestLineTableHandsStorageOn: the storage a removed value owned is what the
// next value placed in that slot is handed, also when the removal shifted a
// neighbour into the gap.
func TestLineTableHandsStorageOn(t *testing.T) {
	var tab LineTable[tableEntry]
	tab.Insert(0).buf = nil // allocate the array
	tab.Remove(0)
	// Two lines sharing a home slot, found by search.
	a := uint64(64)
	b := a + 64
	for tab.home(b) != tab.home(a) {
		b += 64
	}
	ea := tab.Insert(a)
	ea.buf = make([]uint64, 3, 8)
	storage := &ea.buf[0]
	tab.Insert(b).buf = nil
	tab.Remove(a) // b shifts back into a's slot; a's storage moves to b's old one
	if e := tab.Find(b); e == nil || e.buf != nil {
		t.Fatalf("the shifted entry holds %+v, want its own nil storage", e)
	}
	e := tab.Insert(a) // probes past b into the vacated slot
	if cap(e.buf) != 8 || &e.buf[:1][0] != storage {
		t.Fatalf("the next occupant was handed %d-cap storage, want the removed entry's 8", cap(e.buf))
	}
}
