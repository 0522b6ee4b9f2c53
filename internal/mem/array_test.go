package mem

import (
	"math/rand"
	"testing"
	"unsafe"
)

// tiny array: 2 sets x 2 ways x 64-byte lines = 256 bytes.
func tinyArray() *Array { return NewArray(256, 2, 64) }

func TestArrayLookupInstall(t *testing.T) {
	a := tinyArray()
	if a.Lookup(0, 0) != nil {
		t.Fatal("empty array hit")
	}
	w, _, evicted := a.Install(0, 1)
	if w == nil || evicted {
		t.Fatalf("install: w=%v evicted=%v", w, evicted)
	}
	if got := a.Lookup(0, 2); got == nil || got.Line != 0 {
		t.Fatal("installed line not found")
	}
	if a.Count() != 1 {
		t.Fatalf("count = %d", a.Count())
	}
}

func TestArrayReinstallRefreshes(t *testing.T) {
	a := tinyArray()
	a.Install(0, 1)
	w, _, evicted := a.Install(0, 2)
	if evicted || w == nil {
		t.Fatal("reinstall evicted or failed")
	}
	if a.Count() != 1 {
		t.Fatalf("count = %d after reinstall", a.Count())
	}
}

func TestArrayLRUEviction(t *testing.T) {
	a := tinyArray()
	// Lines 0, 128, 256 all map to set 0 (set = line/64 % 2).
	a.Install(0, 1)
	a.Install(128, 2)
	a.Lookup(0, 3) // refresh line 0; line 128 becomes LRU
	_, victim, evicted := a.Install(256, 4)
	if !evicted || victim.Line != 128 {
		t.Fatalf("victim = %+v evicted=%v, want line 128", victim, evicted)
	}
	if a.Lookup(0, 5) == nil || a.Lookup(256, 5) == nil {
		t.Fatal("survivors missing")
	}
}

func TestArrayPinnedNotEvicted(t *testing.T) {
	a := tinyArray()
	w0, _, _ := a.Install(0, 1)
	w0.Pinned = true
	w1, _, _ := a.Install(128, 2)
	w1.Pinned = true
	w, _, _ := a.Install(256, 3)
	if w != nil {
		t.Fatal("install succeeded with all ways pinned")
	}
	w1.Pinned = false
	w, victim, evicted := a.Install(256, 4)
	if w == nil || !evicted || victim.Line != 128 {
		t.Fatalf("unpinned way not chosen: victim=%+v", victim)
	}
}

func TestArrayInvalidateWhere(t *testing.T) {
	a := tinyArray()
	w, _, _ := a.Install(0, 1)
	w.State = LineOwned
	a.Install(64, 1)
	a.Install(128, 1)
	// Keep only owned lines (DeNovo acquire semantics).
	a.InvalidateWhere(func(w *Way) bool { return w.State == LineOwned })
	if a.Count() != 1 {
		t.Fatalf("count = %d, want 1", a.Count())
	}
	if a.Peek(0) == nil {
		t.Fatal("owned line invalidated")
	}
}

// TestArrayInvalidateWhereMatchesFullWalk: under random installs, line
// invalidations and way mutations, the occupancy-driven sweep must drop
// exactly the ways a brute-force walk over every set would drop, leave the
// kept ways untouched, and keep Count in step. 130 sets span three bitmap
// words, the last one partial.
func TestArrayInvalidateWhereMatchesFullWalk(t *testing.T) {
	if got := unsafe.Sizeof(Way{}); got != 24 {
		t.Fatalf("Way is %d bytes, want 24 (the L2 holds 65,536 of them per simulation)", got)
	}
	keeps := []func(w *Way) bool{
		func(w *Way) bool { return w.Pinned || w.State == LineOwned },
		func(w *Way) bool { return w.Dirty },
		func(w *Way) bool { return w.Line%192 == 0 },
		func(w *Way) bool { return false },
		func(w *Way) bool { return true },
	}
	rng := rand.New(rand.NewSource(1))
	const nsets, assoc, lineSize = 130, 2, 64
	a := NewArray(nsets*assoc*lineSize, assoc, lineSize)
	line := func() uint64 { return uint64(rng.Intn(4*nsets)) * lineSize }
	for round := 0; round < 400; round++ {
		// Early rounds touch a few sets, later ones fill the array.
		for n := rng.Intn(1 + round); n > 0; n-- {
			switch rng.Intn(6) {
			case 0:
				a.Invalidate(line())
			case 1:
				if w := a.Peek(line()); w != nil {
					w.Dirty = !w.Dirty
				}
			case 2:
				if w := a.Peek(line()); w != nil {
					w.Pinned = !w.Pinned
				}
			case 3:
				if w := a.Peek(line()); w != nil {
					w.State = LineValid + LineState(rng.Intn(2))
				}
			default:
				a.Install(line(), uint64(round))
			}
		}
		keep := keeps[rng.Intn(len(keeps))]
		want := make([][]Way, len(a.sets))
		valid := 0
		for s, set := range a.sets {
			want[s] = make([]Way, len(set))
			for i := range set {
				if set[i].State != LineInvalid && keep(&set[i]) {
					want[s][i] = set[i]
					valid++
				}
			}
		}
		a.InvalidateWhere(keep)
		for s, set := range a.sets {
			for i := range set {
				if set[i] != want[s][i] {
					t.Fatalf("round %d set %d way %d = %+v, full walk leaves %+v", round, s, i, set[i], want[s][i])
				}
			}
		}
		if a.Count() != valid {
			t.Fatalf("round %d: Count = %d, full walk counts %d", round, a.Count(), valid)
		}
	}
}

// BenchmarkSelfInvalidateFewOwned is the lock-acquire shape: a 32 KB 8-way
// L1 (512 ways) in which four owned lines survive every acquire.
func BenchmarkSelfInvalidateFewOwned(b *testing.B) {
	a := NewArray(32<<10, 8, 64)
	for i := uint64(0); i < 4; i++ {
		w, _, _ := a.Install(i*64*17, 0)
		w.State = LineOwned
	}
	keep := func(w *Way) bool { return w.Pinned || w.State == LineOwned }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.InvalidateWhere(keep)
	}
	if a.Count() != 4 {
		b.Fatalf("count = %d, want the 4 owned lines", a.Count())
	}
}

// TestArrayAllocatesSetsOnFirstInstall: a set costs nothing until a line is
// installed in it, reads as empty until then, and is allocated once — a
// second line in the same set, a refresh, an eviction, and a reinstall
// after the set was emptied allocate nothing more.
func TestArrayAllocatesSetsOnFirstInstall(t *testing.T) {
	const nsets, assoc, lineSize = 256, 16, 64
	a := NewArray(nsets*assoc*lineSize, assoc, lineSize)
	allocated := func() (n int) {
		for _, set := range a.sets {
			if set != nil {
				n++
			}
		}
		return n
	}
	line := func(set, tag int) uint64 { return uint64(tag*nsets+set) * lineSize }
	if a.Lookup(line(3, 0), 0) != nil || a.Peek(line(3, 0)) != nil {
		t.Fatal("empty array hit")
	}
	if _, ok := a.Invalidate(line(3, 0)); ok {
		t.Fatal("empty array invalidated a line")
	}
	a.InvalidateWhere(func(*Way) bool { return false })
	if n := allocated(); n != 0 {
		t.Fatalf("%d sets allocated before any install", n)
	}
	for tag := 0; tag <= assoc; tag++ { // one past full: the last install evicts
		if w, _, _ := a.Install(line(3, tag), uint64(tag)); w == nil || len(a.sets[3]) != assoc {
			t.Fatalf("install %d: way %v in a set of %d ways, want %d", tag, w, len(a.sets[3]), assoc)
		}
	}
	a.Install(line(200, 0), 0)
	if n := allocated(); n != 2 {
		t.Fatalf("%d sets allocated, want the 2 installed into", n)
	}
	a.InvalidateWhere(func(*Way) bool { return false })
	if got := testing.AllocsPerRun(10, func() {
		a.Install(line(3, 1), 1)
		a.Install(line(200, 5), 1)
		a.InvalidateWhere(func(*Way) bool { return false })
	}); got != 0 {
		t.Fatalf("reinstalling into emptied sets allocates %.0f times", got)
	}
}

func TestArrayInvalidateLine(t *testing.T) {
	a := tinyArray()
	a.Install(0, 1)
	old, ok := a.Invalidate(0)
	if !ok || old.Line != 0 {
		t.Fatalf("invalidate = %+v, %v", old, ok)
	}
	if _, ok := a.Invalidate(0); ok {
		t.Fatal("double invalidate reported a line")
	}
}

func TestArrayGeometryPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewArray(64, 2, 64) // zero sets
}
