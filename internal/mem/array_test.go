package mem

import (
	"math/bits"
	"math/rand"
	"testing"
	"unsafe"

	"gsi/internal/sim"
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

func TestArrayDropUnkept(t *testing.T) {
	a := tinyArray()
	w, _, _ := a.Install(0, 1)
	w.State = LineOwned
	a.Install(64, 1)
	a.Install(128, 1)
	// Keep only owned lines (DeNovo acquire semantics).
	a.dropUnkept(1 << LineOwned)
	if a.Count() != 1 {
		t.Fatalf("count = %d, want 1", a.Count())
	}
	if a.Peek(0) == nil {
		t.Fatal("owned line invalidated")
	}
}

// ownershipPolicy mirrors coherence.DeNovo inside the package (the real
// policies import it): owned lines and pending dirty lines survive an
// acquire. plainPolicy is its GPU-coherence counterpart, which keeps only
// the pending dirty lines.
type ownershipPolicy struct{ plainPolicy }

func (ownershipPolicy) KeepOnAcquire(s LineState, dirty bool) bool { return dirty || s == LineOwned }
func (ownershipPolicy) UsesOwnership() bool                        { return true }

// policyCore returns core 0 of a system whose every core runs policy p with
// an L1 of nsets sets of assoc ways.
func policyCore(t *testing.T, p Policy, nsets, assoc int) *CoreMem {
	t.Helper()
	cfg := sim.Default()
	cfg.L1Size, cfg.L1Assoc = nsets*assoc*cfg.LineSize, assoc
	policies := make([]Policy, cfg.NumCores())
	for i := range policies {
		policies[i] = p
	}
	sys, err := NewSystem(cfg, policies)
	if err != nil {
		t.Fatal(err)
	}
	return sys.Cores[0]
}

// flagged counts the sets the next acquire visits.
func flagged(a *Array) (n int) {
	for _, word := range a.droppable {
		n += bits.OnesCount64(word)
	}
	return n
}

// TestSelfInvalidateMatchesFullWalk: under a random sequence of the
// operations that change an L1 way — install, store (dirty and pinned),
// flush completion, ownership grant (by OwnAck or by an owned atomic's
// install), ownership loss and acquire — under both kinds of policy, every
// way the policy would drop lies in a set flagged droppable after every
// operation, and an acquire drops exactly the ways a brute-force walk over
// every set drops, leaving the kept ways untouched and Count in step. 130
// sets span three bitmap words, the last one partial.
func TestSelfInvalidateMatchesFullWalk(t *testing.T) {
	if got := unsafe.Sizeof(Way{}); got != 24 {
		t.Fatalf("Way is %d bytes, want 24 (the L2 holds 65,536 of them per simulation)", got)
	}
	const nsets, assoc = 130, 2
	for _, p := range []Policy{plainPolicy{}, ownershipPolicy{}} {
		c := policyCore(t, p, nsets, assoc)
		a := c.array
		drops := func(w *Way) bool {
			return w.State != LineInvalid && !w.Pinned && !p.KeepOnAcquire(w.State, w.Dirty)
		}
		rng := rand.New(rand.NewSource(1))
		line := func() uint64 { return uint64(rng.Intn(4*nsets)) * c.lineSize }
		acquires := 0
		for op := 0; op < 20000; op++ {
			cycle := uint64(op)
			l := line()
			kind := rng.Intn(7)
			switch kind {
			case 0: // a fill
				if _, victim, evicted := a.Install(l, cycle); evicted {
					c.evict(victim)
				}
			case 1:
				c.markDirty(l)
			case 2: // a WriteAck, or an OwnAck whose line was evicted
				c.completeFlush(l)
			case 3:
				c.Deliver(&Msg{Kind: OwnAck, Addr: l}, cycle)
			case 4: // a relaxed owned atomic's response installs the line owned
				c.Deliver(&Msg{Kind: AtomicResp, Addr: l, Own: true}, cycle)
			case 5:
				c.Deliver(&Msg{Kind: OwnTransfer, Addr: l}, cycle)
			case 6:
				acquires++
				want := make([][]Way, len(a.sets))
				valid := 0
				for s, set := range a.sets {
					want[s] = append([]Way(nil), set...)
					for i := range set {
						if drops(&set[i]) {
							want[s][i] = Way{}
						} else if set[i].State != LineInvalid {
							valid++
						}
					}
				}
				c.SelfInvalidate()
				for s, set := range a.sets {
					for i := range set {
						if set[i] != want[s][i] {
							t.Fatalf("%s op %d: set %d way %d = %+v, full walk leaves %+v", p.Name(), op, s, i, set[i], want[s][i])
						}
					}
				}
				if a.Count() != valid {
					t.Fatalf("%s op %d: Count = %d, full walk counts %d", p.Name(), op, a.Count(), valid)
				}
				if n := flagged(a); n != 0 {
					t.Fatalf("%s op %d: %d sets still flagged after an acquire", p.Name(), op, n)
				}
			}
			for s, set := range a.sets {
				for i := range set {
					if drops(&set[i]) && a.droppable[s>>6]&(1<<uint(s&63)) == 0 {
						t.Fatalf("%s op %d (kind %d): set %d way %d %+v is droppable but the set is not flagged",
							p.Name(), op, kind, s, i, set[i])
					}
				}
			}
		}
		if acquires == 0 || a.Count() == 0 {
			t.Fatalf("%s: %d acquires, %d lines left: the sequence exercised nothing", p.Name(), acquires, a.Count())
		}
	}
}

// TestAcquireSkipsOwnedAndPinnedSets: once one acquire has swept the sets a
// DeNovo L1's stores and ownership grants flagged, an L1 holding only owned
// and pinned lines gives the next acquire no set to visit, however many
// lines it holds.
func TestAcquireSkipsOwnedAndPinnedSets(t *testing.T) {
	c := policyCore(t, ownershipPolicy{}, 64, 8)
	for i := uint64(0); i < 96; i++ {
		line := i * 3 * c.lineSize
		c.markDirty(line)
		if i%2 == 0 {
			c.Deliver(&Msg{Kind: OwnAck, Addr: line}, i)
		}
	}
	c.SelfInvalidate()
	if n := c.array.Count(); n != 96 {
		t.Fatalf("acquire dropped an owned or pinned line: %d of 96 left", n)
	}
	for i := 0; i < 3; i++ {
		if n := flagged(c.array); n != 0 {
			t.Fatalf("acquire %d visits %d sets of an L1 holding only owned and pinned lines", i+2, n)
		}
		c.SelfInvalidate()
	}
	// Retiring a pinned line's flush leaves it droppable: its set, and
	// only its set, is flagged.
	c.completeFlush(3 * c.lineSize)
	if n := flagged(c.array); n != 1 {
		t.Fatalf("a retired flush flagged %d sets, want 1", n)
	}
	c.SelfInvalidate()
	if n := c.array.Count(); n != 95 {
		t.Fatalf("%d lines left, want 95", n)
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.dropUnkept(1 << LineOwned)
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
	a.dropUnkept(0)
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
	a.dropUnkept(0)
	if got := testing.AllocsPerRun(10, func() {
		a.Install(line(3, 1), 1)
		a.Install(line(200, 5), 1)
		a.dropUnkept(0)
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
