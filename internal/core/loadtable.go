package core

// loadTableInitial is a fresh LoadTable's slot count: enough for the loads
// one SM keeps in flight on most workloads, small enough that building a
// GPU costs a few hundred bytes per SM.
const loadTableInitial = 16

// LoadTable holds one record of type T per in-flight load of one SM, in a
// power-of-two array indexed directly by the load's sequence number.
//
// Load IDs are a per-SM sequence striped by the SM count (see
// gpu.SM.nextLoadID), so (id-1)/stride counts an SM's loads 0, 1, 2, … and
// the loads in flight at any moment occupy a short window of that count: a
// table a little larger than the window never collides. The slot stores the
// id it holds and every access checks it, so ids that do not follow the
// striping are still stored and found correctly; they only make the table
// grow sooner.
//
// A record is live from Insert until Retire. A retired record stays findable
// — the Inspector resolves stalls charged to a load in its completion cycle
// from it — until a later Insert claims its slot. The table doubles only
// when Insert finds its slot held by a different live load, so memory is
// bounded by the in-flight high-water mark, not by the loads ever issued.
//
// Pointers returned by Find and Insert are valid until the next Insert.
type LoadTable[T any] struct {
	stride uint64
	slots  []loadSlot[T] // len is a power of two
	live   int
}

// loadSlot is one table entry; id 0 (never a real load) marks it empty.
type loadSlot[T any] struct {
	id   LoadID
	live bool
	rec  T
}

// NewLoadTable returns an empty table for load IDs striped by stride (the
// number of SMs drawing from the ID space).
func NewLoadTable[T any](stride int) *LoadTable[T] {
	if stride < 1 {
		stride = 1
	}
	return &LoadTable[T]{
		stride: uint64(stride),
		slots:  make([]loadSlot[T], loadTableInitial),
	}
}

func (t *LoadTable[T]) slot(id LoadID, n int) int {
	return int((uint64(id)-1)/t.stride) & (n - 1)
}

// Find returns the record stored for id and whether it is still live; the
// record is nil when id was never inserted or its slot has been reclaimed.
func (t *LoadTable[T]) Find(id LoadID) (rec *T, live bool) {
	s := &t.slots[t.slot(id, len(t.slots))]
	if s.id != id || id == 0 {
		return nil, false
	}
	return &s.rec, s.live
}

// Insert claims a slot for id, which must not be live in the table, and
// returns its zeroed record. A retired occupant is overwritten; a live one
// makes the table grow until the two no longer share a slot.
func (t *LoadTable[T]) Insert(id LoadID) *T {
	s := &t.slots[t.slot(id, len(t.slots))]
	for s.live {
		t.grow(s.id, id)
		s = &t.slots[t.slot(id, len(t.slots))]
	}
	*s = loadSlot[T]{id: id, live: true}
	t.live++
	return &s.rec
}

// Retire ends id's life: Live stops counting it and its slot may be claimed
// by a later Insert, but until then Find still returns its record.
func (t *LoadTable[T]) Retire(id LoadID) {
	s := &t.slots[t.slot(id, len(t.slots))]
	if s.id == id && s.live {
		s.live = false
		t.live--
	}
}

// grow rebuilds the table so that the live load held and the load wanted
// stop colliding: at twice the size, or — when the two share a sequence
// number, which striped ids never do — with the striping abandoned.
func (t *LoadTable[T]) grow(held, wanted LoadID) {
	n := len(t.slots) * 2
	if (uint64(held)-1)/t.stride == (uint64(wanted)-1)/t.stride {
		t.stride, n = 1, len(t.slots)
	}
retry:
	next := make([]loadSlot[T], n)
	for i := range t.slots {
		s := &t.slots[i]
		if s.id == 0 {
			continue
		}
		d := &next[t.slot(s.id, n)]
		if d.live && s.live {
			// Only possible after the stride changed: doubling alone
			// never maps two occupied slots onto one.
			n *= 2
			goto retry
		}
		if s.live || d.id == 0 {
			*d = *s
		}
	}
	t.slots = next
}

// Live returns the number of records inserted and not yet retired.
func (t *LoadTable[T]) Live() int { return t.live }

// Cap returns the table's current slot count.
func (t *LoadTable[T]) Cap() int { return len(t.slots) }

// Drain calls f for every live record and empties the table, keeping its
// capacity.
func (t *LoadTable[T]) Drain(f func(rec *T)) {
	for i := range t.slots {
		if s := &t.slots[i]; s.live {
			f(&s.rec)
		}
	}
	clear(t.slots)
	t.live = 0
}
