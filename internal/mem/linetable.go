package mem

import "math/bits"

// LineTable maps line addresses to values of type V stored in place: an
// open-addressed, linearly probed power-of-two array, the per-line
// bookkeeping of the miss path (MSHRs, store-buffer membership, acks wanted,
// L2 fills in flight, DMA lines outstanding). The zero value is an empty
// table; it allocates on first Insert and doubles when half full, so its size
// follows the lines actually in flight, never a configured capacity.
//
// Remove closes the gap by backward shift, exchanging slots rather than
// overwriting them, so a vacated slot keeps whatever storage its value owned
// (an entry's slice of merged targets) and hands it to the next occupant:
// Insert returns the slot's previous value for the caller to reset.
//
// Pointers returned by Find and Insert are valid until the next Insert or
// Remove. Code that calls out while completing an entry must therefore take
// what it needs out of the entry and Remove it first (CoreMem.fill).
type LineTable[V any] struct {
	slots []lineSlot[V] // len is zero or a power of two
	n     int
	shift uint // 64 - log2(len(slots))
}

type lineSlot[V any] struct {
	line uint64
	used bool
	val  V
}

// home is line's preferred slot. Lines arrive at strides of the line size
// (one core's misses) or line size x banks (one bank's), so the multiplicative
// hash takes its index from the product's high bits, which every input bit
// reaches.
func (t *LineTable[V]) home(line uint64) int {
	return int(line * 0x9E3779B97F4A7C15 >> t.shift)
}

// Len returns the number of lines held.
func (t *LineTable[V]) Len() int { return t.n }

// index returns the slot holding line, or -1.
func (t *LineTable[V]) index(line uint64) int {
	if t.n == 0 {
		return -1
	}
	mask := len(t.slots) - 1
	for i := t.home(line); t.slots[i].used; i = (i + 1) & mask {
		if t.slots[i].line == line {
			return i
		}
	}
	return -1
}

// Find returns the value stored for line, or nil.
func (t *LineTable[V]) Find(line uint64) *V {
	if i := t.index(line); i >= 0 {
		return &t.slots[i].val
	}
	return nil
}

// Insert claims a slot for line, which must not be in the table, and returns
// its value as the slot's last occupant left it.
func (t *LineTable[V]) Insert(line uint64) *V {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	i := t.home(line)
	for t.slots[i].used {
		i = (i + 1) & mask
	}
	s := &t.slots[i]
	s.line, s.used = line, true
	t.n++
	return &s.val
}

// Remove deletes line and reports whether it was present.
func (t *LineTable[V]) Remove(line uint64) bool {
	i := t.index(line)
	if i < 0 {
		return false
	}
	mask := len(t.slots) - 1
	// Backward shift: a later member of the cluster moves into the gap
	// unless that would put it before its home slot. Distances are taken
	// modulo the array, so a cluster that wraps the end is one cluster.
	for j := (i + 1) & mask; t.slots[j].used; j = (j + 1) & mask {
		if (j-t.home(t.slots[j].line))&mask >= (j-i)&mask {
			t.slots[i], t.slots[j] = t.slots[j], t.slots[i]
			i = j
		}
	}
	t.slots[i].used = false
	t.n--
	return true
}

// grow doubles the array (four slots at first) and re-seats every entry;
// vacant slots' storage is dropped with the old array.
func (t *LineTable[V]) grow() {
	old := t.slots
	t.slots = make([]lineSlot[V], max(4, 2*len(old)))
	t.shift = uint(64 - bits.TrailingZeros(uint(len(t.slots))))
	mask := len(t.slots) - 1
	for k := range old {
		if !old[k].used {
			continue
		}
		i := t.home(old[k].line)
		for t.slots[i].used {
			i = (i + 1) & mask
		}
		t.slots[i] = old[k]
	}
}
