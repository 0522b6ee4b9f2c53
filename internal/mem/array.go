package mem

import (
	"fmt"
	"math/bits"
)

// Way is one way of a set-associative array.
type Way struct {
	Line    uint64 // line base address (tag+index combined; unambiguous)
	State   LineState
	Dirty   bool
	Pinned  bool // pending store-buffer flush: not evictable
	lastUse uint64
}

// Array is a set-associative cache tag array with LRU replacement. It
// tracks presence and state only; data lives in the Backing store.
//
// A set's ways are allocated by the first Install into it, never at
// construction: the L2's 65,536 ways were 29 of the 38 MB a small-scale
// figure pass allocated, most of them for sets its short simulations never
// reach. A nil set reads as empty, so only Install knows the difference.
//
// An acquire's sweep visits only the sets that may hold a line it drops.
type Array struct {
	lineSize uint64
	assoc    int
	sets     [][]Way
	// droppable has one bit per set that may hold a way an acquire drops
	// (see dropUnkept). A bit is set wherever a way can enter that state —
	// Install of a new line, and markDroppable when CoreMem retires a
	// line's flush — and cleared only by the sweep, which leaves no
	// droppable way behind. A way that leaves the state (dirtied, owned,
	// invalidated) may leave its bit stale, which costs one visit.
	droppable []uint64
	valid     int // valid lines across all sets (keeps Count O(1))
}

// NewArray builds an array of the given total size in bytes.
func NewArray(size, assoc, lineSize int) *Array {
	nsets := size / (assoc * lineSize)
	if nsets <= 0 {
		panic(fmt.Sprintf("mem: array size %d too small for assoc %d line %d", size, assoc, lineSize))
	}
	return &Array{
		lineSize:  uint64(lineSize),
		assoc:     assoc,
		sets:      make([][]Way, nsets),
		droppable: make([]uint64, (nsets+63)/64),
	}
}

// setIndex maps a line address to its set.
func (a *Array) setIndex(line uint64) int {
	return int((line / a.lineSize) % uint64(len(a.sets)))
}

// Lookup returns the way holding line, or nil. It refreshes LRU on hit.
func (a *Array) Lookup(line uint64, cycle uint64) *Way {
	set := a.sets[a.setIndex(line)]
	for i := range set {
		if set[i].State != LineInvalid && set[i].Line == line {
			set[i].lastUse = cycle
			return &set[i]
		}
	}
	return nil
}

// Peek is Lookup without the LRU refresh.
func (a *Array) Peek(line uint64) *Way {
	set := a.sets[a.setIndex(line)]
	for i := range set {
		if set[i].State != LineInvalid && set[i].Line == line {
			return &set[i]
		}
	}
	return nil
}

// Install places line into its set, evicting the LRU non-pinned way if the
// set is full. It returns the installed way and, when an eviction occurred,
// the victim's pre-eviction copy. If every way is pinned, Install returns
// (nil, Way{}, false) and the caller must retry later.
func (a *Array) Install(line uint64, cycle uint64) (w *Way, victim Way, evicted bool) {
	s := a.setIndex(line)
	set := a.sets[s]
	if set == nil {
		set = make([]Way, a.assoc)
		a.sets[s] = set
	}
	var free *Way
	var lru *Way
	for i := range set {
		way := &set[i]
		if way.State == LineInvalid {
			if free == nil {
				free = way
			}
			continue
		}
		if way.Line == line {
			// Already present; treat as a refresh.
			way.lastUse = cycle
			return way, Way{}, false
		}
		if way.Pinned {
			continue
		}
		if lru == nil || way.lastUse < lru.lastUse {
			lru = way
		}
	}
	target := free
	if target == nil {
		if lru == nil {
			return nil, Way{}, false
		}
		victim = *lru
		evicted = true
		target = lru
	} else {
		a.valid++
	}
	*target = Way{Line: line, State: LineValid, lastUse: cycle}
	a.droppable[s>>6] |= 1 << uint(s&63)
	return target, victim, evicted
}

// markDroppable flags line's set for the next dropUnkept sweep.
func (a *Array) markDroppable(line uint64) {
	s := a.setIndex(line)
	a.droppable[s>>6] |= 1 << uint(s&63)
}

// dropUnkept is an acquire self-invalidation: it clears every valid way
// that is neither pinned nor in a state keep holds a bit for (1<<State),
// visiting only the sets flagged droppable, and clears their flags. So an
// acquire costs O(sets holding a line it drops): the lines a DeNovo L1
// owns survive every acquire without being revisited.
func (a *Array) dropUnkept(keep uint8) {
	for wi, word := range a.droppable {
		a.droppable[wi] = 0
		for ; word != 0; word &= word - 1 {
			set := a.sets[wi<<6|bits.TrailingZeros64(word)]
			for i := range set {
				if w := &set[i]; w.State != LineInvalid && !w.Pinned && keep&(1<<w.State) == 0 {
					*w = Way{}
					a.valid--
				}
			}
		}
	}
}

// Invalidate drops line if present, returning its prior copy.
func (a *Array) Invalidate(line uint64) (Way, bool) {
	set := a.sets[a.setIndex(line)]
	for i := range set {
		if set[i].State != LineInvalid && set[i].Line == line {
			old := set[i]
			set[i] = Way{}
			a.valid--
			return old, true
		}
	}
	return Way{}, false
}

// Count returns the number of valid lines (tests and stats).
func (a *Array) Count() int { return a.valid }
