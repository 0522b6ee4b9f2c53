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
type Array struct {
	lineSize uint64
	assoc    int
	sets     [][]Way
	// occupied has one bit per set, set when a line is installed there and
	// cleared when an InvalidateWhere sweep leaves the set empty.
	// Invalidate(line) may leave a bit stale, which costs that sweep one
	// empty-set visit and nothing else.
	occupied []uint64
	valid    int // valid lines across all sets (keeps Count O(1))
}

// NewArray builds an array of the given total size in bytes.
func NewArray(size, assoc, lineSize int) *Array {
	nsets := size / (assoc * lineSize)
	if nsets <= 0 {
		panic(fmt.Sprintf("mem: array size %d too small for assoc %d line %d", size, assoc, lineSize))
	}
	return &Array{
		lineSize: uint64(lineSize),
		assoc:    assoc,
		sets:     make([][]Way, nsets),
		occupied: make([]uint64, (nsets+63)/64),
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
		a.occupied[s>>6] |= 1 << uint(s&63)
	}
	*target = Way{Line: line, State: LineValid, lastUse: cycle}
	return target, victim, evicted
}

// InvalidateWhere clears every way for which keep returns false. Only sets
// marked occupied are visited, so an acquire self-invalidation costs O(sets
// holding lines), not O(capacity): nothing on a cold or fully-invalidated
// L1 (the common case under GPU coherence, which keeps nothing across
// acquires) and a few sets when a handful of owned lines survive.
func (a *Array) InvalidateWhere(keep func(w *Way) bool) {
	for wi, word := range a.occupied {
		for ; word != 0; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			set := a.sets[wi<<6|b]
			kept := false
			for i := range set {
				if set[i].State == LineInvalid {
					continue
				}
				if keep(&set[i]) {
					kept = true
				} else {
					set[i] = Way{}
					a.valid--
				}
			}
			if !kept {
				a.occupied[wi] &^= 1 << uint(b)
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
