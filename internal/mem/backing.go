// Package mem implements the timing model of the tightly coupled CPU-GPU
// memory hierarchy: per-core L1 caches with MSHRs and write-combining store
// buffers, a banked NUCA L2 with an ownership directory, and a bandwidth-
// limited memory controller. Functional data lives in a single flat Backing
// store (the standard timing/functional split): caches and protocols decide
// *when* a value is available and *where* it was serviced, while values are
// always read from and written to the backing store, which keeps workloads
// functionally correct independent of timing bugs.
//
// Everything the units say to each other is one pointer-free value, Msg,
// copied from the sender's outbox through the mesh's rings into the receiver;
// whoever is handed a *Msg may use it during that call and copies it to keep
// it. Per-line bookkeeping on the same path (MSHRs, store-buffer membership,
// acks wanted, fills in flight) lives in LineTables, in place. A warmed memory
// system allocates nothing per transaction: docs/ARCHITECTURE.md, "The message
// path", has the invariants and the tests that hold them.
package mem

import "math/bits"

// backingPageWords is the word count of one Backing page (4 KiB). Pages are
// fixed arrays so word access is a shift and a mask, not a map probe.
const backingPageWords = 512

// backingPage holds one 4 KiB span of functional memory. present is a bitmap
// of words ever written, which keeps Footprint exact without a counter.
type backingPage struct {
	words   [backingPageWords]uint64
	present [backingPageWords / 64]uint64
}

// Backing is the flat functional memory shared by every core, a paged store
// of 8-byte-aligned addresses to 64-bit words. Reads of never-written words
// return zero.
//
// It is not safe for concurrent use and does not need to be: one goroutine
// owns a simulation, its Backing included, from gpu.New to the Report. The
// read-modify-write methods are "atomic" in the simulated machine's sense —
// the timing model serializes them at the L2 banks' directory (or the owning
// L1) — not in the host's.
type Backing struct {
	// pages maps a page index (addr >> 12) to its page. It stays a map: its
	// keys are every page a workload ever wrote, unbounded and sparse.
	pages map[uint64]*backingPage
}

// NewBacking returns an empty functional memory.
func NewBacking() *Backing { return &Backing{pages: make(map[uint64]*backingPage)} }

// word returns the word holding addr (aligned down to 8 bytes) for writing,
// creating its page if needed and recording the write in the presence bitmap.
func (b *Backing) word(addr uint64) *uint64 {
	p := b.pages[addr>>12]
	if p == nil {
		p = &backingPage{}
		b.pages[addr>>12] = p
	}
	s := (addr >> 3) & (backingPageWords - 1)
	p.present[s>>6] |= 1 << (s & 63)
	return &p.words[s]
}

// Load64 returns the word at addr (aligned down to 8 bytes).
func (b *Backing) Load64(addr uint64) uint64 {
	p := b.pages[addr>>12]
	if p == nil {
		return 0
	}
	return p.words[(addr>>3)&(backingPageWords-1)]
}

// Store64 writes the word at addr (aligned down to 8 bytes).
func (b *Backing) Store64(addr uint64, v uint64) { *b.word(addr) = v }

// Add64 adds delta to the word at addr and returns the previous value.
func (b *Backing) Add64(addr uint64, delta uint64) uint64 {
	w := b.word(addr)
	old := *w
	*w = old + delta
	return old
}

// CAS64 installs swap at addr if the current value equals cmp; it returns
// the previous value either way.
func (b *Backing) CAS64(addr uint64, cmp, swap uint64) uint64 {
	if old := b.Load64(addr); old != cmp {
		return old
	}
	*b.word(addr) = swap
	return cmp
}

// Exch64 stores v at addr and returns the previous value.
func (b *Backing) Exch64(addr uint64, v uint64) uint64 {
	w := b.word(addr)
	old := *w
	*w = v
	return old
}

// Footprint returns the number of distinct words ever written; tests use it
// to sanity-check workload initialization.
func (b *Backing) Footprint() int {
	n := 0
	for _, p := range b.pages {
		for _, w := range p.present {
			n += bits.OnesCount64(w)
		}
	}
	return n
}
