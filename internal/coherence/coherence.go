// Package coherence implements the two GPU coherence protocols the paper
// compares (section 6.1): conventional software-driven GPU coherence and
// the DeNovo hybrid protocol with L1 ownership. Both plug into the memory
// system through the mem.Policy interface.
//
// Policies are stateless value types: every method is a pure function of
// its arguments, so one policy value serves every core.
package coherence

import "gsi/internal/mem"

// GPUCoherence is the baseline protocol of modern GPUs: reader-initiated
// invalidation (an acquire self-invalidates the entire L1) and write-through
// of dirty data to the shared L2 on every store buffer flush. Simple, but
// frequent synchronization destroys L1 reuse and every release pays for a
// full write-through of the dirty lines.
type GPUCoherence struct{}

// Name implements mem.Policy.
func (GPUCoherence) Name() string { return "GPU coherence" }

// KeepOnAcquire implements mem.Policy: only lines with unflushed store
// buffer data survive (they are this core's own writes; everything else is
// conservatively invalidated because the protocol tracks no sharers).
func (GPUCoherence) KeepOnAcquire(state mem.LineState, dirty bool) bool {
	return dirty
}

// FlushLine implements mem.Policy: every dirty line is written through to
// the L2.
func (GPUCoherence) FlushLine(state mem.LineState) mem.FlushAction {
	return mem.FlushWriteThrough
}

// UsesOwnership implements mem.Policy.
func (GPUCoherence) UsesOwnership() bool { return false }

// DeNovo is the hybrid hardware-software protocol: acquires self-invalidate
// only unowned (clean) lines, and store buffer flushes *register ownership*
// of dirty lines at the L2 directory instead of moving data. Owned lines
// survive acquires, serve local hits across synchronization points, answer
// remote readers directly (remote L1 hits), and make repeat releases free —
// the effects GSI's breakdowns isolate in case study 1.
type DeNovo struct{}

// Name implements mem.Policy.
func (DeNovo) Name() string { return "DeNovo" }

// KeepOnAcquire implements mem.Policy: owned lines and pending dirty lines
// survive; clean unowned lines are self-invalidated.
func (DeNovo) KeepOnAcquire(state mem.LineState, dirty bool) bool {
	return dirty || state == mem.LineOwned
}

// FlushLine implements mem.Policy: a line already owned here needs nothing;
// anything else registers ownership at the directory.
func (DeNovo) FlushLine(state mem.LineState) mem.FlushAction {
	if state == mem.LineOwned {
		return mem.FlushNone
	}
	return mem.FlushOwnReq
}

// UsesOwnership implements mem.Policy.
func (DeNovo) UsesOwnership() bool { return true }

// PoliciesFor returns per-core policies for a system of numSMs GPU cores
// plus one CPU: GPU cores run gpuPolicy, the CPU always runs DeNovo (as in
// both of the paper's configurations).
func PoliciesFor(numSMs int, gpuPolicy mem.Policy) []mem.Policy {
	ps := make([]mem.Policy, numSMs+1)
	for i := 0; i < numSMs; i++ {
		ps[i] = gpuPolicy
	}
	ps[numSMs] = DeNovo{}
	return ps
}
