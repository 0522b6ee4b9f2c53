// Package trace records structured events during a simulation run for
// post-hoc visualization: per-SM stall spans straight from the Inspector's
// classification stream and skip-engine clock jumps. The Collector is
// nil-by-default in every instrumented path — the engine and the Inspector
// each test a single pointer before forwarding — so a run without tracing
// pays nothing, and a run with tracing produces the byte-identical Report
// (the collector only observes; it never touches simulation state).
//
// Two exporters sit on top of the collected events: WriteChromeTrace emits
// Chrome trace-event JSON loadable in Perfetto (one track per SM plus an
// engine track), and WriteHTML emits a single self-contained
// interactive timeline page with zoom, per-kind filtering, and hover
// detail.
//
// Every event buffer is bounded: a pathological run cannot grow the
// collector without limit. Overflow is never silent — each buffer keeps a
// dropped-event counter that both exporters surface in their metadata.
package trace

import "gsi/internal/core"

// Buffer bounds. Spans dominate memory, so they get the largest budget.
const (
	maxSpansPerSM = 1 << 20
	maxLoadsPerSM = 1 << 20
	maxJumps      = 1 << 16
)

// Span is one run of consecutive cycles with a single classification on one
// SM: [Start, Start+Cycles) all classified Class. Consecutive identical
// classifications are coalesced at record time, so a long stall window is
// one span regardless of which engine credited it (per-cycle or in bulk).
type Span struct {
	// Start is the first cycle of the span (absolute, per-SM cycle index).
	Start uint64
	// Cycles is the span width.
	Cycles uint64
	// Class is the full classification, including the sub-cause payload
	// (pending load, structural cause, compute unit).
	Class core.CycleClass
}

// JumpEvent is one skip-ahead clock jump: the engine advanced the clock
// from From straight to To, crediting the window in bulk.
type JumpEvent struct {
	From, To uint64
}

// smTrack is one SM's event shard.
type smTrack struct {
	pos     uint64 // cycles recorded so far; the next span's Start
	spans   []Span
	dropped uint64 // cycles dropped after the span cap
	loads   map[core.LoadID]core.DataWhere
}

// Collector accumulates one run's events. The zero value is not usable:
// Begin must size the per-SM shards before the run starts (gsi.Run does
// this when Options.Trace is set). A Collector records one run at a time;
// Begin resets it for reuse.
type Collector struct {
	sms []smTrack

	jumps        []JumpEvent
	jumpsDropped uint64
	loadsDropped uint64
}

// New returns an empty collector. Call Begin (or let gsi.Run call it)
// before recording.
func New() *Collector { return &Collector{} }

// Begin resets the collector for a run over numSMs SMs, before the run
// starts ticking.
func (c *Collector) Begin(numSMs int) {
	c.sms = make([]smTrack, numSMs)
	for i := range c.sms {
		c.sms[i].loads = make(map[core.LoadID]core.DataWhere)
	}
	c.jumps = nil
	c.jumpsDropped, c.loadsDropped = 0, 0
}

// StallSpan implements core.TraceSink: the Inspector forwards every
// recorded classification span. Consecutive spans with the identical full
// classification coalesce, so the span list reflects classification
// changes, not the engine's crediting granularity.
func (c *Collector) StallSpan(sm int, cc core.CycleClass, n uint64) {
	t := &c.sms[sm]
	start := t.pos
	t.pos += n
	if ln := len(t.spans); ln > 0 {
		last := &t.spans[ln-1]
		if last.Class == cc && last.Start+last.Cycles == start {
			last.Cycles += n
			return
		}
	}
	if len(t.spans) >= maxSpansPerSM {
		t.dropped += n
		return
	}
	t.spans = append(t.spans, Span{Start: start, Cycles: n, Class: cc})
}

// LoadResolved implements core.TraceSink: the Inspector forwards each load
// completion so MemData spans can resolve their service location at export
// time (deferred attribution — the location is unknown while the stall is
// being recorded).
func (c *Collector) LoadResolved(sm int, id core.LoadID, where core.DataWhere) {
	if id == 0 {
		return
	}
	t := &c.sms[sm]
	if len(t.loads) >= maxLoadsPerSM {
		if _, ok := t.loads[id]; !ok {
			c.loadsDropped++
			return
		}
	}
	t.loads[id] = where
}

// Jump implements sim.Observer: the engine jumped the clock from from to to.
func (c *Collector) Jump(from, to uint64) {
	if len(c.jumps) >= maxJumps {
		c.jumpsDropped++
		return
	}
	c.jumps = append(c.jumps, JumpEvent{From: from, To: to})
}

// NumSMs returns the number of per-SM tracks (0 before Begin).
func (c *Collector) NumSMs() int { return len(c.sms) }

// Spans returns one SM's coalesced stall spans. The slice aliases the
// collector's buffer; treat it as read-only.
func (c *Collector) Spans(sm int) []Span { return c.sms[sm].spans }

// Jumps returns the recorded clock jumps (aliased, read-only).
func (c *Collector) Jumps() []JumpEvent { return c.jumps }

// EndCycle returns the last recorded per-SM cycle position — the span
// timeline's right edge.
func (c *Collector) EndCycle() uint64 {
	var end uint64
	for i := range c.sms {
		if c.sms[i].pos > end {
			end = c.sms[i].pos
		}
	}
	return end
}

// Dropped reports how many events each bounded buffer rejected: stall-span
// cycles (summed across SMs), jumps, and load resolutions. Both exporters
// embed these in their metadata so a truncated trace reads as truncated,
// never as complete.
func (c *Collector) Dropped() (spanCycles, jumps, loads uint64) {
	for i := range c.sms {
		spanCycles += c.sms[i].dropped
	}
	return spanCycles, c.jumpsDropped, c.loadsDropped
}

// WhereOf resolves the service location of a MemData span's pending load:
// the recorded completion location, WhereL1 for spans with no identified
// load (matching the Inspector's attribution), or WhereUnknown when the
// load never resolved (still in flight at end of run, or dropped).
func (c *Collector) WhereOf(sm int, id core.LoadID) core.DataWhere {
	if id == 0 {
		return core.WhereL1
	}
	if w, ok := c.sms[sm].loads[id]; ok {
		return w
	}
	return core.WhereUnknown
}

// SubCause renders the classification detail of a span for display: the
// resolved service location for MemData, the structural cause for
// MemStructural, the pipeline for compute stalls, "" otherwise.
func (c *Collector) SubCause(sm int, s Span) string {
	switch s.Class.Kind {
	case core.MemData:
		return c.WhereOf(sm, s.Class.PendingLoad).String()
	case core.MemStructural:
		return s.Class.StructCause.String()
	case core.CompData, core.CompStructural:
		return s.Class.CompUnit.String()
	}
	return ""
}
