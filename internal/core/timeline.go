package core

import (
	"fmt"
	"strings"
)

// Timeline records how each SM's cycle classification evolves over a run
// and renders it as one character column per time bucket — the
// "visualizing the causes of GPU stalls" half of GSI. It is a TraceSink:
// append it to Inspector.Sinks and it folds the span stream into buckets.
// It keeps a bounded number of buckets by doubling the bucket width
// whenever a run outgrows the current resolution (streaming downsample), so
// memory use is constant regardless of run length.
type Timeline struct {
	maxBuckets  int
	bucketWidth uint64
	sms         []timelineSM
}

type timelineSM struct {
	buckets []bucket
	pos     uint64 // cycles recorded so far for this SM
}

type bucket struct {
	counts [NumStallKinds]uint64
}

// NewTimeline returns a timeline for numSMs SMs with at most maxBuckets
// columns per SM.
func NewTimeline(numSMs, maxBuckets int) *Timeline {
	if maxBuckets < 8 {
		maxBuckets = 8
	}
	return &Timeline{
		maxBuckets:  maxBuckets,
		bucketWidth: 1,
		sms:         make([]timelineSM, numSMs),
	}
}

// StallSpan implements TraceSink: it appends n consecutive cycles of cc's
// kind for an SM. Each SM's spans arrive in per-SM cycle order, which is how
// the Inspector drives its sinks. Buckets are aligned to absolute per-SM
// cycle index (bucket b covers cycles [b*width, (b+1)*width)), so the final
// timeline depends only on each SM's cycle sequence — not on how recording
// interleaves across SMs, nor on whether a window arrived one cycle at a
// time or as one span.
func (tl *Timeline) StallSpan(sm int, cc CycleClass, n uint64) {
	if n == 0 {
		return
	}
	s := &tl.sms[sm]
	last := s.pos + n - 1
	for last/tl.bucketWidth >= uint64(tl.maxBuckets) {
		tl.rescale()
	}
	for s.pos <= last {
		b := s.pos / tl.bucketWidth
		for uint64(len(s.buckets)) <= b {
			s.buckets = append(s.buckets, bucket{})
		}
		// Fill to the end of bucket b or the end of the span.
		end := (b+1)*tl.bucketWidth - 1
		if end > last {
			end = last
		}
		s.buckets[b].counts[cc.Kind] += end - s.pos + 1
		s.pos = end + 1
	}
}

// rescale doubles the bucket width, merging aligned bucket pairs on every
// SM. Alignment to absolute cycle index is preserved, which is what makes
// the timeline independent of recording order across SMs.
func (tl *Timeline) rescale() {
	for i := range tl.sms {
		s := &tl.sms[i]
		merged := s.buckets[:0]
		for j := 0; j < len(s.buckets); j += 2 {
			b := s.buckets[j]
			if j+1 < len(s.buckets) {
				for k := range b.counts {
					b.counts[k] += s.buckets[j+1].counts[k]
				}
			}
			merged = append(merged, b)
		}
		s.buckets = merged
	}
	tl.bucketWidth *= 2
}

// LoadResolved implements TraceSink. The timeline draws each span by its
// top-level kind, which deferred attribution never changes.
func (tl *Timeline) LoadResolved(int, LoadID, DataWhere) {}

// timelineGlyphs maps each stall kind to its timeline character; idle
// renders as blank so busy phases stand out.
var timelineGlyphs = [NumStallKinds]byte{
	NoStall:        '#',
	Idle:           ' ',
	Control:        '+',
	Sync:           ':',
	MemData:        'o',
	MemStructural:  '*',
	CompData:       '.',
	CompStructural: '%',
}

// Render draws one row per SM; each column shows the dominant
// classification of that time bucket.
func (tl *Timeline) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "cycle timeline (1 column = %d cycles; dominant cause per bucket)\n", tl.bucketWidth)
	for i := range tl.sms {
		s := &tl.sms[i]
		fmt.Fprintf(&sb, "SM%-3d |", i)
		for _, b := range s.buckets {
			sb.WriteByte(timelineGlyphs[dominant(&b)])
		}
		sb.WriteString("|\n")
	}
	sb.WriteString("legend:")
	for _, k := range StallKinds() {
		g := timelineGlyphs[k]
		if g == ' ' {
			fmt.Fprintf(&sb, "  (blank)=%s", k)
			continue
		}
		fmt.Fprintf(&sb, "  %c=%s", g, k)
	}
	sb.WriteString("\n")
	return sb.String()
}

// dominant returns the kind with the most cycles in the bucket; ties go to
// the earlier kind in report order.
func dominant(b *bucket) StallKind {
	best := NoStall
	var bestN uint64
	for _, k := range StallKinds() {
		if n := b.counts[k]; n > bestN {
			best, bestN = k, n
		}
	}
	return best
}
