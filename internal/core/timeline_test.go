package core

import (
	"strings"
	"testing"
)

func TestTimelineRecordsAndRenders(t *testing.T) {
	tl := NewTimeline(2, 8)
	for i := 0; i < 4; i++ {
		tl.StallSpan(0, CycleClass{Kind: NoStall}, 1)
		tl.StallSpan(1, CycleClass{Kind: Sync}, 1)
	}
	out := tl.Render()
	if !strings.Contains(out, "SM0") || !strings.Contains(out, "SM1") {
		t.Fatalf("missing SM rows:\n%s", out)
	}
	if !strings.Contains(out, "####") {
		t.Errorf("SM0 row should be no-stall glyphs:\n%s", out)
	}
	if !strings.Contains(out, "::::") {
		t.Errorf("SM1 row should be sync glyphs:\n%s", out)
	}
	if !strings.Contains(out, "legend:") {
		t.Errorf("missing legend:\n%s", out)
	}
}

func TestTimelineRescales(t *testing.T) {
	tl := NewTimeline(1, 8)
	// Record far more cycles than buckets: the width must double until
	// everything fits, and the bucket count must stay bounded.
	const cycles = 1000
	for i := 0; i < cycles; i++ {
		k := NoStall
		if i >= cycles/2 {
			k = MemData
		}
		tl.StallSpan(0, CycleClass{Kind: k}, 1)
	}
	if got := len(tl.sms[0].buckets); got > 8 {
		t.Fatalf("buckets = %d, want <= 8", got)
	}
	if tl.bucketWidth < cycles/8 {
		t.Fatalf("bucket width %d too small for %d cycles", tl.bucketWidth, cycles)
	}
	// Total recorded cycles are conserved across rescales.
	var total uint64
	for _, b := range tl.sms[0].buckets {
		for _, n := range b.counts {
			total += n
		}
	}
	if total != cycles {
		t.Fatalf("conserved %d cycles, want %d", total, cycles)
	}
	// The first half renders no-stall, the second memory-data (inspect
	// the bar between the pipes, not the header text).
	out := tl.Render()
	start, end := strings.IndexByte(out, '|'), strings.LastIndexByte(out, '|')
	row := out[start:end]
	if !strings.Contains(row, "#") || !strings.Contains(row, "o") {
		t.Fatalf("timeline lost phase structure:\n%s", out)
	}
	if strings.Index(row, "#") > strings.Index(row, "o") {
		t.Fatalf("phases out of order:\n%s", out)
	}
}

func TestTimelineDominant(t *testing.T) {
	var b bucket
	b.counts[Sync] = 3
	b.counts[MemData] = 5
	if dominant(&b) != MemData {
		t.Fatal("dominant picked the wrong kind")
	}
}

// TestInspectorDrivesTimeline: a timeline appended to the Inspector's sinks
// draws what the Inspector records, including memory-data spans whose load
// resolves later.
func TestInspectorDrivesTimeline(t *testing.T) {
	in := NewInspector(1)
	tl := NewTimeline(1, 8)
	in.Sinks = append(in.Sinks, tl)
	in.Observe(0, []WarpObs{{Kind: Sync}})
	in.Observe(0, []WarpObs{{Kind: MemData, PendingLoad: 3}})
	in.LoadCompleted(0, 3, WhereL2)
	in.Observe(0, nil)
	if out := tl.Render(); !strings.Contains(out, "|:o |") {
		t.Fatalf("inspector did not feed the timeline:\n%s", out)
	}
}
