package scale

import (
	"encoding/json"
	"fmt"
	"math"
)

// Doc is the machine-readable scale record written to BENCH_scale.json.
// Each result is one (workload, axis) growth series.
type Doc struct {
	Name    string   `json:"name"`
	Date    string   `json:"date"`
	Host    string   `json:"host"`
	Command string   `json:"command"`
	Note    string   `json:"note,omitempty"`
	Results []Result `json:"results"`
}

// Result is one (workload, axis) series: the rungs climbed before a wall
// stopped the growth, the wall itself, and the first knee if one appeared.
type Result struct {
	Workload string `json:"workload"`
	Axis     string `json:"axis"`
	Rungs    []Rung `json:"rungs"`
	// FirstKnee marks the first superlinear ns-per-cycle growth (see
	// FindKnee); absent when throughput stayed flat through every rung.
	FirstKnee *Knee `json:"first_knee,omitempty"`
	// Wall says what stopped the growth: "budget" (rung wall-clock),
	// "total-budget", "rss", "error", "identity", or "max-rungs".
	Wall string `json:"wall"`
	// WallDetail carries the failing rung and error text for "error" and
	// "identity" walls.
	WallDetail string `json:"wall_detail,omitempty"`
}

// Rung is one growth step of a series. Cycles, Steps, and Jumps are
// deterministic for a fixed configuration (the smoke gate checks them for
// equality against the baseline); WallNS and the footprint fields are
// host-dependent and only compared as rung-0-normalized ratios.
type Rung struct {
	Rung   int               `json:"rung"`
	Value  int               `json:"value"`
	Params map[string]string `json:"params,omitempty"`
	// Cycles is the simulated cycle count summed over the rung's grid
	// points (one point except on the grid axis).
	Cycles uint64 `json:"cycles"`
	// WallNS is the skip engine's wall-clock time and NsPerCycle its ratio
	// to Cycles — the throughput number the knee and smoke checks read.
	WallNS     int64   `json:"wall_ns"`
	NsPerCycle float64 `json:"ns_per_cycle"`
	// Scheduling counters from the skip engine (see EngineStats).
	Steps         uint64 `json:"steps"`
	Jumps         uint64 `json:"jumps"`
	SkippedCycles uint64 `json:"skipped_cycles"`
	// RSSKB is the process max-RSS high-water mark after the rung (so it
	// is monotone across rungs) and AllocBytes the heap allocated during
	// it (runtime TotalAlloc delta, all engine modes included).
	RSSKB      uint64 `json:"rss_kb"`
	AllocBytes uint64 `json:"alloc_bytes"`
	// Identity is "ok" when every engine mode produced byte-identical
	// reports at this rung, else a description of the first divergence.
	Identity string `json:"identity"`
}

// Knee marks the first rung whose ns-per-cycle exceeded the knee factor
// times the best (minimum) ns-per-cycle of the preceding rungs.
type Knee struct {
	Rung  int     `json:"rung"`
	Value int     `json:"value"`
	Ratio float64 `json:"ratio"`
}

// Encode renders the document as indented JSON, trailing newline included.
func (d *Doc) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// DecodeDoc parses a BENCH_scale.json document.
func DecodeDoc(data []byte) (*Doc, error) {
	var d Doc
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("scale: decoding document: %w", err)
	}
	return &d, nil
}

// Lookup finds the series for one (workload, axis) pair.
func (d *Doc) Lookup(workload, axis string) *Result {
	for i := range d.Results {
		if d.Results[i].Workload == workload && d.Results[i].Axis == axis {
			return &d.Results[i]
		}
	}
	return nil
}

// FindKnee locates the first superlinear throughput break in a series:
// the first rung whose ns-per-cycle exceeds factor times the minimum
// ns-per-cycle seen on any earlier rung. A flat or improving series has
// no knee. Factors <= 1 fall back to the default 1.5.
func FindKnee(rungs []Rung, factor float64) *Knee {
	if factor <= 1 {
		factor = 1.5
	}
	best := math.Inf(1)
	for _, r := range rungs {
		if r.NsPerCycle <= 0 {
			continue
		}
		if !math.IsInf(best, 1) && r.NsPerCycle > factor*best {
			return &Knee{Rung: r.Rung, Value: r.Value, Ratio: r.NsPerCycle / best}
		}
		if r.NsPerCycle < best {
			best = r.NsPerCycle
		}
	}
	return nil
}
