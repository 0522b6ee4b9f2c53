package main

import (
	"time"

	"gsi"
	"gsi/internal/core"
)

// table51Gap is the model-accuracy figure the repository can check without
// a hardware reference: the total number of cycles by which the idle-system
// latency ranges Calibrate measures fall outside the paper's Table 5.1
// ranges (L1 1, L2 29-61, remote L1 35-83, memory 197-261). 0 means inside.
func table51Gap(o *ops) float64 {
	cal, err := gsi.Calibrate(gsi.DefaultConfig())
	if !o.check("Calibrate", err) {
		return 0
	}
	var gap uint64
	outside := func(r gsi.LatencyRange, lo, hi uint64) {
		if r.Min < lo {
			gap += lo - r.Min
		}
		if r.Max > hi {
			gap += r.Max - hi
		}
	}
	outside(cal.L1Hit, 1, 1)
	outside(cal.L2Hit, 29, 61)
	outside(cal.RemoteL1, 35, 83)
	outside(cal.Memory, 197, 261)
	return float64(gap)
}

// figureLayers measures what only the figure workload has: the sweep
// layer's speed-up over a serial pass, and the figure-shape ratios the
// paper reports, computed from the same sets. Timings are medians over
// the rounds that fit before the deadline.
func figureLayers(specs []gsi.FigureSpec, deadline time.Time, o *ops, m map[string]float64) {
	run := func(parallel int) ([]*gsi.FigureSet, float64) {
		start := time.Now()
		sets, err := gsi.RunFigureSpecs(specs, gsi.SweepConfig{Parallel: parallel})
		wall := time.Since(start).Seconds()
		if !o.check("figure sweep", err) {
			return nil, 0
		}
		return sets, wall
	}
	var sets []*gsi.FigureSet
	var serial, parallel []float64
	begin := time.Now()
	for round := 0; ; round++ {
		s, wall := run(1)
		if s == nil {
			return
		}
		sets = s
		serial = append(serial, wall)
		if s, wall := run(sweepWorkers()); s != nil {
			parallel = append(parallel, wall)
		}
		if time.Now().Add(time.Since(begin) / time.Duration(round+1)).After(deadline) {
			break
		}
	}
	m["sweep.jobs"] = float64(len(specJobs(specs)))
	m["sweep.serial_s"] = median(serial)
	m["sweep.speedup_vs_serial"] = ratio(median(serial), median(parallel))

	// specs are [6.1, 6.2, 6.3, 6.4 at the smallest MSHR ... the largest,
	// gallery]; within a 6.4 set the bars are scratchpad, DMA, stash.
	cyclesOf := func(fs *gsi.FigureSet) (c float64) {
		for _, r := range fs.Reports {
			c += float64(r.Cycles)
		}
		return c
	}
	m["gsi.fig62_vs_fig61_reduction"] = 1 - ratio(cyclesOf(sets[1]), cyclesOf(sets[0]))
	small, big := sets[3].Reports, sets[len(sets)-2].Reports
	memData := func(r *gsi.Report) float64 { return float64(r.Counts.Cycles[core.MemData]) }
	pendingDMA := func(r *gsi.Report) float64 { return float64(r.Counts.MemStruct[core.StructPendingDMA]) }
	m["gsi.fig64_scratch_data_growth"] = ratio(memData(big[0]), memData(small[0]))
	m["gsi.fig64_dma_pending_growth"] = ratio(pendingDMA(big[1]), pendingDMA(small[1]))
	m["gsi.fig64_stash_data_growth"] = ratio(memData(big[2]), memData(small[2]))
}
