// MSHR sensitivity sweep (section 6.2.4, figure 6.4): run the implicit
// microbenchmark on all three local-memory organizations while growing the
// MSHR (and store buffer) from 32 to 512 entries, and show how eliminating
// full-MSHR stalls surfaces the next bottleneck of each organization.
//
//	go run ./examples/mshr-sweep
package main

import (
	"fmt"
	"log"

	"gsi"
)

func main() {
	sc := gsi.DefaultScale() // MSHR sizes 32 to 512
	// Batch every run through the worker pool (Parallel 0 = all cores);
	// results are identical for any worker count.
	specs := gsi.Figure64Specs(sc)
	sets, err := gsi.RunFigureSpecs(specs, gsi.SweepConfig{})
	if err != nil {
		log.Fatal(err)
	}
	// Every size normalizes to baseline scratchpad at the first size.
	base := gsi.RenderBases(specs, sets)[0]

	fmt.Printf("%-8s %-16s %10s %10s %10s %12s\n",
		"MSHR", "config", "exec", "MSHR-full", "pend. DMA", "mem data")
	for i, fs := range sets {
		for _, r := range fs.Reports {
			fmt.Printf("%-8d %-16s %10.3f %10d %10d %12d\n",
				sc.MSHRSizes[i], r.Workload,
				float64(r.Counts.Total())/base,
				r.Counts.MemStruct[gsi.StructMSHRFull],
				r.Counts.MemStruct[gsi.StructPendingDMA],
				r.Counts.Cycles[gsi.MemData])
		}
	}
	fmt.Println("\nexec is normalized to baseline scratchpad with a 32-entry MSHR, as in figure 6.4")

	first, last := sets[0], sets[len(sets)-1]
	for i := range first.Reports {
		s, b := first.Reports[i], last.Reports[i]
		fmt.Printf("%-16s: growing the MSHR %dx changes execution time by %+.0f%%\n",
			s.Workload, sc.MSHRSizes[len(sc.MSHRSizes)-1]/sc.MSHRSizes[0],
			100*(float64(b.Counts.Total())/float64(s.Counts.Total())-1))
	}
}
