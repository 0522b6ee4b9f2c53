// Case study 2 (section 6.2 of the paper): compare the baseline
// scratchpad, scratchpad+DMA, and stash on the implicit streaming
// microbenchmark, reproducing the figure 6.3 breakdowns.
//
//	go run ./examples/stash-dma
package main

import (
	"fmt"
	"log"

	"gsi"
)

func main() {
	fs, err := gsi.Figure63Spec().Run(gsi.SweepConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(fs.Render(64))

	base := fs.Reports[0]
	fmt.Printf("%-16s %10s %12s %14s\n", "config", "cycles", "instructions", "mem structural")
	for _, r := range fs.Reports {
		fmt.Printf("%-16s %10d %12d %14d\n",
			r.Workload, r.Cycles, r.InstrsIssued, r.Counts.Cycles[gsi.MemStructural])
	}
	for _, r := range fs.Reports[1:] {
		fmt.Printf("\n%s: %.0f%% fewer instructions than the explicit scratchpad copy loops",
			r.Workload, 100*(1-float64(r.InstrsIssued)/float64(base.InstrsIssued)))
	}
	fmt.Println()
}
