// Quickstart: run one workload on the simulated tightly coupled CPU-GPU
// system and print its GSI stall profile.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"gsi"
)

func main() {
	// The registry names and sizes every workload. The implicit entry
	// defaults to the baseline scratchpad, and its tuning hook narrows
	// the Table 5.1 machine to case study 2's shape: one SM holding a
	// 32-warp block.
	entry, _ := gsi.Workloads().Lookup("implicit")
	w, err := entry.Build(nil)
	if err != nil {
		log.Fatal(err)
	}
	cfg, err := entry.TuneSystem(false, nil, gsi.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	rep, err := gsi.Run(gsi.Options{System: cfg, Protocol: gsi.DeNovo, Timeline: true}, w)
	if err != nil {
		log.Fatal(err)
	}

	// The report carries the classified execution-time breakdown plus
	// GSI's two memory sub-classifications and the stall timeline.
	fmt.Print(rep.Summary())
	fmt.Print(rep.Timeline)

	fmt.Printf("\nkernel ran %d cycles; %.1f%% of cycles issued no instruction\n",
		rep.Cycles,
		100*(1-float64(rep.Counts.Cycles[0])/float64(rep.Counts.Total())))
}
