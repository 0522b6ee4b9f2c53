// Case study 1 (sections 6.1 of the paper): compare GPU coherence against
// DeNovo on unbalanced tree search, with both the single-global-queue (UTS)
// and decentralized (UTSD) variants, and print the stall breakdowns that
// explain the difference.
//
//	go run ./examples/coherence-compare [-nodes 1500]
package main

import (
	"flag"
	"fmt"
	"log"

	"gsi"
)

func main() {
	nodes := flag.Int("nodes", 800, "tree size")
	flag.Parse()

	sc := gsi.Scale{UTSNodes: *nodes, UTSDNodes: *nodes, FrontierMin: 120}

	// Both figures run as one batch through the worker pool (Parallel 0
	// = all cores); results are identical for any worker count.
	sets, err := gsi.RunFigureSpecs(
		[]gsi.FigureSpec{gsi.Figure61Spec(sc), gsi.Figure62Spec(sc)}, gsi.SweepConfig{})
	if err != nil {
		log.Fatal(err)
	}
	f61, f62 := sets[0], sets[1]

	fmt.Println("--- UTS: one global task queue, one lock ---")
	fmt.Print(f61.Render(64))

	fmt.Println("--- UTSD: per-SM local queues + global overflow queue ---")
	fmt.Print(f62.Render(64))

	for i, p := range []gsi.Protocol{gsi.GPUCoherence, gsi.DeNovo} {
		uts, utsd := f61.Reports[i].Cycles, f62.Reports[i].Cycles
		fmt.Printf("%-14s: decentralizing the queue cuts execution time by %.0f%% (%d -> %d cycles)\n",
			p, 100*(1-float64(utsd)/float64(uts)), uts, utsd)
	}
	gpuRep, dnvRep := f62.Reports[0], f62.Reports[1]
	fmt.Printf("UTSD under DeNovo: %.0f%% fewer cycles than GPU coherence\n",
		100*(1-float64(dnvRep.Cycles)/float64(gpuRep.Cycles)))
	fmt.Printf("ownership at work: %d remote L1 reads served, %d free (already-owned) release flushes\n",
		dnvRep.Mem.RemoteServed, dnvRep.Mem.FlushNoops)
}
