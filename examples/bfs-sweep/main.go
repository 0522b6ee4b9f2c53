// bfs-sweep: run level-synchronized BFS across both coherence protocols
// and a range of graph densities, and compare where the cycles go. Denser
// graphs shift work from the level barriers (synchronization stalls, paid
// at the global generation word) toward the neighbor gathers (memory data
// stalls scattered across the L2 banks and DRAM).
//
//	go run ./examples/bfs-sweep
package main

import (
	"fmt"
	"log"
	"strconv"

	"gsi"
	"gsi/internal/stats"
)

func main() {
	degrees := []int{2, 4, 8}

	// One registry grid per density: bfs at its default seed, 15 blocks
	// and 4 warps per block, with the graph overridden. The jobs are
	// relabeled by density and batched into one sweep.
	sweep := gsi.Sweep{Name: "bfs density sweep"}
	for _, deg := range degrees {
		grid := gsi.Grid{
			Workloads: []string{"bfs"},
			Protocols: []gsi.Protocol{gsi.GPUCoherence, gsi.DeNovo},
			Params:    gsi.WorkloadValues{"vertices": "1500", "avgdeg": strconv.Itoa(deg)},
		}
		for _, job := range grid.Sweep().Jobs {
			job.Label = fmt.Sprintf("deg=%d %s", deg, job.Options.Protocol)
			sweep.Jobs = append(sweep.Jobs, job)
		}
	}

	results, err := sweep.Run(gsi.SweepConfig{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("BFS, 1500 vertices, 15 SMs x 4 warps: stall mix vs graph density")
	fmt.Printf("%-22s %10s %8s %8s %8s\n", "config", "cycles", "sync%", "mem%", "idle%")
	for _, res := range results {
		r := res.Report
		total := float64(r.Counts.Total())
		pct := func(v uint64) float64 { return 100 * float64(v) / total }
		fmt.Printf("%-22s %10d %7.1f%% %7.1f%% %7.1f%%\n",
			res.Job.Label, r.Cycles,
			pct(r.Counts.Cycles[gsi.Sync]),
			pct(r.Counts.Cycles[gsi.MemData]+r.Counts.Cycles[gsi.MemStructural]),
			pct(r.Counts.Cycles[gsi.Idle]))
	}

	// The registry also builds one run directly by name — the entry a
	// Grid's Workloads axis and both CLIs look up.
	entry, _ := gsi.Workloads().Lookup("bfs")
	w, err := entry.Build(gsi.WorkloadValues{"vertices": "1500", "avgdeg": "8"})
	if err != nil {
		log.Fatal(err)
	}
	rep, err := gsi.Run(gsi.Options{Protocol: gsi.DeNovo}, w)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nregistry-built bfs (deg=8, DeNovo): %d cycles\n", rep.Cycles)
	b := rep.ExecBreakdown()
	g := stats.NewGroup(b.Name, b.Labels)
	g.Add(b)
	fmt.Print(g.Chart(60))
}
