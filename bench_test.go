// Throughput benchmarks for the registry workloads that bench/ times only
// inside an aggregate: UTSD and the implicit microbenchmark run within the
// sweep_figures workload, BFS and SpMV within the figure gallery and
// serve_mix's HTTP sweeps, so no bench/ row reports their simulation cost
// alone. The paper's figures and Table 5.1, the ablations, the classifier
// microbenchmarks and the per-engine throughput ladder are measured by
// bench/ (see bench/README.md) and pinned by the shape tests in
// experiments_test.go.
package gsi

import "testing"

// BenchmarkThroughput runs each workload under the default skip-ahead
// engine and reports simulated cycles per iteration; b.N iterations over
// wall time give cycles/sec.
func BenchmarkThroughput(b *testing.B) {
	for _, bc := range []struct {
		name string
		sys  SystemConfig
		w    Workload
	}{
		{"utsd", DefaultConfig(), NewUTSDWith(UTSD{Seed: 0xC0FFEE, Nodes: 400, FrontierMin: 120,
			Blocks: 15, WarpsPerBlock: 8, Work: 8, FMAs: 4, LQCap: 128})},
		{"implicit", implicitSystem(32), NewImplicit(Scratchpad)},
		{"bfs", DefaultConfig(), NewBFSWith(BFS{Seed: 0xB4B4, Vertices: 1200, AvgDeg: 4, Blocks: 15, WarpsPerBlock: 4})},
		{"spmv", DefaultConfig(), NewSpMVWith(SpMV{Seed: 0x59A7, Rows: 1024, NnzPerRow: 8, Blocks: 15, WarpsPerBlock: 8})},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				rep, err := Run(Options{System: bc.sys, Protocol: DeNovo}, bc.w)
				if err != nil {
					b.Fatal(err)
				}
				cycles += rep.Cycles
			}
			b.ReportMetric(float64(cycles)/float64(b.N), "cycles/op")
		})
	}
}
