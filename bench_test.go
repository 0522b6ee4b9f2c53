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
		{"utsd", DefaultConfig(), mustBuild(b, "utsd", WorkloadValues{"nodes": "400", "work": "8"})},
		{"implicit", implicitSystem(32), mustBuild(b, "implicit", nil)},
		{"bfs", DefaultConfig(), mustBuild(b, "bfs", WorkloadValues{"vertices": "1200"})},
		{"spmv", DefaultConfig(), mustBuild(b, "spmv", WorkloadValues{"rows": "1024"})},
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
