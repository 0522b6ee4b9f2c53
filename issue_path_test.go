package gsi

import (
	"runtime"
	"testing"
)

// TestIssuePathAllocationBudget: nothing on the per-cycle path allocates —
// the LSU holds its op by value, in-flight loads live in per-SM tables, the
// decoded program is shared, a message is a value in every ring it crosses and
// misses live in line tables — so what a whole run allocates is construction,
// the report, and rings and tables growing to the traffic's depth. The budget
// is the ROADMAP's for every simulator row, under 0.3 objects per simulated
// cycle: stencil sits at 0.04, bfs at 0.10, spin-heavy UTS at 0.01 and GUPS
// under MSHR pressure at 0.02; with boxed messages and per-miss records they
// sat at 0.30, 1.73, 1.05 and 2.32, and one object per miss or per atomic
// puts any of the last three back over.
func TestIssuePathAllocationBudget(t *testing.T) {
	for _, tc := range []struct {
		name     string
		w        Workload
		protocol Protocol
	}{
		{"stencil", mustBuild(t, "stencil", WorkloadValues{"steps": "6"}), DeNovo},
		{"bfs", mustBuild(t, "bfs", WorkloadValues{"vertices": "600"}), DeNovo},
		{"uts nodes=500", mustBuild(t, "uts", WorkloadValues{"nodes": "500"}), DeNovo},
		{"gups updates=32", mustBuild(t, "gups", WorkloadValues{"updates": "32"}), GPUCoherence},
	} {
		const budget = 0.3
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep, err := Run(Options{System: DefaultConfig(), Protocol: tc.protocol}, tc.w)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		perCycle := float64(after.Mallocs-before.Mallocs) / float64(rep.Cycles)
		t.Logf("%s: %d cycles, %.3f objects per cycle", tc.name, rep.Cycles, perCycle)
		if perCycle >= budget {
			t.Errorf("%s: %.2f objects allocated per simulated cycle, budget %.1f", tc.name, perCycle, budget)
		}
	}
}
