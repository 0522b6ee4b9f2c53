package gsi

import (
	"runtime"
	"testing"
)

// TestIssuePathAllocationBudget: issuing an instruction allocates nothing —
// the LSU holds its op by value, in-flight loads live in per-SM tables and
// the decoded program is shared — so what a whole run allocates, construction
// and report included, is what the memory system below the SM allocates
// (boxed mesh payloads, L2 miss records). Budgets, not measurements: stencil
// sits at 0.40 objects per simulated cycle and bfs, with an atomic or a miss
// most cycles, at 2.14; when every load cost three heap objects they sat at
// 4.9 and 3.0, and one object per load puts either over its budget.
func TestIssuePathAllocationBudget(t *testing.T) {
	for _, tc := range []struct {
		name   string
		w      Workload
		budget float64
	}{
		{"stencil", NewStencilWith(Stencil{Seed: 0x57E9, Width: 64, Rows: 4, Steps: 6, Blocks: 15, WarpsPerBlock: 2, Work: 2}), 0.5},
		{"bfs", NewBFSWith(BFS{Seed: 0xB4B4, Vertices: 600, AvgDeg: 4, Blocks: 15, WarpsPerBlock: 4}), 2.3},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep, err := Run(Options{System: DefaultConfig(), Protocol: DeNovo}, tc.w)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		perCycle := float64(after.Mallocs-before.Mallocs) / float64(rep.Cycles)
		t.Logf("%s: %d cycles, %.3f objects per cycle", tc.name, rep.Cycles, perCycle)
		if perCycle >= tc.budget {
			t.Errorf("%s: %.2f objects allocated per simulated cycle, budget %.1f", tc.name, perCycle, tc.budget)
		}
	}
}
