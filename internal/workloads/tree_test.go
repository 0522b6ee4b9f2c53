package workloads

import (
	"testing"
	"testing/quick"
)

func TestGenTreeExactSize(t *testing.T) {
	for _, target := range []int{1, 2, 10, 100, 1000} {
		tr := GenTree(1, target)
		if tr.Nodes() != target {
			t.Errorf("GenTree(1, %d) has %d nodes", target, tr.Nodes())
		}
	}
}

func TestGenTreeDeterministic(t *testing.T) {
	a, b := GenTree(7, 500), GenTree(7, 500)
	for i := range a.ChildCount {
		if a.ChildCount[i] != b.ChildCount[i] || a.ChildBase[i] != b.ChildBase[i] {
			t.Fatalf("trees differ at node %d", i)
		}
	}
	c := GenTree(8, 500)
	same := true
	for i := range a.ChildCount {
		if a.ChildCount[i] != c.ChildCount[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical trees")
	}
}

// TestGenTreeWellFormed: every non-root node is the child of exactly one
// parent, ids are contiguous, and child ranges never overlap.
func TestGenTreeWellFormed(t *testing.T) {
	prop := func(seed uint64, sz uint16) bool {
		target := int(sz%2000) + 1
		tr := GenTree(seed, target)
		if tr.Nodes() != target {
			return false
		}
		parentCount := make([]int, target)
		for i := 0; i < target; i++ {
			base, count := tr.ChildBase[i], tr.ChildCount[i]
			for c := uint64(0); c < count; c++ {
				child := base + c
				if child >= uint64(target) || child == 0 {
					return false
				}
				parentCount[child]++
			}
		}
		for i := 1; i < target; i++ {
			if parentCount[i] != 1 {
				return false
			}
		}
		return parentCount[0] == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGenTreeUnbalanced(t *testing.T) {
	// Child counts must vary (the benchmark's point): both leaves and
	// multi-child nodes exist in a non-trivial tree.
	tr := GenTree(0xC0FFEE, 1000)
	counts := map[uint64]int{}
	for _, c := range tr.ChildCount {
		counts[c]++
	}
	if counts[0] == 0 || counts[2]+counts[3] == 0 {
		t.Fatalf("degenerate tree: count histogram %v", counts)
	}
	if tr.MaxDepth() < 5 {
		t.Fatalf("tree too shallow: depth %d", tr.MaxDepth())
	}
}

func TestSeedFrontier(t *testing.T) {
	tr := GenTree(0xC0FFEE, 1000)
	seed := tr.SeedFrontier(64)
	if len(seed.Frontier) < 64 {
		t.Fatalf("frontier %d < requested 64", len(seed.Frontier))
	}
	// Host-processed nodes are exactly ids 0..HostProcessed-1 (BFS in
	// creation order), and the frontier is disjoint from them.
	for _, n := range seed.Frontier {
		if n < seed.HostProcessed {
			t.Fatalf("frontier node %d already host-processed", n)
		}
	}
	// Conservation: processed + frontier + unexpanded-descendants = all.
	// At minimum: frontier nodes are distinct.
	seen := map[uint64]bool{}
	for _, n := range seed.Frontier {
		if seen[n] {
			t.Fatalf("frontier node %d duplicated", n)
		}
		seen[n] = true
	}
}

func TestSeedFrontierExhaustsTinyTree(t *testing.T) {
	tr := GenTree(3, 2)
	seed := tr.SeedFrontier(1000)
	if int(seed.HostProcessed)+len(seed.Frontier) > tr.Nodes() {
		t.Fatalf("processed %d + frontier %d exceeds %d nodes",
			seed.HostProcessed, len(seed.Frontier), tr.Nodes())
	}
}

func TestProgramsBuild(t *testing.T) {
	// The kernels must assemble without label or register errors for a
	// range of work/FMA settings.
	for _, work := range []int{0, 1, 8, 32} {
		for _, fmas := range []int{0, 4} {
			if p := utsProgram(work, fmas); p.Len() == 0 {
				t.Fatal("empty UTS program")
			}
			if p := utsdProgram(work, fmas); p.Len() == 0 {
				t.Fatal("empty UTSD program")
			}
		}
	}
	for _, fmas := range []int{0, 4} {
		if p := implicitScratchProgram(fmas); p.Len() == 0 {
			t.Fatal("empty implicit program")
		}
		if p := implicitLocalProgram("x", fmas); p.Len() == 0 {
			t.Fatal("empty local program")
		}
	}
}

func TestWorkloadValidation(t *testing.T) {
	if _, _, err := (UTS{}).Build(nil); err == nil {
		t.Error("zero UTS accepted")
	}
	if _, _, err := (UTSD{Nodes: 10, Blocks: 1, WarpsPerBlock: 1, LQCap: 3}).Build(nil); err == nil {
		t.Error("non-power-of-two LQCap accepted")
	}
	if _, _, err := (Implicit{}).Build(nil); err == nil {
		t.Error("zero implicit accepted")
	}
	if _, _, err := (Implicit{Warps: 3, DataBytes: 16 << 10}).Build(nil); err == nil {
		t.Error("non-divisible chunk accepted")
	}
}

func TestApplyFMA(t *testing.T) {
	if got := applyFMA(2, 1); got != 6 {
		t.Fatalf("applyFMA(2,1) = %d, want 6", got)
	}
	if got := applyFMA(2, 2); got != 42 {
		t.Fatalf("applyFMA(2,2) = %d, want 42", got)
	}
	if got := applyFMA(5, 0); got != 5 {
		t.Fatalf("applyFMA(5,0) = %d, want 5", got)
	}
}
