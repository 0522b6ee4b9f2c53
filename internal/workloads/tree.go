// Package workloads implements the simulator's benchmark suite as kernels
// for the simulated GPU: the paper's three — UTS (unbalanced tree search
// over a single global task queue, section 6.1.2), UTSD (the
// decentralized variant with per-SM local queues and a global overflow
// queue, section 6.1.4), and the implicit streaming microbenchmark of
// case study 2 in its three local-memory configurations — plus the
// sparse/bursty additions that span the event-density spectrum:
// level-synchronized BFS (frontier atomics, software global barriers),
// CSR SpMV (streaming rows, indirect gathers), a producer-consumer
// pipeline (long idle phases, the skip-ahead showcase), and GUPS
// (random-access updates, MSHR/coalescer saturation).
//
// Every workload is deterministic: inputs are synthesized from a seed
// (splitmix64 via isa.Mix64) and each run ends with a CPU-side functional
// verifier that recomputes the expected memory image. Each workload is a
// parameter struct that implements Instance and declares its parameter
// schema (names, help, default-scale values) in struct tags; the Registry
// maps workload names to those structs and their SmallScale values, and
// decodes parameter overrides into them. Both CLIs and the sweep Grid's
// workload axis drive that one table, and registering an entry enrolls
// the workload in the engine diff tests automatically.
// framework.go holds the shared kernel-authoring helpers (WarpChunk,
// InitConsts, spin-lock and hash-chain emitters); see the README's
// "Authoring a workload" guide and docs/ARCHITECTURE.md for the component
// and engine contracts kernels must respect.
package workloads

import "gsi/internal/isa"

// Tree is a precomputed unbalanced tree: node i has ChildCount[i] children
// with consecutive ids starting at ChildBase[i]. Ids are assigned in
// creation (BFS) order, so the layout is deterministic.
type Tree struct {
	ChildCount []uint64
	ChildBase  []uint64
}

// Nodes returns the total node count.
func (t *Tree) Nodes() int { return len(t.ChildCount) }

// GenTree synthesizes a tree with exactly target nodes (target >= 1).
// Child counts are drawn uniformly from {0,1,2,3} (mean 1.5) via
// splitmix64; the draw is nudged up only when the frontier would otherwise
// die before reaching the target, keeping generation deterministic and
// total size exact.
func GenTree(seed uint64, target int) *Tree {
	if target < 1 {
		target = 1
	}
	t := &Tree{
		ChildCount: make([]uint64, 0, target),
		ChildBase:  make([]uint64, 0, target),
	}
	next := 1 // next unassigned node id
	for i := 0; i < next; i++ {
		c := int(isa.Mix64(seed^uint64(i)) % 4)
		if next+c > target {
			c = target - next
		}
		if c == 0 && i == next-1 && next < target {
			// Last frontier node: keep the tree alive.
			c = 1
		}
		t.ChildCount = append(t.ChildCount, uint64(c))
		t.ChildBase = append(t.ChildBase, uint64(next))
		next += c
	}
	return t
}

// Seeding is the host-side pre-expansion: the host processes the first
// levels of the tree (breadth-first) until the frontier is wide enough to
// spread across workers, then hands the frontier to the GPU queues.
type Seeding struct {
	// Frontier holds node ids ready for GPU processing.
	Frontier []uint64
	// HostProcessed counts nodes the host already expanded; the kernel's
	// termination counter starts here.
	HostProcessed uint64
}

// SeedFrontier expands breadth-first until at least minSize nodes are
// pending (or the tree is exhausted).
func (t *Tree) SeedFrontier(minSize int) Seeding {
	frontier := []uint64{0}
	var processed uint64
	for len(frontier) < minSize && len(frontier) > 0 {
		n := frontier[0]
		frontier = frontier[1:]
		processed++
		for c := uint64(0); c < t.ChildCount[n]; c++ {
			frontier = append(frontier, t.ChildBase[n]+c)
		}
	}
	return Seeding{Frontier: frontier, HostProcessed: processed}
}

// MaxDepth returns the tree height (diagnostics and tests).
func (t *Tree) MaxDepth() int {
	depth := make([]int, t.Nodes())
	maxD := 0
	for i := 0; i < t.Nodes(); i++ {
		for c := uint64(0); c < t.ChildCount[i]; c++ {
			child := int(t.ChildBase[i] + c)
			depth[child] = depth[i] + 1
			if depth[child] > maxD {
				maxD = depth[child]
			}
		}
	}
	return maxD
}
