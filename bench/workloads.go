package main

import (
	"fmt"
	"hash/fnv"
	"strconv"

	"gsi"
	"gsi/internal/serve"
	gsiworkloads "gsi/internal/workloads"
)

// kind says what one timed operation of a workload is.
type kind int

const (
	// kindSim: one gsi.Run of one configuration (user a, an architect
	// reading a stall breakdown).
	kindSim kind = iota
	// kindFigures: one regeneration of the paper's figure set through
	// RunFigureSpecs (user b).
	kindFigures
	// kindServeCold: one never-seen grid through gsi-serve, submit until
	// every result is fetched (user c).
	kindServeCold
	// kindServeCached: one resubmission of a grid the server already holds,
	// submit until done (user c).
	kindServeCached
)

// workload is one named set of inputs. The names are fixed: later issues
// cite them, and BENCHMARK.json lists them.
type workload struct {
	name string
	kind kind
	why  string

	// kindSim only: the registry entry, its protocol and its sizing. The
	// set-up's warm-up runs the entry at registry small scale with warm
	// laid over it.
	entry    string
	protocol gsi.Protocol
	params   gsi.WorkloadValues
	warm     gsi.WorkloadValues
}

// workloads is the benchmark. Every size is chosen so one simulation takes
// roughly half a second to a second on the 2-core reference host: a run of
// --seconds 10 then times about ten operations, and the traced pass fits
// the engine ladder into the same budget.
var workloads = []workload{
	{
		name: "spin_sync", kind: kindSim, entry: "uts", protocol: gsi.DeNovo,
		params: gsi.WorkloadValues{"nodes": "500"},
		// UTS at small scale (250 nodes) simulates as many cycles as the
		// timed run: its time goes with lock contention, not tree size.
		warm: gsi.WorkloadValues{"nodes": "100", "frontier": "30"},
		why:  "UTS on one global queue (paper case study 1): ~90% sync stalls, lock atomics bounce through noc and the L2 banks",
	},
	{
		name: "mshr_pressure", kind: kindSim, entry: "gups", protocol: gsi.GPUCoherence,
		params: gsi.WorkloadValues{"updates": "32"},
		why:    "GUPS under GPU coherence: ~97% memory-structural stalls, line fills and write-throughs use noc/mem the other way round from spin_sync",
	},
	{
		name: "compute_issue", kind: kindSim, entry: "stencil", protocol: gsi.DeNovo,
		params: gsi.WorkloadValues{"steps": "20"},
		why:    "stencil: SM issue and the Inspector do ~80% of the work, noc+mem under 15%; the bypass workload for mesh/memory changes",
	},
	{
		name: "latency_skip", kind: kindSim, entry: "pipeline", protocol: gsi.DeNovo,
		params: gsi.WorkloadValues{"rounds": "500", "permwords": "262144"},
		why:    "one-SM pointer-chase pipeline: ~93% of cycles are jumped, so only the skip planner and NextEvent matter",
	},
	{
		name: "sweep_figures", kind: kindFigures,
		why: "the small-scale figure set (6.1-6.4 + gallery): ~20 simulations of 1-60 ms, so construction, Build, report assembly and GC dominate",
	},
	{
		name: "serve_mix", kind: kindServeCold,
		why: "never-seen 8-job grids through gsi-serve over loopback HTTP, submit until all results fetched; only this one moves with the simulator",
	},
	{
		name: "serve_cached", kind: kindServeCached,
		why: "resubmitting a grid gsi-serve already holds, 2 closed-loop clients: decode, CacheKey, cache lookup, doc encode and no simulation",
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// derive maps (seed, workload name, index) to an input seed with splitmix64,
// so workloads and successive grids draw unrelated inputs from one --seed.
func derive(seed uint64, name string, index int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	x := seed ^ h.Sum64() ^ uint64(index)*0x9E3779B97F4A7C15
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// simJobs generates a kindSim workload's single job: the registry entry
// with the given sizing laid over its small scale (small) or its default
// scale, and the seed parameter derived from the benchmark seed.
func (w workload) simJobs(seed uint64, small bool, sizing gsi.WorkloadValues) ([]gsi.Job, error) {
	e, ok := gsi.Workloads().Lookup(w.entry)
	if !ok {
		return nil, fmt.Errorf("%s: registry has no workload %q", w.name, w.entry)
	}
	params := gsi.WorkloadValues{"seed": strconv.FormatUint(derive(seed, w.name, 0), 10)}
	if small {
		for k, v := range e.Small {
			params[k] = v
		}
	}
	for k, v := range sizing {
		params[k] = v
	}
	// No System: the grid applies the registry entry's tuning hook, which
	// is what puts the pipeline on its one-SM machine.
	return gsi.Grid{Name: w.name, Workloads: []string{w.entry},
		Protocols: []gsi.Protocol{w.protocol}, Params: params}.Sweep().Jobs, nil
}

// figureSpecs generates the figure set: the product's own specs at small
// scale, with the tree, graph and matrix sizes grown by up to a quarter
// according to the seed. The workload seeds inside the specs are the
// paper reproduction's and stay fixed; the shape ratios reported beside
// the timings are therefore checked on sizes nobody tuned against.
func figureSpecs(seed uint64) []gsi.FigureSpec {
	grow := func(n, salt int) int {
		return n + int(derive(seed, "sweep_figures", salt)%uint64(n/4+1))
	}
	sc := gsi.SmallScale()
	sc.UTSNodes = grow(sc.UTSNodes, 0)
	sc.UTSDNodes = grow(sc.UTSDNodes, 1)
	sc.BFSVertices = grow(sc.BFSVertices, 2)
	sc.SpMVRows = grow(sc.SpMVRows, 3)
	specs := []gsi.FigureSpec{gsi.Figure61Spec(sc), gsi.Figure62Spec(sc), gsi.Figure63Spec()}
	specs = append(specs, gsi.Figure64Specs(sc)...)
	return append(specs, gsi.WorkloadGallerySpec(sc))
}

// specJobs flattens the specs into the job list RunFigureSpecs executes.
func specJobs(specs []gsi.FigureSpec) []gsi.Job {
	var jobs []gsi.Job
	for _, sp := range specs {
		jobs = append(jobs, sp.Sweep.Jobs...)
	}
	return jobs
}

// serveGrid generates the index-th grid a serve workload submits: workloads
// [bfs, spmv] x protocols [gpu, denovo] x MSHR [32, 64] at registry default
// sizes, eight jobs, distinct from every other index through the seed
// parameter. quick shrinks it to two small BFS jobs.
func serveGrid(seed uint64, name string, index int, quick bool) gsi.Grid {
	g := gsi.Grid{
		Name:      fmt.Sprintf("%s-%d", name, index),
		Workloads: []string{"bfs", "spmv"},
		Protocols: []gsi.Protocol{gsi.GPUCoherence, gsi.DeNovo},
		MSHRSizes: []int{32, 64},
		Params:    gsi.WorkloadValues{},
	}
	vertices := 4000 // the registry default
	if quick {
		vertices = 300
		g.Workloads = []string{"bfs"}
		g.MSHRSizes = nil
		g.Params["vertices"], g.Params["blocks"], g.Params["warps"] = "300", "4", "2"
	}
	// One generated graph in nine has a root without out-edges, and the
	// search ends at once. Draw again until the search reaches at least
	// half the graph, so that no seed makes the grid degenerate.
	for attempt := 0; ; attempt++ {
		s := derive(seed, name, index<<8|attempt)
		dist, _ := gsiworkloads.GenGraph(s, vertices, 4).Levels()
		reached := 0
		for _, d := range dist {
			if d != 0 {
				reached++
			}
		}
		if reached >= vertices/2 || attempt == 255 {
			g.Params["seed"] = strconv.FormatUint(s, 10)
			return g
		}
	}
}

// submission renders a grid in gsi-serve's request vocabulary. The server
// expands it back into the same gsi.Grid, so g.Sweep().Jobs are exactly
// the simulations the server runs for it.
func submission(g gsi.Grid) serve.Submission {
	sub := serve.Submission{Name: g.Name, Workloads: g.Workloads,
		MSHRSizes: g.MSHRSizes, Params: g.Params}
	for _, p := range g.Protocols {
		name := "denovo"
		if p == gsi.GPUCoherence {
			name = "gpu"
		}
		sub.Protocols = append(sub.Protocols, name)
	}
	return sub
}
