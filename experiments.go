package gsi

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"gsi/internal/stats"
)

// FigureSet is one reproduced figure: the three stacked-bar sub-figures of
// the paper's case studies ((a) execution-time breakdown, (b) memory data
// stall sub-classification, (c) memory structural sub-classification),
// with one bar per configuration.
type FigureSet struct {
	ID       string `json:"id"`
	Title    string `json:"title"`
	Baseline string `json:"baseline"` // bar the paper normalizes to
	// BarBy says what names each report's bar: "" for its local-memory
	// kind or protocol (the case studies), "workload" for its workload
	// (the gallery). The decoder reads it, so bar names survive JSON.
	BarBy   string       `json:"barBy,omitempty"`
	Exec    *stats.Group `json:"exec"`
	Data    *stats.Group `json:"data"`
	Struct  *stats.Group `json:"struct"`
	Reports []*Report    `json:"reports"`
}

// barByWorkload is the BarBy value that names bars by workload.
const barByWorkload = "workload"

// add folds one run into the three groups, naming its bar as BarBy says.
func (fs *FigureSet) add(r *Report) {
	if fs.Exec == nil {
		fs.Exec = stats.NewGroup(fs.ID+"a: execution time breakdown", r.ExecBreakdown().Labels)
		fs.Data = stats.NewGroup(fs.ID+"b: memory data stall breakdown", r.MemDataBreakdown().Labels)
		fs.Struct = stats.NewGroup(fs.ID+"c: memory structural stall breakdown", r.MemStructBreakdown().Labels)
	}
	rename := func(b stats.Breakdown) stats.Breakdown {
		if fs.BarBy == barByWorkload {
			b.Name = r.Workload
		}
		return b
	}
	fs.Exec.Add(rename(r.ExecBreakdown()))
	fs.Data.Add(rename(r.MemDataBreakdown()))
	fs.Struct.Add(rename(r.MemStructBreakdown()))
	fs.Reports = append(fs.Reports, r)
}

// BaselineTotal returns the execution-time total of the baseline bar.
func (fs *FigureSet) BaselineTotal() float64 {
	for _, b := range fs.Exec.Bars {
		if b.Name == fs.Baseline {
			return b.Total()
		}
	}
	return 0
}

// Normalized returns the three sub-figures normalized to the baseline
// bar's execution-time total, the paper's convention ("normalized to GPU
// coherence" / "normalized to baseline scratchpad"): every sub-figure is
// divided by the same denominator so components remain comparable across
// sub-figures.
func (fs *FigureSet) Normalized() (exec, data, structural *stats.Group) {
	return fs.NormalizedTo(fs.BaselineTotal())
}

// NormalizedTo normalizes all three sub-figures by an explicit denominator
// (the MSHR sweep of figure 6.4 normalizes every set to the 32-entry
// scratchpad baseline).
func (fs *FigureSet) NormalizedTo(base float64) (exec, data, structural *stats.Group) {
	norm := func(g *stats.Group) *stats.Group {
		if base == 0 {
			return g
		}
		out := stats.NewGroup(g.Title+" (normalized)", g.Labels)
		for _, b := range g.Bars {
			out.Add(b.NormalizeTo(base))
		}
		return out
	}
	return norm(fs.Exec), norm(fs.Data), norm(fs.Struct)
}

// Render prints the normalized tables and charts for the whole figure.
func (fs *FigureSet) Render(width int) string {
	return fs.RenderTo(width, fs.BaselineTotal())
}

// RenderTo renders with an explicit normalization denominator.
func (fs *FigureSet) RenderTo(width int, base float64) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== Figure %s: %s (normalized to %s) ===\n", fs.ID, fs.Title, fs.Baseline)
	ne, nd, ns := fs.NormalizedTo(base)
	for _, g := range []*stats.Group{ne, nd, ns} {
		sb.WriteString(g.Table())
		sb.WriteString(g.Chart(width))
		sb.WriteString("\n")
	}
	return sb.String()
}

// Scale sizes the experiment workloads. Tests use small trees for speed;
// the benchmark harness uses the defaults.
type Scale struct {
	UTSNodes    int
	UTSDNodes   int
	FrontierMin int
	MSHRSizes   []int

	// Sparse/bursty workload sizing (the workload-gallery spec).
	BFSVertices    int
	SpMVRows       int
	PipelineRounds int
	GUPSUpdates    int
}

// DefaultScale is the benchmark-harness sizing: 6k-node trees and the
// widened figure 6.4 MSHR axis (up to 512 entries), both affordable since
// the skip-ahead engine stopped paying per cycle for latency waits.
func DefaultScale() Scale {
	return Scale{UTSNodes: 6000, UTSDNodes: 6000, FrontierMin: 120,
		MSHRSizes:   []int{32, 64, 128, 256, 512},
		BFSVertices: 4000, SpMVRows: 2048, PipelineRounds: 12, GUPSUpdates: 96}
}

// SmallScale keeps unit-test runtimes low; its MSHR axis spans the same
// widened range as DefaultScale (smallest and largest sizes only).
func SmallScale() Scale {
	return Scale{UTSNodes: 250, UTSDNodes: 250, FrontierMin: 60,
		MSHRSizes:   []int{32, 512},
		BFSVertices: 300, SpMVRows: 192, PipelineRounds: 4, GUPSUpdates: 12}
}

// FigureSpec is one reproduced figure declared as a sweep: run the jobs,
// fold each report into a FigureSet. The specs let the CLI batch every
// requested figure through one worker pool; Run executes one spec alone.
type FigureSpec struct {
	ID       string
	Title    string
	Baseline string
	// BaselineGroup, when non-empty, names a shared-normalization group:
	// every spec in the group renders against the baseline-bar total of
	// the group's first set (figure 6.4 normalizes all MSHR sizes to the
	// smallest size's scratchpad bar). Empty means self-normalized.
	BaselineGroup string
	// BarBy is copied to the FigureSet: what names each job's bar.
	BarBy string
	Sweep Sweep
}

// RenderBases returns the normalization denominator for each set produced
// by RunFigureSpecs(specs, ...): the set's own baseline-bar total, or the
// group leader's total for specs sharing a BaselineGroup. It is the single
// source of the paper's normalization conventions for renderers.
func RenderBases(specs []FigureSpec, sets []*FigureSet) []float64 {
	bases := make([]float64, len(sets))
	group := make(map[string]float64)
	for i := range sets {
		if i >= len(specs) || specs[i].BaselineGroup == "" {
			bases[i] = sets[i].BaselineTotal()
			continue
		}
		b, ok := group[specs[i].BaselineGroup]
		if !ok {
			b = sets[i].BaselineTotal()
			group[specs[i].BaselineGroup] = b
		}
		bases[i] = b
	}
	return bases
}

// Run executes the spec's sweep under cfg and folds the reports, in job
// order, into the FigureSet.
func (sp FigureSpec) Run(cfg SweepConfig) (*FigureSet, error) {
	sets, err := RunFigureSpecs([]FigureSpec{sp}, cfg)
	if err != nil {
		return nil, err
	}
	return sets[0], nil
}

// RunFigureSpecs concatenates every spec's jobs into one batch, runs it
// through the worker pool, and rebuilds one FigureSet per spec:
// RunFigureSpecsContext under context.Background().
func RunFigureSpecs(specs []FigureSpec, cfg SweepConfig) ([]*FigureSet, error) {
	return RunFigureSpecsContext(context.Background(), specs, cfg)
}

// RunFigureSpecsContext concatenates every spec's jobs into one batch,
// runs it through the worker pool under ctx, and rebuilds one FigureSet
// per spec. Results are identical to running each spec serially, for any
// parallelism; cancellation and per-job deadlines behave as in
// Sweep.RunContext, and any job failure (including cancellation) fails
// the whole figure batch.
func RunFigureSpecsContext(ctx context.Context, specs []FigureSpec, cfg SweepConfig) ([]*FigureSet, error) {
	var all Sweep
	all.Name = "figures"
	for _, sp := range specs {
		for _, j := range sp.Sweep.Jobs {
			// Keep the per-figure sweep name in the label so progress
			// lines and job errors say which figure (and MSHR size) a
			// repeated bar name like "stash" belongs to.
			if sp.Sweep.Name != "" {
				j.Label = sp.Sweep.Name + ": " + j.Label
			}
			all.Jobs = append(all.Jobs, j)
		}
	}
	results, err := all.RunContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	out := make([]*FigureSet, len(specs))
	i := 0
	for si, sp := range specs {
		fs := &FigureSet{ID: sp.ID, Title: sp.Title, Baseline: sp.Baseline, BarBy: sp.BarBy}
		for range sp.Sweep.Jobs {
			fs.add(results[i].Report)
			i++
		}
		out[si] = fs
	}
	return out, nil
}

// treeGrid is case study 1's grid: one tree search under both protocols,
// hashing 8 times per node (the registry default is 16).
func treeGrid(name, workload string, nodes, frontier int) Grid {
	return Grid{
		Name:      name,
		Workloads: []string{workload},
		Protocols: []Protocol{GPUCoherence, DeNovo},
		Params: WorkloadValues{"nodes": strconv.Itoa(nodes),
			"frontier": strconv.Itoa(frontier), "work": "8"},
	}
}

// Figure61Spec declares figure 6.1: UTS under GPU coherence vs DeNovo
// (execution dominated by synchronization stalls; remote-L1 data stalls
// and pending-release structural stalls appear under DeNovo).
func Figure61Spec(sc Scale) FigureSpec {
	return FigureSpec{
		ID: "6.1", Title: "UTS, GPU coherence vs DeNovo", Baseline: GPUCoherence.String(),
		Sweep: treeGrid("figure 6.1", "uts", sc.UTSNodes, sc.FrontierMin).Sweep(),
	}
}

// Figure62Spec declares figure 6.2: UTSD under both protocols (DeNovo
// cuts memory data stalls via the L2 component and memory structural
// stalls via pending release).
func Figure62Spec(sc Scale) FigureSpec {
	return FigureSpec{
		ID: "6.2", Title: "UTSD, GPU coherence vs DeNovo", Baseline: GPUCoherence.String(),
		Sweep: treeGrid("figure 6.2", "utsd", sc.UTSDNodes, sc.FrontierMin).Sweep(),
	}
}

// caseStudy2Locals is case study 2's local-memory axis, in bar order.
var caseStudy2Locals = []LocalMem{Scratchpad, ScratchpadDMA, Stash}

// Figure63Spec declares figure 6.3: the implicit microbenchmark on baseline
// scratchpad, scratchpad+DMA, and stash (all under DeNovo, 32-entry MSHR,
// on the registry entry's one-SM, 32-warp machine).
func Figure63Spec() FigureSpec {
	return FigureSpec{
		ID: "6.3", Title: "implicit microbenchmark, local-memory organizations",
		Baseline: Scratchpad.String(),
		Sweep: Grid{Name: "figure 6.3", Workloads: []string{"implicit"},
			LocalMems: caseStudy2Locals}.Sweep(),
	}
}

// WorkloadGallerySpec declares the sparse/bursty workload gallery: the
// four post-paper workloads (BFS, SpMV, pipeline, GUPS) under DeNovo in
// the paper's three-sub-figure presentation, one bar per workload. It is
// not a paper figure — it is the cross-application comparison GSI's
// methodology exists for, extended to the stall sources the original
// suite does not reach (frontier atomics, indirect gathers, bursty idle
// phases, MSHR/coalescer pressure). Each workload takes its size from
// the Scale; a small Scale (under 1000 BFS vertices) also takes each
// entry's small-scale worker populations, so the SmallScale gallery stays
// cheap for the test suites.
func WorkloadGallerySpec(sc Scale) FigureSpec {
	small := sc.BFSVertices < 1000
	sweep := Sweep{Name: "workload gallery"}
	for _, w := range []struct {
		name, param string
		size        int
	}{
		{"bfs", "vertices", sc.BFSVertices},
		{"spmv", "rows", sc.SpMVRows},
		{"pipeline", "rounds", sc.PipelineRounds},
		{"gups", "updates", sc.GUPSUpdates},
	} {
		params := WorkloadValues{}
		if small {
			e, _ := Workloads().Lookup(w.name)
			for k, v := range e.Small {
				params[k] = v
			}
		}
		params[w.param] = strconv.Itoa(w.size)
		grid := Grid{Workloads: []string{w.name}, Params: params}
		sweep.Jobs = append(sweep.Jobs, grid.Sweep().Jobs...)
	}
	return FigureSpec{
		ID: "W", Title: "sparse/bursty workload gallery", Baseline: "BFS",
		BarBy: barByWorkload, Sweep: sweep,
	}
}

// Figure64Specs declares figure 6.4 (the MSHR sensitivity sweep) as one
// spec per MSHR size: each FigureSet groups the three local-memory bars at
// that size, the paper's presentation. Every set normalizes to baseline
// scratchpad at the first size (see RenderBases).
func Figure64Specs(sc Scale) []FigureSpec {
	specs := make([]FigureSpec, len(sc.MSHRSizes))
	for i, mshr := range sc.MSHRSizes {
		specs[i] = FigureSpec{
			ID:            fmt.Sprintf("6.4[mshr=%d]", mshr),
			Title:         fmt.Sprintf("implicit, %d-entry MSHR", mshr),
			Baseline:      Scratchpad.String(),
			BaselineGroup: "6.4",
			Sweep: Grid{Name: fmt.Sprintf("figure 6.4 (mshr=%d)", mshr),
				Workloads: []string{"implicit"}, MSHRSizes: []int{mshr},
				LocalMems: caseStudy2Locals}.Sweep(),
		}
	}
	return specs
}
