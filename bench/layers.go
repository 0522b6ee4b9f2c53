package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"time"

	"gsi"
	"gsi/internal/coherence"
	"gsi/internal/core"
	"gsi/internal/cpu"
	"gsi/internal/gpu"
	"gsi/internal/mem"
)

// layer is one group of components the traced loop times. The order is the
// engine's registration order, which is also the order within a cycle.
type layer int

const (
	layerMesh layer = iota
	layerMemCtrl
	layerL2
	layerCoreMem
	layerSM
	numLayers
)

var layerNames = [numLayers]string{"noc.mesh", "mem.memctrl", "mem.l2", "mem.coremem", "gpu.sm"}

// traceWindows is how many equal cycle windows a run's tick spans are
// aggregated into before they are written out.
const traceWindows = 64

// tickAgg aggregates the tick spans of one layer: unit ticks made, unit
// ticks that reported pending work, and wall nanoseconds inside Tick.
type tickAgg struct {
	ticks, busy uint64
	ns          int64
}

func (a *tickAgg) add(b tickAgg) { a.ticks += b.ticks; a.busy += b.busy; a.ns += b.ns }

// tracedRun is one simulation driven by the benchmark's own loop, with a
// span around each call into a layer.
type tracedRun struct {
	label  string
	cycles uint64
	counts core.Counts

	begin time.Time
	// Span durations, in ns: run -> {setup -> {gpu.new, workloads.build},
	// simulate -> tick spans, finish -> {workloads.verify}}. A Report cannot
	// be assembled from outside the gsi package, so report encoding is
	// timed on the product run's reports instead.
	gpuNew, build, simulate, verify, total int64

	layers  [numLayers]tickAgg
	windows [traceWindows][numLayers]tickAgg
	// windowStart is the offset from begin at which each window's first
	// cycle ran (-1 for a window no cycle fell into).
	windowStart [traceWindows]int64
}

// materialize fills in a zero System the way gsi.Run does.
func materialize(opt gsi.Options) gsi.Options {
	if opt.System.NumSMs == 0 {
		opt.System = gsi.DefaultConfig()
	}
	return opt
}

// runTraced builds the system with the same steps gsi.RunContext uses and
// drives it with a dense loop in the engine's registration order - mesh,
// memory controller, every L2 bank, every CoreMem, every SM - reading the
// clock once at each of the six boundaries per cycle. wantCycles (from the
// product run) sizes the cycle windows. The caller compares cycles and
// counts with the product run's.
func runTraced(job gsi.Job, wantCycles uint64) (*tracedRun, error) {
	opt := materialize(job.Options)
	// The dense engine is the one this loop reproduces; it also keeps
	// express routing off, as gsi.Run does in dense mode.
	opt.System.Engine, opt.System.Parallel = gsi.EngineDense, 0
	tr := &tracedRun{label: job.Label, begin: time.Now()}
	for i := range tr.windowStart {
		tr.windowStart[i] = -1
	}
	since := func() int64 { return int64(time.Since(tr.begin)) }

	var policy mem.Policy = coherence.GPUCoherence{}
	if opt.Protocol == gsi.DeNovo {
		policy = coherence.DeNovo{}
	}
	g, err := gpu.New(opt.System, coherence.PoliciesFor(opt.System.NumSMs, policy))
	if err != nil {
		return nil, err
	}
	g.Insp.StrongCycle, g.Insp.EagerAttribution = opt.StrongCycle, opt.EagerAttribution
	for _, cm := range g.Sys.Cores {
		cm.SFIFO, cm.OwnedAtomics = opt.SFIFO, opt.OwnedAtomics
	}
	tr.gpuNew = since()

	w := job.Workload()
	h := cpu.NewHost(g.Sys.Backing)
	kernel, verify, err := w.Build(h)
	if err != nil {
		return nil, fmt.Errorf("building %s: %w", w.Name(), err)
	}
	if err := g.Launch(kernel); err != nil {
		return nil, err
	}
	tr.build = since() - tr.gpuNew

	simStart := since()
	sys := g.Sys
	var cycle uint64
	for !g.Done() {
		if cycle >= opt.System.MaxCycles {
			return nil, fmt.Errorf("%s: traced loop passed MaxCycles %d", w.Name(), opt.System.MaxCycles)
		}
		win := traceWindows - 1
		if cycle < wantCycles {
			win = int(cycle * traceWindows / wantCycles)
		}
		aggs := &tr.windows[win]
		t0 := since()
		if tr.windowStart[win] < 0 {
			tr.windowStart[win] = t0
		}
		aggs[layerMesh].tick(sys.Mesh.Tick(cycle))
		t1 := since()
		aggs[layerMesh].ns += t1 - t0
		aggs[layerMemCtrl].tick(sys.Ctrl.Tick(cycle))
		t2 := since()
		aggs[layerMemCtrl].ns += t2 - t1
		for _, b := range sys.Banks {
			aggs[layerL2].tick(b.Tick(cycle))
		}
		t3 := since()
		aggs[layerL2].ns += t3 - t2
		for _, c := range sys.Cores {
			aggs[layerCoreMem].tick(c.Tick(cycle))
		}
		t4 := since()
		aggs[layerCoreMem].ns += t4 - t3
		for _, sm := range g.SMs {
			aggs[layerSM].tick(sm.Tick(cycle))
		}
		aggs[layerSM].ns += since() - t4
		cycle++
	}
	g.Insp.Flush()
	tr.simulate = since() - simStart
	tr.cycles = cycle

	finStart := since()
	if err := verify(h); err != nil {
		return nil, fmt.Errorf("%s failed verification in the traced loop: %w", w.Name(), err)
	}
	tr.verify = since() - finStart
	tr.counts = g.Insp.Aggregate()
	for win := range tr.windows {
		for l := range tr.windows[win] {
			tr.layers[l].add(tr.windows[win][l])
		}
	}
	tr.total = since()
	return tr, nil
}

// tick counts one unit's Tick and whether it reported pending work.
func (a *tickAgg) tick(busy bool) {
	a.ticks++
	if busy {
		a.busy++
	}
}

// variant is one engine configuration of the identity ladder.
type variant struct {
	name string
	set  func(*gsi.SystemConfig)
}

// ladder lists the engine variants every simulation is re-run under. Each
// must produce the product run's report byte for byte. parallel2 is left
// out on a one-core host.
func ladder() []variant {
	vs := []variant{
		{"quiescent", func(c *gsi.SystemConfig) { c.Engine = gsi.EngineQuiescent }},
		{"dense", func(c *gsi.SystemConfig) { c.Engine = gsi.EngineDense }},
		{"express_off", func(c *gsi.SystemConfig) { c.Express = false }},
	}
	if runtime.NumCPU() >= 2 {
		vs = append(vs, variant{"parallel2", func(c *gsi.SystemConfig) { c.Parallel = 2 }})
	}
	return vs
}

// runAll runs every job serially, with set applied to its system (nil = the
// product configuration), and returns the reports, their encodings and the
// wall time of the gsi.Run calls alone.
func runAll(jobs []gsi.Job, set func(*gsi.SystemConfig), tr *gsi.Trace) ([]*gsi.Report, [][]byte, time.Duration, error) {
	reps := make([]*gsi.Report, len(jobs))
	docs := make([][]byte, len(jobs))
	var wall time.Duration
	for i, job := range jobs {
		opt := materialize(job.Options)
		if set != nil {
			set(&opt.System)
		}
		opt.Trace = tr
		start := time.Now()
		rep, err := gsi.Run(opt, job.Workload())
		wall += time.Since(start)
		if err != nil {
			return nil, nil, wall, fmt.Errorf("%s: %w", job.Label, err)
		}
		if err := checkReport(rep); err != nil {
			return nil, nil, wall, err
		}
		reps[i] = rep
		if docs[i], err = rep.JSON(); err != nil {
			return nil, nil, wall, err
		}
	}
	return reps, docs, wall, nil
}

// hostCounters samples the runtime's cumulative GC CPU, total CPU and
// heap object allocations.
func hostCounters() (gcCPU, totalCPU, mallocs float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64(), float64(s[2].Value.Uint64())
}

// simLayers is the traced pass over a set of simulations: the product run,
// the benchmark's own traced loop, the engine ladder and the trace-attach
// run, each checked against the product run. It fills m with every
// per-simulator-layer metric and returns the spans for the trace file.
// Timing-only rounds repeat while time remains; timings are medians over
// the rounds, counts come from the product run and are exact. withLadder
// is off for sweep_figures, whose twenty simulations would take the whole
// run to repeat six times over; there only the product run and the traced
// loop happen.
func simLayers(jobs []gsi.Job, withLadder bool, deadline time.Time, o *ops, m map[string]float64) ([]*tracedRun, string) {
	// Product run: the default engine, tracing off. Exact counts, the
	// reference bytes, and the base of every ratio below.
	runtime.GC()
	gc0, cpu0, mal0 := hostCounters()
	reps, docs, wall, err := runAll(jobs, nil, nil)
	gc1, cpu1, mal1 := hostCounters()
	if !o.check("product run", err) {
		return nil, ""
	}
	cycles, instrs, digest := productCounts(reps, docs, m)
	m["host.gc_cpu_share"] = ratio(gc1-gc0, cpu1-cpu0)
	m["host.mallocs_per_cycle"] = ratio(mal1-mal0, cycles)

	// Encoding the reports again, timed on its own.
	var encodeUs []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		for _, rep := range reps {
			if _, err := rep.JSON(); err != nil {
				o.check("report encode", err)
			}
		}
		encodeUs = append(encodeUs, float64(time.Since(start).Microseconds()))
	}
	m["gsi.report_encode_us"] = median(encodeUs)

	same := func(what string, got [][]byte, err error) bool {
		for i := range jobs {
			if err == nil && !bytes.Equal(got[i], docs[i]) {
				err = fmt.Errorf("%s: report differs from the product run's", jobs[i].Label)
			}
		}
		return o.check(what+" identical to the product run", err)
	}

	// Timed rounds. The first is mandatory and also carries the identity
	// checks; later rounds only add timing samples.
	walls := map[string][]float64{"skip": {float64(wall)}}
	var traced []*tracedRun
	var tracedWall, exportMs []float64
	roundStart := time.Now()
	for round := 0; ; round++ {
		if round > 0 {
			_, _, wall, err := runAll(jobs, nil, nil)
			if o.check("product run repeat", err) {
				walls["skip"] = append(walls["skip"], float64(wall))
			}
		}
		if withLadder {
			for _, v := range ladder() {
				_, got, wall, err := runAll(jobs, v.set, nil)
				if same(v.name, got, err) {
					walls[v.name] = append(walls[v.name], float64(wall))
				}
			}
			tr := gsi.NewTrace()
			_, got, wall, err := runAll(jobs, nil, tr)
			if same("run with Options.Trace", got, err) {
				walls["trace_attached"] = append(walls["trace_attached"], float64(wall))
				start := time.Now()
				o.check("trace export", tr.WriteChromeTrace(io.Discard))
				exportMs = append(exportMs, float64(time.Since(start).Microseconds())/1e3)
			}
		}

		var runs []*tracedRun
		var total int64
		ok := true
		for i, job := range jobs {
			t, err := runTraced(job, reps[i].Cycles)
			if err == nil && (t.cycles != reps[i].Cycles || t.counts != reps[i].Counts) {
				err = fmt.Errorf("%s: traced loop gave %d cycles, product run %d; counts equal: %t",
					job.Label, t.cycles, reps[i].Cycles, t.counts == reps[i].Counts)
			}
			if !o.check("traced loop reproduces the product run", err) {
				ok = false
				break
			}
			runs = append(runs, t)
			total += t.total
		}
		if ok {
			tracedWall = append(tracedWall, float64(total))
			if traced == nil {
				traced = runs
			}
		}

		roundTime := time.Since(roundStart) / time.Duration(round+1)
		if time.Now().Add(roundTime).After(deadline) {
			break
		}
	}

	perCycle := func(name string) float64 { return ratio(median(walls[name]), cycles) }
	m["sim.skip_ns_per_cycle"] = perCycle("skip")
	m["sim.quiescent_ns_per_cycle"] = perCycle("quiescent")
	m["sim.dense_ns_per_cycle"] = perCycle("dense")
	m["sim.parallel2_ns_per_cycle"] = perCycle("parallel2")
	m["sim.speedup_skip_vs_quiescent"] = ratio(median(walls["quiescent"]), median(walls["skip"]))
	m["sim.speedup_skip_vs_dense"] = ratio(median(walls["dense"]), median(walls["skip"]))
	m["sim.speedup_parallel2_vs_skip"] = ratio(median(walls["skip"]), median(walls["parallel2"]))
	m["noc.speedup_express_vs_off"] = ratio(median(walls["express_off"]), median(walls["skip"]))
	m["trace.attach_overhead_ratio"] = ratio(median(walls["trace_attached"]), median(walls["skip"]))
	m["trace.export_ms"] = median(exportMs)
	if traced == nil {
		return nil, ""
	}

	// Layer attribution from the first round's traced loops. The dense
	// loop ticks every cycle, so on a workload the product engine mostly
	// jumps (latency_skip) these shares describe the dense engine.
	var layers [numLayers]tickAgg
	var gpuNew, build, verify, simulate int64
	for _, t := range traced {
		for l := range layers {
			layers[l].add(t.layers[l])
		}
		gpuNew += t.gpuNew
		build += t.build
		verify += t.verify
		simulate += t.simulate
	}
	var inLayers int64
	for l, prefix := range layerNames {
		m[prefix+"_tick_ns_per_cycle"] = ratio(float64(layers[l].ns), cycles)
		m[prefix+"_busy_tick_share"] = ratio(float64(layers[l].busy), float64(layers[l].ticks))
		inLayers += layers[l].ns
	}
	m["noc.mesh_ns_per_hop"] = ratio(float64(layers[layerMesh].ns), m["noc.hops"])
	m["gpu.sm_ns_per_instr"] = ratio(float64(layers[layerSM].ns), instrs)
	m["gpu.new_ms"] = float64(gpuNew) / 1e6
	m["workloads.build_ms"] = float64(build) / 1e6
	m["workloads.verify_ms"] = float64(verify) / 1e6
	m["sim.trace_loop_self_ns_per_cycle"] = ratio(float64(simulate-inLayers), cycles)
	m["sim.trace_overhead_ratio"] = ratio(median(tracedWall), median(walls["dense"]))
	return traced, digest
}

// productCounts fills m with the deterministic counts of a set of product
// reports - the metrics that compare exactly across commits - and returns
// the totals the timing metrics are normalised by, plus the SHA-256 of
// the concatenated report encodings.
func productCounts(reps []*gsi.Report, docs [][]byte, m map[string]float64) (cycles, instrs float64, sha string) {
	var steps, jumps, skipped, classified float64
	var counts core.Counts
	var bytesOut int
	digest := sha256.New()
	for i, rep := range reps {
		cycles += float64(rep.Cycles)
		instrs += float64(rep.InstrsIssued)
		steps += float64(rep.EngineStats.Steps)
		jumps += float64(rep.EngineStats.Jumps)
		skipped += float64(rep.EngineStats.SkippedCycles)
		classified += float64(rep.Cycles) * float64(len(rep.PerSM))
		counts.Add(&rep.Counts)
		m["noc.messages"] += float64(rep.Net.Messages)
		m["noc.hops"] += float64(rep.Net.Hops)
		m["noc.express_deliveries"] += float64(rep.EngineStats.ExpressDeliveries)
		m["noc.express_demotions"] += float64(rep.EngineStats.ExpressDemotions)
		m["mem.memctrl_requests"] += float64(rep.Mem.MemRequests)
		m["mem.l1_hits"] += float64(rep.Mem.L1Hits)
		m["mem.l1_misses"] += float64(rep.Mem.L1Misses)
		m["mem.mshr_full_events"] += float64(rep.Mem.MSHRFullEvents)
		m["mem.atomics"] += float64(rep.Mem.Atomics)
		m["mem.write_throughs"] += float64(rep.Mem.WriteThroughs)
		m["mem.own_reqs"] += float64(rep.Mem.OwnReqs)
		bytesOut += len(docs[i])
		digest.Write(docs[i])
	}
	m["sim.cycles"] = cycles
	m["sim.steps"] = steps
	m["sim.jumps"] = jumps
	m["sim.skipped_cycle_share"] = ratio(skipped, cycles)
	m["gpu.instrs_issued"] = instrs
	m["gpu.ipc"] = ratio(instrs, cycles)
	m["core.share_no_stall"] = stallShare(counts, core.NoStall)
	m["core.share_sync"] = stallShare(counts, core.Sync)
	m["core.share_mem_data"] = stallShare(counts, core.MemData)
	m["core.share_mem_struct"] = stallShare(counts, core.MemStructural)
	m["core.share_comp_data"] = stallShare(counts, core.CompData)
	m["core.unclassified_cycles"] = classified - float64(counts.Total())
	m["gsi.report_bytes"] = float64(bytesOut)
	return cycles, instrs, hex.EncodeToString(digest.Sum(nil))
}

// isolated times three hot functions on their own, outside any simulation:
// a tag-array lookup, one Inspector observation of a 32-warp SM, and the
// cycle classifier alone.
func isolated(m map[string]float64) {
	const iters = 1 << 20
	// A 32 KB 8-way array with 64-byte lines holds 512 lines; probing 1024
	// distinct lines after installing the first 512 gives 50% hits.
	arr := mem.NewArray(32<<10, 8, 64)
	for line := uint64(0); line < 512; line++ {
		arr.Install(line*64, line)
	}
	hits := 0
	start := time.Now()
	for i := uint64(0); i < iters; i++ {
		if arr.Lookup((i*2654435761%1024)*64, i) != nil {
			hits++
		}
	}
	m["mem.array_lookup_ns"] = float64(time.Since(start).Nanoseconds()) / iters
	if hits == 0 || hits == iters {
		m["mem.array_lookup_ns"] = 0 // the driver is broken; do not report a time
	}

	// 32 warps, four mixes the classifier resolves at different depths of
	// its priority scan.
	mixes := make([][]core.WarpObs, 4)
	for i, kind := range []core.StallKind{core.Sync, core.MemStructural, core.CompData, core.NoStall} {
		obs := make([]core.WarpObs, 32)
		for w := range obs {
			obs[w] = core.WarpObs{Kind: core.CompStructural}
		}
		obs[31] = core.WarpObs{Kind: kind, StructCause: core.StructMSHRFull}
		mixes[i] = obs
	}
	insp := core.NewInspector(1)
	start = time.Now()
	for i := 0; i < iters; i++ {
		insp.Observe(0, mixes[i&3])
	}
	m["core.observe_ns"] = float64(time.Since(start).Nanoseconds()) / iters
	noStall := 0
	start = time.Now()
	for i := 0; i < iters; i++ {
		if core.ClassifyCycle(mixes[i&3]).Kind == core.NoStall {
			noStall++
		}
	}
	m["core.classify_cycle_ns"] = float64(time.Since(start).Nanoseconds()) / iters
	if insp.SM(0).Total() != iters || noStall != iters/4 {
		m["core.observe_ns"], m["core.classify_cycle_ns"] = 0, 0
	}
}

// stallShare is a stall kind's share of all classified cycles.
func stallShare(c core.Counts, k core.StallKind) float64 {
	return ratio(float64(c.Cycles[k]), float64(c.Total()))
}
