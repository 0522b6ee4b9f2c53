package main

import "encoding/json"

// metricDef declares one metric. The tables below are the single source of
// the names, units, directions and bounds: BENCHMARK.json is generated
// from them (-describe) and a test keeps the two equal.
type metricDef struct {
	name   string
	unit   string
	higher bool    // better: higher (otherwise lower)
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	exact  bool    // a deterministic count: compares exactly across commits
}

// benchVersion changes whenever a workload's inputs or a metric's meaning
// change, so that -check refuses to compare results across the change.
const benchVersion = 1

// runSeconds is how long one run measures by default.
const runSeconds = 10

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. Every workload reports every one of them; none is ever 0.
var endToEnd = []metricDef{
	// Nanoseconds the caller waits per simulated cycle in the results they
	// get back: gsi.Run for the simulator workloads, RunFigureSpecs for
	// sweep_figures, submit until all results are fetched for serve_mix,
	// submit until done for serve_cached. Median over the timed operations,
	// at reference speed (see calib.go).
	{name: "host_ns_per_cycle", unit: "ns", bound: 0.25},
	// Heap bytes allocated (TotalAlloc) per simulated cycle delivered, over
	// the whole timed window.
	{name: "alloc_bytes_per_cycle", unit: "B", bound: 0.10},
	// VmHWM of the workload's process.
	{name: "peak_rss_mb", unit: "MB", bound: 0.15},
	// Time of a fresh process from start to ready for the first timed
	// operation: runtime and package initialisation, input generation,
	// server boot, cache fill (serve_cached), small-scale warm-up. Median
	// of three to twenty-five fresh processes, at reference speed.
	{name: "setup_s", unit: "s", bound: 0.25},
}

// perLayer are the metrics of single layers, measured in the traced pass.
// The prefix is the module. A metric that does not apply to a workload
// reads 0 there.
var perLayer = []metricDef{
	// sim: the engine. Exact scheduling counts of the product run, then the
	// engine ladder with the base of every ratio.
	{name: "sim.cycles", unit: "cycles", exact: true},
	{name: "sim.steps", unit: "count", exact: true},
	{name: "sim.jumps", unit: "count", higher: true, exact: true},
	{name: "sim.skipped_cycle_share", unit: "ratio", higher: true, exact: true},
	{name: "sim.skip_ns_per_cycle", unit: "ns"},
	{name: "sim.quiescent_ns_per_cycle", unit: "ns"},
	{name: "sim.dense_ns_per_cycle", unit: "ns"},
	{name: "sim.parallel2_ns_per_cycle", unit: "ns"},
	{name: "sim.speedup_skip_vs_quiescent", unit: "ratio", higher: true},
	{name: "sim.speedup_skip_vs_dense", unit: "ratio", higher: true},
	{name: "sim.speedup_parallel2_vs_skip", unit: "ratio", higher: true},
	{name: "sim.trace_loop_self_ns_per_cycle", unit: "ns"},
	{name: "sim.trace_overhead_ratio", unit: "ratio"},

	// noc: Mesh.Tick, which includes the Deliver callbacks into the
	// receiving unit.
	{name: "noc.mesh_tick_ns_per_cycle", unit: "ns"},
	{name: "noc.mesh_busy_tick_share", unit: "ratio"},
	{name: "noc.mesh_ns_per_hop", unit: "ns"},
	{name: "noc.speedup_express_vs_off", unit: "ratio", higher: true},
	{name: "noc.messages", unit: "count", exact: true},
	{name: "noc.hops", unit: "count", exact: true},
	{name: "noc.express_deliveries", unit: "count", higher: true, exact: true},
	{name: "noc.express_demotions", unit: "count", exact: true},

	// mem: memory controller, L2 banks, per-core memory units.
	{name: "mem.memctrl_tick_ns_per_cycle", unit: "ns"},
	{name: "mem.memctrl_busy_tick_share", unit: "ratio"},
	{name: "mem.l2_tick_ns_per_cycle", unit: "ns"},
	{name: "mem.l2_busy_tick_share", unit: "ratio"},
	{name: "mem.coremem_tick_ns_per_cycle", unit: "ns"},
	{name: "mem.coremem_busy_tick_share", unit: "ratio"},
	{name: "mem.memctrl_requests", unit: "count", exact: true},
	{name: "mem.l1_hits", unit: "count", higher: true, exact: true},
	{name: "mem.l1_misses", unit: "count", exact: true},
	{name: "mem.mshr_full_events", unit: "count", exact: true},
	{name: "mem.atomics", unit: "count", exact: true},
	{name: "mem.write_throughs", unit: "count", exact: true},
	{name: "mem.own_reqs", unit: "count", exact: true},
	{name: "mem.array_lookup_ns", unit: "ns"},

	// gpu: SM.Tick covers warp issue, the LSU, scratchpad/stash/DMA and the
	// Inspector call; they cannot be separated from outside.
	{name: "gpu.sm_tick_ns_per_cycle", unit: "ns"},
	{name: "gpu.sm_busy_tick_share", unit: "ratio"},
	{name: "gpu.sm_ns_per_instr", unit: "ns"},
	{name: "gpu.new_ms", unit: "ms"},
	{name: "gpu.instrs_issued", unit: "count", exact: true},
	{name: "gpu.ipc", unit: "ratio", higher: true, exact: true},

	// core: the Inspector. The shares also prove each workload stresses
	// what its description says.
	{name: "core.share_no_stall", unit: "ratio", higher: true, exact: true},
	{name: "core.share_sync", unit: "ratio", exact: true},
	{name: "core.share_mem_data", unit: "ratio", exact: true},
	{name: "core.share_mem_struct", unit: "ratio", exact: true},
	{name: "core.share_comp_data", unit: "ratio", exact: true},
	{name: "core.unclassified_cycles", unit: "cycles", exact: true},
	{name: "core.observe_ns", unit: "ns"},
	{name: "core.classify_cycle_ns", unit: "ns"},

	{name: "workloads.build_ms", unit: "ms"},
	{name: "workloads.verify_ms", unit: "ms"},

	{name: "trace.attach_overhead_ratio", unit: "ratio"},
	{name: "trace.export_ms", unit: "ms"},

	{name: "host.gc_cpu_share", unit: "ratio"},
	{name: "host.mallocs_per_cycle", unit: "count"},
	{name: "host.calibration_ms", unit: "ms"},

	// gsi: the root package. Report encoding, and the model-accuracy
	// figures the repository can check without a hardware reference.
	{name: "gsi.report_encode_us", unit: "us"},
	{name: "gsi.report_bytes", unit: "B", exact: true},
	{name: "gsi.table51_gap_cycles", unit: "cycles", exact: true},
	{name: "gsi.fig62_vs_fig61_reduction", unit: "ratio", higher: true, exact: true},
	{name: "gsi.fig64_scratch_data_growth", unit: "ratio", higher: true, exact: true},
	{name: "gsi.fig64_stash_data_growth", unit: "ratio", higher: true, exact: true},
	{name: "gsi.fig64_dma_pending_growth", unit: "ratio", higher: true, exact: true},

	// sweep: sweep_figures only.
	{name: "sweep.jobs", unit: "count", exact: true},
	{name: "sweep.serial_s", unit: "s"},
	{name: "sweep.speedup_vs_serial", unit: "ratio", higher: true},

	// serve: the serve workloads only.
	{name: "serve.cold_sweep_s", unit: "s"},
	{name: "serve.submit_ms_p50", unit: "ms"},
	{name: "serve.cached_sweep_ms_p50", unit: "ms"},
	{name: "serve.cached_sweep_ms_p95", unit: "ms"},
	{name: "serve.overlap_sweep_s_p50", unit: "s"},
	{name: "serve.result_get_us_p50", unit: "us"},
	{name: "serve.result_bytes", unit: "B"},
	{name: "serve.pool_busy_share", unit: "ratio", higher: true},
	{name: "serve.cache_hits", unit: "count", higher: true},
	{name: "serve.dedup_hits", unit: "count", higher: true},
	{name: "serve.simulations", unit: "count", exact: true},
	{name: "serve.unaccounted_jobs", unit: "count"},
}

// defsFor returns the table a pass reports.
func defsFor(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

func (d metricDef) better() string {
	if d.higher {
		return "higher"
	}
	return "lower"
}

// describe renders BENCHMARK.json from the tables.
func describe() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.name, d.unit, d.better(), d.bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.name, d.unit, d.better()})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	return append(data, '\n'), err
}
