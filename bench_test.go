// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus ablations of GSI's design choices and microbenchmarks of
// the classifier itself.
//
// Figure benchmarks execute the full experiment per iteration and report
// the figure's headline series as custom metrics (normalized execution
// totals and the key sub-components), so `go test -bench .` regenerates the
// numbers the paper plots; `gsi-experiments` prints the full tables.
package gsi

import (
	"testing"

	"gsi/internal/core"
)

// benchScale sizes the figure benchmarks: large enough to show the paper's
// contention and locality effects, small enough to iterate.
func benchScale() Scale {
	return Scale{UTSNodes: 800, UTSDNodes: 800, FrontierMin: 120, MSHRSizes: []int{32, 64, 128, 256}}
}

// BenchmarkTable51 regenerates Table 5.1: the latency calibration probe
// against the paper's reported ranges.
func BenchmarkTable51(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cal, err := Calibrate(DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(cal.L2Hit.Min), "L2hit-min")
		b.ReportMetric(float64(cal.L2Hit.Max), "L2hit-max")
		b.ReportMetric(float64(cal.RemoteL1.Min), "remoteL1-min")
		b.ReportMetric(float64(cal.RemoteL1.Max), "remoteL1-max")
		b.ReportMetric(float64(cal.Memory.Min), "mem-min")
		b.ReportMetric(float64(cal.Memory.Max), "mem-max")
	}
}

// BenchmarkFig61 regenerates figure 6.1: UTS, DeNovo normalized to GPU
// coherence (paper: near-equal totals, synchronization dominant).
func BenchmarkFig61(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fs, err := Figure61(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		gpuR, dnv := fs.Reports[0], fs.Reports[1]
		base := float64(gpuR.Counts.Total())
		b.ReportMetric(float64(dnv.Counts.Total())/base, "denovo-exec")
		b.ReportMetric(float64(gpuR.Counts.Cycles[core.Sync])/base, "gpu-sync")
		b.ReportMetric(float64(dnv.Counts.Cycles[core.Sync])/base, "denovo-sync")
		b.ReportMetric(float64(dnv.Counts.MemData[core.WhereRemoteL1])/base, "denovo-remoteL1")
	}
}

// BenchmarkFig62 regenerates figure 6.2: UTSD (paper: DeNovo cuts memory
// data stalls via the L2 component and structural stalls via pending
// release).
func BenchmarkFig62(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fs, err := Figure62(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		gpuR, dnv := fs.Reports[0], fs.Reports[1]
		base := float64(gpuR.Counts.Total())
		b.ReportMetric(float64(dnv.Counts.Total())/base, "denovo-exec")
		b.ReportMetric(ratio(dnv.Counts.Cycles[core.MemData], gpuR.Counts.Cycles[core.MemData]), "data-ratio")
		b.ReportMetric(ratio(dnv.Counts.Cycles[core.MemStructural], gpuR.Counts.Cycles[core.MemStructural]), "struct-ratio")
		b.ReportMetric(ratio(dnv.Counts.MemStruct[core.StructPendingRelease],
			gpuR.Counts.MemStruct[core.StructPendingRelease]), "release-ratio")
		b.ReportMetric(ratio(dnv.Counts.MemData[core.WhereL2], gpuR.Counts.MemData[core.WhereL2]), "L2data-ratio")
	}
}

// BenchmarkFig62VsFig61 regenerates the section 6.1.4 headline: UTSD cuts
// execution time by ~90% relative to UTS for both protocols.
func BenchmarkFig62VsFig61(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f61, err := Figure61(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		f62, err := Figure62(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(1-float64(f62.Reports[0].Cycles)/float64(f61.Reports[0].Cycles), "gpu-reduction")
		b.ReportMetric(1-float64(f62.Reports[1].Cycles)/float64(f61.Reports[1].Cycles), "denovo-reduction")
	}
}

// BenchmarkFig63 regenerates figure 6.3: the implicit microbenchmark across
// local-memory organizations (paper: no-stall cycles fall, structural
// stalls rise for scratchpad+DMA and stash).
func BenchmarkFig63(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fs, err := Figure63()
		if err != nil {
			b.Fatal(err)
		}
		base := fs.Reports[0]
		for j, name := range []string{"dma", "stash"} {
			r := fs.Reports[j+1]
			b.ReportMetric(float64(r.Counts.Total())/float64(base.Counts.Total()), name+"-exec")
			b.ReportMetric(ratio(r.Counts.Cycles[core.NoStall], base.Counts.Cycles[core.NoStall]), name+"-nostall")
			b.ReportMetric(ratio(r.Counts.Cycles[core.MemStructural], base.Counts.Cycles[core.MemStructural]), name+"-struct")
		}
	}
}

// BenchmarkFig64 regenerates figure 6.4: the MSHR sweep (paper: full-MSHR
// stalls vanish, data stalls grow ~13X for scratchpad and ~2.1X for stash,
// pending-DMA stalls grow ~8.9X for scratchpad+DMA).
func BenchmarkFig64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sets, err := Figure64(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		first, last := sets[0], sets[len(sets)-1]
		b.ReportMetric(ratio(last.Reports[0].Counts.Cycles[core.MemData],
			first.Reports[0].Counts.Cycles[core.MemData]), "scratch-data-growth")
		b.ReportMetric(ratio(last.Reports[2].Counts.Cycles[core.MemData],
			first.Reports[2].Counts.Cycles[core.MemData]), "stash-data-growth")
		b.ReportMetric(ratio(last.Reports[1].Counts.MemStruct[core.StructPendingDMA],
			first.Reports[1].Counts.MemStruct[core.StructPendingDMA]), "dma-pending-growth")
		b.ReportMetric(ratio(last.Reports[0].Counts.MemStruct[core.StructMSHRFull],
			first.Reports[0].Counts.MemStruct[core.StructMSHRFull]), "scratch-mshr-residual")
	}
}

// BenchmarkAblationSFIFO quantifies the paper's section 6.1.4 suggestion:
// a QuickRelease-style S-FIFO removes pending-release stalls.
func BenchmarkAblationSFIFO(b *testing.B) {
	w := NewUTSDWith(UTSD{Seed: 0xC0FFEE, Nodes: 400, FrontierMin: 120,
		Blocks: 15, WarpsPerBlock: 8, Work: 8, FMAs: 4, LQCap: 128})
	for i := 0; i < b.N; i++ {
		baseRep, err := Run(Options{Protocol: GPUCoherence}, w)
		if err != nil {
			b.Fatal(err)
		}
		sfifoRep, err := Run(Options{Protocol: GPUCoherence, SFIFO: true}, w)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(ratio(sfifoRep.Counts.MemStruct[core.StructPendingRelease],
			baseRep.Counts.MemStruct[core.StructPendingRelease]), "release-stall-ratio")
		b.ReportMetric(float64(sfifoRep.Counts.Total())/float64(baseRep.Counts.Total()), "exec-ratio")
	}
}

// BenchmarkAblationStrongCycle quantifies how classifying cycles with the
// strong (Algorithm 1) priority instead of the paper's weak order shifts
// the breakdown (section 4.2's design discussion).
func BenchmarkAblationStrongCycle(b *testing.B) {
	w := NewUTSDWith(UTSD{Seed: 0xC0FFEE, Nodes: 400, FrontierMin: 120,
		Blocks: 15, WarpsPerBlock: 8, Work: 8, FMAs: 4, LQCap: 128})
	for i := 0; i < b.N; i++ {
		weak, err := Run(Options{Protocol: GPUCoherence}, w)
		if err != nil {
			b.Fatal(err)
		}
		strong, err := Run(Options{Protocol: GPUCoherence, StrongCycle: true}, w)
		if err != nil {
			b.Fatal(err)
		}
		// How much of the breakdown moves between buckets.
		var moved uint64
		for k := 0; k < core.NumStallKinds; k++ {
			d := int64(weak.Counts.Cycles[k]) - int64(strong.Counts.Cycles[k])
			if d < 0 {
				d = -d
			}
			moved += uint64(d)
		}
		b.ReportMetric(float64(moved)/float64(weak.Counts.Total()), "breakdown-shift")
	}
}

// BenchmarkAblationEagerAttribution quantifies what deferred data-stall
// attribution buys: the fraction of memory data stalls an eager classifier
// would dump into the main-memory bucket despite being serviced closer.
func BenchmarkAblationEagerAttribution(b *testing.B) {
	w := NewUTSDWith(UTSD{Seed: 0xC0FFEE, Nodes: 400, FrontierMin: 120,
		Blocks: 15, WarpsPerBlock: 8, Work: 8, FMAs: 4, LQCap: 128})
	for i := 0; i < b.N; i++ {
		deferred, err := Run(Options{Protocol: GPUCoherence}, w)
		if err != nil {
			b.Fatal(err)
		}
		near := deferred.Counts.MemData[core.WhereL1] +
			deferred.Counts.MemData[core.WhereL1Coalescing] +
			deferred.Counts.MemData[core.WhereL2] +
			deferred.Counts.MemData[core.WhereRemoteL1]
		b.ReportMetric(ratio(near, deferred.Counts.Cycles[core.MemData]), "misattributed-by-eager")
	}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// --- microbenchmarks of the tool itself ---

// BenchmarkClassifyCycle measures Algorithm 1 + Algorithm 2 for a full
// 8-warp SM observation, the per-cycle cost GSI adds to the simulator.
func BenchmarkClassifyCycle(b *testing.B) {
	conds := []core.Cond{
		{Issued: true},
		{SyncBlocked: true},
		{MemDataHazard: true, PendingLoad: 7},
		{MemStructHazard: true, StructCause: core.StructMSHRFull},
		{CompDataHazard: true},
		{NextUnavailable: true},
		{SyncBlocked: true},
		{MemDataHazard: true, PendingLoad: 9},
	}
	obs := make([]core.WarpObs, len(conds))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, c := range conds {
			obs[j] = core.ClassifyInstruction(c)
		}
		_ = core.ClassifyCycle(obs)
	}
}

// BenchmarkInspectorObserve measures the full per-SM-cycle collection path
// including deferred attribution bookkeeping.
func BenchmarkInspectorObserve(b *testing.B) {
	in := core.NewInspector(1)
	obs := []core.WarpObs{
		{Kind: core.MemData, PendingLoad: 1},
		{Kind: core.Sync},
		{Kind: core.MemStructural, StructCause: core.StructStoreBufferFull},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Observe(0, obs)
		if i%64 == 0 {
			in.LoadCompleted(0, core.LoadID(1), core.WhereL2)
		}
	}
}

// benchThroughput runs one workload repeatedly and reports simulated
// cycles per iteration; b.N iterations over wall time give cycles/sec.
func benchThroughput(b *testing.B, sys SystemConfig, mode EngineMode, w Workload) {
	sys.Engine = mode
	var cycles uint64
	for i := 0; i < b.N; i++ {
		rep, err := Run(Options{System: sys, Protocol: DeNovo}, w)
		if err != nil {
			b.Fatal(err)
		}
		cycles += rep.Cycles
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "cycles/op")
}

// BenchmarkSimulatorCyclesPerSecond measures raw simulation throughput on
// the implicit microbenchmark (cycles simulated per wall-clock second,
// reported as cycles/op) under the default skip-ahead engine.
func BenchmarkSimulatorCyclesPerSecond(b *testing.B) {
	benchThroughput(b, implicitSystem(32), EngineSkip, NewImplicit(Scratchpad))
}

// BenchmarkSimulatorCyclesPerSecondQuiescent is the no-jump reference for
// BenchmarkSimulatorCyclesPerSecond: same active-set scheduling, clock
// advanced one cycle at a time.
func BenchmarkSimulatorCyclesPerSecondQuiescent(b *testing.B) {
	benchThroughput(b, implicitSystem(32), EngineQuiescent, NewImplicit(Scratchpad))
}

// BenchmarkSimulatorCyclesPerSecondDense is the dense-loop reference for
// BenchmarkSimulatorCyclesPerSecond: identical simulation, every component
// ticked every cycle. The ratios of the three are the scheduling wins.
func BenchmarkSimulatorCyclesPerSecondDense(b *testing.B) {
	benchThroughput(b, implicitSystem(32), EngineDense, NewImplicit(Scratchpad))
}

func benchUTSD() Workload {
	return NewUTSDWith(UTSD{Seed: 0xC0FFEE, Nodes: 400, FrontierMin: 120,
		Blocks: 15, WarpsPerBlock: 8, Work: 8, FMAs: 4, LQCap: 128})
}

// BenchmarkUTSDThroughput measures throughput on the figure 6.2 workload
// (15 SMs, DeNovo) under the default skip-ahead engine.
func BenchmarkUTSDThroughput(b *testing.B) {
	benchThroughput(b, DefaultConfig(), EngineSkip, benchUTSD())
}

// BenchmarkUTSDThroughputQuiescent is the no-jump reference for
// BenchmarkUTSDThroughput.
func BenchmarkUTSDThroughputQuiescent(b *testing.B) {
	benchThroughput(b, DefaultConfig(), EngineQuiescent, benchUTSD())
}

// BenchmarkUTSDThroughputDense is the dense-loop reference for
// BenchmarkUTSDThroughput.
func BenchmarkUTSDThroughputDense(b *testing.B) {
	benchThroughput(b, DefaultConfig(), EngineDense, benchUTSD())
}

// latencyBoundSystem is the latency-dominated configuration the skip-ahead
// engine targets: a single warp streaming a 256 KB region through
// dependent global loads with a 512-entry MSHR, so structural stalls
// vanish (figure 6.4's high-MSHR regime) and nearly every cycle is pure
// memory waiting. memLat selects the memory distance: 170 is Table 5.1's
// local DRAM; 600 models far/remote memory, where waits dominate even
// harder.
func latencyBoundSystem(memLat int) SystemConfig {
	sys := implicitSystem(512)
	sys.WarpsPerSM = 1
	sys.ScratchSize = 256 << 10
	sys.MemLat = memLat
	return sys
}

func latencyBoundWorkload() Workload {
	return NewImplicitWith(Implicit{Seed: 0xD17A, Warps: 1, DataBytes: 256 << 10, FMAs: 4, Rounds: 1}, Scratchpad)
}

// BenchmarkLatencyBound* measure the skip-ahead engine's headline case on
// the local-DRAM latency (Table 5.1's 170 cycles).
func BenchmarkLatencyBound(b *testing.B) {
	benchThroughput(b, latencyBoundSystem(170), EngineSkip, latencyBoundWorkload())
}

func BenchmarkLatencyBoundQuiescent(b *testing.B) {
	benchThroughput(b, latencyBoundSystem(170), EngineQuiescent, latencyBoundWorkload())
}

func BenchmarkLatencyBoundDense(b *testing.B) {
	benchThroughput(b, latencyBoundSystem(170), EngineDense, latencyBoundWorkload())
}

// BenchmarkLatencyBoundRemote* repeat the latency-bound measurement at a
// remote-memory distance (600 cycles): the deeper the wait, the more of
// the run the skip-ahead engine jumps.
func BenchmarkLatencyBoundRemote(b *testing.B) {
	benchThroughput(b, latencyBoundSystem(600), EngineSkip, latencyBoundWorkload())
}

func BenchmarkLatencyBoundRemoteQuiescent(b *testing.B) {
	benchThroughput(b, latencyBoundSystem(600), EngineQuiescent, latencyBoundWorkload())
}

func BenchmarkLatencyBoundRemoteDense(b *testing.B) {
	benchThroughput(b, latencyBoundSystem(600), EngineDense, latencyBoundWorkload())
}

// --- sparse/bursty workload throughput (skip vs quiescent vs dense) ---

func benchBFS() Workload {
	return NewBFSWith(BFS{Seed: 0xB4B4, Vertices: 1200, AvgDeg: 4, Blocks: 15, WarpsPerBlock: 4})
}

// BenchmarkBFSThroughput measures the level-synchronized BFS workload
// (frontier atomics and barrier spins keep the mesh event-dense, so the
// skip-ahead engine rides the active set rather than jumps).
func BenchmarkBFSThroughput(b *testing.B) {
	benchThroughput(b, DefaultConfig(), EngineSkip, benchBFS())
}

func BenchmarkBFSThroughputQuiescent(b *testing.B) {
	benchThroughput(b, DefaultConfig(), EngineQuiescent, benchBFS())
}

func BenchmarkBFSThroughputDense(b *testing.B) {
	benchThroughput(b, DefaultConfig(), EngineDense, benchBFS())
}

func benchStencil() Workload {
	return NewStencilWith(Stencil{Seed: 0x57E9, Width: 64, Rows: 4, Steps: 20,
		Blocks: 15, WarpsPerBlock: 2, Work: 2})
}

// BenchmarkStencilThroughput measures throughput on the issue-bound
// workload: about half of stencil's SM cycles issue an instruction and the
// mesh and memory system are mostly idle, so this is the row that moves with
// the per-instruction cost of the SM issue path.
func BenchmarkStencilThroughput(b *testing.B) {
	benchThroughput(b, DefaultConfig(), EngineSkip, benchStencil())
}

// BenchmarkStencilThroughputDense is the dense-loop reference for
// BenchmarkStencilThroughput; it runs the same issue path every cycle.
func BenchmarkStencilThroughputDense(b *testing.B) {
	benchThroughput(b, DefaultConfig(), EngineDense, benchStencil())
}

func benchSpMV() Workload {
	return NewSpMVWith(SpMV{Seed: 0x59A7, Rows: 1024, NnzPerRow: 8, Blocks: 15, WarpsPerBlock: 8})
}

// BenchmarkSpMVThroughput measures the streaming-with-gathers SpMV
// workload.
func BenchmarkSpMVThroughput(b *testing.B) {
	benchThroughput(b, DefaultConfig(), EngineSkip, benchSpMV())
}

func BenchmarkSpMVThroughputQuiescent(b *testing.B) {
	benchThroughput(b, DefaultConfig(), EngineQuiescent, benchSpMV())
}

func BenchmarkSpMVThroughputDense(b *testing.B) {
	benchThroughput(b, DefaultConfig(), EngineDense, benchSpMV())
}

func benchPipeline() Workload {
	return NewPipelineWith(Pipeline{Seed: 0x9199, Rounds: 12, Chase: 64, Work: 24,
		Producers: 1, Consumers: 1, PermWords: 1 << 12})
}

// BenchmarkPipelineThroughput measures the bursty producer-consumer
// pipeline — the skip-ahead engine's best case: while one stage runs its
// dependent-latency chain, the other stage's warps are idle at a barrier,
// so nearly the whole round is jumpable waiting.
func BenchmarkPipelineThroughput(b *testing.B) {
	benchThroughput(b, PipelineSystem(), EngineSkip, benchPipeline())
}

func BenchmarkPipelineThroughputQuiescent(b *testing.B) {
	benchThroughput(b, PipelineSystem(), EngineQuiescent, benchPipeline())
}

func BenchmarkPipelineThroughputDense(b *testing.B) {
	benchThroughput(b, PipelineSystem(), EngineDense, benchPipeline())
}

// benchSpinUTS and benchSpinUTSD are the event-density-ceiling shapes:
// single-warp SMs make lock/queue spin traffic the machine's dominant
// activity, so per-hop mesh events bound every global jump to the 1-2
// cycles between hops and SM naps carry the speed instead. blocks sets how
// many SMs spin concurrently: at 15 the machine is saturated with
// contending spinners, at 2 each spin round trip is a long uncontended
// traversal.
func benchSpinUTS(blocks int) Workload {
	return NewUTSWith(UTS{Seed: 0xC0FFEE, Nodes: 1000, FrontierMin: 60,
		Blocks: blocks, WarpsPerBlock: 1, Work: 16, FMAs: 4})
}

func benchSpinUTSD(blocks int) Workload {
	return NewUTSDWith(UTSD{Seed: 0xC0FFEE, Nodes: 1000, FrontierMin: 60,
		Blocks: blocks, WarpsPerBlock: 1, Work: 16, FMAs: 4, LQCap: 128})
}

// BenchmarkSpinUTSThroughput measures contended spin-dominated UTS (15
// concurrent spinners) under the skip engine.
func BenchmarkSpinUTSThroughput(b *testing.B) {
	benchThroughput(b, DefaultConfig(), EngineSkip, benchSpinUTS(15))
}

// BenchmarkSpinUTSThroughputDense is the dense reference (every component
// ticked every cycle).
func BenchmarkSpinUTSThroughputDense(b *testing.B) {
	benchThroughput(b, DefaultConfig(), EngineDense, benchSpinUTS(15))
}

// BenchmarkSpinUTSDThroughput measures the contended decentralized spin
// shape under the skip engine.
func BenchmarkSpinUTSDThroughput(b *testing.B) {
	benchThroughput(b, DefaultConfig(), EngineSkip, benchSpinUTSD(15))
}

// BenchmarkSpinUTSDThroughputDense is the dense reference.
func BenchmarkSpinUTSDThroughputDense(b *testing.B) {
	benchThroughput(b, DefaultConfig(), EngineDense, benchSpinUTSD(15))
}

// BenchmarkSpinUTSLatencyBound and its references measure the two-spinner
// regime: with most SMs idle, each lock round trip is a long uncontended
// mesh traversal.
func BenchmarkSpinUTSLatencyBound(b *testing.B) {
	benchThroughput(b, DefaultConfig(), EngineSkip, benchSpinUTS(2))
}

func BenchmarkSpinUTSLatencyBoundQuiescent(b *testing.B) {
	benchThroughput(b, DefaultConfig(), EngineQuiescent, benchSpinUTS(2))
}

func BenchmarkSpinUTSLatencyBoundDense(b *testing.B) {
	benchThroughput(b, DefaultConfig(), EngineDense, benchSpinUTS(2))
}

// BenchmarkSpinUTSDLatencyBound is the decentralized two-spinner shape.
func BenchmarkSpinUTSDLatencyBound(b *testing.B) {
	benchThroughput(b, DefaultConfig(), EngineSkip, benchSpinUTSD(2))
}

func BenchmarkSpinUTSDLatencyBoundQuiescent(b *testing.B) {
	benchThroughput(b, DefaultConfig(), EngineQuiescent, benchSpinUTSD(2))
}

func BenchmarkSpinUTSDLatencyBoundDense(b *testing.B) {
	benchThroughput(b, DefaultConfig(), EngineDense, benchSpinUTSD(2))
}

func benchGUPS() Workload {
	return NewGUPSWith(GUPS{Seed: 0x6095, Updates: 64, WindowsPerWarp: 32, Blocks: 15, WarpsPerBlock: 4})
}

// BenchmarkGUPSThroughput measures the random-access update workload
// (sustained MSHR/coalescer pressure).
func BenchmarkGUPSThroughput(b *testing.B) {
	benchThroughput(b, DefaultConfig(), EngineSkip, benchGUPS())
}

func BenchmarkGUPSThroughputQuiescent(b *testing.B) {
	benchThroughput(b, DefaultConfig(), EngineQuiescent, benchGUPS())
}

func BenchmarkGUPSThroughputDense(b *testing.B) {
	benchThroughput(b, DefaultConfig(), EngineDense, benchGUPS())
}

// BenchmarkAblationOwnedAtomics quantifies the owned-atomics suggestion of
// section 6.1.4: the local-service fraction of atomics and the execution
// and sync-stall ratios versus baseline DeNovo on UTSD.
func BenchmarkAblationOwnedAtomics(b *testing.B) {
	w := NewUTSDWith(UTSD{Seed: 0xC0FFEE, Nodes: 400, FrontierMin: 120,
		Blocks: 15, WarpsPerBlock: 8, Work: 8, FMAs: 4, LQCap: 128})
	for i := 0; i < b.N; i++ {
		base, err := Run(Options{Protocol: DeNovo}, w)
		if err != nil {
			b.Fatal(err)
		}
		owned, err := Run(Options{Protocol: DeNovo, OwnedAtomics: true}, w)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(ratio(owned.Mem.LocalAtomics, owned.Mem.Atomics), "local-atomic-frac")
		b.ReportMetric(float64(owned.Counts.Total())/float64(base.Counts.Total()), "exec-ratio")
		b.ReportMetric(ratio(owned.Counts.Cycles[core.Sync], base.Counts.Cycles[core.Sync]), "sync-ratio")
	}
}
