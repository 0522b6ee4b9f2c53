package gsi

import (
	"bytes"
	"math/bits"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"gsi/internal/workloads"
)

// TestEnginesByteIdentical is the cross-engine determinism contract: for
// every figure spec, the dense reference loop and the event-driven
// skip-ahead engine must produce byte-identical reports — same cycles, same
// stall counts, same memory statistics, same JSON. Both legs come from the
// memo; the skip leg is the set TestGoldenFigures renders.
func TestEnginesByteIdentical(t *testing.T) {
	dense, skip := sharedFigures(t, SmallScale(), EngineDense), sharedFigures(t, SmallScale(), EngineSkip)
	if len(skip) != len(dense) {
		t.Fatalf("skip vs dense: set counts differ: %d vs %d", len(skip), len(dense))
	}
	for i := range dense {
		if sj, dj := reportJSON(t, skip[i]), reportJSON(t, dense[i]); !bytes.Equal(sj, dj) {
			a, b := diffLine(sj, dj)
			t.Errorf("figure %s diverges between skip and dense engines:\n skip: %s\n dense: %s", dense[i].ID, a, b)
		}
	}
}

// diffLine returns the first differing line of two documents.
func diffLine(a, b []byte) (string, string) {
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(al) && i < len(bl); i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return string(al[i]), string(bl[i])
		}
	}
	return "<prefix>", "<prefix>"
}

// workedTree builds a UTSD tree sized so that the host pre-expansion leaves
// the GPU a frontier to work through: a smaller tree (120 nodes at frontier
// 40) is consumed whole on the host, and its kernel only polls an empty
// queue.
func workedTree(t *testing.T) Workload {
	t.Helper()
	w := mustBuild(t, "utsd", WorkloadValues{"nodes": "250", "frontier": "60", "work": "8"})
	u := w.(workloads.UTSD)
	if n := len(workloads.GenTree(u.Seed, u.Nodes).SeedFrontier(u.FrontierMin).Frontier); n == 0 {
		t.Fatalf("utsd nodes=%d frontier=%d: the host pre-expansion leaves the GPU no work", u.Nodes, u.FrontierMin)
	}
	return w
}

// workedTreeRun runs workedTree under mode with the timeline and trace as
// given. It runs fresh: the tests that call it observe the run itself.
func workedTreeRun(t *testing.T, mode EngineMode, timeline bool, tr *Trace) *Report {
	t.Helper()
	opt := Options{System: DefaultConfig(), Protocol: DeNovo, Timeline: timeline, Trace: tr}
	opt.System.Engine = mode
	rep, err := Run(opt, workedTree(t))
	if err != nil {
		t.Fatalf("%s engine: %v", mode, err)
	}
	if timeline && rep.Timeline == "" {
		t.Fatalf("%s engine: timeline run rendered no timeline", mode)
	}
	return rep
}

// TestEnginesIdenticalWithTimeline pins the bulk span-crediting path: with
// the per-SM timeline enabled (the collector most sensitive to when cycles
// are recorded), a 15-SM run whose SMs drain at different times must render
// identically whether cycles were observed one at a time (dense) or stall
// windows and idle tails were credited as one span per SM nap, with global
// jumps on top (skip).
func TestEnginesIdenticalWithTimeline(t *testing.T) {
	d, s := workedTreeRun(t, EngineDense, true, nil), workedTreeRun(t, EngineSkip, true, nil)
	if s.Timeline != d.Timeline {
		t.Errorf("timelines diverge:\n--- skip ---\n%s\n--- dense ---\n%s", s.Timeline, d.Timeline)
	}
	if s.Cycles != d.Cycles {
		t.Errorf("cycles diverge: %d vs %d", s.Cycles, d.Cycles)
	}
	if s.Counts != d.Counts {
		t.Errorf("counts diverge:\n%+v\nvs\n%+v", s.Counts, d.Counts)
	}
}

// TestEnginesByteIdenticalWithTrace extends the cross-engine contract to
// the observability layer: with a trace collector attached — every
// Inspector classification and engine jump flowing into it — dense and skip
// must still produce the byte-identical JSON report an untraced dense run
// does. Tracing is observation only; any hook that perturbs simulation
// state diverges here. The timeline leg puts both sinks on the span stream
// at once: the rendered timeline in the report must match the untraced
// dense one, and the collector must still fill.
func TestEnginesByteIdenticalWithTrace(t *testing.T) {
	for _, timeline := range []bool{false, true} {
		dj := reportJSON(t, workedTreeRun(t, EngineDense, timeline, nil))
		for _, mode := range []EngineMode{EngineDense, EngineSkip} {
			tr := NewTrace()
			if rj := reportJSON(t, workedTreeRun(t, mode, timeline, tr)); !bytes.Equal(rj, dj) {
				a, b := diffLine(rj, dj)
				t.Errorf("traced %s (timeline=%v) diverges from untraced dense:\n %s: %s\n dense: %s",
					mode, timeline, mode, a, b)
			}
			if tr.NumSMs() == 0 || tr.EndCycle() == 0 {
				t.Errorf("traced %s (timeline=%v) collected nothing (sms=%d end=%d)",
					mode, timeline, tr.NumSMs(), tr.EndCycle())
			}
			var spans int
			for sm := 0; sm < tr.NumSMs(); sm++ {
				spans += len(tr.Spans(sm))
			}
			if spans == 0 {
				t.Errorf("traced %s (timeline=%v) recorded no stall spans", mode, timeline)
			}
		}
	}
}

// TestNextEventWorkloadPool is the full-system analog of the sim package's
// NextEvent property test: every workload in the registry — the pool
// includes BFS's global barriers, SpMV's gathers, the pipeline's bursty
// idle phases, and GUPS's MSHR saturation — runs at SmallScale under the
// dense reference loop and must produce the byte-identical JSON report of
// the skip-ahead run the fingerprint golden pins (shared, not rerun). Any
// component under-promising on any of these access patterns diverges here.
func TestNextEventWorkloadPool(t *testing.T) {
	reg := Workloads()
	var jobs []Job
	for _, name := range reg.Names() {
		e, _ := reg.Lookup(name)
		opt, w := registryPoint(t, e, DeNovo, false)
		dense := opt
		dense.System.Engine = EngineDense
		thunk := func() Workload { return w }
		jobs = append(jobs, Job{Label: name + " skip", Options: opt, Workload: thunk},
			Job{Label: name + " dense", Options: dense, Workload: thunk})
	}
	reps := sharedRuns(t, jobs)
	for i, name := range reg.Names() {
		skip, dense := reps[2*i], reps[2*i+1]
		t.Run(name, func(t *testing.T) {
			if sj, dj := reportJSON(t, skip), reportJSON(t, dense); !bytes.Equal(sj, dj) {
				a, b := diffLine(sj, dj)
				t.Errorf("skip diverges from dense:\n skip: %s\n dense: %s", a, b)
			}
		})
	}
}

// TestInertSchedulingFields: SystemConfig.Parallel, SystemConfig.Express and
// the EngineQuiescent alias survive only so bench/ keeps compiling. Setting
// them changes nothing — not the Report bytes, not the scheduling counters —
// and CacheKey ignores them. The reference is the memo's default run; each
// setting runs fresh, since what is under test is a run that carries it.
func TestInertSchedulingFields(t *testing.T) {
	reg := Workloads()
	for _, name := range []string{"uts", "gups"} {
		e, _ := reg.Lookup(name)
		opt, w := registryPoint(t, e, DeNovo, false)
		want := sharedRun(t, opt, w)
		wj := reportJSON(t, want)
		for label, set := range map[string]func(*SystemConfig){
			"Parallel=2":   func(c *SystemConfig) { c.Parallel = 2 },
			"Express=true": func(c *SystemConfig) { c.Express = true },
			"Parallel=2,Express=true,Engine=EngineQuiescent": func(c *SystemConfig) {
				c.Parallel, c.Express, c.Engine = 2, true, EngineQuiescent
			},
		} {
			o := opt
			set(&o.System)
			got, err := Run(o, w)
			if err != nil {
				t.Fatalf("%s %s: %v", name, label, err)
			}
			if gj := reportJSON(t, got); !bytes.Equal(gj, wj) {
				a, b := diffLine(gj, wj)
				t.Errorf("%s %s: report differs from the default run's:\n %s\n %s", name, label, a, b)
			}
			if got.EngineStats != want.EngineStats {
				t.Errorf("%s %s: EngineStats %+v, default run %+v", name, label, got.EngineStats, want.EngineStats)
			}
			if st := got.EngineStats; st.ExpressDeliveries != 0 || st.ExpressDemotions != 0 {
				t.Errorf("%s %s: express counters %d/%d, want always zero", name, label, st.ExpressDeliveries, st.ExpressDemotions)
			}
			sys := DefaultConfig()
			set(&sys)
			if CacheKey(Options{System: sys}, name, nil) != CacheKey(Options{}, name, nil) {
				t.Errorf("%s %s: CacheKey changed", name, label)
			}
		}
	}
}

// latencyBoundSystem is the latency-dominated configuration the skip-ahead
// engine targets: a single warp streaming a 256 KB region through
// dependent global loads with a 512-entry MSHR, so structural stalls
// vanish (figure 6.4's high-MSHR regime) and nearly every cycle is pure
// memory waiting at Table 5.1's local-DRAM latency.
func latencyBoundSystem() SystemConfig {
	sys := implicitSystem(512)
	sys.WarpsPerSM = 1
	sys.ScratchSize = 256 << 10
	return sys
}

func latencyBoundWorkload(t testing.TB) Workload {
	return mustBuild(t, "implicit", WorkloadValues{"warps": "1", "databytes": "262144", "rounds": "1"})
}

// TestSkipAheadActuallyJumps guards the point of the skip-ahead engine: on
// a latency-dominated configuration (large MSHR, so structural stalls
// vanish and warps mostly wait on memory), the engine must take jumps and
// skip a substantial share of the simulated cycles — while producing the
// exact same report the dense loop does (covered by the diff tests above).
func TestSkipAheadActuallyJumps(t *testing.T) {
	rep := sharedRun(t, Options{System: latencyBoundSystem(), Protocol: DeNovo}, latencyBoundWorkload(t))
	st := rep.EngineStats
	if st.Jumps == 0 {
		t.Fatalf("skip-ahead engine took no jumps on a latency-dominated run (%d cycles)", rep.Cycles)
	}
	if st.SkippedCycles == 0 || st.Steps+st.SkippedCycles == 0 {
		t.Fatalf("no cycles skipped: stats %+v", st)
	}
	frac := float64(st.SkippedCycles) / float64(st.Steps+st.SkippedCycles)
	if frac < 0.2 {
		t.Errorf("skip-ahead skipped only %.1f%% of %d cycles on a high-MSHR run; expected a latency-dominated workload to jump most of its waiting",
			frac*100, rep.Cycles)
	}
	// The jumps must not have changed anything: the same configuration on
	// the dense loop produces the identical report.
	sys := latencyBoundSystem()
	sys.Engine = EngineDense
	dense := sharedRun(t, Options{System: sys, Protocol: DeNovo}, latencyBoundWorkload(t))
	if sj, dj := reportJSON(t, rep), reportJSON(t, dense); !bytes.Equal(sj, dj) {
		a, b := diffLine(sj, dj)
		t.Errorf("latency-bound config diverges between skip and dense:\n skip:  %s\n dense: %s", a, b)
	}
}

// TestNapsActuallyNap guards the point of SM local time: on the two stall-
// bound shapes — spin-heavy UTS (synchronization) and GUPS (a full MSHR,
// which needs the LSU's retry promotion) — at least 70% of all SM-cycles
// must be credited by naps rather than classified one tick at a time, while
// the global clock hardly jumps at all (the mesh is busy nearly every
// cycle). The reports' identity with the dense loop is covered by
// TestNextEventWorkloadPool.
func TestNapsActuallyNap(t *testing.T) {
	reg := Workloads()
	for _, name := range []string{"uts", "gups"} {
		e, _ := reg.Lookup(name)
		opt, w := registryPoint(t, e, DeNovo, false)
		rep := sharedRun(t, opt, w)
		st := rep.EngineStats
		smCycles := rep.Cycles * uint64(len(rep.PerSM))
		if st.Naps == 0 || float64(st.NappedSMCycles) < 0.7*float64(smCycles) {
			t.Errorf("%s: %d naps credited %d of %d SM-cycles (%.1f%%), want at least 70%%",
				name, st.Naps, st.NappedSMCycles, smCycles, 100*float64(st.NappedSMCycles)/float64(smCycles))
		}
		if st.NappedSMCycles > smCycles {
			t.Errorf("%s: naps credited %d SM-cycles, more than the run's %d", name, st.NappedSMCycles, smCycles)
		}
	}
}

// configDraw is one configuration of TestEnginesAgreeOnDrawnConfigs; it
// prints as the draw that failed.
type configDraw struct {
	Workload                 string
	Params                   WorkloadValues
	Protocol                 Protocol
	MSHR                     int
	SFIFO, OwnedAtomics      bool
	StrongCycle, EagerAttrib bool
}

// drawnSizeParam names each workload's primary size parameter, the one a
// draw halves or doubles.
var drawnSizeParam = map[string]string{
	"uts": "nodes", "utsd": "nodes", "implicit": "databytes", "bfs": "vertices",
	"spmv": "rows", "pipeline": "rounds", "gups": "updates", "stencil": "steps", "steal": "tasks",
}

// TestEnginesAgreeOnDrawnConfigs holds the engines to the dense oracle on
// configurations nobody wrote by hand: seeded draws over every registry
// workload at SmallScale, each with its size parameter halved, kept or
// doubled, either protocol, MSHR = store buffer in {4, 8, 32, 512}, a warp
// count halved, kept or doubled, and each ablation switch on or off
// (implicit draws its warp count and chunk together, so that every draw is
// one its scratchpad holds). Dense and skip must produce byte-identical
// JSON, and Run itself fails a profile that does not account every cycle
// (ErrAccounting). A draw TuneSystem, Build or Launch refuses (a warp count
// that does not divide the work) is skipped with its reason logged; once a
// draw launches, any error fails it. Draws run fresh; kept ones are
// counted, slow ones logged.
//
// Owned atomics stay off for uts, utsd and steal: their spin locks livelock
// under them at modest sizes on the dense loop too (ROADMAP item 3).
func TestEnginesAgreeOnDrawnConfigs(t *testing.T) {
	const drawsPerWorkload = 4
	rng := rand.New(rand.NewSource(0x6751))
	reg := Workloads()
	for _, name := range reg.Names() {
		e, _ := reg.Lookup(name)
		kept := 0
		for i := 0; i < drawsPerWorkload; i++ {
			d := configDraw{Workload: name, Params: WorkloadValues{}, Protocol: GPUCoherence,
				MSHR: []int{4, 8, 32, 512}[rng.Intn(4)]}
			if rng.Intn(2) == 1 {
				d.Protocol = DeNovo
			}
			// Halve, keep or double an integer SmallScale parameter.
			redraw := func(param string) (int, bool) {
				n, err := strconv.Atoi(smallParam(e, param))
				if err != nil {
					return 0, false
				}
				n = max(1, n<<rng.Intn(3)/2)
				d.Params[param] = strconv.Itoa(n)
				return n, true
			}
			if name == "implicit" {
				// Each warp owns a chunk of whole 512-byte load iterations
				// and the array fits the 16 KB scratchpad: 32, 16 or 8
				// warps, each chunk 512 bytes up to the size that fills it.
				// The same two draws as every other workload's.
				chunkShift, warpShift := rng.Intn(3), rng.Intn(3)
				warps := 32 >> warpShift
				d.Params["warps"] = strconv.Itoa(warps)
				d.Params["databytes"] = strconv.Itoa(warps * 512 << min(chunkShift, warpShift))
			} else {
				if n, ok := redraw(drawnSizeParam[name]); ok && name == "steal" {
					// The deque ring must hold every task.
					d.Params["cap"] = strconv.Itoa(max(128, 1<<bits.Len(uint(n-1))))
				}
				redraw("warps")
			}
			d.SFIFO, d.StrongCycle, d.EagerAttrib = rng.Intn(2) == 1, rng.Intn(2) == 1, rng.Intn(2) == 1
			if owned := rng.Intn(2) == 1; owned && name != "uts" && name != "utsd" && name != "steal" {
				d.OwnedAtomics = true
			}
			start := time.Now()
			if drawAgrees(t, e, d) {
				kept++
			}
			if took := time.Since(start); took > time.Second {
				t.Logf("slow draw, %v: %+v", took.Round(time.Millisecond), d)
			}
		}
		t.Logf("%s: %d of %d draws accepted", name, kept, drawsPerWorkload)
		if kept == 0 {
			t.Errorf("%s: every draw was rejected; the workload was not checked", name)
		}
	}
}

// smallParam returns a parameter's SmallScale value ("" if the schema lacks
// it).
func smallParam(e *WorkloadEntry, name string) string {
	if v, ok := e.Small[name]; ok {
		return v
	}
	return e.Defaults()[name]
}

// drawAgrees reports whether the model accepts the draw (see launch) and,
// if it does, runs it under both engines.
func drawAgrees(t *testing.T, e *WorkloadEntry, d configDraw) bool {
	t.Helper()
	cfg, err := e.TuneSystem(true, d.Params, DefaultConfig())
	var w Workload
	if err == nil {
		cfg.MSHREntries, cfg.StoreBufEntries = d.MSHR, d.MSHR
		if w, err = e.BuildSmall(d.Params); err == nil {
			err = launch(cfg, d.Protocol, w)
		}
	}
	if err != nil {
		t.Logf("%+v: rejected before it ran: %v", d, err)
		return false
	}
	var ref []byte
	for _, mode := range []EngineMode{EngineDense, EngineSkip} {
		opt := Options{System: cfg, Protocol: d.Protocol, SFIFO: d.SFIFO, OwnedAtomics: d.OwnedAtomics,
			StrongCycle: d.StrongCycle, EagerAttribution: d.EagerAttrib}
		opt.System.Engine = mode
		rep, err := Run(opt, w) // an unbalanced SM profile is an ErrAccounting here
		if err != nil {
			t.Errorf("%+v: %s: %v", d, mode, err)
			return true
		}
		doc := reportJSON(t, rep)
		if ref == nil {
			ref = doc
		} else if !bytes.Equal(doc, ref) {
			a, b := diffLine(doc, ref)
			t.Errorf("%+v: %s diverges from dense:\n %s: %s\n dense: %s", d, mode, mode, a, b)
		}
	}
	return true
}
