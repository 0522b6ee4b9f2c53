package gsi

import (
	"bytes"
	"errors"
	"math/bits"
	"math/rand"
	"strconv"
	"testing"

	"gsi/internal/workloads"
)

// figureSpecsEngine returns every figure spec at small scale with the given
// scheduling engine forced on each job (withDefaults keeps the selection on
// a job whose System is otherwise zero).
func figureSpecsEngine(mode EngineMode) []FigureSpec {
	sc := SmallScale()
	specs := []FigureSpec{Figure61Spec(sc), Figure62Spec(sc), Figure63Spec(), WorkloadGallerySpec(sc)}
	specs = append(specs, Figure64Specs(sc)...)
	for si := range specs {
		for ji := range specs[si].Sweep.Jobs {
			specs[si].Sweep.Jobs[ji].Options.System.Engine = mode
		}
	}
	return specs
}

// TestEnginesByteIdentical is the cross-engine determinism contract: for
// every figure spec, the dense reference loop and the event-driven
// skip-ahead engine must produce byte-identical reports — same cycles, same
// stall counts, same memory statistics, same JSON.
func TestEnginesByteIdentical(t *testing.T) {
	type engineRun struct {
		mode EngineMode
		sets []*FigureSet
		json [][]byte
	}
	runs := []*engineRun{
		{mode: EngineDense},
		{mode: EngineSkip},
	}
	for _, r := range runs {
		sets, err := RunFigureSpecs(figureSpecsEngine(r.mode), SweepConfig{})
		if err != nil {
			t.Fatalf("%s engine: %v", r.mode, err)
		}
		r.sets = sets
		r.json = make([][]byte, len(sets))
		for i, fs := range sets {
			doc, err := fs.JSON()
			if err != nil {
				t.Fatal(err)
			}
			r.json[i] = doc
		}
	}
	ref := runs[0]
	for _, r := range runs[1:] {
		if len(r.sets) != len(ref.sets) {
			t.Fatalf("%s vs %s: set counts differ: %d vs %d",
				r.mode, ref.mode, len(r.sets), len(ref.sets))
		}
		for i := range ref.sets {
			if !bytes.Equal(r.json[i], ref.json[i]) {
				rd, dd := diffLine(r.json[i], ref.json[i])
				t.Errorf("figure %s diverges between %s and %s engines:\n %s: %s\n %s: %s",
					ref.sets[i].ID, r.mode, ref.mode, r.mode, rd, ref.mode, dd)
			}
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

// TestEnginesIdenticalWithTimeline pins the bulk span-crediting path: with
// the per-SM timeline enabled (the collector most sensitive to when cycles
// are recorded), a 15-SM run whose SMs drain at different times must render
// identically whether cycles were observed one at a time (dense) or stall
// windows and idle tails were credited as one span per SM nap, with global
// jumps on top (skip).
func TestEnginesIdenticalWithTimeline(t *testing.T) {
	w := workedTree(t)
	run := func(mode EngineMode) *Report {
		opt := Options{Protocol: DeNovo, Timeline: true}
		opt.System = DefaultConfig()
		opt.System.Engine = mode
		rep, err := Run(opt, w)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	d, s := run(EngineDense), run(EngineSkip)
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
	w := workedTree(t)
	run := func(mode EngineMode, timeline bool, tr *Trace) []byte {
		opt := Options{Protocol: DeNovo, Timeline: timeline, Trace: tr}
		opt.System = DefaultConfig()
		opt.System.Engine = mode
		rep, err := Run(opt, w)
		if err != nil {
			t.Fatalf("%s engine: %v", mode, err)
		}
		if timeline && rep.Timeline == "" {
			t.Fatalf("%s engine: timeline run rendered no timeline", mode)
		}
		doc, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return doc
	}
	for _, timeline := range []bool{false, true} {
		dj := run(EngineDense, timeline, nil)
		for _, mode := range []EngineMode{EngineDense, EngineSkip} {
			tr := NewTrace()
			if rj := run(mode, timeline, tr); !bytes.Equal(rj, dj) {
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

// smallRegistryRun runs one registry workload at SmallScale on its tuned
// system under DeNovo, with set applied to the system last.
func smallRegistryRun(t *testing.T, e *WorkloadEntry, set func(*SystemConfig)) *Report {
	t.Helper()
	w, err := e.BuildSmall(nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := e.TuneSystem(true, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	set(&cfg)
	rep, err := Run(Options{System: cfg, Protocol: DeNovo}, w)
	if err != nil {
		t.Fatalf("%s engine: %v", cfg.Engine, err)
	}
	return rep
}

// TestNextEventWorkloadPool is the full-system analog of the sim package's
// NextEvent property test: every workload in the registry — the pool
// includes BFS's global barriers, SpMV's gathers, the pipeline's bursty
// idle phases, and GUPS's MSHR saturation — runs at SmallScale under the
// skip-ahead engine and must produce the byte-identical JSON report the
// dense reference loop does. Any component under-promising on any of these
// access patterns diverges here.
func TestNextEventWorkloadPool(t *testing.T) {
	reg := Workloads()
	for _, name := range reg.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			e, _ := reg.Lookup(name)
			run := func(mode EngineMode) []byte {
				doc, err := smallRegistryRun(t, e, func(c *SystemConfig) { c.Engine = mode }).JSON()
				if err != nil {
					t.Fatal(err)
				}
				return doc
			}
			if rj, dj := run(EngineSkip), run(EngineDense); !bytes.Equal(rj, dj) {
				a, b := diffLine(rj, dj)
				t.Errorf("skip diverges from dense:\n skip: %s\n dense: %s", a, b)
			}
		})
	}
}

// TestInertSchedulingFields: SystemConfig.Parallel, SystemConfig.Express and
// the EngineQuiescent alias survive only so bench/ keeps compiling. Setting
// them changes nothing — not the Report bytes, not the scheduling counters —
// and CacheKey ignores them.
func TestInertSchedulingFields(t *testing.T) {
	reg := Workloads()
	for _, name := range []string{"uts", "gups"} {
		e, _ := reg.Lookup(name)
		want := smallRegistryRun(t, e, func(*SystemConfig) {})
		wj, err := want.JSON()
		if err != nil {
			t.Fatal(err)
		}
		for label, set := range map[string]func(*SystemConfig){
			"Parallel=2":    func(c *SystemConfig) { c.Parallel = 2 },
			"Express=false": func(c *SystemConfig) { c.Express = false },
			"Express=true":  func(c *SystemConfig) { c.Express = true },
			"Parallel=2,Express=false,Engine=EngineQuiescent": func(c *SystemConfig) {
				c.Parallel, c.Express, c.Engine = 2, false, EngineQuiescent
			},
		} {
			got := smallRegistryRun(t, e, set)
			gj, err := got.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gj, wj) {
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
	rep, err := Run(Options{System: latencyBoundSystem(), Protocol: DeNovo}, latencyBoundWorkload(t))
	if err != nil {
		t.Fatal(err)
	}
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
	dense, err := Run(Options{System: sys, Protocol: DeNovo}, latencyBoundWorkload(t))
	if err != nil {
		t.Fatal(err)
	}
	sj, _ := rep.JSON()
	dj, _ := dense.JSON()
	if !bytes.Equal(sj, dj) {
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
		rep := smallRegistryRun(t, e, func(*SystemConfig) {})
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
// count halved, kept or doubled, and each ablation switch on or off. Dense
// and skip must produce byte-identical JSON, and every SM's profile must
// account every cycle. A draw the model rejects before it runs (a
// doubled array past the scratchpad, a warp count that does not divide the
// work) is skipped, and the draws a workload keeps are counted.
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
			if n, ok := redraw(drawnSizeParam[name]); ok && name == "steal" {
				// The deque ring must hold every task.
				d.Params["cap"] = strconv.Itoa(max(128, 1<<bits.Len(uint(n-1))))
			}
			redraw("warps")
			d.SFIFO, d.StrongCycle, d.EagerAttrib = rng.Intn(2) == 1, rng.Intn(2) == 1, rng.Intn(2) == 1
			if owned := rng.Intn(2) == 1; owned && name != "uts" && name != "utsd" && name != "steal" {
				d.OwnedAtomics = true
			}
			if drawAgrees(t, e, d) {
				kept++
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

// drawAgrees runs one draw under both engines and reports whether the model
// accepted it.
func drawAgrees(t *testing.T, e *WorkloadEntry, d configDraw) bool {
	t.Helper()
	cfg, err := e.TuneSystem(true, d.Params, DefaultConfig())
	if err != nil {
		return false
	}
	cfg.MSHREntries, cfg.StoreBufEntries = d.MSHR, d.MSHR
	var ref []byte
	for _, mode := range []EngineMode{EngineDense, EngineSkip} {
		w, err := e.BuildSmall(d.Params)
		if err != nil {
			return false
		}
		opt := Options{System: cfg, Protocol: d.Protocol, SFIFO: d.SFIFO, OwnedAtomics: d.OwnedAtomics,
			StrongCycle: d.StrongCycle, EagerAttribution: d.EagerAttrib}
		opt.System.Engine = mode
		rep, err := Run(opt, w)
		if err != nil {
			if mode == EngineDense && !errors.Is(err, ErrMaxCycles) && !errors.Is(err, ErrStalled) {
				return false // rejected before it ran
			}
			t.Errorf("%+v: %s: %v", d, mode, err)
			return true
		}
		for sm, c := range rep.PerSM {
			if c.Total() != rep.Cycles {
				t.Errorf("%+v: %s: sm%d classified %d of %d cycles", d, mode, sm, c.Total(), rep.Cycles)
			}
		}
		doc, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = doc
		} else if !bytes.Equal(doc, ref) {
			a, b := diffLine(doc, ref)
			t.Errorf("%+v: %s diverges from dense:\n %s: %s\n dense: %s", d, mode, mode, a, b)
		}
	}
	return true
}
