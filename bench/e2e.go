package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gsi"
)

// ops counts attempted and failed operations; the first few failures are
// kept for the log.
type ops struct {
	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string
}

// check counts one operation and records err as its failure, if any.
func (o *ops) check(what string, err error) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	if err == nil {
		return true
	}
	o.failed++
	if len(o.errs) < 8 {
		o.errs = append(o.errs, fmt.Sprintf("%s: %v", what, err))
	}
	return false
}

// sweepWorkers is the worker count for figure sweeps: every core, at most
// four.
func sweepWorkers() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// session is a workload after set-up: inputs generated, server booted,
// host-side lazy initialisation done by a small warm-up.
type session struct {
	w     workload
	seed  uint64
	quick bool

	jobs    []gsi.Job        // kindSim: the one job; kindFigures: every job
	specs   []gsi.FigureSpec // kindFigures
	h       *harness         // serve kinds
	clients int              // closed-loop client goroutines
	// pace, when set, makes each client send bursts of burst back-to-back
	// operations, one burst every pace.
	pace  time.Duration
	burst int

	// reference holds the bytes every later answer is compared with: the
	// first report of a kindSim workload, or the results gsi-serve gave
	// for refGrid.
	reference  [][]byte
	refGrid    gsi.Grid
	gridCycles uint64
}

// setup does everything that must happen before the first timed operation.
// The modelled caches start empty in every simulation; the warm-up is a
// small-scale run for the host's sake only. setup_s is the wall time of a
// fresh process doing exactly this.
func setup(w workload, seed uint64, quick bool) (*session, error) {
	s := &session{w: w, seed: seed, quick: quick, clients: 1}
	switch w.kind {
	case kindSim:
		jobs, err := w.simJobs(seed, false, w.params)
		if quick {
			jobs, err = w.simJobs(seed, true, nil)
		}
		if err != nil {
			return nil, err
		}
		s.jobs = jobs
		// The warm-up's inputs are fixed, whatever the seed: it is there
		// for the host's sake and set-up time should not depend on it.
		warm, err := w.simJobs(0, true, w.warm)
		if err != nil {
			return nil, err
		}
		if _, err := gsi.Run(warm[0].Options, warm[0].Workload()); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	case kindFigures:
		s.specs = figureSpecs(seed)
		s.jobs = specJobs(s.specs)
		if _, err := gsi.Figure63Spec().Run(gsi.SweepConfig{Parallel: 1}); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	case kindServeCold, kindServeCached:
		h, err := newHarness()
		if err != nil {
			return nil, err
		}
		s.h = h
		if _, _, err := h.sweep(serveGrid(0, "warm", 0, true), true); err != nil {
			h.close()
			return nil, fmt.Errorf("warm-up sweep: %w", err)
		}
		if w.kind == kindServeCached {
			// Callers of a sweep service each wait for their reply: a
			// closed loop, never more clients than cores.
			if s.clients = runtime.NumCPU(); s.clients > 2 {
				s.clients = 2
			}
			// gsi-serve keeps every sweep it was ever sent, so its memory
			// grows with the number submitted. Bursts on a schedule fix
			// that number per run (500 sweeps/s per client, a fraction of
			// what the server can answer), so that peak_rss_mb does not
			// rise when the server gets faster; back-to-back sweeps within
			// a burst keep the latency that of a busy server, not of one
			// woken from idle for every request.
			s.pace, s.burst = 100*time.Millisecond, 50
			// Filling the cache is part of this workload's set-up.
			s.refGrid = serveGrid(seed, w.name, 0, quick)
			results, _, err := h.sweep(s.refGrid, true)
			if err != nil {
				h.close()
				return nil, fmt.Errorf("cache fill: %w", err)
			}
			s.reference = results
			if s.gridCycles, err = sumCycles(results); err != nil {
				h.close()
				return nil, err
			}
		}
	}
	return s, nil
}

func (s *session) close() error {
	if s.h != nil {
		return s.h.close()
	}
	return nil
}

// checkReport applies the per-report correctness checks: the stall
// accounting conserves cycles (every cycle of every SM classified once).
func checkReport(rep *gsi.Report) error {
	if got, want := rep.Counts.Total(), rep.Cycles*uint64(len(rep.PerSM)); got != want {
		return fmt.Errorf("%s: %d classified cycles, want cycles x SMs = %d", rep.Workload, got, want)
	}
	return nil
}

// op runs the i-th timed operation and returns its wall time and the
// simulated cycles it delivered to the caller.
func (s *session) op(i int) (wall time.Duration, cycles uint64, err error) {
	start := time.Now()
	switch s.w.kind {
	case kindSim:
		rep, err := gsi.Run(s.jobs[0].Options, s.jobs[0].Workload())
		wall = time.Since(start)
		if err != nil {
			return wall, 0, err
		}
		if err := checkReport(rep); err != nil {
			return wall, 0, err
		}
		doc, err := rep.JSON()
		if err != nil {
			return wall, 0, err
		}
		if s.reference == nil {
			s.reference = [][]byte{doc}
		} else if !bytes.Equal(doc, s.reference[0]) {
			return wall, 0, fmt.Errorf("repeat %d produced a different report", i)
		}
		return wall, rep.Cycles, nil
	case kindFigures:
		sets, err := gsi.RunFigureSpecs(s.specs, gsi.SweepConfig{Parallel: sweepWorkers()})
		wall = time.Since(start)
		if err != nil {
			return wall, 0, err
		}
		for _, fs := range sets {
			for _, rep := range fs.Reports {
				if err := checkReport(rep); err != nil {
					return wall, 0, err
				}
				cycles += rep.Cycles
			}
		}
		return wall, cycles, nil
	case kindServeCold:
		grid := serveGrid(s.seed, s.w.name, i, s.quick)
		results, t, err := s.h.sweep(grid, true)
		if err != nil {
			return t.total(), 0, err
		}
		if i == 0 {
			s.reference, s.refGrid = results, grid
		}
		cycles, err = sumCycles(results)
		return t.total(), cycles, err
	default: // kindServeCached
		_, t, err := s.h.sweep(s.refGrid, false)
		return t.total(), s.gridCycles, err
	}
}

// directRun runs jobs outside any server and returns their encoded
// reports, the bytes gsi.Run produces for each point.
func directRun(jobs []gsi.Job) ([]*gsi.Report, [][]byte, error) {
	results, err := gsi.Sweep{Name: "direct", Jobs: jobs}.Run(gsi.SweepConfig{Parallel: runtime.NumCPU()})
	if err != nil {
		return nil, nil, err
	}
	reps := make([]*gsi.Report, len(results))
	docs := make([][]byte, len(results))
	for i, r := range results {
		reps[i] = r.Report
		if err := checkReport(r.Report); err != nil {
			return nil, nil, err
		}
		if docs[i], err = r.Report.JSON(); err != nil {
			return nil, nil, err
		}
	}
	return reps, docs, nil
}

// verifyServed checks that every result the server gave for a grid equals
// the bytes gsi.Run produces for that point; one operation per result. It
// returns the direct run's reports.
func verifyServed(grid gsi.Grid, served [][]byte, o *ops) []*gsi.Report {
	reps, docs, err := directRun(grid.Sweep().Jobs)
	if err != nil || len(docs) != len(served) {
		o.check("direct run of the served grid", fmt.Errorf("%d served results, %d direct: %v", len(served), len(docs), err))
		return nil
	}
	for i := range docs {
		var err error
		if !bytes.Equal(docs[i], served[i]) {
			err = fmt.Errorf("served bytes differ from gsi.Run's")
		}
		o.check(fmt.Sprintf("served result %d", i), err)
	}
	return reps
}

// sample is one timed operation: its wall time, the simulated cycles it
// delivered, and the factor converting the time to reference speed.
type sample struct {
	wallNs float64
	cycles uint64
	toRef  float64
}

// nsPerCycle returns every sample's wall-clock ns per simulated cycle, and
// the same at reference speed.
func nsPerCycle(samples []sample) (wall, ref []float64) {
	for _, s := range samples {
		v := ratio(s.wallNs, float64(s.cycles))
		wall, ref = append(wall, v), append(ref, v*s.toRef)
	}
	return wall, ref
}

// measure runs operations on every client goroutine, each client sending
// its next only after its previous one completed, until the time is up and
// at least minOps have been started. Client 0 runs the reference kernel
// between its operations, at most twice a second. It returns the samples
// of the successful operations and the bytes allocated over the whole
// window.
func (s *session) measure(seconds float64, minOps int, o *ops) (samples []sample, allocBytes uint64) {
	var before, after runtime.MemStats
	var gate sync.RWMutex
	cal := calibrator{gate: &gate}
	runtime.ReadMemStats(&before)
	cal.maybe()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < s.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			due := time.Now()
			for n := 0; ; n++ {
				if s.pace > 0 && n%s.burst == 0 {
					time.Sleep(time.Until(due))
					due = due.Add(s.pace)
				}
				if c == 0 {
					cal.maybe()
				}
				i := int(next.Add(1) - 1)
				if i >= minOps && !time.Now().Before(deadline) {
					return
				}
				gate.RLock()
				toRef := cal.toReference()
				wall, cycles, err := s.op(i)
				gate.RUnlock()
				if !o.check(fmt.Sprintf("%s op %d", s.w.name, i), err) {
					continue
				}
				mu.Lock()
				samples = append(samples, sample{float64(wall.Nanoseconds()), cycles, toRef})
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	runtime.ReadMemStats(&after)
	return samples, after.TotalAlloc - before.TotalAlloc - cal.allocated
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM) from
// /proc/self/status; 0 where that file does not exist (non-Linux).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// measureSetup times set-up in fresh processes: each child is this binary
// run with -setup-only, timed from before it starts until it has exited.
// Work a later change moves from the timed operation into process start,
// input generation, server boot or the warm-up shows here. At least three
// children run, and up to twenty-five while they are cheap: the cheaper a
// set-up, the more of it is process start-up noise.
func measureSetup(w workload, seed uint64, quick bool) (wall, ref []float64, err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	args := []string{"-setup-only", "-workload", w.name, "-seed", strconv.FormatUint(seed, 10)}
	if quick {
		args = append(args, "-quick")
	}
	var cal calibrator
	begin := time.Now()
	for len(wall) < 3 || (len(wall) < 25 && time.Since(begin) < 2*time.Second) {
		cal.maybe()
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, nil, fmt.Errorf("set-up child: %w", err)
		}
		secs := time.Since(start).Seconds()
		wall, ref = append(wall, secs), append(ref, secs*cal.toReference())
	}
	return wall, ref, nil
}

// runE2E is the --trace 0 pass: set-up time from fresh child processes,
// then this process's own set-up, one discarded operation, and timed
// operations for the given number of seconds with tracing off.
func runE2E(w workload, cfg runConfig, o *ops) map[string]float64 {
	var setupWall, setupRef []float64
	if cfg.spawn {
		var err error
		setupWall, setupRef, err = measureSetup(w, cfg.seed, cfg.quick)
		if !o.check("set-up in a fresh process", err) {
			return nil
		}
	}
	start := time.Now()
	s, err := setup(w, cfg.seed, cfg.quick)
	if !o.check("set-up", err) {
		return nil
	}
	defer s.close()
	if !cfg.spawn {
		setupWall = []float64{time.Since(start).Seconds()}
		setupRef = setupWall
	}

	minOps := 3
	if cfg.quick {
		minOps = 1
	} else if s.w.kind != kindServeCached {
		// Heap growth and page faults of the first full-size operation
		// are set-up, not steady state. (The cached workload's fill
		// already did this.) Cold grids must stay distinct, so the
		// discarded operation takes an index the timed ones never use.
		_, _, err := s.op(-1)
		o.check("discarded first operation", err)
	}
	samples, allocBytes := s.measure(cfg.seconds, minOps, o)
	if len(samples) == 0 {
		return nil
	}
	if s.w.kind == kindServeCold || s.w.kind == kindServeCached {
		verifyServed(s.refGrid, s.reference, o)
	}

	wall, ref := nsPerCycle(samples)
	var cycles float64
	for _, sm := range samples {
		cycles += float64(sm.cycles)
	}
	logf("%s: %d timed operations, %.4f s each (median); host_ns_per_cycle median %.4f wall-clock, %.4f at reference speed (%s)",
		w.name, len(samples), median(wallsOf(samples))/1e9, median(wall), median(ref), describeTail(ref, "ns"))
	logf("%s: set-up median of %d fresh processes: %.4f s wall-clock, %.4f s at reference speed",
		w.name, len(setupWall), median(setupWall), median(setupRef))
	return map[string]float64{
		"host_ns_per_cycle":     median(ref),
		"alloc_bytes_per_cycle": ratio(float64(allocBytes), cycles),
		"peak_rss_mb":           peakRSSMB(),
		"setup_s":               median(setupRef),
	}
}

func wallsOf(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.wallNs
	}
	return out
}
