// Command bench is gsi's benchmark: one command that measures the simulator
// end to end and layer by layer, from outside, by timing calls into its
// public functions.
//
// The contract mode runs one workload and prints one JSON object as the
// last line of standard output:
//
//	bash bench/run.sh --workload spin_sync --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with tracing
// off; with --trace 1 they are the per-layer ones, from the benchmark's own
// traced loop, the engine ladder and isolated drivers. Without --workload
// every workload runs both passes, each in its own subprocess, and the
// results are printed as a table and stored under bench/out/. -check
// compares two such result files against the bounds in BENCHMARK.json.
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"time"
)

// runConfig is one contract-mode run.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	quick   bool
	// spawn times set-up in fresh child processes; off for -quick, where
	// the test binary cannot re-exec itself as the benchmark.
	spawn  bool
	outDir string
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a contract-mode run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// shaPrefix starts the standard-output line that carries the SHA-256 of the
// product run's report encodings, for comparison across commits.
const shaPrefix = "report_sha256="

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

// runWorkload runs one pass of one workload and reports every metric the
// pass declares. A per-layer metric the workload does not have reads 0; an
// end-to-end metric that is missing, 0 or not finite is a failed operation.
func runWorkload(w workload, cfg runConfig) (result, string) {
	var o ops
	var values map[string]float64
	var sha string
	if cfg.trace {
		values, sha = runLayers(w, cfg, &o)
	} else {
		values = runE2E(w, cfg, &o)
	}
	res := result{Metrics: map[string]metricValue{}}
	for _, d := range defsFor(cfg.trace) {
		v, ok := values[d.name]
		bad := math.IsNaN(v) || math.IsInf(v, 0)
		if !cfg.trace && d.name != "peak_rss_mb" { // VmHWM reads 0 outside Linux
			bad = bad || !ok || v == 0
		}
		if bad {
			o.check("metric "+d.name, fmt.Errorf("no usable value (%v)", v))
			v = 0
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
	}
	for _, e := range o.errs {
		logf("FAILED %s", e)
	}
	res.Attempted, res.Failed = o.attempted, o.failed
	if res.Attempted == 0 {
		res.Attempted, res.Failed = 1, 1
	}
	res.Correct = res.Failed == 0
	return res, sha
}

// runLayers is the --trace 1 pass. The spans stay in memory until the end
// and are then written to <outdir>/trace-<workload>.json.
func runLayers(w workload, cfg runConfig, o *ops) (map[string]float64, string) {
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	m := map[string]float64{}
	isolated(m)
	m["gsi.table51_gap_cycles"] = table51Gap(o)
	kernelMs := []float64{calibrate()}
	defer func() {
		// Sampled at both ends of the pass: what the host's speed was while
		// the wall-clock layer timings were taken.
		m["host.calibration_ms"] = median(append(kernelMs, calibrate()))
	}()

	var events []traceEvent
	var sha string
	switch w.kind {
	case kindSim, kindFigures:
		s, err := setup(w, cfg.seed, cfg.quick)
		if !o.check("set-up", err) {
			return m, ""
		}
		simDeadline := deadline
		if w.kind == kindFigures {
			// The simulator layers get the first half of the time, the
			// sweep layer the second.
			simDeadline = deadline.Add(-time.Until(deadline) / 2)
		}
		var traced []*tracedRun
		traced, sha = simLayers(s.jobs, w.kind == kindSim, simDeadline, o, m)
		events = simEvents(traced)
		if w.kind == kindFigures {
			figureLayers(s.specs, deadline, o, m)
		}
	default:
		var spans []sweepSpan
		spans, sha = serveLayers(cfg.seed, w.name, cfg.quick, o, m)
		events = sweepEvents(spans)
	}
	if cfg.outDir != "" {
		o.check("writing the trace file", writeTrace(cfg.outDir, w.name, events))
	}
	return m, sha
}

func main() {
	var (
		name      = flag.String("workload", "", "run this workload only (contract mode: one JSON object as the last line)")
		seed      = flag.Uint64("seed", 1, "workload seed; every input is derived from it")
		seconds   = flag.Float64("seconds", runSeconds, "how long one run measures")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass")
		quick     = flag.Bool("quick", false, "registry small scale, one repeat: a smoke test, not a measurement")
		pass      = flag.String("pass", "both", "without -workload: which pass to run, e2e | layers | both")
		runs      = flag.Int("runs", 1, "without -workload: end-to-end runs per workload (4 or more give -check a spread)")
		outDir    = flag.String("outdir", "bench/out", "directory for trace and result files")
		check     = flag.Bool("check", false, "compare two result files: -check A.json B.json")
		desc      = flag.Bool("describe", false, "print BENCHMARK.json as generated from the metric tables")
		setupOnly = flag.Bool("setup-only", false, "internal: set the workload up, then exit (timed by the parent as setup_s)")
	)
	flag.Parse()

	switch {
	case *desc:
		data, err := describe()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(data)
	case *check:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -check A.json B.json"))
		}
		ok, err := runCheck(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *name == "":
		ok, err := runEverything(*seed, *seconds, *quick, *pass, *runs, *outDir)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		w, ok := lookupWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		if *setupOnly {
			s, err := setup(w, *seed, *quick)
			if err != nil {
				fatal(err)
			}
			if err := s.close(); err != nil {
				fatal(err)
			}
			return
		}
		if *quick {
			*seconds = 0 // one repeat of everything
		}
		printHost(os.Stderr, *seed)
		res, sha := runWorkload(w, runConfig{seed: *seed, seconds: *seconds, trace: *trace != 0,
			quick: *quick, spawn: !*quick, outDir: *outDir})
		if sha != "" {
			fmt.Println(shaPrefix + sha)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
