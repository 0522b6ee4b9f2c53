// Command gsi-run executes workloads under one or many configurations and
// prints their GSI stall profiles. Workloads are selected from the
// registry by name (-list-workloads prints the table); the -workload,
// -protocol, -local, and -mshr flags accept comma-separated lists, and
// supplying more than one value on any of them turns the invocation into
// a cartesian sweep executed by the worker pool (results are printed in
// grid order, identical for any -parallel value).
//
// Examples:
//
//	gsi-run -list-workloads
//	gsi-run -workload utsd -protocol denovo -nodes 1500
//	gsi-run -workload bfs -param vertices=2000,avgdeg=6 -chart
//	gsi-run -workload bfs,spmv,gups -protocol gpu,denovo -json
//	gsi-run -workload implicit -local scratchpad,dma,stash -mshr 32,64,128,256,512 -json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"gsi"
	"gsi/internal/prof"
	"gsi/internal/stats"
)

func main() {
	var (
		workload = flag.String("workload", "implicit", "comma-separated registry names (see -list-workloads)")
		list     = flag.Bool("list-workloads", false, "print the workload registry (name, parameters, default scale) and exit")
		param    = flag.String("param", "", "comma-separated workload parameter overrides, name=value (see -list-workloads)")
		protocol = flag.String("protocol", "denovo", "comma-separated: gpu | denovo")
		local    = flag.String("local", "scratchpad", "implicit only, comma-separated: scratchpad | dma | stash")
		warps    = flag.Int("warps", 0, "shorthand for -param warps=N (warp count: most workloads take it; fewer warps = less MLP, more latency-dominated)")
		nodes    = flag.Int("nodes", 0, "shorthand for -param nodes=N (uts/utsd tree size)")
		sms      = flag.Int("sms", 0, "SM count override (default: per-workload tuned system)")
		mshr     = flag.String("mshr", "32", "comma-separated MSHR (and store buffer) entries")
		sfifo    = flag.Bool("sfifo", false, "enable the S-FIFO release ablation")
		owned    = flag.Bool("owned-atomics", false, "enable the owned-atomics optimization (DeNovo)")
		chart    = flag.Bool("chart", false, "print ASCII charts")
		timeline = flag.Bool("timeline", false, "print the per-SM stall timeline")
		jsonOut  = flag.Bool("json", false, "emit JSON reports instead of text summaries")
		parallel = flag.Int("parallel", 0, "sweep workers (0 = all cores, 1 = serial)")
		quiet    = flag.Bool("quiet", false, "suppress sweep progress on stderr")
		engine   = flag.String("engine", "skip", "scheduling engine: dense | quiescent | skip (all byte-identical)")
		stats    = flag.Bool("stats", false, "print per-run engine scheduling stats (steps, visits, jumps, naps) to stderr")
		traceOut = flag.String("trace", "", "write a Chrome/Perfetto trace-event JSON of the run to this file (single configuration only)")
		htmlOut  = flag.String("timeline-html", "", "write a self-contained interactive HTML timeline of the run to this file (single configuration only)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
		runLimit = flag.Duration("timeout", 0, "wall-clock deadline for the whole invocation; on expiry running jobs are canceled and completed results still print (0 = none)")
		jobLimit = flag.Duration("job-timeout", 0, "wall-clock deadline per simulation; a slower job fails with a deadline error carrying the engine diagnosis (0 = none)")
	)
	flag.Parse()
	if *list {
		gsi.Workloads().Describe(os.Stdout)
		return
	}
	if *jsonOut && *chart {
		fail("-chart and -json are mutually exclusive")
	}
	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fail("%v", err)
	}
	defer stopProf()

	mode, err := gsi.ParseEngineMode(*engine)
	if err != nil {
		fail("%v", err)
	}

	reg := gsi.Workloads()
	names := splitList(*workload)
	for _, n := range names {
		if _, ok := reg.Lookup(n); !ok {
			fail("unknown workload %q (run -list-workloads for the registry)", n)
		}
	}
	overrides := parseParams(*param)
	localSet := false
	// Legacy shorthand flags fold into the override set when given; a
	// value also present in -param is a conflict, not a silent override.
	shorthand := func(name string, value int) {
		if _, conflict := overrides[name]; conflict {
			fail("-%s and -param %s=... are mutually exclusive", name, name)
		}
		overrides[name] = strconv.Itoa(value)
	}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "warps":
			shorthand("warps", *warps)
		case "nodes":
			shorthand("nodes", *nodes)
		case "local":
			localSet = true
		}
	})
	// The -local flag is the implicit workload's local-memory axis; it
	// requires an implicit-only selection (other workloads would run
	// duplicate simulations per axis value). Single organizations can
	// also be chosen with -param local=..., which conflicts with the
	// explicit flag.
	var locals []gsi.LocalMem
	if localSet {
		for _, n := range names {
			if n != "implicit" {
				fail("-local applies to the implicit workload only (use -param for %s)", n)
			}
		}
		if _, conflict := overrides["local"]; conflict {
			fail("-local and -param local=... are mutually exclusive")
		}
		locals = parseLocals(*local)
	}

	grid := gsi.Grid{
		Name:      "sweep",
		Workloads: names,
		Protocols: parseProtocols(*protocol),
		MSHRSizes: parseInts(*mshr),
		LocalMems: locals,
		Params:    overrides,
	}
	sweep := grid.Sweep()
	for i := range sweep.Jobs {
		j := &sweep.Jobs[i]
		// Validate every point up front so a bad parameter fails before
		// any simulation starts (the factories run on pool workers).
		e, _ := reg.Lookup(j.Axes.Workload)
		if _, err := e.Build(grid.PointParams(j.Axes)); err != nil {
			fail("%v", err)
		}
		// The run-wide switches are not grid axes: set them on every
		// job after expansion, keeping the labels to the axes above.
		if *sms > 0 {
			j.Options.System.NumSMs = *sms
		}
		j.Options.System.Engine = mode
		j.Options.SFIFO = *sfifo
		j.Options.OwnedAtomics = *owned
		j.Options.Timeline = *timeline
	}

	// Tracing instruments exactly one simulation: a single collector
	// shared across grid points would reset itself per run and race the
	// pool. Attach it to the job after expansion so the sweep layer never
	// sees trace-specific options.
	var tr *gsi.Trace
	if *traceOut != "" || *htmlOut != "" {
		if len(sweep.Jobs) != 1 {
			fail("-trace and -timeline-html need a single configuration, got %d grid points", len(sweep.Jobs))
		}
		tr = gsi.NewTrace()
		sweep.Jobs[0].Options.Trace = tr
	}

	cfg := gsi.SweepConfig{Parallel: *parallel}
	if !*quiet && len(sweep.Jobs) > 1 {
		cfg.Progress = gsi.ProgressPrinter(os.Stderr)
	}
	cfg.JobTimeout = *jobLimit
	// Ctrl-C (or -timeout expiry) cancels the remaining jobs
	// cooperatively; completed results survive into the partial-results
	// path below instead of being lost with the process.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if *runLimit > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *runLimit)
		defer cancel()
	}
	results, err := sweep.RunContext(ctx, cfg)
	sweepMode := len(results) > 1
	emit := func(rs []gsi.SweepResult) {
		if *stats {
			// Stderr, not the report stream: engine stats legitimately
			// differ between modes, while stdout stays byte-identical
			// (the CI consistency gate diffs it).
			for _, res := range rs {
				printEngineStats(res.Job.Label, res.Report.EngineStats)
			}
		}
		if *jsonOut {
			if *stats {
				// Explicit opt-in: with both flags the scheduling
				// counters also join the JSON documents (which are then
				// not comparable across engine modes — the plain -json
				// stream stays the byte-identity surface CI diffs).
				for _, res := range rs {
					res.Report.IncludeEngineStats()
				}
			}
			printJSON(rs)
			return
		}
		for _, res := range rs {
			if sweepMode {
				fmt.Printf("### %s\n", res.Job.Label)
			}
			printReport(res.Report, *chart, *timeline)
		}
	}
	if err != nil {
		// The pool keeps running past a bad grid point; don't forfeit the
		// completed simulations — print them, then report the failure.
		var done []gsi.SweepResult
		for _, res := range results {
			if res.Err == nil {
				done = append(done, res)
			}
		}
		if len(done) > 0 {
			emit(done)
		}
		fail("%v", err)
	}
	emit(results)
	if tr != nil {
		if *traceOut != "" {
			exportTrace(*traceOut, tr.WriteChromeTrace)
		}
		if *htmlOut != "" {
			exportTrace(*htmlOut, tr.WriteHTML)
		}
	}
}

// printEngineStats prints one run's scheduling counters to stderr in a
// uniform shape for all three engine modes — the dense loop simply reports
// jumps=0 and naps=0 — so scripted consumers (including the CI
// event-density gate) parse one format everywhere. Each jump's width is on
// the engine track of a -trace export.
func printEngineStats(label string, st gsi.EngineStats) {
	fmt.Fprintf(os.Stderr,
		"engine stats [%s]: steps=%d visits=%d jumps=%d skipped=%d naps=%d napped-sm-cycles=%d\n",
		label, st.Steps, st.Visits, st.Jumps, st.SkippedCycles, st.Naps, st.NappedSMCycles)
}

// exportTrace writes one trace artifact, failing loudly on any I/O error:
// a truncated trace silently loaded into a viewer is worse than no trace.
func exportTrace(path string, write func(w io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fail("%v", err)
	}
	if err := write(f); err != nil {
		f.Close()
		fail("writing %s: %v", path, err)
	}
	if err := f.Close(); err != nil {
		fail("writing %s: %v", path, err)
	}
}

// printJSON emits an array of {label, report} objects — always an array,
// even for one result, so scripted consumers see one shape regardless of
// how many grid points a flag list expands to. The label disambiguates
// grid points, e.g. MSHR sizes, that the report itself does not record.
func printJSON(results []gsi.SweepResult) {
	type labeled struct {
		Label  string      `json:"label"`
		Report *gsi.Report `json:"report"`
	}
	docs := make([]labeled, len(results))
	for i, res := range results {
		docs[i] = labeled{Label: res.Job.Label, Report: res.Report}
	}
	doc, err := json.MarshalIndent(docs, "", "  ")
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("%s\n", doc)
}

func printReport(rep *gsi.Report, chart, timeline bool) {
	fmt.Print(rep.Summary())
	if timeline {
		fmt.Print(rep.Timeline)
	}
	if chart {
		for _, b := range []stats.Breakdown{
			rep.ExecBreakdown(), rep.MemDataBreakdown(), rep.MemStructBreakdown(),
		} {
			g := stats.NewGroup(b.Name, b.Labels)
			g.Add(b)
			fmt.Print(g.Chart(64))
		}
	}
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		f = strings.ToLower(strings.TrimSpace(f))
		if f != "" {
			out = append(out, f)
		}
	}
	if len(out) == 0 {
		fail("empty workload list")
	}
	return out
}

// parseParams parses "name=value,name=value" override lists.
func parseParams(s string) map[string]string {
	out := map[string]string{}
	if strings.TrimSpace(s) == "" {
		return out
	}
	for _, f := range strings.Split(s, ",") {
		name, value, ok := strings.Cut(strings.TrimSpace(f), "=")
		if !ok || name == "" || value == "" {
			fail("bad -param entry %q (want name=value)", f)
		}
		out[strings.ToLower(name)] = value
	}
	return out
}

func parseProtocols(s string) []gsi.Protocol {
	var out []gsi.Protocol
	for _, f := range strings.Split(s, ",") {
		p, err := gsi.ParseProtocol(f)
		if err != nil {
			fail("%v", err)
		}
		out = append(out, p)
	}
	return out
}

func parseLocals(s string) []gsi.LocalMem {
	var out []gsi.LocalMem
	for _, f := range strings.Split(s, ",") {
		lm, err := gsi.ParseLocalMem(f)
		if err != nil {
			fail("%v", err)
		}
		out = append(out, lm)
	}
	return out
}

func parseInts(s string) []int {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v <= 0 {
			fail("bad MSHR size %q", f)
		}
		out = append(out, v)
	}
	return out
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gsi-run: "+format+"\n", args...)
	os.Exit(1)
}
