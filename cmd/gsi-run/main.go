// Command gsi-run executes workloads under one or many configurations and
// prints their GSI stall profiles, or, with -figure, regenerates the
// paper's evaluation artifacts: Table 5.1 (system parameters with measured
// latency ranges), figures 6.1 through 6.4 (stall breakdowns for both case
// studies) and the workload gallery.
//
// Workloads are selected from the registry by name (-list-workloads prints
// the table), and -param name=value,... sets any schema parameter. Comma
// lists on -workload, -protocol, -local and -mshr expand into a cartesian
// sweep. Every job runs through one worker pool, and the output is the same
// for any -parallel value. The grid flags do not apply to -figure, and
// -scale, -csv and -trace-dir apply only to it.
//
// Examples:
//
//	gsi-run -list-workloads
//	gsi-run -workload utsd -protocol denovo -param nodes=1500
//	gsi-run -workload bfs -param vertices=2000,avgdeg=6 -chart
//	gsi-run -workload bfs,spmv,gups -protocol gpu,denovo -json
//	gsi-run -workload implicit -local scratchpad,dma,stash -mshr 32,64,128,256,512 -json
//	gsi-run -figure all                     # everything, default scale, all cores
//	gsi-run -figure fig6.2                  # one figure
//	gsi-run -figure all -scale small -csv   # fast run, CSV output
//	gsi-run -figure all -parallel 1 -json   # serial run, one JSON array
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"regexp"
	"strconv"
	"strings"
	"syscall"

	"gsi"
	"gsi/internal/prof"
	"gsi/internal/stats"
	"gsi/internal/workloads"
)

// chartWidth is the bar width of every rendered figure and -chart.
const chartWidth = 64

var (
	list     = flag.Bool("list-workloads", false, "print the workload registry (name, parameters, default scale) and exit")
	jsonOut  = flag.Bool("json", false, "emit one JSON array (of labeled reports, or of figures) instead of text")
	parallel = flag.Int("parallel", 0, "simulation workers (0 = all cores, 1 = serial)")
	quiet    = flag.Bool("quiet", false, "suppress per-job progress on stderr")
	engine   = flag.String("engine", "skip", "scheduling engine: dense | quiescent | skip (all byte-identical)")
	cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	runLimit = flag.Duration("timeout", 0, "wall-clock deadline for the whole invocation; on expiry running jobs are canceled and a grid still prints its completed results (0 = none)")
	jobLimit = flag.Duration("job-timeout", 0, "wall-clock deadline per simulation; a slower job fails with a deadline error carrying the engine diagnosis (0 = none)")

	figure   = flag.String("figure", "", "regenerate paper artifacts instead of running a grid: all | table5.1 | fig6.1 | fig6.2 | fig6.3 | fig6.4 | workloads")
	scale    = flag.String("scale", "default", "figure scale: default | small")
	csv      = flag.Bool("csv", false, "emit figures as CSV instead of tables and charts")
	traceDir = flag.String("trace-dir", "", "write one Chrome/Perfetto trace-event JSON per figure job into this directory")

	workload   = flag.String("workload", "implicit", "comma-separated registry names (see -list-workloads)")
	param      = flag.String("param", "", "comma-separated workload parameter overrides, name=value (see -list-workloads)")
	protocol   = flag.String("protocol", "denovo", "comma-separated: gpu | denovo")
	local      = flag.String("local", "scratchpad", "implicit only, comma-separated: scratchpad | dma | stash")
	sms        = flag.Int("sms", 0, "SM count override (0 = per-workload tuned system)")
	mshr       = flag.String("mshr", "32", "comma-separated MSHR (and store buffer) entries")
	sfifo      = flag.Bool("sfifo", false, "enable the S-FIFO release ablation")
	owned      = flag.Bool("owned-atomics", false, "enable the owned-atomics optimization (DeNovo)")
	chart      = flag.Bool("chart", false, "print ASCII charts")
	timeline   = flag.Bool("timeline", false, "print the per-SM stall timeline")
	schedStats = flag.Bool("stats", false, "print per-run engine scheduling stats (steps, visits, jumps, naps) to stderr")
	traceOut   = flag.String("trace", "", "write a Chrome/Perfetto trace-event JSON of the run to this file (single configuration only)")
	htmlOut    = flag.String("timeline-html", "", "write a self-contained interactive HTML timeline of the run to this file (single configuration only)")
)

// figureOnly maps each flag of one mode to whether it needs -figure (true)
// or is a grid flag that -figure rejects (false). Shared flags are absent.
var figureOnly = map[string]bool{
	"scale": true, "csv": true, "trace-dir": true,
	"workload": false, "param": false, "protocol": false, "local": false, "sms": false,
	"mshr": false, "sfifo": false, "owned-atomics": false, "chart": false, "timeline": false,
	"stats": false, "trace": false, "timeline-html": false,
}

func main() {
	flag.Parse()
	if *list {
		gsi.Workloads().Describe(os.Stdout)
		return
	}
	figures, localSet := *figure != "", false
	flag.Visit(func(f *flag.Flag) {
		if only, ok := figureOnly[f.Name]; ok && only && !figures {
			fail("-%s needs -figure", f.Name)
		} else if ok && !only && figures {
			fail("-%s does not apply to -figure", f.Name)
		}
		localSet = localSet || f.Name == "local"
	})
	if *jsonOut && (*chart || *csv) {
		fail("-json excludes -chart and -csv")
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

	// Ctrl-C (or -timeout expiry) cancels the remaining jobs
	// cooperatively; a grid's completed results still print.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if *runLimit > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *runLimit)
		defer cancel()
	}
	cfg := gsi.SweepConfig{Parallel: *parallel, JobTimeout: *jobLimit}
	if figures {
		runFigures(ctx, cfg, mode)
	} else {
		runGrid(ctx, cfg, mode, localSet)
	}
}

// runFigures regenerates the artifacts -figure names, running every figure
// in one batch so small figures fill the gaps behind big ones.
func runFigures(ctx context.Context, cfg gsi.SweepConfig, mode gsi.EngineMode) {
	newScale, ok := map[string]func() gsi.Scale{"default": gsi.DefaultScale, "small": gsi.SmallScale}[strings.ToLower(*scale)]
	if !ok {
		fail("unknown scale %q", *scale)
	}
	sc := newScale()

	want := func(name string) bool { return *figure == "all" || strings.EqualFold(*figure, name) }
	if want("table5.1") {
		if *jsonOut {
			if *figure != "all" {
				fail("table 5.1 has no JSON form")
			}
			// Say so, lest the figure array read as the full artifact set.
			fmt.Fprintln(os.Stderr, "gsi-run: note: table 5.1 has no JSON form; omitting it")
		} else {
			s, err := gsi.Table51(gsi.DefaultConfig())
			if err != nil {
				fail("table 5.1: %v", err)
			}
			fmt.Println(s)
		}
	}
	var specs []gsi.FigureSpec
	if want("fig6.1") {
		specs = append(specs, gsi.Figure61Spec(sc))
	}
	if want("fig6.2") {
		specs = append(specs, gsi.Figure62Spec(sc))
	}
	if want("fig6.3") {
		specs = append(specs, gsi.Figure63Spec())
	}
	if want("fig6.4") {
		specs = append(specs, gsi.Figure64Specs(sc)...)
	}
	if want("workloads") || strings.EqualFold(*figure, "figW") {
		specs = append(specs, gsi.WorkloadGallerySpec(sc))
	}
	if len(specs) == 0 { // only table 5.1, printed above
		if !want("table5.1") {
			fail("unknown figure %q", *figure)
		}
		return
	}

	// Each traced job gets its own collector: collectors are single-run
	// state, and the pool executes jobs concurrently.
	var traceFiles []string
	var traces []*gsi.Trace
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fail("%v", err)
		}
	}
	for si := range specs {
		for ji := range specs[si].Sweep.Jobs {
			o := &specs[si].Sweep.Jobs[ji].Options
			o.System.Engine = mode
			if *traceDir != "" {
				o.Trace = gsi.NewTrace()
				name := sanitizeName(specs[si].ID + "-" + specs[si].Sweep.Jobs[ji].Label)
				traceFiles = append(traceFiles, fmt.Sprintf("%s/%s.trace.json", *traceDir, name))
				traces = append(traces, o.Trace)
			}
		}
	}
	if !*quiet {
		cfg.Progress = gsi.ProgressPrinter(os.Stderr)
	}
	sets, err := gsi.RunFigureSpecsContext(ctx, specs, cfg)
	if err != nil {
		fail("%v", err)
	}
	for i, tr := range traces {
		exportTrace(traceFiles[i], tr.WriteChromeTrace)
	}
	if len(traces) > 0 {
		fmt.Fprintf(os.Stderr, "gsi-run: wrote %d traces to %s\n", len(traces), *traceDir)
	}

	if *jsonOut {
		printJSON(sets)
		return
	}
	bases := gsi.RenderBases(specs, sets)
	for i, fs := range sets {
		if !*csv {
			fmt.Print(fs.RenderTo(chartWidth, bases[i]))
			continue
		}
		exec, data, structural := fs.NormalizedTo(bases[i])
		for _, g := range []*stats.Group{exec, data, structural} {
			fmt.Printf("# %s\n%s", g.Title, g.CSV())
		}
	}
}

// runGrid expands the grid flags into a sweep, runs it, and prints one
// report per grid point.
func runGrid(ctx context.Context, cfg gsi.SweepConfig, mode gsi.EngineMode, localSet bool) {
	if *sms < 0 {
		fail("bad -sms %d (want an SM count, or 0 for the per-workload tuned system)", *sms)
	}
	reg := gsi.Workloads()
	names := splitList(*workload)
	for _, n := range names {
		if _, ok := reg.Lookup(n); !ok {
			fail("unknown workload %q (run -list-workloads for the registry)", n)
		}
	}
	overrides := parseParams(*param)
	// -local is the implicit workload's local-memory axis (other workloads
	// would run duplicates); -param local=... is the single-value form.
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
		locals = parseList(*local, gsi.ParseLocalMem)
	}

	grid := gsi.Grid{
		Name:      "sweep",
		Workloads: names,
		Protocols: parseList(*protocol, gsi.ParseProtocol),
		MSHRSizes: parseList(*mshr, parseMSHR),
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

	// Tracing instruments exactly one simulation: a collector shared
	// across grid points would reset itself per run and race the pool.
	var tr *gsi.Trace
	if *traceOut != "" || *htmlOut != "" {
		if len(sweep.Jobs) != 1 {
			fail("-trace and -timeline-html need a single configuration, got %d grid points", len(sweep.Jobs))
		}
		tr = gsi.NewTrace()
		sweep.Jobs[0].Options.Trace = tr
	}

	if !*quiet && len(sweep.Jobs) > 1 {
		cfg.Progress = gsi.ProgressPrinter(os.Stderr)
	}
	results, err := sweep.RunContext(ctx, cfg)
	// The pool keeps running past a bad grid point; don't forfeit the
	// completed simulations — print them, then report the failure.
	var done []gsi.SweepResult
	for _, res := range results {
		if res.Err == nil {
			done = append(done, res)
		}
	}
	if *schedStats {
		// Stderr: engine stats differ between modes, while stdout stays
		// byte-identical. Every engine prints the same fields.
		for _, res := range done {
			st := res.Report.EngineStats
			fmt.Fprintf(os.Stderr,
				"engine stats [%s]: steps=%d visits=%d jumps=%d skipped=%d naps=%d napped-sm-cycles=%d\n",
				res.Job.Label, st.Steps, st.Visits, st.Jumps, st.SkippedCycles, st.Naps, st.NappedSMCycles)
		}
	}
	switch {
	case len(done) == 0:
	case *jsonOut:
		printReports(done)
	default:
		for _, res := range done {
			if len(results) > 1 {
				fmt.Printf("### %s\n", res.Job.Label)
			}
			fmt.Print(res.Report.Summary())
			if *timeline {
				fmt.Print(res.Report.Timeline)
			}
			if *chart {
				for _, b := range []stats.Breakdown{
					res.Report.ExecBreakdown(), res.Report.MemDataBreakdown(), res.Report.MemStructBreakdown(),
				} {
					g := stats.NewGroup(b.Name, b.Labels)
					g.Add(b)
					fmt.Print(g.Chart(chartWidth))
				}
			}
		}
	}
	if err != nil {
		fail("%v", err)
	}
	if *traceOut != "" {
		exportTrace(*traceOut, tr.WriteChromeTrace)
	}
	if *htmlOut != "" {
		exportTrace(*htmlOut, tr.WriteHTML)
	}
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

// printReports emits an array of {label, report} objects, even for one
// result, so scripts see one shape for any grid. The label names what the
// report does not record, e.g. the MSHR size.
func printReports(results []gsi.SweepResult) {
	type labeled struct {
		Label  string      `json:"label"`
		Report *gsi.Report `json:"report"`
	}
	docs := make([]labeled, len(results))
	for i, res := range results {
		if *schedStats { // counters join the documents, which then differ by engine
			res.Report.IncludeEngineStats()
		}
		docs[i] = labeled{Label: res.Job.Label, Report: res.Report}
	}
	printJSON(docs)
}

// printJSON prints v as one indented JSON document.
func printJSON(v any) {
	doc, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("%s\n", doc)
}

var unsafeRun = regexp.MustCompile(`[^a-z0-9.]+`)

// sanitizeName turns a figure/job label into a safe file-name stem:
// lower-cased, runs of other characters collapsed to single dashes, and
// no dash at either end.
func sanitizeName(s string) string {
	return strings.Trim(unsafeRun.ReplaceAllString(strings.ToLower(s), "-"), "-")
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

// parseParams parses "name=value,name=value" override lists, keyed by the
// registry's folded spelling. A name given twice, in any spelling, is an
// error rather than a silent last-wins.
func parseParams(s string) map[string]string {
	out := map[string]string{}
	if strings.TrimSpace(s) == "" {
		return out
	}
	spelled := map[string]string{}
	for _, f := range strings.Split(s, ",") {
		name, value, ok := strings.Cut(strings.TrimSpace(f), "=")
		if !ok || name == "" || value == "" {
			fail("bad -param entry %q (want name=value)", f)
		}
		key := workloads.FoldName(name)
		if prev, dup := spelled[key]; dup {
			fail("-param %q is given twice (%q and %q)", key, prev, name)
		}
		spelled[key] = name
		out[key] = value
	}
	return out
}

// parseList parses each entry of a comma-separated flag value.
func parseList[T any](s string, parse func(string) (T, error)) []T {
	var out []T
	for _, f := range strings.Split(s, ",") {
		v, err := parse(f)
		if err != nil {
			fail("%v", err)
		}
		out = append(out, v)
	}
	return out
}

func parseMSHR(s string) (int, error) {
	v, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil || v <= 0 {
		return 0, fmt.Errorf("bad MSHR size %q", s)
	}
	return v, nil
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gsi-run: "+format+"\n", args...)
	os.Exit(1)
}
