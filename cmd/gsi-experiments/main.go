// Command gsi-experiments regenerates the paper's evaluation artifacts:
// Table 5.1 (system parameters with measured latency ranges) and figures
// 6.1 through 6.4 (stall breakdowns for both case studies). All requested
// figures are batched through one worker pool; results are identical for
// any -parallel value.
//
// Examples:
//
//	gsi-experiments                     # everything, default scale, all cores
//	gsi-experiments -exp fig6.2         # one figure
//	gsi-experiments -scale small -csv   # fast run, CSV output
//	gsi-experiments -parallel 1 -json   # serial run, one JSON array
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"gsi"
	"gsi/internal/prof"
	"gsi/internal/stats"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "all | table5.1 | fig6.1 | fig6.2 | fig6.3 | fig6.4 | workloads")
		list     = flag.Bool("list-workloads", false, "print the workload registry (name, parameters, default scale) and exit")
		scale    = flag.String("scale", "default", "default | small")
		width    = flag.Int("width", 64, "chart width")
		csv      = flag.Bool("csv", false, "emit CSV instead of tables and charts")
		jsonOut  = flag.Bool("json", false, "emit all requested figures as one JSON array")
		parallel = flag.Int("parallel", 0, "simulation workers (0 = all cores, 1 = serial)")
		quiet    = flag.Bool("quiet", false, "suppress per-job progress on stderr")
		engine   = flag.String("engine", "skip", "scheduling engine: dense | quiescent | skip (all byte-identical)")
		traceDir = flag.String("trace-dir", "", "write one Chrome/Perfetto trace-event JSON per figure job into this directory")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if *list {
		gsi.Workloads().Describe(os.Stdout)
		return
	}
	if *csv && *jsonOut {
		fail("-csv and -json are mutually exclusive")
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

	var sc gsi.Scale
	switch strings.ToLower(*scale) {
	case "default":
		sc = gsi.DefaultScale()
	case "small":
		sc = gsi.SmallScale()
	default:
		fail("unknown scale %q", *scale)
	}

	want := func(name string) bool { return *exp == "all" || strings.EqualFold(*exp, name) }
	ran := false

	if want("table5.1") {
		if *jsonOut {
			if *exp != "all" {
				fail("table 5.1 has no JSON form")
			}
			// Don't let a figure-only document read as the full artifact
			// set: say on stderr that the table was dropped.
			fmt.Fprintln(os.Stderr, "gsi-experiments: note: table 5.1 has no JSON form; omitting it")
		} else {
			ran = true
			s, err := gsi.Table51(gsi.DefaultConfig())
			if err != nil {
				fail("table 5.1: %v", err)
			}
			fmt.Println(s)
		}
	}

	// Collect every requested figure as a spec, then run the whole batch
	// through one pool so small figures fill the gaps behind big ones.
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
	if want("workloads") || strings.EqualFold(*exp, "figW") {
		specs = append(specs, gsi.WorkloadGallerySpec(sc))
	}
	if len(specs) == 0 && !ran {
		fail("unknown experiment %q", *exp)
	}
	if len(specs) == 0 {
		return
	}
	// Each traced job gets its own collector — collectors are single-run
	// state, and the pool executes jobs concurrently.
	type jobTrace struct {
		file string
		tr   *gsi.Trace
	}
	var traces []jobTrace
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
				tr := gsi.NewTrace()
				o.Trace = tr
				name := sanitizeName(specs[si].ID + "-" + specs[si].Sweep.Jobs[ji].Label)
				traces = append(traces, jobTrace{
					file: fmt.Sprintf("%s/%s.trace.json", *traceDir, name),
					tr:   tr,
				})
			}
		}
	}

	writeTraces := func() {
		for _, jt := range traces {
			f, err := os.Create(jt.file)
			if err != nil {
				fail("%v", err)
			}
			if err := jt.tr.WriteChromeTrace(f); err != nil {
				f.Close()
				fail("writing %s: %v", jt.file, err)
			}
			if err := f.Close(); err != nil {
				fail("writing %s: %v", jt.file, err)
			}
		}
		if len(traces) > 0 {
			fmt.Fprintf(os.Stderr, "gsi-experiments: wrote %d traces to %s\n", len(traces), *traceDir)
		}
	}

	cfg := gsi.SweepConfig{Parallel: *parallel}
	if !*quiet {
		cfg.Progress = gsi.ProgressPrinter(os.Stderr)
	}
	sets, err := gsi.RunFigureSpecs(specs, cfg)
	if err != nil {
		fail("%v", err)
	}
	writeTraces()

	if *jsonOut {
		// One array of figure documents — the same single-shape contract
		// as gsi-run's -json, parseable by any JSON consumer in one read.
		doc, err := json.MarshalIndent(sets, "", "  ")
		if err != nil {
			fail("%v", err)
		}
		fmt.Printf("%s\n", doc)
		return
	}
	bases := gsi.RenderBases(specs, sets)
	for i, fs := range sets {
		render(fs, *width, *csv, bases[i])
	}
}

func render(fs *gsi.FigureSet, width int, csv bool, base float64) {
	switch {
	case csv:
		exec, data, structural := fs.NormalizedTo(base)
		for _, g := range []*stats.Group{exec, data, structural} {
			fmt.Printf("# %s\n%s", g.Title, g.CSV())
		}
	default:
		fmt.Print(fs.RenderTo(width, base))
	}
}

// sanitizeName turns a figure/job label into a safe file-name stem:
// lower-cased, runs of non-alphanumerics collapsed to single dashes.
func sanitizeName(s string) string {
	var sb strings.Builder
	dash := false
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '.':
			sb.WriteRune(r)
			dash = false
		default:
			if !dash && sb.Len() > 0 {
				sb.WriteByte('-')
			}
			dash = true
		}
	}
	return strings.TrimSuffix(sb.String(), "-")
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gsi-experiments: "+format+"\n", args...)
	os.Exit(1)
}
