// Command gsi-scale is the iterate-until-failure scale harness: it grows
// one configuration axis at a time (mesh dims, warps per SM, workload
// size, sweep-grid width) until a wall — per-rung wall-clock budget, RSS
// ceiling, error, or engine identity break — recording per-rung
// ns-per-cycle, scheduling counters, RSS, and allocations into
// BENCH_scale.json, and optionally a markdown ceiling report. Every rung
// times the skip engine and re-runs the workload under the dense oracle,
// asserting byte-identical reports.
//
// Examples:
//
//	gsi-scale -axis mesh -workload stencil
//	gsi-scale -workload all -axis all -rung-budget 5s -report docs/SCALE_CEILINGS.md
//	gsi-scale -smoke -baseline BENCH_scale.json -max-rungs 3
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"gsi"
	"gsi/internal/scale"
)

func main() {
	var (
		workload    = flag.String("workload", "all", "comma-separated registry names, or all")
		axis        = flag.String("axis", "all", "comma-separated growth axes (mesh, warps, size, grid), or all")
		rungBudget  = flag.Duration("rung-budget", 10*time.Second, "stop a series after the first rung exceeding this wall clock (0 = none)")
		totalBudget = flag.Duration("total-budget", 0, "wall-clock bound for the whole run (0 = none)")
		rssMB       = flag.Int("rss-mb", 0, "stop a series when process max RSS passes this many MB (0 = none)")
		maxRungs    = flag.Int("max-rungs", 8, "rung cap per series (the backstop wall); in smoke mode, rungs replayed per series")
		knee        = flag.Float64("knee", 1.5, "knee factor: first rung above knee*min(ns/cycle so far) is the knee")
		out         = flag.String("out", "BENCH_scale.json", "output document path (- for stdout)")
		reportPath  = flag.String("report", "", "also write the markdown ceiling report to this path")
		note        = flag.String("note", "", "free-form note recorded in the document")
		quiet       = flag.Bool("quiet", false, "suppress per-rung progress on stderr")
		smoke       = flag.Bool("smoke", false, "smoke mode: replay the baseline's series and gate on identity and counter drift instead of writing a document")
		baseline    = flag.String("baseline", "", "committed BENCH_scale.json to gate against (smoke mode)")
	)
	flag.Parse()

	cfg := scale.Config{
		RungBudget:  *rungBudget,
		TotalBudget: *totalBudget,
		RSSLimitKB:  uint64(*rssMB) * 1024,
		MaxRungs:    *maxRungs,
		KneeFactor:  *knee,
	}
	if !*quiet {
		cfg.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	if *workload != "all" {
		cfg.Workloads = splitList(*workload)
	}
	if *axis != "all" {
		for _, s := range splitList(*axis) {
			a, err := scale.ParseAxis(s)
			if err != nil {
				fail("%v", err)
			}
			cfg.Axes = append(cfg.Axes, a)
		}
	}
	reg := gsi.Workloads()
	for _, n := range cfg.Workloads {
		if _, ok := reg.Lookup(n); !ok {
			fail("unknown workload %q (see gsi-run -list-workloads)", n)
		}
	}

	if *smoke {
		runSmoke(cfg, *baseline, *maxRungs)
		return
	}

	doc, err := scale.Run(cfg)
	if err != nil {
		fail("%v", err)
	}
	doc.Date = time.Now().Format("2006-01-02")
	doc.Host = hostString()
	doc.Command = strings.Join(os.Args, " ")
	doc.Note = *note
	encoded, err := doc.Encode()
	if err != nil {
		fail("%v", err)
	}
	if *out == "-" {
		os.Stdout.Write(encoded)
	} else if err := os.WriteFile(*out, encoded, 0o644); err != nil {
		fail("%v", err)
	}
	if *reportPath != "" {
		if err := os.WriteFile(*reportPath, []byte(doc.Markdown()), 0o644); err != nil {
			fail("%v", err)
		}
	}
}

// runSmoke replays exactly the series the baseline recorded — each
// (workload, axis) pair up to maxRungs rungs — prints the rung-0-normalized
// timing beside the baseline's without a verdict, and gates on the
// comparator's findings. The -workload and -axis flags narrow the replay
// when set; the wall budgets still apply.
func runSmoke(cfg scale.Config, baselinePath string, maxRungs int) {
	if baselinePath == "" {
		fail("-smoke needs -baseline")
	}
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		fail("%v", err)
	}
	base, err := scale.DecodeDoc(data)
	if err != nil {
		fail("%v", err)
	}
	keepW := map[string]bool{}
	for _, w := range cfg.Workloads {
		keepW[w] = true
	}
	keepA := map[scale.Axis]bool{}
	for _, a := range cfg.Axes {
		keepA[a] = true
	}
	cur := &scale.Doc{}
	replayed := &scale.Doc{}
	for _, res := range base.Results {
		if len(keepW) > 0 && !keepW[res.Workload] {
			continue
		}
		if len(keepA) > 0 && !keepA[scale.Axis(res.Axis)] {
			continue
		}
		pair := cfg
		pair.Workloads = []string{res.Workload}
		pair.Axes = []scale.Axis{scale.Axis(res.Axis)}
		if len(res.Rungs) < pair.MaxRungs {
			pair.MaxRungs = len(res.Rungs)
		}
		doc, err := scale.Run(pair)
		if err != nil {
			fail("replaying %s/%s: %v", res.Workload, res.Axis, err)
		}
		cur.Results = append(cur.Results, doc.Results...)
		replayed.Results = append(replayed.Results, res)
	}
	if len(replayed.Results) == 0 {
		fail("baseline has no series matching the -workload/-axis selection")
	}
	fmt.Println("timing (advisory, not gated):")
	for _, line := range scale.Timing(replayed, cur) {
		fmt.Println("  " + line)
	}
	findings := scale.Compare(replayed, cur, maxRungs)
	if len(findings) > 0 {
		for _, f := range findings {
			fmt.Fprintf(os.Stderr, "FAIL %s\n", f)
		}
		fail("%d scale-smoke violation(s) against %s", len(findings), baselinePath)
	}
	fmt.Printf("scale smoke OK: %d series replayed against %s (identity, cycles, steps and jumps exact)\n",
		len(replayed.Results), baselinePath)
}

// hostString describes the machine well enough to interpret wall-clock
// numbers: CPU model when /proc/cpuinfo offers one, plus OS/arch and the
// usable core count.
func hostString() string {
	model := ""
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
				model = strings.TrimSpace(value) + ", "
				break
			}
		}
	}
	return fmt.Sprintf("%s%s/%s, %d core(s)", model, runtime.GOOS, runtime.GOARCH, runtime.NumCPU())
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
		fail("empty list")
	}
	return out
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gsi-scale: "+format+"\n", args...)
	os.Exit(1)
}
