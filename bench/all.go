package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// hostInfo records where a set of results was measured; -check refuses to
// compare results from hosts with different core counts.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
}

func host() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH, CPU: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

func printHost(w io.Writer, seed uint64) {
	h := host()
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d cpu=%q %s %s; seed=%d; bench version %d\n",
		h.NProc, h.GOMAXPROCS, h.CPU, h.GoVersion, h.OS, seed, benchVersion)
}

// workloadResults are one workload's runs: every end-to-end run (tracing
// off) and the one traced run.
type workloadResults struct {
	E2E          []result `json:"e2e,omitempty"`
	Layers       *result  `json:"layers,omitempty"`
	ReportSHA256 string   `json:"report_sha256,omitempty"`
}

// resultsFile is what a full run stores and -check reads.
type resultsFile struct {
	Version   int                         `json:"version"`
	Seed      uint64                      `json:"seed"`
	Seconds   float64                     `json:"seconds"`
	Quick     bool                        `json:"quick"`
	Host      hostInfo                    `json:"host"`
	Workloads map[string]*workloadResults `json:"workloads"`
}

// values returns a metric's value in every end-to-end run, or in the traced
// run, of one workload.
func (r *workloadResults) values(name string, trace bool) []float64 {
	var out []float64
	if trace {
		if r.Layers != nil {
			out = append(out, r.Layers.Metrics[name].Value)
		}
		return out
	}
	for _, run := range r.E2E {
		out = append(out, run.Metrics[name].Value)
	}
	return out
}

// runChild runs one pass of one workload in its own process, so that
// peak_rss_mb is that workload's and not the high-water mark of everything
// before it, and parses the object on the last line of its output.
func runChild(exe string, w workload, seed uint64, seconds float64, trace, quick bool, outDir string) (result, string, error) {
	t := "0"
	if trace {
		t = "1"
	}
	args := []string{"-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", t, "-outdir", outDir}
	if quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	var res result
	var sha, last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
		if rest, ok := strings.CutPrefix(last, shaPrefix); ok {
			sha = rest
		}
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, "", fmt.Errorf("%s (trace %s): no result object (%v, exit: %v)", w.name, t, err, runErr)
	}
	return res, sha, nil
}

// runEverything runs every workload, each pass in its own subprocess,
// prints every metric by name with its unit, and stores the results. It
// reports whether every operation succeeded.
func runEverything(seed uint64, seconds float64, quick bool, pass string, runs int, outDir string) (bool, error) {
	if pass != "e2e" && pass != "layers" && pass != "both" {
		return false, fmt.Errorf("-pass %q: want e2e, layers or both", pass)
	}
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	printHost(os.Stdout, seed)
	file := resultsFile{Version: benchVersion, Seed: seed, Seconds: seconds, Quick: quick,
		Host: host(), Workloads: map[string]*workloadResults{}}
	ok := true
	for _, w := range workloads {
		wr := &workloadResults{}
		file.Workloads[w.name] = wr
		if pass != "layers" {
			for i := 0; i < runs; i++ {
				res, _, err := runChild(exe, w, seed, seconds, false, quick, outDir)
				if err != nil {
					return false, err
				}
				wr.E2E = append(wr.E2E, res)
				ok = ok && res.Correct
			}
		}
		if pass != "e2e" {
			res, sha, err := runChild(exe, w, seed, seconds, true, quick, outDir)
			if err != nil {
				return false, err
			}
			wr.Layers, wr.ReportSHA256 = &res, sha
			ok = ok && res.Correct
		}
	}
	printTable(os.Stdout, &file)

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return false, err
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return false, err
	}
	path := filepath.Join(outDir, fmt.Sprintf("results-seed%d.json", seed))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return false, err
	}
	fmt.Printf("\nresults stored in %s\n", path)
	return ok, nil
}

// printTable prints every metric by name with its unit, one column per
// workload. An end-to-end value is the median of the workload's runs.
func printTable(w io.Writer, file *resultsFile) {
	var attempted, failed int
	for _, trace := range []bool{false, true} {
		if trace {
			fmt.Fprintf(w, "\nper layer (traced pass; 0 = does not apply to the workload)\n")
		} else {
			fmt.Fprintf(w, "\nend to end (tracing off; host time, the two timings at reference speed)\n")
		}
		fmt.Fprintf(w, "%-42s %-7s", "metric", "unit")
		for _, wl := range workloads {
			fmt.Fprintf(w, " %13s", wl.name)
		}
		fmt.Fprintln(w)
		for _, d := range defsFor(trace) {
			name := d.name
			if !trace {
				name = fmt.Sprintf("%s (%s, bound %g%%)", d.name, d.better(), d.bound*100)
			}
			fmt.Fprintf(w, "%-42s %-7s", name, d.unit)
			for _, wl := range workloads {
				vs := file.Workloads[wl.name].values(d.name, trace)
				if len(vs) == 0 {
					fmt.Fprintf(w, " %13s", "-")
				} else {
					fmt.Fprintf(w, " %13.6g", median(vs))
				}
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintf(w, "\n%-50s", "report_sha256 (first 12 hex digits)")
	for _, wl := range workloads {
		r := file.Workloads[wl.name]
		fmt.Fprintf(w, " %13.12s", r.ReportSHA256)
		for _, run := range r.E2E {
			attempted, failed = attempted+run.Attempted, failed+run.Failed
		}
		if r.Layers != nil {
			attempted, failed = attempted+r.Layers.Attempted, failed+r.Layers.Failed
		}
	}
	fmt.Fprintf(w, "\n\noperations: %d attempted, %d failed (failed_ops_share %.4g)\n",
		attempted, failed, ratio(float64(failed), float64(attempted)))
	fmt.Fprintln(w, "The model is validated only against Table 5.1 (gsi.table51_gap_cycles) and the figure-shape")
	fmt.Fprintln(w, "ratios (gsi.fig*); the repository holds no hardware reference, so no error figure is given.")
}
