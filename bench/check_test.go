package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCompare(t *testing.T) {
	lower := metricDef{name: "host_ns_per_cycle", bound: 0.10}
	higher := metricDef{name: "jobs_per_s", bound: 0.10, higher: true}
	exact := metricDef{name: "sim.cycles", exact: true}
	layer := metricDef{name: "noc.mesh_tick_ns_per_cycle"}
	steady := func(v float64) []float64 { return []float64{v, v * 1.001, v * 0.999, v, v} }
	for _, c := range []struct {
		what string
		d    metricDef
		a, b []float64
		want verdict
	}{
		{"within the bound", lower, steady(100), steady(105), verdictOK},
		{"worse than the bound", lower, steady(100), steady(115), verdictRegressed},
		{"better than the bound", lower, steady(100), steady(85), verdictImproved},
		{"higher is better: a drop regresses", higher, steady(100), steady(85), verdictRegressed},
		{"higher is better: a rise improves", higher, steady(100), steady(115), verdictImproved},
		{"noisy parent", lower, []float64{80, 100, 120, 90, 110}, steady(130), verdictUnresolved},
		{"noisy change", lower, steady(100), []float64{80, 100, 120, 90, 110}, verdictUnresolved},
		{"single runs have no spread", lower, []float64{100}, []float64{150}, verdictRegressed},
		{"exact and equal", exact, []float64{200239}, []float64{200239}, verdictOK},
		{"exact, off by one", exact, []float64{200239}, []float64{200240}, verdictChanged},
		{"layer timing", layer, []float64{100}, []float64{300}, verdictInfo},
	} {
		if got, _ := compare(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.what, got, c.want)
		}
	}
	if _, worse := compare(higher, []float64{100}, []float64{80}); worse < 0.19 || worse > 0.21 {
		t.Errorf("a 20%% drop of a higher-is-better metric reads %+.2f worse", worse)
	}
}

// results builds a results file in which every workload reports every
// metric with the same value, except the overrides.
func results(t *testing.T, dir, name string, edit func(*resultsFile)) string {
	t.Helper()
	f := resultsFile{Version: benchVersion, Seed: 1, Seconds: 10, Host: hostInfo{NProc: 2},
		Workloads: map[string]*workloadResults{}}
	for _, w := range workloads {
		wr := &workloadResults{ReportSHA256: "aaaa"}
		for run := 0; run < 4; run++ {
			res := result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{}}
			for _, d := range endToEnd {
				res.Metrics[d.name] = metricValue{100, d.unit}
			}
			wr.E2E = append(wr.E2E, res)
		}
		layers := result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{}}
		for _, d := range perLayer {
			layers.Metrics[d.name] = metricValue{7, d.unit}
		}
		wr.Layers = &layers
		f.Workloads[w.name] = wr
	}
	if edit != nil {
		edit(&f)
	}
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunCheck(t *testing.T) {
	dir := t.TempDir()
	base := results(t, dir, "a.json", nil)

	var out bytes.Buffer
	ok, err := runCheck(&out, base, results(t, dir, "same.json", nil))
	if err != nil || !ok {
		t.Fatalf("identical files: ok=%t err=%v\n%s", ok, err, out.String())
	}

	out.Reset()
	changed := results(t, dir, "b.json", func(f *resultsFile) {
		for i := range f.Workloads["spin_sync"].E2E {
			f.Workloads["spin_sync"].E2E[i].Metrics["host_ns_per_cycle"] = metricValue{130, "ns"}
		}
		f.Workloads["latency_skip"].Layers.Metrics["sim.cycles"] = metricValue{8, "cycles"}
		f.Workloads["serve_mix"].Layers.Metrics["serve.cold_sweep_s"] = metricValue{70, "s"}
		f.Workloads["mshr_pressure"].ReportSHA256 = "bbbb"
	})
	ok, err = runCheck(&out, base, changed)
	if err != nil || ok {
		t.Fatalf("a regression and a changed count passed: ok=%t err=%v", ok, err)
	}
	for _, want := range []string{
		"regressed  host_ns_per_cycle        spin_sync",
		"changed    sim.cycles               latency_skip",
		"model_changed mshr_pressure",
		"1 regressed", "1 exact rows changed",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "serve.cold_sweep_s") {
		t.Errorf("a layer timing was judged:\n%s", out.String())
	}

	for what, edit := range map[string]func(*resultsFile){
		"seed":    func(f *resultsFile) { f.Seed = 2 },
		"nproc":   func(f *resultsFile) { f.Host.NProc = 8 },
		"version": func(f *resultsFile) { f.Version = benchVersion + 1 },
		"quick":   func(f *resultsFile) { f.Quick = true },
	} {
		if _, err := runCheck(&out, base, results(t, dir, what+".json", edit)); err == nil {
			t.Errorf("files with different %s were compared", what)
		}
	}
}
