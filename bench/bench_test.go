package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// declaration is BENCHMARK.json as the driver reads it.
type declaration struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readDeclaration(t *testing.T) (declaration, []byte) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declaration
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatal(err)
	}
	return d, raw
}

// TestDeclarationIsGenerated keeps BENCHMARK.json equal to what the metric
// and workload tables generate (bash bench/run.sh -describe > BENCHMARK.json).
func TestDeclarationIsGenerated(t *testing.T) {
	_, raw := readDeclaration(t)
	want, err := describe()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want) {
		t.Error("BENCHMARK.json differs from -describe; regenerate it")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestDeclarationLimits checks the declaration against the limits a
// BENCHMARK.json is refused for.
func TestDeclarationLimits(t *testing.T) {
	d, raw := readDeclaration(t)
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(raw))
	}
	if n := len(d.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(d.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(d.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if d.RunSeconds < 1 || d.RunSeconds > 60 {
		t.Errorf("run_seconds %d", d.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	direction := func(n, b string) {
		if b != "higher" && b != "lower" {
			t.Errorf("%s: better %q", n, b)
		}
	}
	for _, w := range d.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range d.EndToEnd {
		name(m.Name)
		direction(m.Name, m.Better)
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: unit %q bound %g", m.Name, m.Unit, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, m := range d.PerLayer {
		name(m.Name)
		direction(m.Name, m.Better)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
	}
}

// TestQuick runs every workload through both passes at registry small scale
// with one repeat, in process, and checks that what the code emits is what
// BENCHMARK.json declares: the same workload names, the same metric names
// with the same units, every value finite, no failed operation.
func TestQuick(t *testing.T) {
	d, _ := readDeclaration(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the code", len(d.Workloads), len(workloads))
	}
	declared := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range d.EndToEnd {
		declared[false][m.Name] = m.Unit
	}
	for _, m := range d.PerLayer {
		declared[true][m.Name] = m.Unit
	}
	dir := t.TempDir()
	for i, decl := range d.Workloads {
		w, ok := lookupWorkload(decl.Name)
		if !ok || workloads[i].name != decl.Name {
			t.Fatalf("workload %d: declared %q, code has %q", i, decl.Name, workloads[i].name)
		}
		for _, trace := range []bool{false, true} {
			res, _ := runWorkload(w, runConfig{seed: 1, trace: trace, quick: true, outDir: dir})
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t, %d of %d operations failed", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(declared[trace]) {
				t.Errorf("%s trace=%t: %d metrics emitted, %d declared", w.name, trace, len(res.Metrics), len(declared[trace]))
			}
			for name, v := range res.Metrics {
				if unit, ok := declared[trace][name]; !ok || unit != v.Unit {
					t.Errorf("%s trace=%t: emitted %s in %q, declared %q (declared at all: %t)", w.name, trace, name, v.Unit, unit, ok)
				}
				if !nameRE.MatchString(name) || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%t: %s = %v", w.name, trace, name, v.Value)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, name, v.Value)
				}
			}
			if trace {
				if _, err := os.Stat(dir + "/trace-" + w.name + ".json"); err != nil {
					t.Errorf("%s: %v", w.name, err)
				}
			}
		}
	}
}
