package gsi

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gsi/internal/coherence"
	"gsi/internal/cpu"
	"gsi/internal/gpu"
)

// TestRegistryRoundTrip is the registry contract: every registered name
// constructs at SmallScale, runs to completion on its tuned system, and
// passes its own functional verification (Run fails loudly otherwise).
func TestRegistryRoundTrip(t *testing.T) {
	reg := Workloads()
	names := reg.Names()
	if len(names) < 7 {
		t.Fatalf("registry has %d workloads, want at least 7 (uts, utsd, implicit + 4 sparse)", len(names))
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			e, ok := reg.Lookup(name)
			if !ok {
				t.Fatalf("Lookup(%q) failed for a listed name", name)
			}
			if e.Summary == "" || len(e.Params()) == 0 {
				t.Fatalf("%s: entry missing summary or parameter schema", name)
			}
			w, err := e.BuildSmall(nil)
			if err != nil {
				t.Fatal(err)
			}
			opt := Options{Protocol: DeNovo}
			opt.System = DefaultConfig()
			cfg, err := e.TuneSystem(true, nil, opt.System)
			if err != nil {
				t.Fatal(err)
			}
			opt.System = cfg
			rep, err := Run(opt, w)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Cycles == 0 || rep.Counts.Total() == 0 {
				t.Fatalf("%s: empty report: %d cycles", name, rep.Cycles)
			}
		})
	}
}

// TestRegistryParamOverrides: overrides reach the constructor, and unknown
// parameter names are rejected with the schema in the error.
func TestRegistryParamOverrides(t *testing.T) {
	e, ok := Workloads().Lookup("bfs")
	if !ok {
		t.Fatal("bfs not registered")
	}
	if _, err := e.Build(WorkloadValues{"vertices": "64", "blocks": "2", "warps": "1"}); err != nil {
		t.Fatalf("valid overrides rejected: %v", err)
	}
	_, err := e.Build(WorkloadValues{"nodes": "64"})
	if err == nil {
		t.Fatal("unknown parameter accepted")
	}
	if !strings.Contains(err.Error(), "vertices") {
		t.Fatalf("error does not name the schema: %v", err)
	}
	if _, err := e.Build(WorkloadValues{"vertices": "not-a-number"}); err == nil {
		t.Fatal("non-integer parameter accepted")
	}
}

// TestGridWorkloadAxis: the Workloads axis expands with registry-built
// workloads, labels carry the names, and registry tuning applies (the
// pipeline point runs on its single-SM system).
func TestGridWorkloadAxis(t *testing.T) {
	sweep := Grid{
		Name:      "axis",
		Workloads: []string{"spmv", "pipeline"},
	}.Sweep()
	if len(sweep.Jobs) != 2 {
		t.Fatalf("jobs = %d, want 2", len(sweep.Jobs))
	}
	if sweep.Jobs[0].Label != "spmv" || sweep.Jobs[1].Label != "pipeline" {
		t.Fatalf("labels = %q, %q", sweep.Jobs[0].Label, sweep.Jobs[1].Label)
	}
	if got := sweep.Jobs[1].Options.System.NumSMs; got != 1 {
		t.Fatalf("pipeline point runs on %d SMs, want the tuned 1", got)
	}
	if got := sweep.Jobs[0].Options.System.NumSMs; got != DefaultConfig().NumSMs {
		t.Fatalf("spmv point runs on %d SMs, want the default %d", got, DefaultConfig().NumSMs)
	}
	// An unknown axis value must surface as that job's error, not a panic
	// or a batch failure for the valid points.
	bad := Grid{Name: "bad-axis", Workloads: []string{"no-such-workload"}}.Sweep()
	results, err := bad.Run(SweepConfig{Parallel: 1})
	if err == nil || results[0].Err == nil {
		t.Fatal("unknown workload name did not fail the job")
	}
	if !strings.Contains(results[0].Err.Error(), "no-such-workload") {
		t.Fatalf("job error does not name the workload: %v", results[0].Err)
	}
}

// TestWorkloadListingGolden pins the registry's user-facing schema: the
// -list-workloads text (names, summaries, parameter help, defaults and
// SmallScale overrides) is the registry's documentation, so any change to
// it is deliberate. Regenerate with
//
//	go test -run TestWorkloadListingGolden -update
func TestWorkloadListingGolden(t *testing.T) {
	var got bytes.Buffer
	Workloads().Describe(&got)
	path := filepath.Join("testdata", "workloads.golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("-list-workloads drifted from %s.\n--- got ---\n%s\n--- want ---\n%s", path, got.Bytes(), want)
	}
}

// TestTunedSystemHoldsTheBlock: the tuned system holds the kernel's block
// for every workload, so each entry with a warps parameter builds, tunes
// and launches at 16 warps per block — twice the 8 warp slots of the
// Table 5.1 SM.
func TestTunedSystemHoldsTheBlock(t *testing.T) {
	reg := Workloads()
	params := WorkloadValues{"warps": "16"}
	for _, name := range reg.Names() {
		e, _ := reg.Lookup(name)
		if _, ok := e.Defaults()["warps"]; !ok {
			continue
		}
		w, err := e.BuildSmall(params)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cfg, err := e.TuneSystem(true, params, DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g, err := gpu.New(cfg, coherence.PoliciesFor(cfg.NumSMs, DeNovo.policy()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		k, _, err := w.Build(cpu.NewHost(g.Sys.Backing))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := g.Launch(k); err != nil {
			t.Errorf("%s at warps=16: %v", name, err)
		}
	}
}

// mustBuild builds a registered workload at default scale with the given
// parameter overrides, failing the test on an unknown name or a bad
// override.
func mustBuild(t testing.TB, name string, params WorkloadValues) Workload {
	t.Helper()
	e, ok := Workloads().Lookup(name)
	if !ok {
		t.Fatalf("no registry workload %q", name)
	}
	w, err := e.Build(params)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// implicitSystem is the machine a grid point of the implicit workload
// runs on at the given MSHR size: the registry entry's one-SM, 32-warp
// tuning of Table 5.1, store buffer scaled with the MSHR.
func implicitSystem(mshr int) SystemConfig {
	g := Grid{Workloads: []string{"implicit"}, MSHRSizes: []int{mshr}}
	return g.Sweep().Jobs[0].Options.System
}
