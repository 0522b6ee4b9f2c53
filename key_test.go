package gsi

import (
	"strings"
	"testing"
)

// TestCacheKeyEquivalentConfigsHashEqual: CacheKey must collapse every
// spelling of the same simulation onto one content address — defaulted vs
// explicit configuration, engine-mode selections (results are
// byte-identical by contract), the two inert scheduling fields,
// default-valued vs absent parameters, and cosmetic name/value spellings.
func TestCacheKeyEquivalentConfigsHashEqual(t *testing.T) {
	base := CacheKey(Options{Protocol: DeNovo}, "uts", nil)
	equivalent := map[string]string{
		"explicit defaults": CacheKey(Options{System: DefaultConfig(), Protocol: DeNovo}, "uts", nil),
		"engine dense": CacheKey(Options{
			System:   func() SystemConfig { c := DefaultConfig(); c.Engine = EngineDense; return c }(),
			Protocol: DeNovo}, "uts", nil),
		"engine quiescent": CacheKey(Options{
			System:   func() SystemConfig { c := DefaultConfig(); c.Engine = EngineQuiescent; return c }(),
			Protocol: DeNovo}, "uts", nil),
		"inert express": CacheKey(Options{
			System:   func() SystemConfig { c := DefaultConfig(); c.Express = true; return c }(),
			Protocol: DeNovo}, "uts", nil),
		"inert parallel": CacheKey(Options{
			System:   func() SystemConfig { c := DefaultConfig(); c.Parallel = 4; return c }(),
			Protocol: DeNovo}, "uts", nil),
		"default-valued param": CacheKey(Options{Protocol: DeNovo}, "uts",
			WorkloadValues{"nodes": "6000"}), // the schema default
		"spelling": CacheKey(Options{Protocol: DeNovo}, " UTS ",
			WorkloadValues{"NODES": " 6000 "}),
	}
	for name, key := range equivalent {
		if key != base {
			t.Errorf("%s: key %s differs from base %s", name, key, base)
		}
	}
}

// TestCacheKeyEngineRelevantDifferencesHashUnequal: anything that can
// change the Report bytes (or which runs fail) must separate keys.
func TestCacheKeyEngineRelevantDifferencesHashUnequal(t *testing.T) {
	base := CacheKey(Options{Protocol: DeNovo}, "uts", nil)
	variants := map[string]string{
		"protocol": CacheKey(Options{Protocol: GPUCoherence}, "uts", nil),
		"workload": CacheKey(Options{Protocol: DeNovo}, "utsd", nil),
		"param":    CacheKey(Options{Protocol: DeNovo}, "uts", WorkloadValues{"nodes": "100"}),
		"mshr": CacheKey(Options{
			System:   func() SystemConfig { c := DefaultConfig(); c.MSHREntries = 64; return c }(),
			Protocol: DeNovo}, "uts", nil),
		"max cycles": CacheKey(Options{
			System:   func() SystemConfig { c := DefaultConfig(); c.MaxCycles = 1000; return c }(),
			Protocol: DeNovo}, "uts", nil),
		"timeline":    CacheKey(Options{Protocol: DeNovo, Timeline: true}, "uts", nil),
		"skip verify": CacheKey(Options{Protocol: DeNovo, SkipVerify: true}, "uts", nil),
		"ablation":    CacheKey(Options{Protocol: DeNovo, SFIFO: true}, "uts", nil),
	}
	seen := map[string]string{base: "base"}
	for name, key := range variants {
		if prev, dup := seen[key]; dup {
			t.Errorf("%s: key collides with %s", name, prev)
		}
		seen[key] = name
	}
}

// TestCacheKeyGridAxisOrdering: reordering a grid's axis values permutes
// the jobs but must not change any point's content address — overlapping
// sweeps declared in different orders hit the same cache entries.
func TestCacheKeyGridAxisOrdering(t *testing.T) {
	keysOf := func(g Grid) map[string]bool {
		out := map[string]bool{}
		for _, job := range g.Sweep().Jobs {
			key := CacheKey(job.Options, job.Axes.Workload, g.PointParams(job.Axes))
			if out[key] {
				t.Fatalf("grid %q: duplicate key within one grid (%s)", g.Name, job.Label)
			}
			out[key] = true
		}
		return out
	}
	forward := keysOf(Grid{
		Name:      "forward",
		Workloads: []string{"implicit"},
		Protocols: []Protocol{GPUCoherence, DeNovo},
		MSHRSizes: []int{16, 32},
		LocalMems: []LocalMem{Scratchpad, Stash},
	})
	reversed := keysOf(Grid{
		Name:      "reversed",
		Workloads: []string{"implicit"},
		Protocols: []Protocol{DeNovo, GPUCoherence},
		MSHRSizes: []int{32, 16},
		LocalMems: []LocalMem{Stash, Scratchpad},
	})
	if len(forward) != len(reversed) {
		t.Fatalf("key sets differ in size: %d vs %d", len(forward), len(reversed))
	}
	for key := range forward {
		if !reversed[key] {
			t.Errorf("key %s missing from the reordered grid", key)
		}
	}
}

// TestLocalMemNamesRoundTrip: one name table serves the CLIs, the serve
// layer, the grid and the registry. Every organization round-trips
// through its parameter name, ParseLocalMem and the registry's "local"
// parameter. The keys of a local-memory grid are pinned: CacheKey hashes
// parameter values verbatim, so renaming "dma" (say, to the figures'
// "scratchpad+DMA") would orphan every result persisted under a serve
// cache directory.
func TestLocalMemNamesRoundTrip(t *testing.T) {
	for _, lm := range []LocalMem{Scratchpad, ScratchpadDMA, Stash} {
		for _, name := range []string{lm.Param(), lm.String()} {
			if got, err := ParseLocalMem(name); err != nil || got != lm {
				t.Errorf("ParseLocalMem(%q) = %v, %v; want %v", name, got, err, lm)
			}
		}
		w := mustBuild(t, "implicit", WorkloadValues{"local": lm.Param()})
		if got, want := w.Name(), "implicit ("+lm.String()+")"; got != want {
			t.Errorf("local=%s built %q, want %q", lm.Param(), got, want)
		}
	}
	if _, err := ParseLocalMem("dram"); err == nil || !strings.HasPrefix(err.Error(), "gsi: unknown local memory") {
		t.Errorf("ParseLocalMem(\"dram\") error = %v", err)
	}

	g := Grid{
		Workloads: []string{"implicit"},
		Protocols: []Protocol{GPUCoherence, DeNovo},
		LocalMems: []LocalMem{Scratchpad, ScratchpadDMA},
	}
	want := []string{
		"3df107dfcfe682bc462d92864677b3c92aa7c664701519d285bc221228a7c6fc",
		"c38a319f11e2414654750ce58924b1ed51ad01656c1d3c27b63874137701e422",
		"ad92ecc2e2aef7af3329d2565e33251cc598c08ee1f418ca966ae26fdc715259",
		"d0f55460a5d3a6354efa43da5d708c29ad6640cb69b039f9bf8530ca6aa5f5e4",
	}
	jobs := g.Sweep().Jobs
	if len(jobs) != len(want) {
		t.Fatalf("%d jobs, want %d", len(jobs), len(want))
	}
	for i, job := range jobs {
		if got := CacheKey(job.Options, job.Axes.Workload, g.PointParams(job.Axes)); got != want[i] {
			t.Errorf("%s: key %s, want %s", job.Label, got, want[i])
		}
	}
}
