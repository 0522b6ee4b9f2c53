package gsi

import "testing"

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
