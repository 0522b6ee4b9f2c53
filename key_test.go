package gsi

import (
	"bytes"
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

// TestCacheKeyRegistryPins pins every registry entry's content address at
// its default and SmallScale parameters. CacheKey hashes the schema's
// default strings, so a reworded default ("0xC0FFEE" as "12648430") or a
// renamed parameter would orphan every result persisted under a serve
// cache directory.
func TestCacheKeyRegistryPins(t *testing.T) {
	want := map[string][2]string{
		"uts":      {"35ad1c26623b46e232bd7e0736e74bf829d83b97086d91e44c8b4d654ba04f78", "3d7470cbd90ec763ed0139fac0bd4ce72c23e017cc09c9697701ca8d5407f70a"},
		"utsd":     {"c8023543a4b769fc0ac58cf7204aac1c1bdbd21289462418e33c19f962feaf34", "3396aad4513253ad4c4c0e6a051c780f1adcba6fd30cae6aea25ea884f928200"},
		"implicit": {"041d744b23f2b4305a35a1d9a109e47a1ba95fc81c69c2f89da6ebefd8bdb0d7", "041d744b23f2b4305a35a1d9a109e47a1ba95fc81c69c2f89da6ebefd8bdb0d7"},
		"bfs":      {"a5fad09a11ca247c878060dc763a74c6a0efddcb17a83b97c8a4a9edddf14892", "efaf1211afbc4df58b55473c84617aaa0819fcb5ceaacbee6c2319362222a643"},
		"spmv":     {"6aefbe01259337ce61df26928b794451bc6f7396edd932075e5cc21550b0c072", "99b20bb128c6223e258e99dcc391bc81d17a5a53ff0c43b84675a36e9dd49f61"},
		"pipeline": {"28eca815082e5412efe960da43567e6ed08c08d9927405027baf3fb6a0a57a32", "49c155057b81d0d66e278aa65de9ebcd7fdb2037a914cfcc4565c1235f5f2bdc"},
		"gups":     {"0703bc70914f9b3ab7a94914677d30a7462bf4fa80d8de83cc81801dcfd8c1a9", "dca38969850a66a36521dcafbd246df371c0c54e652983f63a9e6d3498b0e644"},
		"stencil":  {"88784260ab3698f5e4c9b7576ddbab5aaa4f2494f3a0ddee0171a4514078a5c9", "9f03ef707169537214228a252a703092694427b5973d45fe0c9dd2b5aeb41588"},
		"steal":    {"7623057ea6855f863121a16ebec3441c3893549d8d831dbaf54692e77d4b9ea3", "71689849d40cc2deb679bfd36bbbadbfd1d435f3551b12c16d35ffe87755af4d"},
	}
	reg := Workloads()
	if len(want) != len(reg.Names()) {
		t.Fatalf("%d pinned entries, registry has %d", len(want), len(reg.Names()))
	}
	for _, name := range reg.Names() {
		e, _ := reg.Lookup(name)
		opt := Options{Protocol: DeNovo}
		if got := CacheKey(opt, name, e.Defaults()); got != want[name][0] {
			t.Errorf("%s at defaults: key %s, want %s", name, got, want[name][0])
		}
		if got := CacheKey(opt, name, e.Small); got != want[name][1] {
			t.Errorf("%s at small scale: key %s, want %s", name, got, want[name][1])
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

// TestCacheKeyUnresolvedPins pins keys whose parameters do not resolve in
// a schema — an unknown workload, with and without overrides, and an
// override naming no parameter. Such jobs fail, so their keys cache
// nothing, but they must stay stable, and an empty override list hashes
// as null on every call, not only on the first.
func TestCacheKeyUnresolvedPins(t *testing.T) {
	cases := []struct {
		workload string
		params   WorkloadValues
		want     string
	}{
		{"no-such-workload", nil, "f8aca63446e0f7edac25010ad616e4000fb6344789415e74a5c20ab0de8a9711"},
		{"no-such-workload", WorkloadValues{"Zeta": " 1 ", "alpha": "2"}, "1d6db896b761865c8b2ec04b3fecbd9aed0038b7f3b99fac159d929f472cee28"},
		{"uts", WorkloadValues{"bogus": "1"}, "4714d56b4eebe8193367960f948f7e5a65f14d0479cd55ed9d1493fb0debb9e0"},
	}
	for _, c := range cases {
		opt := Options{}
		if c.workload == "uts" {
			opt.Protocol = DeNovo
		}
		for call := 0; call < 3; call++ {
			if got := CacheKey(opt, c.workload, c.params); got != c.want {
				t.Errorf("%s %v, call %d: key %s, want %s", c.workload, c.params, call, got, c.want)
			}
		}
	}
}

// TestParamSpellingsRunAsTheyHash: CacheKey folds parameter names, so the
// registry must too — otherwise the serve cache (or a shared flight)
// answers a spelling with a result it would never produce when run. The
// folded spellings of uts's parameters run through a grid to the same
// Report bytes as the canonical spelling. Two overrides that fold to one
// name are an error, under a key of their own that no run shares. The
// spellings run fresh: they are the paths compared.
func TestParamSpellingsRunAsTheyHash(t *testing.T) {
	run := func(params WorkloadValues) ([]byte, string, error) {
		t.Helper()
		g := Grid{Workloads: []string{"uts"}, Params: params}
		job := g.Sweep().Jobs[0]
		key := CacheKey(job.Options, job.Axes.Workload, g.PointParams(job.Axes))
		rep, err := Run(job.Options, job.Workload())
		if err != nil {
			return nil, key, err
		}
		doc, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return doc, key, nil
	}
	want, wantKey, err := run(WorkloadValues{"nodes": "100", "frontier": "60"})
	if err != nil {
		t.Fatal(err)
	}
	for _, params := range []WorkloadValues{
		{"Nodes": "100", "FRONTIER": "60"},
		{" nodes ": " 100 ", "frontier\t": "60"},
	} {
		got, key, err := run(params)
		if err != nil {
			t.Errorf("%q: %v", params, err)
			continue
		}
		if key != wantKey {
			t.Errorf("%q: key %s, want %s", params, key, wantKey)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%q: Report differs from the canonical spelling's", params)
		}
	}

	colliding := WorkloadValues{"Nodes": "5", "nodes": "6", "frontier": "60"}
	_, key, err := run(colliding)
	if err == nil || !strings.Contains(err.Error(), `parameter "nodes" is given twice ("Nodes" and "nodes")`) {
		t.Errorf("colliding spellings: error %v", err)
	}
	e, _ := Workloads().Lookup("uts")
	if _, err := e.Build(colliding); err == nil {
		t.Error("Build accepted colliding spellings")
	}
	for _, v := range []string{"5", "6"} {
		_, other, _ := run(WorkloadValues{"nodes": v, "frontier": "60"})
		if key == other {
			t.Errorf("colliding spellings share the key of nodes=%s", v)
		}
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestCacheKeyAllocations: a cache hit in gsi-serve costs a key and a
// lookup, so CacheKey encodes into reused scratch and allocates little
// more than the string it returns.
func TestCacheKeyAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random")
	}
	opt := Options{Protocol: GPUCoherence}
	params := WorkloadValues{"vertices": "300", "blocks": "4", "warps": "2"}
	allocs := testing.AllocsPerRun(200, func() { CacheKey(opt, "bfs", params) })
	if allocs > 5 {
		t.Errorf("CacheKey allocates %.1f times per call, want at most 5", allocs)
	}
}
