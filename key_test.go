package gsi

import (
	"bytes"
	"strings"
	"testing"
)

// TestCacheKeyEquivalentConfigsHashEqual: CacheKey must collapse every
// spelling of the same simulation onto one content address — defaulted vs
// explicit configuration, engine-mode selections (results are
// byte-identical by contract) and the two inert scheduling fields (all
// three held out of the hash by their json:"-" tags), default-valued vs
// absent parameters, and cosmetic name/value spellings.
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
		"timeline": CacheKey(Options{Protocol: DeNovo, Timeline: true}, "uts", nil),
		"ablation": CacheKey(Options{Protocol: DeNovo, SFIFO: true}, "uts", nil),
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
		"uts":      {"cb0133511852b4e3014c676701f942277b298ddfafc8125c1e0a91463881c7c4", "d15251557a06ccf52c05b9a0ff416f7c846bc0b237cf69502b4ee3d26a580c1e"},
		"utsd":     {"c9e312ca06f27b73fa2375bec14e4bdfb076af95baa27a3f74bdd48a88faae5c", "a6fcf476d7dc744f7c8dcc49cfa657270da8e68a81cd68b0ccf749aa387bad1a"},
		"implicit": {"f8daa01e8a416347fa225b8bcac7cd187a86aac3d096f4c86c834ea7683d8b28", "f8daa01e8a416347fa225b8bcac7cd187a86aac3d096f4c86c834ea7683d8b28"},
		"bfs":      {"c97ae2cf13897abb593d987eff54f506866fdcd13d260c4505041eae0ce58984", "d48a2a2b8775fa1842101cda88e90ca22643421f1e76b83305265217656fca7b"},
		"spmv":     {"266225596674e14d176673932395e8e20194aa4a0191ef7fea3f7dca216ffe53", "fd8321fdeb448ae3ad39b68440d17ffd46042660f7df63fcf085a7c2f69dbb8d"},
		"pipeline": {"d814b4826f7368d81ac34b388d4ea70eb7bb2acf201d002acf2c8506aa288fa8", "43ca1a5ac7f7ae222fcf55f4bd3b0bb390a870111506ea12ad10f5695590e01e"},
		"gups":     {"eebcc3adfc7d9c1db519e1ff258fc507b4cd83f33a31f6739c37d9d6af83b618", "c134a8b0dc3e6140c9f586fad1a3c6f9238da3e5d459bfad0f315762d49954ba"},
		"stencil":  {"e8938d29ffb3e20e8ceb6bc87e842df9de6be9694c34aacd5f81d2318e1d85da", "661e6ff39c2f64b2c3443e54b144cda988aedd7df1c192dc26ec5b901ad9d0a5"},
		"steal":    {"4818aeb146792614f87232fb73e347982052b9aa10ea111866e6be227b9be630", "1da91b3c3fc1d4d9a4503c1c2a94c62b5bf4363a52650dc2847b63de7ef161c7"},
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
		"56a1e865d0fdc7fce6b90ad16a814cad8bf2686e833621c4ba1b1f235817bd68",
		"fc9ca8491d7846fca1faacf783ad6b8e99337d22aeb0ff78232ae389c7422898",
		"1da1c078d94f878ab409222ab49449c92d3d2271603df7b198bdd9344bb62995",
		"ad9fde93f722b75f01db7ac0c4b93bcca4214de9d9b638360a8cfcca0ec3eb15",
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
		{"no-such-workload", nil, "45f2e70c3bb5266fe4c495ccb5be9f359d9c166011a5df784c19a92757e7c420"},
		{"no-such-workload", WorkloadValues{"Zeta": " 1 ", "alpha": "2"}, "c242a443f3bf219129c415a194b7c3e883ee89b1567e42c9efb44eab368016dd"},
		{"uts", WorkloadValues{"bogus": "1"}, "f25589ace118751758e95fced5b0840a68ef33f83ccf5f3ec58957adbf8bc9ae"},
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
