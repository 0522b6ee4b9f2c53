package workloads

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"gsi/internal/gpu"
	"gsi/internal/sim"
)

// Param is one entry of a workload's parameter schema: a name, a help
// string, and the default-scale value in string form.
type Param struct {
	Name    string
	Help    string
	Default string
}

// Values holds parameter overrides by name (string forms, as parsed from
// a CLI or config file).
type Values map[string]string

// Entry describes one registered workload: its constructor, its parameter
// schema with default-scale values, the SmallScale overrides the test
// suites run at, and an optional system-shaping hook.
type Entry struct {
	// Name is the registry key (lower case).
	Name string
	// Summary is a one-line description for listings.
	Summary string
	// Params is the parameter schema; defaults are the default scale.
	Params []Param
	// Small overrides a subset of parameters for SmallScale runs (unit
	// tests, golden figures, engine diffs).
	Small Values
	// New constructs an Instance from fully resolved values (every
	// schema parameter present).
	New func(v Values) (Instance, error)
	// Tune, when non-nil, shapes the base system configuration for this
	// workload (e.g. the implicit microbenchmark's single-SM system).
	// It sees the resolved values, so parameters may inform the shape.
	Tune func(v Values, cfg sim.Config) sim.Config
}

// Registry maps workload names to entries, preserving registration order
// for deterministic listings.
type Registry struct {
	order  []string
	byName map[string]*Entry
}

// NewRegistry builds a registry from entries; duplicate names panic.
func NewRegistry(entries ...*Entry) *Registry {
	r := &Registry{byName: make(map[string]*Entry, len(entries))}
	for _, e := range entries {
		name := strings.ToLower(e.Name)
		if _, dup := r.byName[name]; dup {
			panic(fmt.Sprintf("workloads: duplicate registry entry %q", name))
		}
		r.byName[name] = e
		r.order = append(r.order, name)
	}
	return r
}

// Names returns the registered names in registration order.
func (r *Registry) Names() []string { return append([]string(nil), r.order...) }

// Describe renders the registry table — every name, summary, parameter
// schema with default-scale values, and the SmallScale overrides the test
// suites run at. Both CLIs' -list-workloads print this.
func (r *Registry) Describe(w io.Writer) {
	for _, name := range r.order {
		e := r.byName[name]
		fmt.Fprintf(w, "%-10s %s\n", name, e.Summary)
		for _, p := range e.Params {
			small := ""
			if v, ok := e.Small[p.Name]; ok {
				small = fmt.Sprintf("  (small scale: %s)", v)
			}
			fmt.Fprintf(w, "    %-12s %-52s default %s%s\n", p.Name, p.Help, p.Default, small)
		}
	}
}

// Lookup finds an entry by name (case-insensitive).
func (r *Registry) Lookup(name string) (*Entry, bool) {
	e, ok := r.byName[strings.ToLower(strings.TrimSpace(name))]
	return e, ok
}

// Defaults returns the schema's default-scale values.
func (e *Entry) Defaults() Values {
	v := make(Values, len(e.Params))
	for _, p := range e.Params {
		v[p.Name] = p.Default
	}
	return v
}

// resolve merges override layers over the defaults, rejecting overrides
// that name no schema parameter.
func (e *Entry) resolve(layers ...Values) (Values, error) {
	v := e.Defaults()
	for _, layer := range layers {
		for name, val := range layer {
			if _, ok := v[name]; !ok {
				known := make([]string, 0, len(e.Params))
				for _, p := range e.Params {
					known = append(known, p.Name)
				}
				sort.Strings(known)
				return nil, fmt.Errorf("workloads: %s has no parameter %q (have %s)",
					e.Name, name, strings.Join(known, ", "))
			}
			v[name] = val
		}
	}
	return v, nil
}

// Build constructs the workload at default scale with the given overrides
// (nil for pure defaults).
func (e *Entry) Build(overrides Values) (Instance, error) {
	v, err := e.resolve(overrides)
	if err != nil {
		return nil, err
	}
	return e.New(v)
}

// BuildSmall constructs the workload at SmallScale (the entry's Small
// overrides, then the caller's) — the sizing the test suites run at.
func (e *Entry) BuildSmall(overrides Values) (Instance, error) {
	v, err := e.resolve(e.Small, overrides)
	if err != nil {
		return nil, err
	}
	return e.New(v)
}

// TuneSystem applies the entry's system-shaping hook (identity when the
// entry has none) at the given scale.
func (e *Entry) TuneSystem(small bool, overrides Values, cfg sim.Config) (sim.Config, error) {
	if e.Tune == nil {
		return cfg, nil
	}
	layers := []Values{overrides}
	if small {
		layers = []Values{e.Small, overrides}
	}
	v, err := e.resolve(layers...)
	if err != nil {
		return cfg, err
	}
	return e.Tune(v, cfg), nil
}

// Int parses an integer parameter.
func (v Values) Int(name string) (int, error) {
	s, ok := v[name]
	if !ok {
		return 0, fmt.Errorf("workloads: missing parameter %q", name)
	}
	n, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil {
		return 0, fmt.Errorf("workloads: parameter %s=%q is not an integer", name, s)
	}
	return n, nil
}

// Uint64 parses a uint64 parameter (hex with 0x prefix or decimal).
func (v Values) Uint64(name string) (uint64, error) {
	s, ok := v[name]
	if !ok {
		return 0, fmt.Errorf("workloads: missing parameter %q", name)
	}
	n, err := strconv.ParseUint(strings.TrimSpace(s), 0, 64)
	if err != nil {
		return 0, fmt.Errorf("workloads: parameter %s=%q is not a uint64", name, s)
	}
	return n, nil
}

// Str returns a string parameter.
func (v Values) Str(name string) (string, error) {
	s, ok := v[name]
	if !ok {
		return "", fmt.Errorf("workloads: missing parameter %q", name)
	}
	return strings.TrimSpace(s), nil
}

// ints parses a list of integer parameters in one call.
func (v Values) ints(names ...string) ([]int, error) {
	out := make([]int, len(names))
	for i, n := range names {
		x, err := v.Int(n)
		if err != nil {
			return nil, err
		}
		out[i] = x
	}
	return out, nil
}

// Builtins returns the registry of every workload this package ships:
// the paper's three benchmarks plus the sparse/bursty additions. Both
// CLIs and the sweep grid's workload axis drive this table.
func Builtins() *Registry {
	return NewRegistry(
		utsEntry(), utsdEntry(), implicitEntry(),
		bfsEntry(), spmvEntry(), pipelineEntry(), gupsEntry(),
		stencilEntry(), stealEntry(),
	)
}

func utsEntry() *Entry {
	return &Entry{
		Name:    "uts",
		Summary: "unbalanced tree search on one global task queue (sync-stall dominated, case study 1)",
		Params: []Param{
			{"nodes", "tree size", "6000"},
			{"frontier", "host pre-expansion width", "120"},
			{"blocks", "thread blocks (one per SM)", "15"},
			{"warps", "warps per block", "8"},
			{"work", "hash chain length per node", "16"},
			{"fmas", "FMA chain length per node", "4"},
			{"seed", "tree generation seed", "0xC0FFEE"},
		},
		Small: Values{"nodes": "250", "frontier": "60"},
		New: func(v Values) (Instance, error) {
			n, err := v.ints("nodes", "frontier", "blocks", "warps", "work", "fmas")
			if err != nil {
				return nil, err
			}
			seed, err := v.Uint64("seed")
			if err != nil {
				return nil, err
			}
			return UTS{Seed: seed, Nodes: n[0], FrontierMin: n[1], Blocks: n[2],
				WarpsPerBlock: n[3], Work: n[4], FMAs: n[5]}.Instance(), nil
		},
	}
}

func utsdEntry() *Entry {
	return &Entry{
		Name:    "utsd",
		Summary: "decentralized tree search with per-SM local queues (locality case, figure 6.2)",
		Params: []Param{
			{"nodes", "tree size", "6000"},
			{"frontier", "host pre-expansion width", "120"},
			{"blocks", "thread blocks (one per SM)", "15"},
			{"warps", "warps per block", "8"},
			{"work", "hash chain length per node", "16"},
			{"fmas", "FMA chain length per node", "4"},
			{"lqcap", "per-SM ring capacity (power of two)", "128"},
			{"seed", "tree generation seed", "0xC0FFEE"},
		},
		Small: Values{"nodes": "250", "frontier": "60"},
		New: func(v Values) (Instance, error) {
			n, err := v.ints("nodes", "frontier", "blocks", "warps", "work", "fmas", "lqcap")
			if err != nil {
				return nil, err
			}
			seed, err := v.Uint64("seed")
			if err != nil {
				return nil, err
			}
			return UTSD{Seed: seed, Nodes: n[0], FrontierMin: n[1], Blocks: n[2],
				WarpsPerBlock: n[3], Work: n[4], FMAs: n[5], LQCap: n[6]}.Instance(), nil
		},
	}
}

func implicitEntry() *Entry {
	return &Entry{
		Name:    "implicit",
		Summary: "streaming microbenchmark over scratchpad/DMA/stash local memory (case study 2)",
		Params: []Param{
			{"local", "local-memory organization: scratchpad | dma | stash", "scratchpad"},
			{"warps", "warp count (memory-level parallelism)", "32"},
			{"databytes", "array size in bytes", "16384"},
			{"fmas", "FMA chain per element group", "4"},
			{"rounds", "compute passes over the array", "2"},
			{"seed", "data fill seed", "0xD17A"},
		},
		New: func(v Values) (Instance, error) {
			kind, err := parseLocalKind(v)
			if err != nil {
				return nil, err
			}
			n, err := v.ints("warps", "databytes", "fmas", "rounds")
			if err != nil {
				return nil, err
			}
			seed, err := v.Uint64("seed")
			if err != nil {
				return nil, err
			}
			return Implicit{Seed: seed, Warps: n[0], DataBytes: n[1],
				FMAs: n[2], Rounds: n[3]}.Instance(kind), nil
		},
		Tune: func(v Values, cfg sim.Config) sim.Config {
			// Case study 2's machine: one SM holding the whole block.
			cfg.NumSMs = 1
			cfg.WarpsPerSM = 32
			if warps, err := v.Int("warps"); err == nil && warps > 0 && warps < cfg.WarpsPerSM {
				cfg.WarpsPerSM = warps
			}
			return cfg
		},
	}
}

func parseLocalKind(v Values) (gpu.LocalKind, error) {
	s, err := v.Str("local")
	if err != nil {
		return gpu.LocalNone, err
	}
	kind, err := gpu.ParseLocalKind(s)
	if err != nil {
		return gpu.LocalNone, fmt.Errorf("workloads: %w", err)
	}
	return kind, nil
}

func bfsEntry() *Entry {
	return &Entry{
		Name:    "bfs",
		Summary: "level-synchronized BFS over a CSR graph (irregular gathers, frontier atomics, global barriers)",
		Params: []Param{
			{"vertices", "graph size", "4000"},
			{"avgdeg", "mean out-degree", "4"},
			{"blocks", "thread blocks (must all be co-resident)", "15"},
			{"warps", "warps per block", "4"},
			{"seed", "graph generation seed", "0xB4B4"},
		},
		Small: Values{"vertices": "300", "blocks": "4", "warps": "2"},
		New: func(v Values) (Instance, error) {
			n, err := v.ints("vertices", "avgdeg", "blocks", "warps")
			if err != nil {
				return nil, err
			}
			seed, err := v.Uint64("seed")
			if err != nil {
				return nil, err
			}
			return BFS{Seed: seed, Vertices: n[0], AvgDeg: n[1],
				Blocks: n[2], WarpsPerBlock: n[3]}.Instance(), nil
		},
	}
}

func spmvEntry() *Entry {
	return &Entry{
		Name:    "spmv",
		Summary: "CSR sparse matrix-vector product (streaming rows, indirect x gathers)",
		Params: []Param{
			{"rows", "matrix dimension", "2048"},
			{"nnz", "mean nonzeros per row", "8"},
			{"blocks", "thread blocks", "15"},
			{"warps", "warps per block", "8"},
			{"seed", "matrix generation seed", "0x59A7"},
		},
		Small: Values{"rows": "192", "blocks": "8", "warps": "4"},
		New: func(v Values) (Instance, error) {
			n, err := v.ints("rows", "nnz", "blocks", "warps")
			if err != nil {
				return nil, err
			}
			seed, err := v.Uint64("seed")
			if err != nil {
				return nil, err
			}
			return SpMV{Seed: seed, Rows: n[0], NnzPerRow: n[1],
				Blocks: n[2], WarpsPerBlock: n[3]}.Instance(), nil
		},
	}
}

func pipelineEntry() *Entry {
	return &Entry{
		Name:    "pipeline",
		Summary: "producer-consumer pipeline with long idle phases between stages (the skip-ahead showcase)",
		Params: []Param{
			{"rounds", "produce/consume handoffs", "12"},
			{"chase", "pointer-chase length per producer per round", "64"},
			{"work", "hash-chain length per token", "24"},
			{"producers", "producer warps", "1"},
			{"consumers", "consumer warps", "1"},
			{"permwords", "pointer-chase permutation words (>= 2)", "4096"},
			{"seed", "permutation seed", "0x9199"},
		},
		Small: Values{"rounds": "4", "chase": "24", "work": "12", "permwords": "1024"},
		New: func(v Values) (Instance, error) {
			n, err := v.ints("rounds", "chase", "work", "producers", "consumers", "permwords")
			if err != nil {
				return nil, err
			}
			seed, err := v.Uint64("seed")
			if err != nil {
				return nil, err
			}
			return Pipeline{Seed: seed, Rounds: n[0], Chase: n[1], Work: n[2],
				Producers: n[3], Consumers: n[4], PermWords: n[5]}.Instance(), nil
		},
		Tune: func(v Values, cfg sim.Config) sim.Config {
			// One block on one SM: the idle stage's warps are the only
			// other residents, so the bursty phases are pure waits.
			cfg.NumSMs = 1
			if p, err := v.Int("producers"); err == nil {
				if c, err := v.Int("consumers"); err == nil && p+c > cfg.WarpsPerSM {
					cfg.WarpsPerSM = p + c
				}
			}
			return cfg
		},
	}
}

func stencilEntry() *Entry {
	return &Entry{
		Name:    "stencil",
		Summary: "2D Jacobi with DMA double-buffered bands and global halo exchange (bulk-transfer/barrier pressure)",
		Params: []Param{
			{"width", "grid columns including fixed edges (multiple of 8)", "64"},
			{"rows", "interior rows per block band", "4"},
			{"steps", "Jacobi time steps", "8"},
			{"blocks", "thread blocks (must all be co-resident)", "15"},
			{"warps", "warps per block", "2"},
			{"work", "hash chain length per cell update", "2"},
			{"seed", "initial grid fill seed", "0x57E9"},
		},
		Small: Values{"width": "32", "rows": "2", "steps": "3", "blocks": "4"},
		New: func(v Values) (Instance, error) {
			n, err := v.ints("width", "rows", "steps", "blocks", "warps", "work")
			if err != nil {
				return nil, err
			}
			seed, err := v.Uint64("seed")
			if err != nil {
				return nil, err
			}
			return Stencil{Seed: seed, Width: n[0], Rows: n[1], Steps: n[2],
				Blocks: n[3], WarpsPerBlock: n[4], Work: n[5]}.Instance(), nil
		},
		Tune: func(v Values, cfg sim.Config) sim.Config {
			// The band bands one block per SM; widen the warp slots when
			// a band is split finer than the default residency.
			if warps, err := v.Int("warps"); err == nil && warps > cfg.WarpsPerSM {
				cfg.WarpsPerSM = warps
			}
			return cfg
		},
	}
}

func stealEntry() *Entry {
	return &Entry{
		Name:    "steal",
		Summary: "work-stealing deques with steal-half policy (contended atomics, irregular quiescence)",
		Params: []Param{
			{"tasks", "total task count", "2000"},
			{"cap", "per-deque ring capacity (power of two >= tasks)", "2048"},
			{"blocks", "thread blocks (one deque each)", "15"},
			{"warps", "warps per block", "4"},
			{"work", "hash chain length per task", "12"},
			{"fmas", "FMA chain length per task", "4"},
			{"skew", "percent of tasks seeded into deque 0", "100"},
		},
		Small: Values{"tasks": "96", "cap": "128", "blocks": "4", "warps": "2", "work": "8", "fmas": "2"},
		New: func(v Values) (Instance, error) {
			n, err := v.ints("tasks", "cap", "blocks", "warps", "work", "fmas", "skew")
			if err != nil {
				return nil, err
			}
			return Steal{Tasks: n[0], Cap: n[1], Blocks: n[2], WarpsPerBlock: n[3],
				Work: n[4], FMAs: n[5], Skew: n[6]}.Instance(), nil
		},
		Tune: func(v Values, cfg sim.Config) sim.Config {
			if warps, err := v.Int("warps"); err == nil && warps > cfg.WarpsPerSM {
				cfg.WarpsPerSM = warps
			}
			return cfg
		},
	}
}

func gupsEntry() *Entry {
	return &Entry{
		Name:    "gups",
		Summary: "random-access table updates through line-strided vector windows (MSHR/coalescer pressure)",
		Params: []Param{
			{"updates", "updates per warp", "96"},
			{"windows", "partition size per warp in 2 KB windows (power of two)", "32"},
			{"blocks", "thread blocks", "15"},
			{"warps", "warps per block", "4"},
			{"seed", "update stream seed", "0x6095"},
		},
		Small: Values{"updates": "12", "windows": "8", "blocks": "4"},
		New: func(v Values) (Instance, error) {
			n, err := v.ints("updates", "windows", "blocks", "warps")
			if err != nil {
				return nil, err
			}
			seed, err := v.Uint64("seed")
			if err != nil {
				return nil, err
			}
			return GUPS{Seed: seed, Updates: n[0], WindowsPerWarp: n[1],
				Blocks: n[2], WarpsPerBlock: n[3]}.Instance(), nil
		},
	}
}
