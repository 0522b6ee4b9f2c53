package workloads

import (
	"encoding"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strconv"
	"strings"

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
// a CLI or config file). Names are matched folded (see FoldName).
type Values map[string]string

// Setting is one resolved parameter: a schema name and its value.
type Setting struct {
	Name, Value string
}

// FoldName is the one spelling rule for workload and parameter names:
// surrounding space trimmed, lower case. The registry looks names up
// folded and gsi.CacheKey hashes them folded, so spellings that fold alike
// build, and hash, as one.
func FoldName(name string) string { return strings.ToLower(strings.TrimSpace(name)) }

// Fold returns v keyed by folded names: v itself when every name is
// already folded, so the common spelling costs no copy. Two names that
// fold alike make the set ambiguous and are an error.
func (v Values) Fold() (Values, error) {
	for name := range v {
		if FoldName(name) != name {
			return v.fold()
		}
	}
	return v, nil
}

func (v Values) fold() (Values, error) {
	raw := make([]string, 0, len(v))
	for name := range v {
		raw = append(raw, name)
	}
	sort.Strings(raw) // the error names the same pair on every call
	out := make(Values, len(v))
	spelled := make(map[string]string, len(v))
	for _, name := range raw {
		key := FoldName(name)
		if prev, dup := spelled[key]; dup {
			return nil, fmt.Errorf("parameter %q is given twice (%q and %q)", key, prev, name)
		}
		spelled[key] = name
		out[key] = v[name]
	}
	return out, nil
}

// Entry describes one registered workload: its parameter struct, the
// SmallScale overrides the test suites run at, and its listing text.
//
// The parameter struct is the workload: it implements Instance, and its
// tagged fields are the schema. A field tagged `param:"name"` carries
// `help` and `default` tags (the default in the string form the CLI
// takes); fields appear in the schema in declaration order. Tagged fields
// are int, uint64 (decimal or 0x-prefixed hex) or implement
// encoding.TextUnmarshaler. A struct that also has a
// Tune(sim.Config) sim.Config method shapes the system it runs on.
type Entry struct {
	// Name is the registry key (lower case).
	Name string
	// Summary is a one-line description for listings.
	Summary string
	// Workload is the parameter struct's zero value; only its type is
	// used.
	Workload Instance
	// Small overrides a subset of parameters for SmallScale runs (unit
	// tests, golden figures, engine diffs).
	Small Values

	params []Param   // derived from Workload's tags by NewRegistry
	fields []int     // the struct field index of each params entry
	byName []Setting // the schema defaults in name order
}

// Registry maps workload names to entries, preserving registration order
// for deterministic listings.
type Registry struct {
	order  []string
	byName map[string]*Entry
}

// NewRegistry builds a registry from entries, deriving each entry's
// schema from its struct tags. Duplicate names and schemas whose
// defaults do not decode panic.
func NewRegistry(entries ...*Entry) *Registry {
	r := &Registry{byName: make(map[string]*Entry, len(entries))}
	for _, e := range entries {
		name := strings.ToLower(e.Name)
		if _, dup := r.byName[name]; dup {
			panic(fmt.Sprintf("workloads: duplicate registry entry %q", name))
		}
		t := reflect.TypeOf(e.Workload)
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if p, ok := f.Tag.Lookup("param"); ok {
				e.params = append(e.params, Param{p, f.Tag.Get("help"), f.Tag.Get("default")})
				e.fields = append(e.fields, i)
			}
		}
		for _, p := range e.params {
			e.byName = append(e.byName, Setting{p.Name, p.Default})
		}
		sort.Slice(e.byName, func(i, j int) bool { return e.byName[i].Name < e.byName[j].Name })
		if _, err := e.decode(e.byName); err != nil {
			panic(fmt.Sprintf("workloads: %s schema: %v", name, err))
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
		for _, p := range e.params {
			small := ""
			if v, ok := e.Small[p.Name]; ok {
				small = fmt.Sprintf("  (small scale: %s)", v)
			}
			fmt.Fprintf(w, "    %-12s %-52s default %s%s\n", p.Name, p.Help, p.Default, small)
		}
	}
}

// Lookup finds an entry by folded name (see FoldName).
func (r *Registry) Lookup(name string) (*Entry, bool) {
	e, ok := r.byName[FoldName(name)]
	return e, ok
}

// Params returns the parameter schema in declaration order.
func (e *Entry) Params() []Param { return e.params }

// Defaults returns the schema's default-scale values.
func (e *Entry) Defaults() Values {
	v := make(Values, len(e.params))
	for _, p := range e.params {
		v[p.Name] = p.Default
	}
	return v
}

// Build constructs the workload at default scale with the given overrides
// (nil for pure defaults).
func (e *Entry) Build(overrides Values) (Instance, error) {
	return e.build(false, overrides)
}

// BuildSmall constructs the workload at SmallScale (the entry's Small
// overrides, then the caller's) — the sizing the test suites run at.
func (e *Entry) BuildSmall(overrides Values) (Instance, error) {
	return e.build(true, overrides)
}

// TuneSystem shapes the base system for the workload at the given scale:
// the workload's Tune when it has one, then the rule every workload
// shares — the tuned system holds the block, so WarpsPerSM is at least
// the kernel's warps per block.
func (e *Entry) TuneSystem(small bool, overrides Values, cfg sim.Config) (sim.Config, error) {
	w, err := e.build(small, overrides)
	if err != nil {
		return cfg, err
	}
	if t, ok := w.(interface{ Tune(sim.Config) sim.Config }); ok {
		cfg = t.Tune(cfg)
	}
	if b, ok := w.(interface{ blockWarps() int }); ok {
		cfg.WarpsPerSM = max(cfg.WarpsPerSM, b.blockWarps())
	}
	return cfg, nil
}

// Resolve appends every schema parameter to dst in name order, each with
// its override from v or else its default, values trimmed as decode
// parses them. v's names must already be folded (Values.Fold). ok is
// false, and dst returned as given, when v names a parameter the schema
// lacks.
func (e *Entry) Resolve(dst []Setting, v Values) (_ []Setting, ok bool) {
	n := len(dst)
	dst = append(dst, e.byName...)
	if _, ok := e.set(dst[n:], v); !ok {
		return dst[:n], false
	}
	for i := n; i < len(dst); i++ {
		dst[i].Value = strings.TrimSpace(dst[i].Value)
	}
	return dst, true
}

// set overwrites s (a copy of byName) with v's values; ok is false at
// the first name the schema lacks.
func (e *Entry) set(s []Setting, v Values) (unknown string, ok bool) {
	for name, value := range v {
		i := e.index(name)
		if i < 0 {
			return name, false
		}
		s[i].Value = value
	}
	return "", true
}

// index finds a parameter's position in byName, or -1.
func (e *Entry) index(name string) int {
	i := sort.Search(len(e.byName), func(i int) bool { return e.byName[i].Name >= name })
	if i < len(e.byName) && e.byName[i].Name == name {
		return i
	}
	return -1
}

// build resolves the override layers for the scale and decodes them.
func (e *Entry) build(small bool, overrides Values) (Instance, error) {
	overrides, err := overrides.Fold()
	if err != nil {
		return nil, fmt.Errorf("workloads: %s: %w", e.Name, err)
	}
	s := append([]Setting(nil), e.byName...)
	layers := []Values{overrides}
	if small {
		layers = []Values{e.Small, overrides}
	}
	for _, layer := range layers {
		if name, ok := e.set(s, layer); !ok {
			known := make([]string, len(e.byName))
			for i, p := range e.byName {
				known[i] = p.Name
			}
			return nil, fmt.Errorf("workloads: %s has no parameter %q (have %s)",
				e.Name, name, strings.Join(known, ", "))
		}
	}
	return e.decode(s)
}

// decode fills a fresh parameter struct from fully resolved settings (in
// name order), field by field in schema order.
func (e *Entry) decode(s []Setting) (Instance, error) {
	w := reflect.New(reflect.TypeOf(e.Workload)).Elem()
	for i, p := range e.params {
		v := s[e.index(p.Name)].Value
		f := w.Field(e.fields[i])
		if u, ok := f.Addr().Interface().(encoding.TextUnmarshaler); ok {
			if err := u.UnmarshalText([]byte(strings.TrimSpace(v))); err != nil {
				return nil, fmt.Errorf("workloads: %w", err)
			}
			continue
		}
		switch f.Kind() {
		case reflect.Int:
			n, err := strconv.Atoi(strings.TrimSpace(v))
			if err != nil {
				return nil, fmt.Errorf("workloads: parameter %s=%q is not an integer", p.Name, v)
			}
			f.SetInt(int64(n))
		case reflect.Uint64:
			n, err := strconv.ParseUint(strings.TrimSpace(v), 0, 64)
			if err != nil {
				return nil, fmt.Errorf("workloads: parameter %s=%q is not a uint64", p.Name, v)
			}
			f.SetUint(n)
		default:
			return nil, fmt.Errorf("workloads: parameter %s has unsupported type %s", p.Name, f.Type())
		}
	}
	return w.Interface().(Instance), nil
}

// builtins is every workload this package ships, built once: entries are
// read-only after registration.
var builtins = NewRegistry(
	&Entry{Name: "uts", Workload: UTS{}, Small: Values{"nodes": "250", "frontier": "60"},
		Summary: "unbalanced tree search on one global task queue (sync-stall dominated, case study 1)"},
	&Entry{Name: "utsd", Workload: UTSD{}, Small: Values{"nodes": "250", "frontier": "60"},
		Summary: "decentralized tree search with per-SM local queues (locality case, figure 6.2)"},
	&Entry{Name: "implicit", Workload: Implicit{},
		Summary: "streaming microbenchmark over scratchpad/DMA/stash local memory (case study 2)"},
	&Entry{Name: "bfs", Workload: BFS{}, Small: Values{"vertices": "300", "blocks": "4", "warps": "2"},
		Summary: "level-synchronized BFS over a CSR graph (irregular gathers, frontier atomics, global barriers)"},
	&Entry{Name: "spmv", Workload: SpMV{}, Small: Values{"rows": "192", "blocks": "8", "warps": "4"},
		Summary: "CSR sparse matrix-vector product (streaming rows, indirect x gathers)"},
	&Entry{Name: "pipeline", Workload: Pipeline{},
		Small:   Values{"rounds": "4", "chase": "24", "work": "12", "permwords": "1024"},
		Summary: "producer-consumer pipeline with long idle phases between stages (the skip-ahead showcase)"},
	&Entry{Name: "gups", Workload: GUPS{}, Small: Values{"updates": "12", "windows": "8", "blocks": "4"},
		Summary: "random-access table updates through line-strided vector windows (MSHR/coalescer pressure)"},
	&Entry{Name: "stencil", Workload: Stencil{},
		Small:   Values{"width": "32", "rows": "2", "steps": "3", "blocks": "4"},
		Summary: "2D Jacobi with DMA double-buffered bands and global halo exchange (bulk-transfer/barrier pressure)"},
	&Entry{Name: "steal", Workload: Steal{},
		Small:   Values{"tasks": "96", "cap": "128", "blocks": "4", "warps": "2", "work": "8", "fmas": "2"},
		Summary: "work-stealing deques with steal-half policy (contended atomics, irregular quiescence)"},
)

// Builtins returns the registry of every workload this package ships:
// the paper's three benchmarks plus the sparse/bursty additions. Both
// CLIs and the sweep grid's workload axis drive this table. The registry
// is shared and must not be modified.
func Builtins() *Registry { return builtins }
