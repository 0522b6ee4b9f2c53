package workloads

import (
	"slices"
	"strings"
	"testing"

	"gsi/internal/cpu"
	"gsi/internal/mem"
)

// The four sparse/bursty workloads' verifiers are the harness's defense
// against timing bugs that corrupt results; as with the UTS family, these
// tests forge a perfect run and then prove each check fires when its
// invariant is broken.

func TestWarpChunk(t *testing.T) {
	for _, tt := range []struct{ total, parts int }{
		{10, 3}, {7, 7}, {5, 8}, {100, 1}, {0, 4},
	} {
		covered := 0
		prevEnd := 0
		for i := 0; i < tt.parts; i++ {
			start, end := WarpChunk(tt.total, tt.parts, i)
			if start != prevEnd {
				t.Fatalf("chunk(%d,%d,%d) starts at %d, want %d", tt.total, tt.parts, i, start, prevEnd)
			}
			if end < start || end-start > tt.total/tt.parts+1 {
				t.Fatalf("chunk(%d,%d,%d) = [%d,%d): bad size", tt.total, tt.parts, i, start, end)
			}
			covered += end - start
			prevEnd = end
		}
		if covered != tt.total || prevEnd != tt.total {
			t.Fatalf("chunks of (%d,%d) cover %d items ending at %d", tt.total, tt.parts, covered, prevEnd)
		}
	}
}

func TestGenGraphDeterministicCSR(t *testing.T) {
	a := GenGraph(7, 500, 4)
	b := GenGraph(7, 500, 4)
	if a.Vertices() != 500 || len(a.RowPtr) != 501 {
		t.Fatalf("graph shape: %d vertices, %d rowptr", a.Vertices(), len(a.RowPtr))
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			t.Fatal("graph generation not deterministic")
		}
	}
	for v := 0; v < a.Vertices(); v++ {
		if a.RowPtr[v] > a.RowPtr[v+1] {
			t.Fatalf("rowptr not monotonic at %d", v)
		}
	}
	for _, c := range a.Col {
		if c >= 500 {
			t.Fatalf("neighbor %d out of range", c)
		}
	}
	dist, levels := a.Levels()
	if dist[0] != 1 || levels < 1 {
		t.Fatalf("levels: dist[0]=%d levels=%d", dist[0], levels)
	}
}

// forgeBFS builds BFS memory and writes the state a correct run leaves,
// from the reference traversal of the same seeded graph.
func forgeBFS(t *testing.T) (*cpu.Host, func(*cpu.Host) error) {
	t.Helper()
	h := cpu.NewHost(mem.NewBacking())
	w := BFS{Seed: 11, Vertices: 120, AvgDeg: 3, Blocks: 2, WarpsPerBlock: 2}
	_, verify, err := w.Build(h)
	if err != nil {
		t.Fatal(err)
	}
	dist, levels := GenGraph(w.Seed, w.Vertices, w.AvgDeg).Levels()
	for v, d := range dist {
		h.Write64(addrBfsDist+uint64(v)*8, d)
	}
	h.Write64(addrBfsBarGen, uint64(levels))
	h.Write64(addrBfsBarCnt, uint64(levels*w.Blocks*w.WarpsPerBlock))
	return h, verify
}

func TestVerifyBFSDetectsFaults(t *testing.T) {
	h, verify := forgeBFS(t)
	if err := verify(h); err != nil {
		t.Fatalf("perfect run rejected: %v", err)
	}
	faults := []struct {
		name   string
		inject func(h *cpu.Host)
		want   string
	}{
		{"wrong distance", func(h *cpu.Host) {
			h.Write64(addrBfsDist+8*17, h.Read64(addrBfsDist+8*17)+1)
		}, "dist["},
		{"missed level", func(h *cpu.Host) {
			h.Write64(addrBfsBarGen, h.Read64(addrBfsBarGen)-1)
		}, "levels"},
		{"lost barrier arrival", func(h *cpu.Host) {
			h.Write64(addrBfsBarCnt, h.Read64(addrBfsBarCnt)-1)
		}, "barrier"},
	}
	for _, f := range faults {
		t.Run(f.name, func(t *testing.T) {
			h, verify := forgeBFS(t)
			f.inject(h)
			err := verify(h)
			if err == nil {
				t.Fatal("fault not detected")
			}
			if !strings.Contains(err.Error(), f.want) {
				t.Fatalf("err = %v, want mention of %q", err, f.want)
			}
		})
	}
}

func TestVerifySpMVDetectsCorruption(t *testing.T) {
	h := cpu.NewHost(mem.NewBacking())
	w := SpMV{Seed: 13, Rows: 64, NnzPerRow: 4, Blocks: 2, WarpsPerBlock: 2}
	_, verify, err := w.Build(h)
	if err != nil {
		t.Fatal(err)
	}
	// The input vector is read back from host memory.
	x := make([]uint64, w.Rows)
	for i := range x {
		x[i] = h.Read64(addrSpmX + uint64(i)*8)
	}
	for r, v := range GenMatrix(w.Seed, w.Rows, w.NnzPerRow).Multiply(x) {
		h.Write64(addrSpmY+uint64(r)*8, v)
	}
	if err := verify(h); err != nil {
		t.Fatalf("perfect run rejected: %v", err)
	}
	h.Write64(addrSpmY+8*31, h.Read64(addrSpmY+8*31)^1)
	if err := verify(h); err == nil || !strings.Contains(err.Error(), "y[31]") {
		t.Fatalf("corruption not detected: %v", err)
	}
}

func TestVerifyPipelineDetectsCorruption(t *testing.T) {
	h := cpu.NewHost(mem.NewBacking())
	w := Pipeline{Seed: 17, Rounds: 3, Chase: 8, Work: 4, Producers: 2, Consumers: 1, PermWords: 64}
	_, verify, err := w.Build(h)
	if err != nil {
		t.Fatal(err)
	}
	toks, results := w.Reference(GenPerm(w.Seed, w.PermWords))
	for i := range toks {
		h.Write64(addrPipeTok+uint64(i)*8, toks[i])
		h.Write64(addrPipeRes+uint64(i)*8, results[i])
	}
	if err := verify(h); err != nil {
		t.Fatalf("perfect run rejected: %v", err)
	}
	h.Write64(addrPipeRes+8*2, h.Read64(addrPipeRes+8*2)+1)
	if err := verify(h); err == nil || !strings.Contains(err.Error(), "result[2]") {
		t.Fatalf("corruption not detected: %v", err)
	}
	// Token corruption is a distinct failure (the handoff itself broke).
	h2 := cpu.NewHost(mem.NewBacking())
	_, verify2, err := w.Build(h2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range toks {
		h2.Write64(addrPipeTok+uint64(i)*8, toks[i])
		h2.Write64(addrPipeRes+uint64(i)*8, results[i])
	}
	h2.Write64(addrPipeTok+0, toks[0]+1)
	if err := verify2(h2); err == nil || !strings.Contains(err.Error(), "token[0]") {
		t.Fatalf("token corruption not detected: %v", err)
	}
}

func TestVerifyGUPSDetectsCorruption(t *testing.T) {
	h := cpu.NewHost(mem.NewBacking())
	w := GUPS{Seed: 19, Updates: 6, WindowsPerWarp: 4, Blocks: 2, WarpsPerBlock: 1}
	_, verify, err := w.Build(h)
	if err != nil {
		t.Fatal(err)
	}
	for j, v := range w.Reference() {
		h.Write64(addrGupsTable+uint64(j)*8, v)
	}
	if err := verify(h); err != nil {
		t.Fatalf("perfect run rejected: %v", err)
	}
	h.Write64(addrGupsTable+8*100, h.Read64(addrGupsTable+8*100)^2)
	if err := verify(h); err == nil || !strings.Contains(err.Error(), "table[100]") {
		t.Fatalf("corruption not detected: %v", err)
	}
}

func TestSparseWorkloadValidation(t *testing.T) {
	h := cpu.NewHost(mem.NewBacking())
	if _, _, err := (BFS{Vertices: 0, AvgDeg: 1, Blocks: 1, WarpsPerBlock: 1}).Build(h); err == nil {
		t.Error("BFS accepted zero vertices")
	}
	if _, _, err := (SpMV{Rows: 10, NnzPerRow: 0, Blocks: 1, WarpsPerBlock: 1}).Build(h); err == nil {
		t.Error("SpMV accepted zero nnz")
	}
	if _, _, err := (Pipeline{Rounds: 1, Chase: 1, Work: 1, Producers: 1, Consumers: 0, PermWords: 4}).Build(h); err == nil {
		t.Error("pipeline accepted zero consumers")
	}
	if _, _, err := (GUPS{Updates: 1, WindowsPerWarp: 3, Blocks: 1, WarpsPerBlock: 1}).Build(h); err == nil {
		t.Error("GUPS accepted non-power-of-two partition")
	}
}

// TestRegistrySchemaMatchesConstructors: every entry's Small overrides
// name real schema parameters, and defaults resolve through New without
// error (the schema and the constructors cannot drift apart).
func TestRegistrySchemaMatchesConstructors(t *testing.T) {
	reg := Builtins()
	for _, name := range reg.Names() {
		e, _ := reg.Lookup(name)
		if _, err := e.Build(nil); err != nil {
			t.Errorf("%s: defaults do not construct: %v", name, err)
		}
		if _, err := e.BuildSmall(nil); err != nil {
			t.Errorf("%s: Small overrides do not construct: %v", name, err)
		}
	}
}

// TestRegistryProgramsAreDecoded: every registry workload's kernel carries
// the decoded table the issue stage reads, one entry per instruction, equal
// to what the ISA's definitions give for that instruction.
func TestRegistryProgramsAreDecoded(t *testing.T) {
	reg := Builtins()
	for _, name := range reg.Names() {
		e, _ := reg.Lookup(name)
		inst, err := e.BuildSmall(nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		k, _, err := inst.Build(cpu.NewHost(mem.NewBacking()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p := k.Program
		for pc, in := range p.Instrs {
			d := p.Fetch(pc)
			want := in.ReadRegs(nil)
			if rd, ok := in.WritesReg(); ok {
				want = append(want, rd)
			}
			if d.Instr != in || d.Class != in.Op.Class() || !slices.Equal(d.ScanRegs(), want) {
				t.Errorf("%s pc %d (%s): decoded class %d scan %v, want class %d scan %v",
					name, pc, in, d.Class, d.ScanRegs(), in.Op.Class(), want)
			}
		}
	}
}

// TestValuesUint64ParsesHex pins the decoder's seed-parameter encoding:
// the schema defaults are written with 0x prefixes, and a hex-prefixed
// value must parse as hex (a regression here silently runs registry
// workloads on different seeds than the same-named struct literals),
// while a decimal one parses as decimal.
func TestValuesUint64ParsesHex(t *testing.T) {
	e, _ := Builtins().Lookup("uts")
	for in, want := range map[string]uint64{
		"0x9199": 0x9199, "0xC0FFEE": 0xC0FFEE, "123": 123,
	} {
		w, err := e.Build(Values{"seed": in})
		if err != nil || w.(UTS).Seed != want {
			t.Errorf("seed=%q decoded to %+v, %v; want seed %#x", in, w, err, want)
		}
	}
	if _, err := e.Build(Values{"seed": "xyz"}); err == nil || !strings.Contains(err.Error(), "is not a uint64") {
		t.Errorf("non-numeric seed: err = %v", err)
	}
}
