package gpu

import (
	"math/rand"
	"testing"

	"gsi/internal/coherence"
	"gsi/internal/core"
	"gsi/internal/isa"
	"gsi/internal/mem"
	"gsi/internal/sim"
)

// resolveLog records the order and service point of completed loads as the
// Inspector hears of them.
type resolveLog struct {
	ids    []core.LoadID
	wheres []core.DataWhere
}

func (r *resolveLog) StallSpan(int, core.CycleClass, uint64) {}
func (r *resolveLog) LoadResolved(_ int, id core.LoadID, where core.DataWhere) {
	r.ids = append(r.ids, id)
	r.wheres = append(r.wheres, where)
}

// modelTrack is the plain-map model's view of one in-flight load.
type modelTrack struct {
	warp      *Warp
	rd        isa.Reg
	remaining int
	value     uint64
}

// TestLSUTracksMatchMapModel drives the LSU's load tracks through a random
// interleaving of loads issued (one to three lines, some hitting locally),
// fills arriving out of order and timed hit completions, with enough loads
// in flight to grow the table more than twice, and compares it step by step
// with a plain map: PendingLoads, and for every load the moment, order,
// destination, value and service point of its delivery.
func TestLSUTracksMatchMapModel(t *testing.T) {
	cfg := sim.Default()
	g, err := New(cfg, coherence.PoliciesFor(cfg.NumSMs, coherence.DeNovo{}))
	if err != nil {
		t.Fatal(err)
	}
	sm := g.SMs[2]
	l := sm.lsu
	log := &resolveLog{}
	g.Insp.Sinks = []core.TraceSink{log}

	rng := rand.New(rand.NewSource(7))
	warps := make([]*Warp, 8)
	type dest struct {
		w  int
		rd isa.Reg
	}
	var free []dest
	for i := range warps {
		warps[i] = &Warp{idx: i}
		for rd := isa.Reg(0); rd < isa.NumRegs; rd++ {
			free = append(free, dest{i, rd})
		}
	}
	model := map[core.LoadID]*modelTrack{}
	var live []core.LoadID
	var hits []compEvent // the model's copy of the LSU's timed completions
	var wantIDs []core.LoadID
	var wantWheres []core.DataWhere
	startCap := l.tracks.Cap()

	// lineDone is the model's half of one completed line.
	lineDone := func(id core.LoadID, where core.DataWhere) {
		m := model[id]
		m.remaining--
		if m.remaining > 0 {
			if m.warp.board[m.rd].kind != pendLoad {
				t.Fatalf("load %d delivered with %d lines outstanding", id, m.remaining)
			}
			return
		}
		if m.warp.board[m.rd].kind != pendNone || m.warp.regs[m.rd] != m.value {
			t.Fatalf("load %d: warp %d r%d = %#x (board %d), want %#x delivered",
				id, m.warp.idx, m.rd, m.warp.regs[m.rd], m.warp.board[m.rd].kind, m.value)
		}
		wantIDs = append(wantIDs, id)
		wantWheres = append(wantWheres, where)
		delete(model, id)
		for i, v := range live {
			if v == id {
				live = append(live[:i], live[i+1:]...)
				break
			}
		}
		free = append(free, dest{m.warp.idx, m.rd})
	}

	for cycle := uint64(1); cycle < 30_000; cycle++ {
		switch op := rng.Intn(10); {
		case op < 4 && len(free) > 0:
			i := rng.Intn(len(free))
			d := free[i]
			free = append(free[:i], free[i+1:]...)
			w := warps[d.w]
			id := sm.nextLoadID()
			m := &modelTrack{warp: w, rd: d.rd, remaining: 1 + rng.Intn(3), value: rng.Uint64() | 1}
			model[id] = m
			live = append(live, id)
			w.setPendingLoad(d.rd, id)
			*l.tracks.Insert(id) = loadTrack{warp: w, rd: d.rd, remaining: m.remaining, value: m.value}
			if rng.Intn(3) == 0 {
				// One line hits locally and completes on a timer.
				e := compEvent{at: cycle + 1 + uint64(rng.Intn(4)), id: id, where: core.WhereL1}
				l.comps = append(l.comps, e)
				hits = append(hits, e)
			}
		case len(live) > 0:
			id := live[rng.Intn(len(live))]
			pendingHits := 0
			for _, e := range hits {
				if e.id == id {
					pendingHits++
				}
			}
			if model[id].remaining == pendingHits {
				break // every outstanding line is already on a timer
			}
			where := core.DataWheres()[rng.Intn(len(core.DataWheres()))]
			l.LoadFillDone(mem.Target{Kind: mem.TargetLoad, Load: id}, where)
			lineDone(id, where)
		}
		l.Tick(cycle)
		n := 0
		for _, e := range hits {
			if e.at <= cycle {
				lineDone(e.id, e.where)
			} else {
				hits[n] = e
				n++
			}
		}
		hits = hits[:n]
		if l.PendingLoads() != len(model) {
			t.Fatalf("cycle %d: PendingLoads = %d, model holds %d", cycle, l.PendingLoads(), len(model))
		}
	}
	if l.tracks.Cap() < 4*startCap {
		t.Fatalf("table grew from %d to %d slots: the run did not cross two growths", startCap, l.tracks.Cap())
	}
	if len(log.ids) != len(wantIDs) {
		t.Fatalf("%d loads resolved, model delivered %d", len(log.ids), len(wantIDs))
	}
	for i := range wantIDs {
		if log.ids[i] != wantIDs[i] || log.wheres[i] != wantWheres[i] {
			t.Fatalf("delivery %d: load %d at %v, model says load %d at %v",
				i, log.ids[i], log.wheres[i], wantIDs[i], wantWheres[i])
		}
	}
}

// issueLoop launches a resident ALU+load loop on a one-SM GPU — four warps,
// each loading its own word of one L1-resident line, adding it up and
// branching back — and runs it past its cold misses. tick advances the memory
// system and the SM one cycle.
func issueLoop(tb testing.TB) (sm *SM, tick func()) {
	cfg := sim.Default()
	cfg.NumSMs = 1
	g, err := New(cfg, coherence.PoliciesFor(1, coherence.DeNovo{}))
	if err != nil {
		tb.Fatal(err)
	}
	p := isa.NewBuilder("issue")
	top := p.Here()
	p.Ld(2, 1, 0).Add(3, 3, 2).AddI(4, 4, 1).BLT(4, 5, top).Exit()
	k := &Kernel{
		Name: "issue", Program: p.MustBuild(), Blocks: 1, WarpsPerBlock: 4,
		InitRegs: func(_, warp int, regs *[isa.NumRegs]uint64) {
			regs[1] = 0x10000 + uint64(warp)*8
			regs[5] = 1 << 62
		},
	}
	if err := g.Launch(k); err != nil {
		tb.Fatal(err)
	}
	sm = g.SMs[0]
	cycle := uint64(0)
	tick = func() {
		cycle++
		g.Sys.Tick(cycle)
		sm.Tick(cycle)
	}
	for cycle < 5000 {
		tick()
	}
	return sm, tick
}

// TestIssueStageDoesNotAllocate: once warm, a cycle of the issue path —
// classification, scoreboard scans, LSU accept, load tracking, deferred
// attribution — allocates nothing, loads included.
func TestIssueStageDoesNotAllocate(t *testing.T) {
	sm, tick := issueLoop(t)
	issued, accepted := sm.InstrsIssued, sm.lsu.Accepted
	if n := testing.AllocsPerRun(2000, tick); n != 0 {
		t.Errorf("%.2f allocations per SM cycle on a warm ALU+load loop, want 0", n)
	}
	if sm.InstrsIssued-issued < 2000 || sm.lsu.Accepted-accepted < 500 {
		t.Fatalf("the loop issued %d instructions and %d loads in 2000 cycles: not exercising the issue path",
			sm.InstrsIssued-issued, sm.lsu.Accepted-accepted)
	}
}

// BenchmarkIssueStage measures one SM cycle of the issue path on the
// resident ALU+load loop, the memory system idle underneath.
func BenchmarkIssueStage(b *testing.B) {
	sm, tick := issueLoop(b)
	issued := sm.InstrsIssued
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick()
	}
	b.ReportMetric(float64(sm.InstrsIssued-issued)/float64(b.N), "instrs/op")
}
