package mem_test

import (
	"testing"

	"gsi/internal/coherence"
	"gsi/internal/core"
	"gsi/internal/isa"
	"gsi/internal/mem"
	"gsi/internal/sim"
)

// driver owns a memory system ticked densely by hand, with completion
// callbacks that only count: whatever a transaction allocates is the memory
// system's own.
type driver struct {
	sys    *mem.System
	cycle  uint64
	loads  int
	atoms  int
	acks   int
	lineSz uint64
	// fresh is the next never-touched line homed at bank 0; keeping the
	// cold lines on one bank keeps the tables and rings a transaction
	// warms the ones the next transaction uses.
	fresh uint64
}

// coldBase is where the never-touched lines start; its backing pages are
// written once up front so an atomic to a cold line allocates no page.
const coldBase = uint64(0x100_0000)

func newDriver(tb testing.TB, policy mem.Policy) *driver {
	tb.Helper()
	cfg := sim.Default()
	cfg.NumSMs = 3
	sys, err := mem.NewSystem(cfg, coherence.PoliciesFor(cfg.NumSMs, policy))
	if err != nil {
		tb.Fatal(err)
	}
	d := &driver{sys: sys, lineSz: uint64(cfg.LineSize), fresh: coldBase}
	for _, cm := range sys.Cores {
		cm.OnLoadDone = func(mem.Target, core.DataWhere) { d.loads++ }
		cm.OnAtomicDone = func(mem.AtomicOp, uint64) { d.atoms++ }
		cm.OnWriteAck = func(uint64) { d.acks++ }
	}
	for a := coldBase; a < coldBase+(1<<20); a += 4096 {
		sys.Backing.Store64(a, 0)
	}
	return d
}

// coldLine returns a line no cache holds, homed at bank 0.
func (d *driver) coldLine() uint64 {
	line := d.fresh
	d.fresh += d.lineSz * uint64(len(d.sys.Banks))
	return line
}

func (d *driver) quiesce(tb testing.TB) {
	for limit := d.cycle + 100_000; !d.sys.Quiesced(); d.cycle++ {
		if d.cycle > limit {
			tb.Fatal("memory system did not quiesce")
		}
		d.sys.Tick(d.cycle)
	}
}

// missRoundTrip is one L1 miss serviced by an L2 hit: the line was dropped
// from the L1 by an acquire and is fetched back.
func (d *driver) missRoundTrip(tb testing.TB, cm *mem.CoreMem, line uint64) {
	cm.SelfInvalidate()
	if out := cm.Load(line, mem.Target{Load: 1}, d.cycle); out != mem.LoadMiss {
		tb.Fatalf("warm-line load: %v, want a miss", out)
	}
	d.quiesce(tb)
}

// atomicRoundTrip is one atomic executed at the home bank on an L2 hit.
func (d *driver) atomicRoundTrip(tb testing.TB, cm *mem.CoreMem, addr uint64) {
	cm.Atomic(mem.AtomicOp{Addr: addr, AOp: isa.OpAtomAdd, B: 1}, d.cycle)
	d.quiesce(tb)
}

// everyTransaction drives each path of the protocol once: load miss -> L2 hit
// fill; L2 miss -> memory fill with a secondary merged at the L1 and a second
// core merged at the bank; store -> flush -> ack, twice from alternating cores
// (a write-through each under GPU coherence, an ownership transfer each under
// DeNovo); an atomic on an L2 hit and one on an L2 miss; and, under DeNovo, an
// owned atomic that takes the line from its previous owner.
func (d *driver) everyTransaction(tb testing.TB, warm uint64) {
	c0, c1 := d.sys.Cores[0], d.sys.Cores[1]
	d.missRoundTrip(tb, c0, warm)

	cold := d.coldLine()
	if out := c0.Load(cold, mem.Target{Load: 2}, d.cycle); out != mem.LoadMiss {
		tb.Fatalf("cold-line load: %v, want a miss", out)
	}
	if out := c0.Load(cold+8, mem.Target{Load: 3}, d.cycle); out != mem.LoadMerged {
		tb.Fatalf("second cold-line load: %v, want merged", out)
	}
	if out := c1.Load(cold, mem.Target{Load: 4}, d.cycle); out != mem.LoadMiss {
		tb.Fatalf("cold-line load from a second core: %v, want a miss", out)
	}
	d.quiesce(tb)

	for _, cm := range []*mem.CoreMem{c0, c1} {
		if out := cm.Store(warm+d.lineSz, d.cycle); out != mem.StoreOK {
			tb.Fatalf("store: %v", out)
		}
		cm.FlushAll()
		d.quiesce(tb)
	}

	d.atomicRoundTrip(tb, c0, warm+2*d.lineSz)
	d.atomicRoundTrip(tb, c0, d.coldLine())

	if c0.Policy().UsesOwnership() {
		for _, cm := range []*mem.CoreMem{c0, c1} {
			cm.OwnedAtomics = true
			d.atomicRoundTrip(tb, cm, warm+3*d.lineSz)
			cm.OwnedAtomics = false
		}
	}
}

// TestMemorySystemSteadyStateAllocatesNothing: once the rings, tables and
// queues have grown to the traffic's depth, no transaction of the protocol
// allocates — no boxed message, no miss record, no waiter slice, no closure.
func TestMemorySystemSteadyStateAllocatesNothing(t *testing.T) {
	for _, policy := range []mem.Policy{coherence.GPUCoherence{}, coherence.DeNovo{}} {
		d := newDriver(t, policy)
		const warm = uint64(0x4_0000)
		for i := 0; i < 64; i++ {
			d.everyTransaction(t, warm)
		}
		before := *d
		stats := d.sys.Cores[0].Stats
		if avg := testing.AllocsPerRun(100, func() { d.everyTransaction(t, warm) }); avg != 0 {
			t.Errorf("%s: one pass over every transaction allocates %.2f objects", policy.Name(), avg)
		}
		// Vacuous unless the passes did what they say.
		after := d.sys.Cores[0].Stats
		if d.loads-before.loads != 101*4 || d.atoms <= before.atoms ||
			after.Merges-stats.Merges != 101 || after.Flushes-stats.Flushes != 101 {
			t.Errorf("%s: measured passes completed %d loads (%d merged), %d atomics, %d flushes",
				policy.Name(), d.loads-before.loads, after.Merges-stats.Merges,
				d.atoms-before.atoms, after.Flushes-stats.Flushes)
		}
		if policy.UsesOwnership() {
			if after.OwnReqs-stats.OwnReqs != 101 || after.LocalAtomics != stats.LocalAtomics {
				t.Errorf("%s: %d ownership requests, %d local atomics in 101 passes",
					policy.Name(), after.OwnReqs-stats.OwnReqs, after.LocalAtomics-stats.LocalAtomics)
			}
		} else if after.WriteThroughs-stats.WriteThroughs != 101 || d.acks-before.acks != 202 {
			t.Errorf("%s: %d write-throughs from core 0, %d acks in 101 passes",
				policy.Name(), after.WriteThroughs-stats.WriteThroughs, d.acks-before.acks)
		}
	}
}

// BenchmarkMissRoundTrip: one op is one L1 miss filled from the L2 — request,
// bank, response, install — on a system ticked densely; ns/op is the host
// cost of the whole transaction.
func BenchmarkMissRoundTrip(b *testing.B) {
	d := newDriver(b, coherence.GPUCoherence{})
	const line = uint64(0x4_0000)
	cm := d.sys.Cores[0]
	for i := 0; i < 16; i++ {
		d.missRoundTrip(b, cm, line)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.missRoundTrip(b, cm, line)
	}
}

// BenchmarkAtomicRoundTrip: one op is one atomic executed at its home bank
// and answered.
func BenchmarkAtomicRoundTrip(b *testing.B) {
	d := newDriver(b, coherence.DeNovo{})
	const addr = uint64(0x4_0000)
	cm := d.sys.Cores[0]
	for i := 0; i < 16; i++ {
		d.atomicRoundTrip(b, cm, addr)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.atomicRoundTrip(b, cm, addr)
	}
}
