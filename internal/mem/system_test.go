// Integration tests for the memory system: CoreMem + L2 banks + mesh +
// memory controller under both coherence policies. The external test
// package lets these tests use internal/coherence without a dependency
// cycle.
package mem_test

import (
	"testing"

	"gsi/internal/coherence"
	"gsi/internal/core"
	"gsi/internal/isa"
	"gsi/internal/mem"
	"gsi/internal/sim"
)

// harness wires a small system and drives it cycle by cycle.
type harness struct {
	t     *testing.T
	sys   *mem.System
	eng   *sim.Engine
	loads []loadDone
	acks  []uint64
	atoms []atomDone
}

type loadDone struct {
	core  int
	t     mem.Target
	where core.DataWhere
}

type atomDone struct {
	core int
	op   mem.AtomicOp
	old  uint64
}

func newHarness(t *testing.T, gpuPolicy mem.Policy) *harness {
	t.Helper()
	cfg := sim.Default()
	cfg.NumSMs = 3 // cores 0..2 GPU, core 3 CPU
	sys, err := mem.NewSystem(cfg, coherence.PoliciesFor(cfg.NumSMs, gpuPolicy))
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{t: t, sys: sys, eng: sim.NewEngine()}
	// The tests poke CoreMems directly between steps with no wake wiring,
	// so drive the system densely as one compound component.
	h.eng.SetMode(sim.EngineDense)
	h.eng.Register("mem", sim.TickFunc(sys.Tick))
	for i, cm := range sys.Cores {
		i := i
		cm.OnLoadDone = func(tg mem.Target, w core.DataWhere) {
			h.loads = append(h.loads, loadDone{core: i, t: tg, where: w})
		}
		cm.OnWriteAck = func(line uint64) { h.acks = append(h.acks, line) }
		cm.OnAtomicDone = func(op mem.AtomicOp, old uint64) {
			h.atoms = append(h.atoms, atomDone{core: i, op: op, old: old})
		}
	}
	return h
}

// now is the cycle a component would have observed at its most recent tick
// — the reference cycle for direct calls made between engine steps.
func (h *harness) now() uint64 { return h.eng.LastTick() }

func (h *harness) run(n uint64) {
	for i := uint64(0); i < n; i++ {
		h.eng.Step()
	}
}

func (h *harness) quiesce() {
	h.t.Helper()
	if _, err := h.eng.Run(h.sys.Quiesced, 100_000); err != nil {
		h.t.Fatal(err)
	}
}

func (h *harness) lastLoad() loadDone {
	h.t.Helper()
	if len(h.loads) == 0 {
		h.t.Fatal("no load completions")
	}
	return h.loads[len(h.loads)-1]
}

const testLine = uint64(0x4_0000)

func TestLoadMissServicedAtMemoryThenL2(t *testing.T) {
	h := newHarness(t, coherence.GPUCoherence{})
	cm := h.sys.Cores[0]
	if out := cm.Load(testLine, mem.Target{Load: 1}, h.now()); out != mem.LoadMiss {
		t.Fatalf("first load outcome = %v", out)
	}
	h.quiesce()
	if ld := h.lastLoad(); ld.where != core.WhereMemory {
		t.Fatalf("cold miss serviced at %s", ld.where)
	}
	// Now cached locally: hit.
	if out := cm.Load(testLine, mem.Target{Load: 2}, h.now()); out != mem.LoadHit {
		t.Fatalf("second load outcome = %v", out)
	}
	// After self-invalidation, the L2 still has it.
	cm.SelfInvalidate()
	if out := cm.Load(testLine, mem.Target{Load: 3}, h.now()); out != mem.LoadMiss {
		t.Fatalf("post-invalidate load outcome = %v", out)
	}
	h.quiesce()
	if ld := h.lastLoad(); ld.where != core.WhereL2 {
		t.Fatalf("warm miss serviced at %s, want L2", ld.where)
	}
}

func TestMSHRMergeChargedAsCoalescing(t *testing.T) {
	h := newHarness(t, coherence.GPUCoherence{})
	cm := h.sys.Cores[0]
	if out := cm.Load(testLine, mem.Target{Load: 1}, h.now()); out != mem.LoadMiss {
		t.Fatal("expected miss")
	}
	if out := cm.Load(testLine+8, mem.Target{Load: 2}, h.now()); out != mem.LoadMerged {
		t.Fatalf("same-line load outcome = %v, want merge", out)
	}
	h.quiesce()
	if len(h.loads) != 2 {
		t.Fatalf("completions = %d", len(h.loads))
	}
	wheres := map[core.LoadID]core.DataWhere{}
	for _, ld := range h.loads {
		wheres[ld.t.Load] = ld.where
	}
	if wheres[1] != core.WhereMemory || wheres[2] != core.WhereL1Coalescing {
		t.Fatalf("wheres = %v", wheres)
	}
}

func TestMSHRCapacity(t *testing.T) {
	h := newHarness(t, coherence.GPUCoherence{})
	cm := h.sys.Cores[0]
	lineSize := uint64(h.sys.Cfg.LineSize)
	for i := 0; i < h.sys.Cfg.MSHREntries; i++ {
		if out := cm.Load(testLine+uint64(i)*lineSize, mem.Target{Load: core.LoadID(i + 1)}, h.now()); out != mem.LoadMiss {
			t.Fatalf("load %d outcome = %v", i, out)
		}
	}
	if out := cm.Load(testLine+uint64(h.sys.Cfg.MSHREntries)*lineSize, mem.Target{Load: 999}, h.now()); out != mem.LoadMSHRFull {
		t.Fatalf("over-capacity load outcome = %v, want MSHR full", out)
	}
	if cm.MSHRFree() != 0 {
		t.Fatalf("MSHRFree = %d", cm.MSHRFree())
	}
	h.quiesce()
	if cm.MSHRFree() != h.sys.Cfg.MSHREntries {
		t.Fatalf("MSHRFree after drain = %d", cm.MSHRFree())
	}
}

func TestStoreBufferWriteCombiningAndCapacity(t *testing.T) {
	h := newHarness(t, coherence.GPUCoherence{})
	cm := h.sys.Cores[0]
	lineSize := uint64(h.sys.Cfg.LineSize)
	// Two stores to the same line use one entry.
	if cm.Store(testLine, h.now()) != mem.StoreOK || cm.Store(testLine+8, h.now()) != mem.StoreOK {
		t.Fatal("stores rejected")
	}
	if cm.SBLen() != 1 {
		t.Fatalf("SBLen = %d, want 1 (write combining)", cm.SBLen())
	}
	for i := 1; i < h.sys.Cfg.StoreBufEntries; i++ {
		if cm.Store(testLine+uint64(i)*lineSize, h.now()) != mem.StoreOK {
			t.Fatalf("store %d rejected", i)
		}
	}
	// Buffer full: the next store is refused and triggers a flush.
	if out := cm.Store(testLine+uint64(64)*lineSize, h.now()); out != mem.StoreSBFull {
		t.Fatalf("over-capacity store outcome = %v", out)
	}
	if !cm.Flushing() {
		t.Fatal("full store buffer did not trigger a flush")
	}
	h.quiesce()
	if cm.SBLen() != 0 {
		t.Fatalf("SBLen after flush = %d", cm.SBLen())
	}
}

func TestReleaseBlocksStoresUntilFlushed(t *testing.T) {
	h := newHarness(t, coherence.GPUCoherence{})
	cm := h.sys.Cores[0]
	cm.Store(testLine, h.now())
	cm.Atomic(mem.AtomicOp{Warp: 0, Addr: 0x9000, AOp: isa.OpAtomExch, B: 0, Order: isa.Release}, h.now())
	h.run(2)
	if !cm.ReleaseInProgress() {
		t.Fatal("release flush not in progress")
	}
	if out := cm.Store(testLine+0x1000, h.now()); out != mem.StoreBlockedRelease {
		t.Fatalf("store during release = %v", out)
	}
	h.quiesce()
	if len(h.atoms) != 1 {
		t.Fatalf("atomic completions = %d", len(h.atoms))
	}
	if cm.ReleaseInProgress() {
		t.Fatal("release still in progress after quiesce")
	}
	if out := cm.Store(testLine+0x1000, h.now()); out != mem.StoreOK {
		t.Fatalf("store after release = %v", out)
	}
}

func TestSFIFOAllowsStoresDuringRelease(t *testing.T) {
	h := newHarness(t, coherence.GPUCoherence{})
	cm := h.sys.Cores[0]
	cm.SFIFO = true
	cm.Store(testLine, h.now())
	cm.Atomic(mem.AtomicOp{Warp: 0, Addr: 0x9000, AOp: isa.OpAtomExch, Order: isa.Release}, h.now())
	h.run(2)
	if !cm.ReleaseInProgress() {
		t.Fatal("release flush not in progress")
	}
	if out := cm.Store(testLine+0x1000, h.now()); out != mem.StoreOK {
		t.Fatalf("S-FIFO store during release = %v", out)
	}
	// The new entry is not covered by the in-flight release; a kernel-end
	// flush drains it.
	for cm.Flushing() {
		h.run(1)
	}
	cm.FlushAll()
	h.quiesce()
	if cm.SBLen() != 0 {
		t.Fatalf("SBLen = %d after final flush", cm.SBLen())
	}
}

func TestGPUCoherenceFlushWritesThrough(t *testing.T) {
	h := newHarness(t, coherence.GPUCoherence{})
	cm := h.sys.Cores[0]
	cm.Store(testLine, h.now())
	cm.FlushAll()
	h.quiesce()
	if cm.Stats.WriteThroughs != 1 || cm.Stats.OwnReqs != 0 {
		t.Fatalf("stats = %+v", cm.Stats)
	}
	if cm.LineStateOf(testLine) != mem.LineValid {
		t.Fatalf("line state = %v, want valid (clean)", cm.LineStateOf(testLine))
	}
	// GPU coherence: a clean line does not survive an acquire.
	cm.SelfInvalidate()
	if cm.LineStateOf(testLine) != mem.LineInvalid {
		t.Fatal("clean line survived acquire under GPU coherence")
	}
}

func TestDeNovoFlushRegistersOwnership(t *testing.T) {
	h := newHarness(t, coherence.DeNovo{})
	cm := h.sys.Cores[0]
	cm.Store(testLine, h.now())
	cm.FlushAll()
	h.quiesce()
	if cm.Stats.OwnReqs != 1 || cm.Stats.WriteThroughs != 0 {
		t.Fatalf("stats = %+v", cm.Stats)
	}
	if cm.LineStateOf(testLine) != mem.LineOwned {
		t.Fatalf("line state = %v, want owned", cm.LineStateOf(testLine))
	}
	bank := h.sys.Banks[h.sys.BankTile(testLine)]
	if owner, ok := bank.Owner(testLine); !ok || owner != 0 {
		t.Fatalf("directory owner = %d, %v", owner, ok)
	}
	// Owned lines survive acquires: the DeNovo reuse advantage.
	cm.SelfInvalidate()
	if cm.LineStateOf(testLine) != mem.LineOwned {
		t.Fatal("owned line did not survive acquire")
	}
	// Re-flushing an owned line is free (no message).
	cm.Store(testLine, h.now())
	cm.FlushAll()
	h.quiesce()
	if cm.Stats.OwnReqs != 1 {
		t.Fatalf("re-flush sent another ownership request: %+v", cm.Stats)
	}
	if cm.Stats.FlushNoops != 1 {
		t.Fatalf("FlushNoops = %d, want 1", cm.Stats.FlushNoops)
	}
}

func TestDeNovoRemoteL1Forwarding(t *testing.T) {
	h := newHarness(t, coherence.DeNovo{})
	owner, reader := h.sys.Cores[1], h.sys.Cores[2]
	owner.Store(testLine, h.now())
	owner.FlushAll()
	h.quiesce()
	if out := reader.Load(testLine, mem.Target{Load: 7}, h.now()); out != mem.LoadMiss {
		t.Fatalf("reader load outcome = %v", out)
	}
	h.quiesce()
	if ld := h.lastLoad(); ld.core != 2 || ld.where != core.WhereRemoteL1 {
		t.Fatalf("remote read = %+v, want remote L1 at core 2", ld)
	}
	if owner.Stats.RemoteServed != 1 {
		t.Fatalf("owner served %d remote reads", owner.Stats.RemoteServed)
	}
	// Ownership did not move on a read.
	bank := h.sys.Banks[h.sys.BankTile(testLine)]
	if o, _ := bank.Owner(testLine); o != 1 {
		t.Fatalf("owner after read = %d, want 1", o)
	}
}

func TestDeNovoOwnershipTransfer(t *testing.T) {
	h := newHarness(t, coherence.DeNovo{})
	a, b := h.sys.Cores[0], h.sys.Cores[1]
	a.Store(testLine, h.now())
	a.FlushAll()
	h.quiesce()
	b.Store(testLine, h.now())
	b.FlushAll()
	h.quiesce()
	bank := h.sys.Banks[h.sys.BankTile(testLine)]
	if o, _ := bank.Owner(testLine); o != 1 {
		t.Fatalf("owner = %d, want 1", o)
	}
	if a.LineStateOf(testLine) != mem.LineInvalid {
		t.Fatal("previous owner kept the line")
	}
	if b.LineStateOf(testLine) != mem.LineOwned {
		t.Fatal("new owner not owned")
	}
}

func TestDeNovoOwnedEvictionWritesBack(t *testing.T) {
	h := newHarness(t, coherence.DeNovo{})
	cm := h.sys.Cores[0]
	cm.Store(testLine, h.now())
	cm.FlushAll()
	h.quiesce()
	// Fill the set until the owned line is evicted. Set count =
	// L1Size/(assoc*lineSize); lines that alias testLine's set are
	// setStride apart.
	cfg := h.sys.Cfg
	setStride := uint64(cfg.L1Size / cfg.L1Assoc)
	for i := 1; i <= cfg.L1Assoc; i++ {
		cm.Load(testLine+uint64(i)*setStride, mem.Target{Load: core.LoadID(i)}, h.now())
		h.quiesce()
	}
	if cm.LineStateOf(testLine) != mem.LineInvalid {
		t.Fatal("owned line not evicted by set pressure")
	}
	if cm.Stats.OwnedEvicts != 1 {
		t.Fatalf("OwnedEvicts = %d", cm.Stats.OwnedEvicts)
	}
	bank := h.sys.Banks[h.sys.BankTile(testLine)]
	if _, ok := bank.Owner(testLine); ok {
		t.Fatal("directory still records evicted owner")
	}
	// A third core's read is now serviced at the L2, not forwarded.
	h.sys.Cores[2].Load(testLine, mem.Target{Load: 99}, h.now())
	h.quiesce()
	if ld := h.lastLoad(); ld.where != core.WhereL2 {
		t.Fatalf("post-eviction read serviced at %s, want L2", ld.where)
	}
}

func TestAtomicsExecuteAtL2(t *testing.T) {
	h := newHarness(t, coherence.DeNovo{})
	addr := uint64(0x8000)
	h.sys.Backing.Store64(addr, 5)
	h.sys.Cores[0].Atomic(mem.AtomicOp{Warp: 3, Rd: 9, Addr: addr, AOp: isa.OpAtomAdd, B: 2}, h.now())
	h.quiesce()
	if len(h.atoms) != 1 {
		t.Fatalf("atomic completions = %d", len(h.atoms))
	}
	got := h.atoms[0]
	if got.old != 5 || got.op.Warp != 3 || got.op.Rd != 9 {
		t.Fatalf("atomic completion = %+v", got)
	}
	if h.sys.Backing.Load64(addr) != 7 {
		t.Fatalf("backing = %d, want 7", h.sys.Backing.Load64(addr))
	}
	bank := h.sys.Banks[h.sys.BankTile(addr)]
	if bank.Atomics != 1 {
		t.Fatalf("bank atomics = %d", bank.Atomics)
	}
}

func TestAcquireAtomicSelfInvalidates(t *testing.T) {
	h := newHarness(t, coherence.GPUCoherence{})
	cm := h.sys.Cores[0]
	cm.Load(testLine, mem.Target{Load: 1}, h.now())
	h.quiesce()
	if cm.LineStateOf(testLine) != mem.LineValid {
		t.Fatal("line not cached")
	}
	cm.Atomic(mem.AtomicOp{Warp: 0, Addr: 0x8000, AOp: isa.OpAtomCAS, Order: isa.Acquire}, h.now())
	h.quiesce()
	if cm.LineStateOf(testLine) != mem.LineInvalid {
		t.Fatal("acquire atomic did not self-invalidate")
	}
}

func TestQuiescence(t *testing.T) {
	h := newHarness(t, coherence.DeNovo{})
	if !h.sys.Quiesced() {
		t.Fatal("fresh system not quiesced")
	}
	h.sys.Cores[0].Load(testLine, mem.Target{Load: 1}, h.now())
	if h.sys.Quiesced() {
		t.Fatal("system quiesced with a miss in flight")
	}
	h.quiesce()
}
