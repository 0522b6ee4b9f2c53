package scratchpad

import (
	"testing"

	"gsi/internal/coherence"
	"gsi/internal/core"
	"gsi/internal/mem"
	"gsi/internal/sim"
)

// dmaHarness wires a DMA engine to a real memory system on core 0.
type dmaHarness struct {
	t   *testing.T
	sys *mem.System
	eng *sim.Engine
	pad *Scratchpad
	dma *DMAEngine
}

func newDMAHarness(t *testing.T) *dmaHarness {
	t.Helper()
	cfg := sim.Default()
	cfg.NumSMs = 1
	sys, err := mem.NewSystem(cfg, coherence.PoliciesFor(cfg.NumSMs, coherence.DeNovo{}))
	if err != nil {
		t.Fatal(err)
	}
	h := &dmaHarness{t: t, sys: sys, eng: sim.NewEngine()}
	h.pad = New(cfg.ScratchSize, cfg.ScratchBanks)
	h.dma = NewDMAEngine(h.pad, sys.Cores[0], sys.Backing, sys.Mesh,
		sys.CoreTile(0), 0, sys.BankTile, cfg.LineSize)
	// The harness starts transfers between steps with no wake wiring for
	// the DMA engine, so drive every unit densely.
	h.eng.SetMode(sim.EngineDense)
	sys.Attach(h.eng)
	h.eng.Register("dma", sim.TickFunc(h.dma.Tick))
	return h
}

func TestDMAInTransfersAndUnblocks(t *testing.T) {
	h := newDMAHarness(t)
	cm := h.sys.Cores[0]
	cm.OnLoadDone = func(tg mem.Target, _ core.DataWhere) {
		if tg.Kind == mem.TargetDMAFill {
			h.dma.FillDone(tg.Aux)
		}
	}
	const base, bytes = uint64(0x2_0000), uint64(1024)
	for off := uint64(0); off < bytes; off += 8 {
		h.sys.Backing.Store64(base+off, off)
	}
	m := Mapping{GlobalBase: base, LocalBase: 0, Bytes: bytes}
	h.dma.StartIn(m)
	if h.dma.State() != DMALoading {
		t.Fatal("engine not loading")
	}
	if !h.dma.Blocking(0) || !h.dma.Blocking(bytes-8) {
		t.Fatal("mapped accesses must block during the bulk load")
	}
	for i := 0; i < 100_000 && h.dma.State() != DMAReady; i++ {
		h.eng.Step()
	}
	if h.dma.State() != DMAReady {
		t.Fatal("bulk load never completed")
	}
	if h.dma.Blocking(0) {
		t.Fatal("still blocking after completion")
	}
	// Functional copy-in happened.
	for off := uint64(0); off < bytes; off += 8 {
		if h.pad.Load64(off) != off {
			t.Fatalf("pad[%#x] = %d, want %d", off, h.pad.Load64(off), off)
		}
	}
	if h.dma.LinesIn != bytes/64 {
		t.Fatalf("LinesIn = %d, want %d", h.dma.LinesIn, bytes/64)
	}
}

func TestDMAOutWritesBack(t *testing.T) {
	h := newDMAHarness(t)
	const base, bytes = uint64(0x3_0000), uint64(512)
	m := Mapping{GlobalBase: base, LocalBase: 0, Bytes: bytes}
	h.dma.StartIn(Mapping{}) // empty in-transfer completes immediately
	if h.dma.State() != DMAReady {
		t.Fatal("empty transfer should be ready")
	}
	h.dma.mapping = m
	for off := uint64(0); off < bytes; off += 8 {
		h.pad.Store64(off, off*3)
	}
	cm := h.sys.Cores[0]
	cm.OnWriteAck = h.dma.WriteAcked
	h.dma.StartOut()
	for i := 0; i < 100_000 && h.dma.State() != DMADone; i++ {
		h.eng.Step()
	}
	if h.dma.State() != DMADone {
		t.Fatal("write-back never completed")
	}
	for off := uint64(0); off < bytes; off += 8 {
		if got := h.sys.Backing.Load64(base + off); got != off*3 {
			t.Fatalf("backing[%#x] = %d, want %d", base+off, got, off*3)
		}
	}
	if h.dma.LinesOut != bytes/64 {
		t.Fatalf("LinesOut = %d", h.dma.LinesOut)
	}
	if !h.dma.Quiesced() {
		t.Fatal("engine not quiesced")
	}
}

func TestDMAConsumesMSHRs(t *testing.T) {
	h := newDMAHarness(t)
	cm := h.sys.Cores[0]
	cm.OnLoadDone = func(tg mem.Target, _ core.DataWhere) {
		if tg.Kind == mem.TargetDMAFill {
			h.dma.FillDone(tg.Aux)
		}
	}
	// A transfer much larger than the MSHR: the engine must throttle
	// (MSHRWaits > 0) and still finish.
	const bytes = uint64(64 * 64) // 64 lines >> 32 MSHRs
	h.dma.StartIn(Mapping{GlobalBase: 0x5_0000, LocalBase: 0, Bytes: bytes})
	sawFull := false
	for i := 0; i < 200_000 && h.dma.State() != DMAReady; i++ {
		h.eng.Step()
		if cm.MSHRFree() == 0 {
			sawFull = true
		}
	}
	if h.dma.State() != DMAReady {
		t.Fatal("large transfer never completed")
	}
	if !sawFull {
		t.Fatal("64-line DMA never filled the 32-entry MSHR")
	}
	if h.dma.MSHRWaits == 0 {
		t.Fatal("engine never throttled on the MSHR")
	}
}
