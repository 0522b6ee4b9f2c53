package scratchpad

import (
	"fmt"

	"gsi/internal/mem"
	"gsi/internal/noc"
)

// Mapping describes a block's scratchpad/stash window onto the global
// address space: Bytes bytes starting at GlobalBase map to local addresses
// starting at LocalBase.
type Mapping struct {
	GlobalBase uint64
	LocalBase  uint64
	Bytes      uint64
}

// Contains reports whether the local address falls inside the mapping.
func (m Mapping) Contains(local uint64) bool {
	return local >= m.LocalBase && local < m.LocalBase+m.Bytes
}

// GlobalFor translates a local address inside the mapping.
func (m Mapping) GlobalFor(local uint64) uint64 {
	return m.GlobalBase + (local - m.LocalBase)
}

// LocalFor translates a global address inside the mapping.
func (m Mapping) LocalFor(global uint64) uint64 {
	return m.LocalBase + (global - m.GlobalBase)
}

// DMAState is the engine's phase.
type DMAState uint8

const (
	// DMAIdle: no transfer programmed.
	DMAIdle DMAState = iota
	// DMALoading: the bulk load into the scratchpad is in progress;
	// local accesses to the mapped region block (core granularity).
	DMALoading
	// DMAReady: the load finished; the scratchpad is usable.
	DMAReady
	// DMAWritingBack: the bulk write-back to global memory is draining.
	DMAWritingBack
	// DMADone: everything including write-back has completed.
	DMADone
)

// DMAEngine approximates D2MA: it transfers the mapped region into the
// scratchpad in bulk, issuing one line request per cycle, bypassing the
// pipeline and the L1 but consuming MSHR entries (which is why the paper's
// scratchpad+DMA configuration fills the MSHR faster than the baseline).
// On write-back it issues one write-through per cycle and waits for acks.
type DMAEngine struct {
	pad      *Scratchpad
	cm       *mem.CoreMem
	backing  *mem.Backing
	mesh     *noc.Mesh[mem.Msg]
	tile     int
	coreID   int
	bankTile func(line uint64) int
	lineSize uint64

	state   DMAState
	mapping Mapping

	// The lines of one transfer are distinct, so each outstanding set
	// holds a line at most once.
	nextIn     uint64 // next global line offset to request
	pendingIn  mem.LineTable[struct{}]
	nextOut    uint64
	pendingOut mem.LineTable[struct{}]

	// Stats.
	LinesIn, LinesOut uint64
	MSHRWaits         uint64
}

// NewDMAEngine builds an engine attached to one SM's scratchpad and memory
// unit.
func NewDMAEngine(pad *Scratchpad, cm *mem.CoreMem, backing *mem.Backing,
	mesh *noc.Mesh[mem.Msg], tile, coreID int, bankTile func(uint64) int, lineSize int) *DMAEngine {
	return &DMAEngine{
		pad: pad, cm: cm, backing: backing, mesh: mesh,
		tile: tile, coreID: coreID, bankTile: bankTile,
		lineSize: uint64(lineSize),
	}
}

// State returns the engine phase.
func (d *DMAEngine) State() DMAState { return d.state }

// Blocking reports whether a local access to the mapped region must stall
// (pending DMA): true during the bulk load. The paper's scratchpad+DMA
// blocks at core granularity, so the LSU treats any mapped access as
// blocked while this is true.
func (d *DMAEngine) Blocking(local uint64) bool {
	return d.state == DMALoading && d.mapping.Contains(local)
}

// StartIn programs the load transfer; data becomes usable when State
// reaches DMAReady.
func (d *DMAEngine) StartIn(m Mapping) {
	d.mapping = m
	d.state = DMALoading
	d.nextIn = 0
	if m.Bytes == 0 {
		d.state = DMAReady
	}
}

// StartOut programs the bulk write-back (kernel end).
func (d *DMAEngine) StartOut() {
	if d.mapping.Bytes == 0 {
		d.state = DMADone
		return
	}
	d.state = DMAWritingBack
	d.nextOut = 0
}

// Tick issues at most one line transfer per cycle in either direction. It
// reports whether a transfer is still in progress.
func (d *DMAEngine) Tick(cycle uint64) bool {
	switch d.state {
	case DMALoading:
		d.tickIn(cycle)
	case DMAWritingBack:
		d.tickOut(cycle)
	}
	return d.state == DMALoading || d.state == DMAWritingBack
}

func (d *DMAEngine) tickIn(cycle uint64) {
	if d.nextIn >= d.mapping.Bytes {
		if d.pendingIn.Len() == 0 {
			d.state = DMAReady
		}
		return
	}
	global := d.mapping.GlobalBase + d.nextIn
	line := global &^ (d.lineSize - 1)
	switch d.cm.Load(global, mem.Target{Kind: mem.TargetDMAFill, Aux: line, NoL1: true}, cycle) {
	case mem.LoadMSHRFull:
		d.MSHRWaits++
		return // retry next cycle
	case mem.LoadHit:
		d.copyIn(line)
	case mem.LoadMiss, mem.LoadMerged:
		d.pendingIn.Insert(line)
	}
	d.LinesIn++
	d.nextIn += d.lineSize
}

// FillDone completes one inbound line; the SM routes TargetDMAFill
// completions here.
func (d *DMAEngine) FillDone(line uint64) {
	if !d.pendingIn.Remove(line) {
		return
	}
	d.copyIn(line)
	if d.state == DMALoading && d.nextIn >= d.mapping.Bytes && d.pendingIn.Len() == 0 {
		d.state = DMAReady
	}
}

// copyIn moves one line's words from global memory into the scratchpad
// (functional side of the transfer).
func (d *DMAEngine) copyIn(line uint64) {
	for off := uint64(0); off < d.lineSize; off += 8 {
		g := line + off
		if g < d.mapping.GlobalBase || g >= d.mapping.GlobalBase+d.mapping.Bytes {
			continue
		}
		d.pad.Store64(d.mapping.LocalFor(g), d.backing.Load64(g))
	}
}

func (d *DMAEngine) tickOut(cycle uint64) {
	if d.nextOut >= d.mapping.Bytes {
		if d.pendingOut.Len() == 0 {
			d.state = DMADone
		}
		return
	}
	global := d.mapping.GlobalBase + d.nextOut
	line := global &^ (d.lineSize - 1)
	// Functional copy-out of the line's mapped words, then a
	// write-through carrying the line to its home bank.
	for off := uint64(0); off < d.lineSize; off += 8 {
		g := line + off
		if g < d.mapping.GlobalBase || g >= d.mapping.GlobalBase+d.mapping.Bytes {
			continue
		}
		d.backing.Store64(g, d.pad.Load64(d.mapping.LocalFor(g)))
	}
	d.pendingOut.Insert(line)
	d.mesh.Send(cycle, d.tile, d.bankTile(line), noc.PortL2,
		mem.Msg{Kind: mem.WriteThrough, Addr: line, Core: int32(d.coreID)})
	d.LinesOut++
	d.nextOut += d.lineSize
}

// WriteAcked consumes write-back acknowledgements (the SM forwards every
// WriteAck; lines not in the outstanding set are someone else's).
func (d *DMAEngine) WriteAcked(line uint64) {
	if !d.pendingOut.Remove(line) {
		return
	}
	if d.state == DMAWritingBack && d.nextOut >= d.mapping.Bytes && d.pendingOut.Len() == 0 {
		d.state = DMADone
	}
}

// Quiesced reports no transfer in progress.
func (d *DMAEngine) Quiesced() bool {
	return d.state == DMAIdle || d.state == DMAReady || d.state == DMADone
}

// noEvent mirrors sim.NoEvent.
const noEvent = ^uint64(0)

// NextEvent implements the engine's skip-ahead extension for the SM that
// hosts this engine: while a transfer still has lines to issue (or MSHR-full
// retries to make) the engine works — and counts retry stats — every cycle,
// and once the final line completes synchronously (an L1 hit) the phase
// transition itself happens on the next tick. Only a transfer whose issued
// lines are all waiting on fills or write acks is a pure external waiter
// (the last arrival performs the transition directly).
func (d *DMAEngine) NextEvent(now uint64) uint64 {
	switch d.state {
	case DMALoading:
		if d.nextIn < d.mapping.Bytes || d.pendingIn.Len() == 0 {
			return now + 1
		}
	case DMAWritingBack:
		if d.nextOut < d.mapping.Bytes || d.pendingOut.Len() == 0 {
			return now + 1
		}
	}
	return noEvent
}

// Diagnose describes the transfer state for engine deadlock dumps.
func (d *DMAEngine) Diagnose() string {
	return fmt.Sprintf("dma state=%d pending-in=%d pending-out=%d",
		d.state, d.pendingIn.Len(), d.pendingOut.Len())
}
