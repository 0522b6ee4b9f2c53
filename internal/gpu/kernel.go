// Package gpu implements the cycle-level SIMT core model: streaming
// multiprocessors with warps, a greedy-then-oldest dual-issue scheduler,
// per-warp instruction buffers, a scoreboard, ALU/SFU pipelines, a
// load/store unit with coalescing, and the local-memory organizations of
// case study 2. The SM issue stage is where GSI observes: every cycle, each
// active warp's issue condition is classified with Algorithm 1 and the
// cycle with Algorithm 2 (see internal/core).
package gpu

import (
	"fmt"
	"strings"

	"gsi/internal/isa"
	"gsi/internal/scratchpad"
)

// LocalKind selects the local-memory organization a kernel's OpLdL/OpStL
// instructions address.
type LocalKind uint8

const (
	// LocalNone: the kernel uses no local memory.
	LocalNone LocalKind = iota
	// LocalScratch: baseline software-managed scratchpad.
	LocalScratch
	// LocalScratchDMA: scratchpad preloaded (and written back) by a DMA
	// engine; mapped accesses block at core granularity while the bulk
	// load is in flight.
	LocalScratchDMA
	// LocalStash: coherent stash; mapped lines fill on demand, blocking
	// only the touching warp, and dirty lines register lazily.
	LocalStash
)

// String names the organization as in the paper's figures.
func (k LocalKind) String() string {
	switch k {
	case LocalNone:
		return "none"
	case LocalScratch:
		return "scratchpad"
	case LocalScratchDMA:
		return "scratchpad+DMA"
	case LocalStash:
		return "stash"
	}
	return fmt.Sprintf("LocalKind(%d)", uint8(k))
}

// Param names the organization in the workload registry's "local"
// parameter vocabulary: "scratchpad", "dma" (rather than the figures'
// "scratchpad+DMA") or "stash". Any other kind names the registry's
// default, "scratchpad". Cache keys hash these names verbatim, so they
// never change.
func (k LocalKind) Param() string {
	switch k {
	case LocalScratchDMA:
		return "dma"
	case LocalStash:
		return "stash"
	}
	return "scratchpad"
}

// ParseLocalKind parses an organization name, case-insensitively:
// "scratchpad" (also "scratch"), "dma" (also "scratchpad+dma"), or
// "stash". It accepts every Param and String name of the three
// organizations.
func ParseLocalKind(s string) (LocalKind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "scratchpad", "scratch":
		return LocalScratch, nil
	case "dma", "scratchpad+dma":
		return LocalScratchDMA, nil
	case "stash":
		return LocalStash, nil
	}
	return LocalNone, fmt.Errorf("unknown local memory %q (want scratchpad, dma, or stash)", s)
}

// UnmarshalText implements encoding.TextUnmarshaler through ParseLocalKind,
// so the workload registry decodes a "local" parameter like any other.
func (k *LocalKind) UnmarshalText(text []byte) error {
	kind, err := ParseLocalKind(string(text))
	if err != nil {
		return err
	}
	*k = kind
	return nil
}

// Kernel describes one GPU kernel launch.
type Kernel struct {
	Name    string
	Program *isa.Program
	// Blocks is the grid size; blocks are dispatched to SMs round-robin
	// and a block occupies its SM until every warp exits.
	Blocks int
	// WarpsPerBlock warps execute Program concurrently per block.
	WarpsPerBlock int
	// InitRegs seeds a warp's registers before it starts (block and warp
	// identifiers, base addresses, per-warp work partitions).
	InitRegs func(block, warp int, regs *[isa.NumRegs]uint64)
	// Local selects the local-memory organization for OpLdL/OpStL.
	Local LocalKind
	// LocalMap supplies the block's scratchpad/stash window onto global
	// memory. Required for LocalScratchDMA and LocalStash; optional for
	// LocalScratch (the baseline moves data with explicit instructions and
	// reads no mapping). Launch rejects any block whose window does not fit
	// in the scratchpad.
	LocalMap func(block int) scratchpad.Mapping
	// Coresident declares that the kernel synchronizes across blocks (a
	// software global barrier), so every block must be resident at once:
	// Blocks may not exceed the SM count, or late blocks would wait for
	// SMs that never free and the barrier would deadlock. Launch
	// enforces this.
	Coresident bool
}

// Validate reports the first structural problem with the kernel.
func (k *Kernel) Validate() error {
	switch {
	case k.Program == nil:
		return fmt.Errorf("gpu: kernel %q has no program", k.Name)
	case k.Blocks < 1:
		return fmt.Errorf("gpu: kernel %q has %d blocks", k.Name, k.Blocks)
	case k.WarpsPerBlock < 1:
		return fmt.Errorf("gpu: kernel %q has %d warps per block", k.Name, k.WarpsPerBlock)
	case (k.Local == LocalScratchDMA || k.Local == LocalStash) && k.LocalMap == nil:
		return fmt.Errorf("gpu: kernel %q: %s requires LocalMap", k.Name, k.Local)
	}
	return nil
}
