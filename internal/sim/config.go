package sim

import "fmt"

// Config holds every architectural parameter of the simulated system. The
// defaults (see Default) encode Table 5.1 of the paper.
type Config struct {
	// --- Core counts and geometry ---

	// NumSMs is the number of GPU streaming multiprocessors (15 in case
	// study 1, 1 in case study 2).
	NumSMs int
	// WarpsPerSM is the number of concurrent warps resident on one SM.
	WarpsPerSM int
	// WarpSize is the number of lanes (threads) per warp.
	WarpSize int
	// IssueWidth is the number of warp instructions an SM may issue per
	// cycle.
	IssueWidth int

	// --- Frequencies ---

	// GPUFreqMHz and CPUFreqMHz scale CPU work into GPU cycles; the GPU
	// clock is the simulation clock.
	GPUFreqMHz int
	CPUFreqMHz int

	// --- Memory hierarchy ---

	// LineSize is the cache line size in bytes throughout the hierarchy.
	LineSize int
	// L1Size, L1Assoc, L1Banks describe each core's private L1.
	L1Size  int
	L1Assoc int
	L1Banks int
	// L1HitLat is the L1 (and scratchpad/stash) hit latency in cycles.
	L1HitLat int
	// L2Banks is the number of NUCA banks of the shared L2; one bank per
	// mesh tile.
	L2Banks int
	// L2Size is the total L2 capacity across banks.
	L2Size  int
	L2Assoc int
	// L2AccessLat is the bank access (tag+data) latency, excluding
	// network traversal; the end-to-end L2 hit latency the paper reports
	// (29-61 cycles) emerges from this plus mesh distance and contention.
	L2AccessLat int
	// MemLat is the main-memory access latency beyond the L2, and
	// MemBandwidthCycles the controller's cycles-per-request throughput
	// limit.
	MemLat             int
	MemBandwidthCycles int

	// MSHREntries and StoreBufEntries size the per-core miss status
	// holding registers and write-combining store buffer (32 each in
	// Table 5.1; the MSHR sweep of figure 6.4 varies them together).
	MSHREntries     int
	StoreBufEntries int

	// --- Scratchpad / stash ---

	// ScratchSize is the per-SM scratchpad (or stash) capacity, and
	// ScratchBanks its bank count.
	ScratchSize  int
	ScratchBanks int

	// --- Interconnect ---

	// MeshWidth x MeshHeight tiles, each hosting one core's L1 and one
	// L2 bank. LinkLat is the per-hop link traversal latency (>= 0) and
	// RouterLat the per-router pipeline latency (>= 1: a message never
	// moves in the cycle it reaches a router).
	MeshWidth  int
	MeshHeight int
	LinkLat    int
	RouterLat  int

	// --- Pipeline ---

	// ALULat / SFULat are compute result latencies; SFUInterval is the
	// SFU issue initiation interval (the ALU is fully pipelined).
	ALULat      int
	SFULat      int
	SFUInterval int
	// FetchLat is the instruction-buffer refill delay after a taken
	// branch (the source of control stalls).
	FetchLat int

	// --- Watchdog ---

	// MaxCycles bounds a run; exceeding it returns ErrMaxCycles.
	MaxCycles uint64

	// --- Engine ---

	// Engine selects the scheduling loop. The zero value (EngineSkip)
	// is the event-driven skip-ahead engine; EngineQuiescent keeps the
	// active set but ticks every cycle; EngineDense is the reference
	// loop that ticks every component every cycle. All three produce
	// byte-identical results.
	Engine EngineMode

	// Deprecated: Parallel was the intra-simulation tick worker count of
	// the deleted parallel tick engine. It is inert: any value is accepted,
	// nothing reads it, and CanonicalOptions erases it so it cannot split a
	// cache key. It survives only because bench/layers.go compiles against
	// it (the parallel2 ladder row, which now re-runs the product engine);
	// the benchmark PR that retires that row removes the field.
	Parallel int

	// Deprecated: Express was the switch for the deleted mesh express
	// routing; the mesh always routes per hop. It is inert in the same way
	// as Parallel and waits on the same benchmark PR (the express_off
	// ladder row).
	Express bool
}

// Default returns the Table 5.1 configuration: 1 CPU + 15 SMs on a 4x4 mesh
// with 16 L2 banks, 32 KB 8-way 8-bank L1s, 4 MB 16-bank NUCA L2, 16 KB
// 32-bank scratchpad/stash, 32-entry MSHR and store buffer.
func Default() Config {
	return Config{
		NumSMs:     15,
		WarpsPerSM: 8,
		WarpSize:   32,
		IssueWidth: 2,

		GPUFreqMHz: 700,
		CPUFreqMHz: 2000,

		LineSize:    64,
		L1Size:      32 << 10,
		L1Assoc:     8,
		L1Banks:     8,
		L1HitLat:    1,
		L2Banks:     16,
		L2Size:      4 << 20,
		L2Assoc:     16,
		L2AccessLat: 27,
		MemLat:      170,

		MemBandwidthCycles: 4,

		MSHREntries:     32,
		StoreBufEntries: 32,

		ScratchSize:  16 << 10,
		ScratchBanks: 32,

		MeshWidth:  4,
		MeshHeight: 4,
		LinkLat:    1,
		RouterLat:  1,

		ALULat:      4,
		SFULat:      16,
		SFUInterval: 4,
		FetchLat:    3,

		MaxCycles: 50_000_000,
	}
}

// Validate checks internal consistency and returns a descriptive error for
// the first violated constraint.
func (c Config) Validate() error {
	type check struct {
		ok  bool
		msg string
	}
	tiles := c.MeshWidth * c.MeshHeight
	checks := []check{
		{c.NumSMs >= 1, "NumSMs must be >= 1"},
		{c.WarpsPerSM >= 1, "WarpsPerSM must be >= 1"},
		{c.WarpSize >= 1, "WarpSize must be >= 1"},
		{c.IssueWidth >= 1, "IssueWidth must be >= 1"},
		{c.LineSize >= 8 && c.LineSize&(c.LineSize-1) == 0, "LineSize must be a power of two >= 8"},
		{c.L1Size > 0 && c.L1Assoc > 0, "L1 size and associativity must be positive"},
		{c.L1Size%(c.L1Assoc*c.LineSize) == 0, "L1Size must divide evenly into sets"},
		{c.L1Banks > 0, "L1Banks must be positive"},
		{c.L2Banks > 0 && c.L2Banks <= tiles, "L2Banks must fit on the mesh"},
		{c.L2Size%(c.L2Banks*c.L2Assoc*c.LineSize) == 0, "L2Size must divide evenly into banked sets"},
		{c.MSHREntries > 0, "MSHREntries must be positive"},
		{c.StoreBufEntries > 0, "StoreBufEntries must be positive"},
		{c.ScratchSize > 0 && c.ScratchBanks > 0, "scratchpad geometry must be positive"},
		{c.NumSMs+1 <= tiles, "mesh must have a tile per core (SMs + 1 CPU)"},
		{c.LinkLat >= 0, "LinkLat must be >= 0"},
		{c.RouterLat >= 1, "RouterLat must be >= 1"},
		{c.MaxCycles > 0, "MaxCycles must be positive"},
		{c.Engine <= EngineDense, "Engine must be EngineSkip, EngineQuiescent or EngineDense"},
	}
	for _, ch := range checks {
		if !ch.ok {
			return fmt.Errorf("sim: invalid config: %s", ch.msg)
		}
	}
	return nil
}

// NumCores returns the total core count: NumSMs GPU cores plus one CPU.
func (c Config) NumCores() int { return c.NumSMs + 1 }

// CPUCore returns the core index of the CPU (the last core).
func (c Config) CPUCore() int { return c.NumSMs }
