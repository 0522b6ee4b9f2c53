package gsi

import (
	"fmt"
	"strings"

	"gsi/internal/coherence"
	"gsi/internal/core"
	"gsi/internal/mem"
	"gsi/internal/sim"
)

// LatencyRange is an observed min..max latency in GPU cycles.
type LatencyRange struct {
	Min, Max uint64
}

// String renders the range as "min-max", the form Table 5.1 reports.
func (r LatencyRange) String() string { return fmt.Sprintf("%d-%d", r.Min, r.Max) }

func (r *LatencyRange) update(v uint64) {
	if r.Min == 0 || v < r.Min {
		r.Min = v
	}
	if v > r.Max {
		r.Max = v
	}
}

// Calibration holds measured memory latencies for the Table 5.1
// reproduction. The paper reports L1 hit 1 cycle, L2 hit 29-61, remote
// L1/stash 35-83, memory 197-261; in this simulator the ranges emerge from
// mesh distance, bank access latency, and queueing, so Calibrate measures
// them with single-request probes (no contention: expect the low ends of
// the paper's ranges to line up and contention to supply the high ends).
type Calibration struct {
	L1Hit    LatencyRange
	L2Hit    LatencyRange
	RemoteL1 LatencyRange
	Memory   LatencyRange
}

// Calibrate probes an idle system built from cfg: every L2 bank is probed
// from SM 0 for L2-hit and memory latencies, and every other core is made
// owner of a line to measure remote-L1 forwarding.
func Calibrate(cfg SystemConfig) (*Calibration, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sys, err := mem.NewSystem(cfg, coherence.PoliciesFor(cfg.NumSMs, coherence.DeNovo{}))
	if err != nil {
		return nil, err
	}
	// The probes poke the core memory unit directly between engine runs,
	// so drive the system densely: every unit ticks every cycle whether or
	// not a wake reached it (calibration runs are tiny).
	eng := sim.NewEngine()
	eng.SetMode(sim.EngineDense)
	sys.Attach(eng)
	last := eng.LastTick

	cm0 := sys.Cores[0]
	var fired bool
	var firedAt uint64
	var firedWhere core.DataWhere
	cm0.OnLoadDone = func(t mem.Target, w core.DataWhere) {
		fired = true
		firedAt = eng.Cycle()
		firedWhere = w
	}

	quiesce := func() error {
		_, err := eng.Run(sys.Quiesced, 1_000_000)
		return err
	}
	probe := func(addr uint64) (uint64, core.DataWhere, error) {
		fired = false
		start := eng.Cycle()
		switch cm0.Load(addr, mem.Target{Kind: mem.TargetLoad, Load: 1}, last()) {
		case mem.LoadHit:
			return uint64(cfg.L1HitLat), core.WhereL1, nil
		case mem.LoadMSHRFull:
			return 0, core.WhereUnknown, fmt.Errorf("gsi: calibrate: MSHR full on idle system")
		}
		if _, err := eng.Run(func() bool { return fired }, 1_000_000); err != nil {
			return 0, core.WhereUnknown, err
		}
		return firedAt - start, firedWhere, nil
	}

	cal := &Calibration{L1Hit: LatencyRange{Min: uint64(cfg.L1HitLat), Max: uint64(cfg.L1HitLat)}}
	lineSize := uint64(cfg.LineSize)

	// Memory and L2-hit latency per bank: the first load of a line goes
	// to main memory; self-invalidating and reloading hits the L2.
	for b := 0; b < cfg.L2Banks; b++ {
		addr := uint64(b)*lineSize + 0x4000_0000
		lat, where, err := probe(addr)
		if err != nil {
			return nil, err
		}
		if where != core.WhereMemory {
			return nil, fmt.Errorf("gsi: calibrate: cold probe of bank %d serviced at %s", b, where)
		}
		cal.Memory.update(lat)
		cm0.SelfInvalidate()
		lat, where, err = probe(addr)
		if err != nil {
			return nil, err
		}
		if where != core.WhereL2 {
			return nil, fmt.Errorf("gsi: calibrate: warm probe of bank %d serviced at %s", b, where)
		}
		cal.L2Hit.update(lat)
		cm0.SelfInvalidate()
	}

	// Remote L1: every other core takes ownership of one line (store +
	// flush registers it under DeNovo), then SM 0 reads it.
	for owner := 1; owner < cfg.NumCores(); owner++ {
		addr := uint64(owner)*lineSize + 0x5000_0000
		cmO := sys.Cores[owner]
		if out := cmO.Store(addr, last()); out != mem.StoreOK {
			return nil, fmt.Errorf("gsi: calibrate: store on idle core %d blocked (%d)", owner, out)
		}
		cmO.FlushAll()
		if err := quiesce(); err != nil {
			return nil, err
		}
		lat, where, err := probe(addr)
		if err != nil {
			return nil, err
		}
		if where != core.WhereRemoteL1 {
			return nil, fmt.Errorf("gsi: calibrate: probe of core %d's line serviced at %s", owner, where)
		}
		cal.RemoteL1.update(lat)
		cm0.SelfInvalidate()
	}
	return cal, nil
}

// Table51 renders the reproduced Table 5.1: the configured parameters plus
// the measured latency ranges alongside the paper's.
func Table51(cfg SystemConfig) (string, error) {
	cal, err := Calibrate(cfg)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("Table 5.1: parameters of the simulated heterogeneous system\n")
	fmt.Fprintf(&sb, "  CPU cores                      %d @ %d MHz\n", 1, cfg.CPUFreqMHz)
	fmt.Fprintf(&sb, "  GPU SMs                        %d @ %d MHz\n", cfg.NumSMs, cfg.GPUFreqMHz)
	fmt.Fprintf(&sb, "  scratchpad/stash               %d KB, %d banks\n", cfg.ScratchSize>>10, cfg.ScratchBanks)
	fmt.Fprintf(&sb, "  L1                             %d KB, %d banks, %d-way\n", cfg.L1Size>>10, cfg.L1Banks, cfg.L1Assoc)
	fmt.Fprintf(&sb, "  L2                             %d MB, %d banks, NUCA\n", cfg.L2Size>>20, cfg.L2Banks)
	fmt.Fprintf(&sb, "  MSHR / store buffer entries    %d / %d\n", cfg.MSHREntries, cfg.StoreBufEntries)
	fmt.Fprintf(&sb, "  mesh                           %dx%d, link %d + router %d cycles/hop\n",
		cfg.MeshWidth, cfg.MeshHeight, cfg.LinkLat, cfg.RouterLat)
	sb.WriteString("  latencies (measured, idle system)        paper\n")
	fmt.Fprintf(&sb, "    L1 / scratchpad hit          %-10s   1\n", cal.L1Hit)
	fmt.Fprintf(&sb, "    L2 hit                       %-10s   29-61\n", cal.L2Hit)
	fmt.Fprintf(&sb, "    remote L1 hit                %-10s   35-83\n", cal.RemoteL1)
	fmt.Fprintf(&sb, "    main memory                  %-10s   197-261\n", cal.Memory)
	return sb.String(), nil
}
