package sim

import (
	"errors"
	"strings"
	"testing"
)

// busyFor returns a TickFunc that records its tick cycles and stays busy
// for the first n ticks.
func busyFor(n int, ticks *[]uint64) TickFunc {
	count := 0
	return func(c uint64) bool {
		*ticks = append(*ticks, c)
		count++
		return count < n
	}
}

func TestEngineTickOrderAndCount(t *testing.T) {
	eng := NewEngine()
	var order []string
	eng.Register("a", TickFunc(func(uint64) bool { order = append(order, "a"); return true }))
	eng.Register("b", TickFunc(func(uint64) bool { order = append(order, "b"); return true }))
	eng.Step()
	eng.Step()
	want := []string{"a", "b", "a", "b"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if eng.Cycle() != 2 {
		t.Fatalf("Cycle = %d, want 2", eng.Cycle())
	}
}

func TestEngineRunUntilDone(t *testing.T) {
	eng := NewEngine()
	count := 0
	eng.Register("c", TickFunc(func(uint64) bool { count++; return true }))
	n, err := eng.Run(func() bool { return count >= 5 }, 100)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 || count != 5 {
		t.Fatalf("ran %d cycles, count %d, want 5", n, count)
	}
}

func TestEngineWatchdog(t *testing.T) {
	eng := NewEngine()
	eng.Register("spin", TickFunc(func(uint64) bool { return true }))
	_, err := eng.Run(func() bool { return false }, 10)
	if !errors.Is(err, ErrMaxCycles) {
		t.Fatalf("err = %v, want ErrMaxCycles", err)
	}
	if eng.Cycle() != 10 {
		t.Fatalf("Cycle = %d, want 10", eng.Cycle())
	}
	if !strings.Contains(err.Error(), "spin") || !strings.Contains(err.Error(), "busy") {
		t.Errorf("watchdog error lacks component diagnosis: %v", err)
	}
}

func TestEngineTickSeesCycleBeforeIncrement(t *testing.T) {
	eng := NewEngine()
	var seen []uint64
	eng.Register("c", TickFunc(func(c uint64) bool { seen = append(seen, c); return true }))
	eng.Step()
	eng.Step()
	if seen[0] != 0 || seen[1] != 1 {
		t.Fatalf("seen = %v, want [0 1]", seen)
	}
}

// TestEngineIdleComponentSkipped: a component that quiesces stops ticking;
// in dense mode it keeps ticking every cycle.
func TestEngineIdleComponentSkipped(t *testing.T) {
	for _, dense := range []bool{false, true} {
		eng := NewEngine()
		if dense {
			eng.SetMode(EngineDense)
		}
		var idleTicks, busyTicks []uint64
		eng.Register("idle", busyFor(1, &idleTicks))
		eng.Register("busy", busyFor(100, &busyTicks))
		for i := 0; i < 5; i++ {
			eng.Step()
		}
		wantIdle := 1
		if dense {
			wantIdle = 5
		}
		if len(idleTicks) != wantIdle {
			t.Errorf("dense=%v: idle component ticked %d times, want %d", dense, len(idleTicks), wantIdle)
		}
		if len(busyTicks) != 5 {
			t.Errorf("dense=%v: busy component ticked %d times, want 5", dense, len(busyTicks))
		}
	}
}

// TestEngineWakeWhileIdle: a component that quiesced is re-armed by another
// component's Wake. Woken by an earlier-registered component, it ticks the
// same cycle; its own tick then keeps it alive per its busy return.
func TestEngineWakeWhileIdle(t *testing.T) {
	eng := NewEngine()
	var ticks []uint64
	var sleeper Handle
	eng.Register("waker", TickFunc(func(c uint64) bool {
		if c == 3 {
			sleeper.Wake()
		}
		return c < 6
	}))
	sleeper = eng.Register("sleeper", busyFor(1, &ticks))
	for i := 0; i < 8; i++ {
		eng.Step()
	}
	// Tick at 0 (initial), quiesce; woken during cycle 3 by the earlier
	// component, so it ticks at 3 and quiesces again.
	if len(ticks) != 2 || ticks[0] != 0 || ticks[1] != 3 {
		t.Fatalf("sleeper ticks = %v, want [0 3]", ticks)
	}
}

// TestEngineWakeByLaterComponentNextCycle: a wake from a component
// registered after the sleeper arrives too late for the current cycle and
// takes effect the next one — matching when a dense loop would first let
// the sleeper observe work created after its slot.
func TestEngineWakeByLaterComponentNextCycle(t *testing.T) {
	eng := NewEngine()
	var ticks []uint64
	sleeper := eng.Register("sleeper", busyFor(1, &ticks))
	eng.Register("waker", TickFunc(func(c uint64) bool {
		if c == 3 {
			sleeper.Wake()
		}
		return c < 6
	}))
	for i := 0; i < 8; i++ {
		eng.Step()
	}
	if len(ticks) != 2 || ticks[0] != 0 || ticks[1] != 4 {
		t.Fatalf("sleeper ticks = %v, want [0 4]", ticks)
	}
}

// TestEngineWakeDuringOwnTick: a component that wakes itself mid-tick stays
// active even though its Tick returned false.
func TestEngineWakeDuringOwnTick(t *testing.T) {
	eng := NewEngine()
	var self Handle
	var ticks []uint64
	self = eng.Register("self", TickFunc(func(c uint64) bool {
		ticks = append(ticks, c)
		if c == 0 {
			self.Wake() // re-arm despite returning false
		}
		return false
	}))
	for i := 0; i < 4; i++ {
		eng.Step()
	}
	if len(ticks) != 2 || ticks[0] != 0 || ticks[1] != 1 {
		t.Fatalf("ticks = %v, want [0 1]", ticks)
	}
}

// TestEngineLastComponentQuiesces: once the last active component goes
// idle, Run reports ErrStalled (with a diagnosis) instead of spinning to
// the watchdog — and exits cleanly when done turns true first.
func TestEngineLastComponentQuiesces(t *testing.T) {
	eng := NewEngine()
	done := false
	eng.Register("a", busyFor(2, &[]uint64{}))
	eng.Register("b", TickFunc(func(c uint64) bool {
		if c == 4 {
			done = true
		}
		return c < 4
	}))
	n, err := eng.Run(func() bool { return done }, 1000)
	if err != nil {
		t.Fatalf("clean quiescence errored: %v", err)
	}
	// b stays busy through cycle 4 and sets done during cycle 4; done is
	// observed before cycle 5.
	if n != 5 {
		t.Fatalf("ran %d cycles, want 5", n)
	}

	// Without the done flag flipping, full quiescence is a stall.
	eng2 := NewEngine()
	eng2.Register("a", busyFor(2, &[]uint64{}))
	_, err = eng2.Run(func() bool { return false }, 1000)
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	if !strings.Contains(err.Error(), "idle") {
		t.Errorf("stall error lacks diagnosis: %v", err)
	}
}

// TestEngineDiagnosis: the dump names every component with its state and
// includes Diagnoser detail.
type diagComp struct{ busy bool }

func (d diagComp) Tick(uint64) bool { return d.busy }
func (d diagComp) Diagnose() string { return "queue=7" }

func TestEngineDiagnosis(t *testing.T) {
	eng := NewEngine()
	eng.Register("router", diagComp{busy: true})
	eng.Register("drained", diagComp{busy: false})
	eng.Step()
	dump := eng.Diagnosis()
	for _, want := range []string{"router", "busy", "drained", "idle", "queue=7"} {
		if !strings.Contains(dump, want) {
			t.Errorf("diagnosis missing %q:\n%s", want, dump)
		}
	}
	if eng.ActiveCount() != 1 {
		t.Errorf("ActiveCount = %d, want 1", eng.ActiveCount())
	}
}

func TestDefaultConfigValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cfg := Default()
	if cfg.NumCores() != 16 || cfg.CPUCore() != 15 {
		t.Fatalf("cores = %d, cpu = %d", cfg.NumCores(), cfg.CPUCore())
	}
	if cfg.Engine != EngineSkip {
		t.Fatalf("default engine mode = %s, want skip", cfg.Engine)
	}
}

func TestConfigValidation(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero SMs", func(c *Config) { c.NumSMs = 0 }},
		{"zero warps", func(c *Config) { c.WarpsPerSM = 0 }},
		{"zero warp size", func(c *Config) { c.WarpSize = 0 }},
		{"zero issue width", func(c *Config) { c.IssueWidth = 0 }},
		{"non-power-of-two line", func(c *Config) { c.LineSize = 48 }},
		{"tiny line", func(c *Config) { c.LineSize = 4 }},
		{"L1 not divisible", func(c *Config) { c.L1Size = 1000 }},
		{"zero L1 banks", func(c *Config) { c.L1Banks = 0 }},
		{"too many L2 banks", func(c *Config) { c.L2Banks = 17 }},
		{"L2 not divisible", func(c *Config) { c.L2Size = 12345 }},
		{"zero MSHR", func(c *Config) { c.MSHREntries = 0 }},
		{"zero store buffer", func(c *Config) { c.StoreBufEntries = 0 }},
		{"zero scratch", func(c *Config) { c.ScratchSize = 0 }},
		{"too many cores for mesh", func(c *Config) { c.NumSMs = 16 }},
		{"zero max cycles", func(c *Config) { c.MaxCycles = 0 }},
		// A negative latency used to wrap to 2^64-1 and the sum to a
		// zero-latency mesh; a zero router latency lets a message move in
		// the tick that placed it.
		{"negative link latency", func(c *Config) { c.LinkLat = -1 }},
		{"negative router latency", func(c *Config) { c.RouterLat = -1 }},
		{"zero router latency", func(c *Config) { c.RouterLat = 0 }},
		// 3 was the deleted parallel engine's value: a stale caller gets
		// an error, not a different engine.
		{"unknown engine", func(c *Config) { c.Engine = EngineDense + 1 }},
	}
	for _, tt := range mutations {
		t.Run(tt.name, func(t *testing.T) {
			cfg := Default()
			tt.mut(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Errorf("config %s passed validation", tt.name)
			}
		})
	}
}

// TestParseEngineMode: every mode's name parses back to it, and a mode that
// no longer exists is an error naming the ones that do.
func TestParseEngineMode(t *testing.T) {
	for _, m := range []EngineMode{EngineSkip, EngineDense} {
		if got, err := ParseEngineMode(m.String()); err != nil || got != m {
			t.Errorf("ParseEngineMode(%q) = %v, %v", m, got, err)
		}
	}
	for _, gone := range []string{"quiesce", "skip-ahead", "skipahead"} {
		if m, err := ParseEngineMode(gone); err == nil {
			t.Errorf("ParseEngineMode(%q) = %v, want an error", gone, m)
		}
	}
	_, err := ParseEngineMode("parallel")
	if err == nil {
		t.Fatal(`ParseEngineMode("parallel") succeeded`)
	}
	for _, want := range []string{"dense", "skip"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name mode %q", err, want)
		}
	}
}
