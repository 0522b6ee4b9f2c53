package sim

import (
	"fmt"
	"strings"
	"testing"
)

// timedComp is a synthetic component driven by an explicit event schedule:
// Tick fires every due event, appends to a shared log, and (pseudo-randomly
// but deterministically) schedules follow-up events on itself or a peer —
// the shape of a real component exchanging timed messages. NextEvent
// reports the earliest pending event, so the skip-ahead engine may jump
// straight to it.
//
// One branch models a long promise cut short: a single far-future event
// which a later peer exchange may replace with a much nearer one plus a
// Wake — the pattern of an SM nap ended early by its CoreMem's poke. The
// engine must cope with a component's NextEvent moving earlier after a wake.
type timedComp struct {
	name   string
	events []uint64 // sorted pending event times
	peer   *timedComp
	handle Handle
	rng    uint64
	log    *[]string
	// farAt is the pending long promise (0 = none): scheduled far out,
	// possibly cut short to a near event by the peer.
	farAt uint64
	// skips records the windows the engine skipped, for assertions: the
	// engine does not announce a jump, so a component derives it from the
	// gap between its consecutive Tick cycles (ticked tracks whether any
	// Tick happened yet, lastTick the most recent one).
	skips    []string
	ticked   bool
	lastTick uint64
}

func (c *timedComp) schedule(at uint64) {
	i := len(c.events)
	c.events = append(c.events, at)
	for i > 0 && c.events[i-1] > c.events[i] {
		c.events[i-1], c.events[i] = c.events[i], c.events[i-1]
		i--
	}
}

func (c *timedComp) next(bound uint64) uint64 {
	c.rng = c.rng*6364136223846793005 + 1442695040888963407
	return (c.rng >> 33) % bound
}

func (c *timedComp) unschedule(at uint64) {
	for i, e := range c.events {
		if e == at {
			c.events = append(c.events[:i], c.events[i+1:]...)
			return
		}
	}
}

func (c *timedComp) Tick(cycle uint64) bool {
	if c.ticked && cycle > c.lastTick+1 {
		c.skips = append(c.skips, fmt.Sprintf("[%d,%d)", c.lastTick+1, cycle))
	}
	c.ticked, c.lastTick = true, cycle
	for len(c.events) > 0 && c.events[0] <= cycle {
		at := c.events[0]
		c.events = c.events[1:]
		if at == c.farAt {
			c.farAt = 0 // the long promise ran out undisturbed
		}
		// A late-fired event is exactly an under-promise: the engine
		// jumped past it. Make the failure visible in the log.
		status := "ok"
		if at < cycle {
			status = fmt.Sprintf("LATE(due=%d)", at)
		}
		*c.log = append(*c.log, fmt.Sprintf("%s@%d:%s", c.name, cycle, status))
		switch c.next(6) {
		case 0:
			c.schedule(cycle + 1 + c.next(40))
		case 1:
			// Timed "message" to the peer: schedule its event and wake
			// it, like a mesh delivery re-arming a sleeping unit.
			c.peer.schedule(cycle + 1 + c.next(25))
			c.peer.handle.Wake()
		case 2:
			// A long promise: one far event and nothing before it.
			if c.farAt == 0 {
				c.farAt = cycle + 10 + c.next(160)
				c.schedule(c.farAt)
			}
		case 3:
			// Cut the peer's long promise short: the far event is
			// replaced by a near one and the peer re-armed, like a poke
			// ending a nap.
			if p := c.peer; p.farAt > cycle+1 {
				p.unschedule(p.farAt)
				p.schedule(cycle + 1 + c.next(6))
				p.farAt = 0
				p.handle.Wake()
			}
		case 4:
			// A component re-arming itself mid-tick, like a unit whose own
			// handler queued it more work: the engine does not park it
			// after this tick.
			c.handle.Wake()
		}
	}
	return len(c.events) > 0
}

func (c *timedComp) NextEvent(now uint64) uint64 {
	if len(c.events) == 0 {
		return NoEvent
	}
	return c.events[0]
}

// runTimed builds a deterministic two-component event exchange from seed
// and runs it to quiescence under the given mode, returning the event log
// and the engine.
func runTimed(t *testing.T, seed uint64, mode EngineMode) ([]string, *Engine) {
	t.Helper()
	var log []string
	a := &timedComp{name: "a", rng: seed, log: &log}
	b := &timedComp{name: "b", rng: seed ^ 0x9E3779B97F4A7C15, log: &log}
	a.peer, b.peer = b, a
	a.schedule(2 + seed%7)
	a.schedule(50 + seed%23)
	b.schedule(5 + seed%13)
	eng := NewEngine()
	eng.SetMode(mode)
	a.handle = eng.Register("a", a)
	b.handle = eng.Register("b", b)
	done := func() bool { return len(a.events) == 0 && len(b.events) == 0 }
	if _, err := eng.Run(done, 1_000_000); err != nil {
		t.Fatalf("seed %d mode %s: %v", seed, mode, err)
	}
	return log, eng
}

// TestSkipAheadNeverUnderPromises is the property test for the NextEvent
// contract: across many randomized timed-event exchanges, the skip-ahead
// engine must fire every event at exactly the cycle the dense and
// quiescent loops fire it (jumping to the reported cycle and stepping from
// there is indistinguishable from dense execution), and no event may ever
// fire late.
func TestSkipAheadNeverUnderPromises(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		dense, _ := runTimed(t, seed, EngineDense)
		quiescent, _ := runTimed(t, seed, EngineQuiescent)
		skip, eng := runTimed(t, seed, EngineSkip)
		if fmt.Sprint(dense) != fmt.Sprint(quiescent) {
			t.Fatalf("seed %d: quiescent log diverges from dense:\n%v\nvs\n%v", seed, quiescent, dense)
		}
		if fmt.Sprint(dense) != fmt.Sprint(skip) {
			t.Fatalf("seed %d: skip log diverges from dense:\n%v\nvs\n%v", seed, skip, dense)
		}
		for _, e := range skip {
			if len(e) > 0 && e[len(e)-1] != 'k' { // ":ok" suffix
				t.Fatalf("seed %d: late event %q under skip-ahead", seed, e)
			}
		}
		if st := eng.Stats(); st.SkippedCycles == 0 {
			t.Errorf("seed %d: skip-ahead engine never jumped over a timed gap", seed)
		}
	}
}

// TestSkipJumpAndWindows pins the basic jump mechanics: components whose
// next events are far out are parked after their tick and the gap is jumped
// in one step, the engine's cycle lands on the earliest park, and each
// component sees the exact window it slept through as the gap before its next
// Tick.
func TestSkipJumpAndWindows(t *testing.T) {
	var log []string
	a := &timedComp{name: "a", log: &log}
	b := &timedComp{name: "b", log: &log}
	a.peer, b.peer = b, a
	a.rng, b.rng = 0, 0 // the first draw takes no branch: nothing is rescheduled
	a.schedule(100)
	b.schedule(150)
	eng := NewEngine()
	a.handle = eng.Register("a", a)
	b.handle = eng.Register("b", b)

	eng.Step() // tick pass at 0, both park, then jump to the earliest park
	if eng.Cycle() != 100 {
		t.Fatalf("Cycle after first step = %d, want 100", eng.Cycle())
	}
	eng.Step() // fires a@100 (b stays parked), then jumps to b's park
	if eng.Cycle() != 150 {
		t.Fatalf("Cycle after second step = %d, want 150", eng.Cycle())
	}
	if len(a.skips) != 1 || a.skips[0] != "[1,100)" {
		t.Fatalf("a.skips = %v, want [[1,100)]", a.skips)
	}
	if len(b.skips) != 0 {
		t.Fatalf("b.skips = %v, want none: b was parked through cycle 100", b.skips)
	}
	eng.Step() // fires b@150
	if len(b.skips) != 1 || b.skips[0] != "[1,150)" {
		t.Fatalf("b.skips = %v, want [[1,150)]", b.skips)
	}
	if fmt.Sprint(log) != "[a@100:ok b@150:ok]" {
		t.Fatalf("log = %v", log)
	}
	st := eng.Stats()
	if st.Jumps != 2 || st.SkippedCycles != 148 || st.Visits != 4 {
		t.Fatalf("stats = %+v, want 2 jumps over 148 cycles and 4 visits", st)
	}
}

// nextEventFunc adapts funcs to Component+NextEventer for clamp tests.
type nextEventFunc struct {
	tick func(uint64) bool
	next func(uint64) uint64
}

func (c *nextEventFunc) Tick(cycle uint64) bool      { return c.tick(cycle) }
func (c *nextEventFunc) NextEvent(now uint64) uint64 { return c.next(now) }

// TestSkipJumpClampedByWake: a Wake that lands during the pass leaves the
// woken component active, so no jump follows that pass and the component
// ticks on the very next cycle exactly as it would under a dense loop. The
// waker here is registered after the sleeper and parks itself far out in the
// same cycle it wakes the sleeper.
func TestSkipJumpClampedByWake(t *testing.T) {
	eng := NewEngine()
	var sleeperTicks []uint64
	var sleeper Handle
	sleeper = eng.Register("sleeper", TickFunc(func(c uint64) bool {
		sleeperTicks = append(sleeperTicks, c)
		return false
	}))
	eng.Register("waker", &nextEventFunc{
		tick: func(cycle uint64) bool {
			if cycle == 0 {
				sleeper.Wake() // the sleeper's slot has passed: next cycle
			}
			return true
		},
		next: func(now uint64) uint64 { return now + 50 },
	})

	eng.Step() // sleeper ticks at 0 and quiesces; the waker re-arms it, then parks
	if eng.Cycle() != 1 {
		t.Fatalf("Cycle = %d, want 1 (jump clamped by the mid-pass wake)", eng.Cycle())
	}
	eng.Step() // sleeper ticks at 1; nothing is active after it, so the clock jumps
	if fmt.Sprint(sleeperTicks) != "[0 1]" {
		t.Fatalf("sleeper ticks = %v, want [0 1]", sleeperTicks)
	}
	if eng.Cycle() != 50 {
		t.Fatalf("Cycle = %d, want 50 (the waker's park)", eng.Cycle())
	}
}

// TestSkipRequiresAllNextEventers: a busy component without NextEvent is
// never parked, so it stays active and disables jumping entirely — the engine
// can promise nothing on its behalf.
func TestSkipRequiresAllNextEventers(t *testing.T) {
	eng := NewEngine()
	timer := &nextEventFunc{
		tick: func(cycle uint64) bool { return true },
		next: func(now uint64) uint64 { return now + 1000 },
	}
	eng.Register("timer", timer)
	eng.Register("plain", TickFunc(func(uint64) bool { return true }))
	for i := 0; i < 5; i++ {
		eng.Step()
	}
	if eng.Cycle() != 5 {
		t.Fatalf("Cycle = %d, want 5 (no jumps with a non-NextEventer active)", eng.Cycle())
	}
}

// TestSkipExternalOnlyWaitersDoNotJump: a busy component that reports
// NoEvent (waiting on input none of them will produce) is parked until a Wake,
// and a park with no due cycle never licenses a jump: the clock advances one
// cycle per step, as the dense loop's does.
func TestSkipExternalOnlyWaitersDoNotJump(t *testing.T) {
	eng := NewEngine()
	ext := &nextEventFunc{
		tick: func(cycle uint64) bool { return true },
		next: func(now uint64) uint64 { return NoEvent },
	}
	eng.Register("ext", ext)
	for i := 0; i < 4; i++ {
		eng.Step()
	}
	if eng.Cycle() != 4 {
		t.Fatalf("Cycle = %d, want 4 (external-only waiters must not jump)", eng.Cycle())
	}
}

// TestSkipRespectsWatchdogLimit: a jump may not leap past Run's maxCycles,
// so the watchdog fires at exactly the cycle count the dense loop reports.
func TestSkipRespectsWatchdogLimit(t *testing.T) {
	for _, mode := range []EngineMode{EngineDense, EngineQuiescent, EngineSkip} {
		eng := NewEngine()
		eng.SetMode(mode)
		far := &nextEventFunc{
			tick: func(cycle uint64) bool { return true },
			next: func(now uint64) uint64 { return now + 10_000 },
		}
		eng.Register("far", far)
		n, err := eng.Run(func() bool { return false }, 100)
		if err == nil {
			t.Fatalf("%s: expected watchdog error", mode)
		}
		if n != 100 {
			t.Fatalf("%s: watchdog fired after %d cycles, want 100", mode, n)
		}
	}
}

// TestSkipDiagnosisIncludesNextEvents: the deadlock dump names when each
// busy component expected progress, and marks external-only waiters. Under
// the dense loop busy components stay in the active set whatever they
// promise, so the dump asks them; elsewhere they are parked and the dump
// prints the park (TestParkNoEventIsPendingNotIdle).
func TestSkipDiagnosisIncludesNextEvents(t *testing.T) {
	eng := NewEngine()
	eng.SetMode(EngineDense)
	timer := &nextEventFunc{
		tick: func(cycle uint64) bool { return true },
		next: func(now uint64) uint64 { return 777 },
	}
	ext := &nextEventFunc{
		tick: func(cycle uint64) bool { return true },
		next: func(now uint64) uint64 { return NoEvent },
	}
	eng.Register("timer", timer)
	eng.Register("ext", ext)
	eng.Step()
	dump := eng.Diagnosis()
	for _, want := range []string{"next-event=777", "next-event=external"} {
		if !strings.Contains(dump, want) {
			t.Errorf("diagnosis missing %q:\n%s", want, dump)
		}
	}
}
