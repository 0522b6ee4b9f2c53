package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// timedOutcome is everything observable about one run of a timedComp
// network: the events fired, when the run stopped and why, and how the
// engine got there.
type timedOutcome struct {
	log    []string
	cycles uint64
	err    error
	stats  EngineStats
}

// runTimedNet runs n timedComps in a ring — each sends to the next, so the
// last one wakes an earlier-registered component and every other one a later
// one — until every event has fired (finish) or the engine gives up.
func runTimedNet(seed uint64, mode EngineMode, n int, finish bool, maxCycles uint64) timedOutcome {
	var log []string
	comps := make([]*timedComp, n)
	for i := range comps {
		comps[i] = &timedComp{name: fmt.Sprintf("c%d", i), rng: seed + uint64(i)*0x9E3779B97F4A7C15, log: &log}
		comps[i].schedule(2 + (seed+uint64(i)*5)%11)
	}
	comps[0].schedule(60 + seed%23)
	eng := NewEngine()
	eng.SetMode(mode)
	for i, c := range comps {
		c.peer = comps[(i+1)%n]
		c.handle = eng.Register(c.name, c)
	}
	done := func() bool {
		if !finish {
			return false
		}
		for _, c := range comps {
			if len(c.events) > 0 {
				return false
			}
		}
		return true
	}
	cycles, err := eng.Run(done, maxCycles)
	return timedOutcome{log: log, cycles: cycles, err: err, stats: eng.Stats()}
}

// TestParkIndistinguishableFromTickingThrough is the property behind parking
// on NextEvent: on randomized timedComp ring networks, the quiescent and skip
// engines — which park every busy component until the cycle its NextEvent
// names or the first Wake — fire every event on the cycle the dense loop,
// which ticks everything through, fires it; and a run that cannot finish
// stops on the same cycle with the same error, whether that is the watchdog
// or the stall detector. The rings wake parked components from earlier and
// from later registration slots, cut long promises short, and re-arm
// themselves in their own tick. Quiescent takes exactly the dense loop's
// steps; only skip may take fewer, and both must visit less.
func TestParkIndistinguishableFromTickingThrough(t *testing.T) {
	var visitsDense, visitsQuiescent, jumps uint64
	for seed := uint64(0); seed < 150; seed++ {
		n := 2 + int(seed%3)
		for _, tc := range []struct {
			name      string
			finish    bool
			maxCycles uint64
		}{
			{"to completion", true, 1_000_000},
			{"to the stall", false, 20_000},
			{"to the watchdog", false, 40 + seed%60},
		} {
			dense := runTimedNet(seed, EngineDense, n, tc.finish, tc.maxCycles)
			if tc.finish && dense.err != nil {
				t.Fatalf("seed %d n %d %s: dense: %v", seed, n, tc.name, dense.err)
			}
			var quiescent timedOutcome
			for _, mode := range []EngineMode{EngineQuiescent, EngineSkip} {
				label := fmt.Sprintf("%s seed %d n %d %s", mode, seed, n, tc.name)
				got := runTimedNet(seed, mode, n, tc.finish, tc.maxCycles)
				if fmt.Sprint(got.log) != fmt.Sprint(dense.log) {
					t.Fatalf("%s: log diverges from dense:\n%v\nvs\n%v", label, got.log, dense.log)
				}
				for _, e := range got.log {
					if !strings.HasSuffix(e, ":ok") {
						t.Fatalf("%s: late event %q", label, e)
					}
				}
				// The dense loop has no stall detector: where the other two
				// stop at the stall it runs on to the watchdog, and skip must
				// stop where quiescent did. Everywhere else all three agree.
				stalled := errors.Is(got.err, ErrStalled)
				if tc.name == "to the stall" && !stalled {
					t.Fatalf("%s: %v, want ErrStalled once every event has fired", label, errKind(got.err))
				}
				want := dense
				if stalled {
					want = quiescent
				}
				if mode == EngineQuiescent {
					quiescent = got
				}
				if (mode == EngineSkip || !stalled) && (got.cycles != want.cycles || !sameErrorKind(got.err, want.err)) {
					t.Fatalf("%s: stopped after %d cycles with %v, want %d with %v",
						label, got.cycles, errKind(got.err), want.cycles, errKind(want.err))
				}
				g, d := got.stats, dense.stats
				if !stalled && (g.Steps+g.SkippedCycles != d.Steps || (mode == EngineQuiescent && g.Jumps != 0)) {
					t.Fatalf("%s: %d steps + %d skipped cycles (%d jumps), dense took %d steps",
						label, g.Steps, g.SkippedCycles, g.Jumps, d.Steps)
				}
				if g.Visits > d.Visits {
					t.Fatalf("%s: parking cost visits: %d, dense %d", label, g.Visits, d.Visits)
				}
				if mode == EngineQuiescent {
					visitsDense, visitsQuiescent = visitsDense+d.Visits, visitsQuiescent+g.Visits
				} else {
					jumps += g.Jumps
				}
			}
		}
	}
	// Vacuous unless the engines actually parked and jumped.
	if visitsQuiescent*2 > visitsDense {
		t.Errorf("quiescent: parked networks still made %d of the dense loop's %d visits", visitsQuiescent, visitsDense)
	}
	if jumps == 0 {
		t.Error("skip: no network ever jumped")
	}
}

func errKind(err error) error {
	for _, k := range []error{ErrMaxCycles, ErrStalled} {
		if errors.Is(err, k) {
			return k
		}
	}
	return err
}

func sameErrorKind(a, b error) bool { return errKind(a) == errKind(b) }

// parker is always busy and names its next event through until; it records
// the cycles it ticked and how often the engine asked it.
type parker struct {
	h     Handle
	until func(now uint64) uint64
	ticks []uint64
	asked int
}

func (p *parker) Tick(cycle uint64) bool {
	p.ticks = append(p.ticks, cycle)
	return true
}

func (p *parker) NextEvent(now uint64) uint64 {
	p.asked++
	return p.until(now)
}

// TestParkUntilDueOrWake pins the mechanics one by one: the engine asks a
// busy component its NextEvent once per tick, a parked component is not
// visited before its due cycle and is visited on it, the skip engine jumps to
// that cycle and no further, and a Wake ends the park early — in the same
// cycle from an earlier slot, in the next from a later one.
func TestParkUntilDueOrWake(t *testing.T) {
	for _, mode := range []EngineMode{EngineQuiescent, EngineSkip} {
		eng := NewEngine()
		eng.SetMode(mode)
		p := &parker{until: func(now uint64) uint64 { return now + 10 }}
		p.h = eng.Register("parker", p)
		eng.Step()
		if mode == EngineSkip {
			if st := eng.Stats(); eng.Cycle() != 10 || st.Jumps != 1 || st.SkippedCycles != 9 {
				t.Fatalf("skip: at cycle %d after %+v, want one jump of 9 cycles to the parked due time", eng.Cycle(), st)
			}
		}
		for eng.Cycle() <= 10 {
			eng.Step()
		}
		if fmt.Sprint(p.ticks) != "[0 10]" || p.asked != 2 || eng.ActiveCount() != 0 {
			t.Fatalf("%s: parker ticked at %v, asked %d times, %d active; want [0 10], 2 and parked",
				mode, p.ticks, p.asked, eng.ActiveCount())
		}

		for _, wakerFirst := range []bool{true, false} {
			eng := NewEngine()
			eng.SetMode(mode)
			p := &parker{until: func(now uint64) uint64 { return now + 100 }}
			waker := TickFunc(func(c uint64) bool {
				if c == 4 {
					p.h.Wake()
				}
				return true // keeps the clock at one cycle per step
			})
			want := "[0 5]"
			if wakerFirst {
				eng.Register("waker", waker)
				want = "[0 4]"
			}
			p.h = eng.Register("parker", p)
			if !wakerFirst {
				eng.Register("waker", waker)
			}
			for i := 0; i < 8; i++ {
				eng.Step()
			}
			if fmt.Sprint(p.ticks) != want {
				t.Fatalf("%s, waker first %v: parker ticked at %v, want %s", mode, wakerFirst, p.ticks, want)
			}
		}
	}
}

// TestParkDeclined: the dense engine visits everything and never asks; and a
// component a Wake already reached in its own tick is not asked either — it
// stays active and is visited the next cycle like any woken one.
func TestParkDeclined(t *testing.T) {
	eng := NewEngine()
	eng.SetMode(EngineDense)
	p := &parker{until: func(now uint64) uint64 { return now + 100 }}
	p.h = eng.Register("parker", p)
	eng.Step()
	eng.Step()
	if fmt.Sprint(p.ticks) != "[0 1]" || p.asked != 0 {
		t.Errorf("dense: parker ticked at %v and was asked %d times; want [0 1] and never", p.ticks, p.asked)
	}
	for _, mode := range []EngineMode{EngineQuiescent, EngineSkip} {
		eng = NewEngine()
		eng.SetMode(mode)
		p := &parker{until: func(now uint64) uint64 { return now + 100 }}
		self := &nextEventFunc{next: p.NextEvent}
		var h Handle
		self.tick = func(c uint64) bool {
			p.ticks = append(p.ticks, c)
			if c == 0 {
				h.Wake()
			}
			return true
		}
		h = eng.Register("self", self)
		eng.Step()
		eng.Step()
		if fmt.Sprint(p.ticks) != "[0 1]" || p.asked != 1 {
			t.Errorf("%s: self-woken component ticked at %v and was asked %d times; want [0 1] and once, after the second tick",
				mode, p.ticks, p.asked)
		}
	}
}

// TestParkNoEventIsPendingNotIdle: a component parked with no due cycle waits
// for a Wake only. It is still pending work: the run is not stalled while it
// sleeps, the skip engine does not jump on its behalf, the watchdog fires on
// the cycle the dense loop reports, and the deadlock dump says which
// component is parked and until when.
func TestParkNoEventIsPendingNotIdle(t *testing.T) {
	for _, mode := range []EngineMode{EngineDense, EngineQuiescent, EngineSkip} {
		eng := NewEngine()
		eng.SetMode(mode)
		forever := &parker{until: func(uint64) uint64 { return NoEvent }}
		forever.h = eng.Register("forever", forever)
		timed := &parker{until: func(now uint64) uint64 { return 5000 }}
		timed.h = eng.Register("timed", timed)
		eng.Register("drained", TickFunc(func(uint64) bool { return false }))
		n, err := eng.Run(func() bool { return false }, 300)
		if !errors.Is(err, ErrMaxCycles) || n != 300 {
			t.Fatalf("%s: ran %d cycles, err %v; want the watchdog at 300", mode, n, err)
		}
		if mode == EngineDense {
			continue
		}
		if len(forever.ticks) != 1 || len(timed.ticks) != 1 {
			t.Errorf("%s: parked components ticked at %v and %v, want once each", mode, forever.ticks, timed.ticks)
		}
		for _, want := range []string{"0/3 components busy, 2 parked", "forever    parked until woken", "timed      parked until 5000", "drained    idle"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: diagnosis missing %q:\n%v", mode, want, err)
			}
		}
		forever.h.Wake()
		if eng.ActiveCount() != 1 {
			t.Errorf("%s: Wake did not re-arm the component parked without a due cycle", mode)
		}
	}
	// With only a parked-until-woken component pending, the skip engine
	// still steps one cycle at a time to the watchdog: no jump, no stall.
	eng := NewEngine()
	eng.SetMode(EngineSkip)
	eng.Register("forever", &parker{until: func(uint64) uint64 { return NoEvent }})
	if n, err := eng.Run(func() bool { return false }, 300); !errors.Is(err, ErrMaxCycles) || n != 300 || eng.Stats().Steps != 300 {
		t.Fatalf("ran %d cycles in %d steps, err %v; want 300 steps to the watchdog", n, eng.Stats().Steps, err)
	}
	// With nothing pending at all, the run is stalled.
	eng = NewEngine()
	eng.SetMode(EngineSkip)
	eng.Register("drained", TickFunc(func(uint64) bool { return false }))
	if _, err := eng.Run(func() bool { return false }, 300); !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled once nothing is pending", err)
	}
}

// TestDiagnosisListsParkedBeforeIdle: past the dump's component cap, parked
// components are kept ahead of idle ones.
func TestDiagnosisListsParkedBeforeIdle(t *testing.T) {
	eng := NewEngine()
	eng.SetMode(EngineQuiescent)
	for i := 0; i < diagnosisMaxComponents+8; i++ {
		eng.Register(fmt.Sprintf("idle%d", i), TickFunc(func(uint64) bool { return false }))
	}
	p := &parker{until: func(uint64) uint64 { return 99 }}
	p.h = eng.Register("sleeper", p)
	eng.Step()
	if dump := eng.Diagnosis(); !strings.Contains(dump, "sleeper    parked until 99") {
		t.Errorf("capped diagnosis dropped the parked component:\n%s", dump)
	}
}

// BenchmarkEngineStepMostlyParked: 48 components of which 3 are awake; the
// rest are parked far in the future, so a step costs the three visits.
func BenchmarkEngineStepMostlyParked(b *testing.B) {
	eng := NewEngine()
	eng.SetMode(EngineQuiescent)
	for i := 0; i < 48; i++ {
		if i%16 == 0 {
			eng.Register("awake", TickFunc(func(uint64) bool { return true }))
			continue
		}
		p := &parker{until: func(uint64) uint64 { return NoEvent - 1 }}
		p.h = eng.Register("parked", p)
	}
	eng.Step()
	visits := eng.Stats().Visits
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
	b.ReportMetric(float64(eng.Stats().Visits-visits)/float64(b.N), "visits/step")
}
