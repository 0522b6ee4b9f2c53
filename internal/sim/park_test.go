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
func runTimedNet(seed uint64, mode EngineMode, n int, parks, finish bool, maxCycles uint64) timedOutcome {
	var log []string
	comps := make([]*timedComp, n)
	for i := range comps {
		comps[i] = &timedComp{name: fmt.Sprintf("c%d", i), rng: seed + uint64(i)*0x9E3779B97F4A7C15, log: &log, parks: parks}
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

// TestParkIndistinguishableFromTickingThrough is the property behind
// Handle.Park: a component that parks until its next event (or a Wake) fires
// every event on the cycle it fires when the component instead stays in the
// active set and is visited every cycle, the engine takes the same steps and
// the same jumps — a parked due time bounds a jump exactly as the
// component's NextEvent did — and a run that cannot finish stops on the same
// cycle with the same error, whether that is the watchdog or the stall
// detector. The networks wake parked components from earlier and from later
// registration slots and re-arm themselves in the tick that parks; only the
// visit count may differ, and must fall.
func TestParkIndistinguishableFromTickingThrough(t *testing.T) {
	for _, mode := range []EngineMode{EngineQuiescent, EngineSkip} {
		var visitsAwake, visitsParked uint64
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
				label := fmt.Sprintf("%s seed %d n %d %s", mode, seed, n, tc.name)
				dense := runTimedNet(seed, EngineDense, n, false, tc.finish, tc.maxCycles)
				awake := runTimedNet(seed, mode, n, false, tc.finish, tc.maxCycles)
				parked := runTimedNet(seed, mode, n, true, tc.finish, tc.maxCycles)
				if fmt.Sprint(parked.log) != fmt.Sprint(dense.log) {
					t.Fatalf("%s: parked log diverges from dense:\n%v\nvs\n%v", label, parked.log, dense.log)
				}
				for _, e := range parked.log {
					if !strings.HasSuffix(e, ":ok") {
						t.Fatalf("%s: late event %q", label, e)
					}
				}
				if parked.cycles != awake.cycles || !sameErrorKind(parked.err, awake.err) {
					t.Fatalf("%s: parked run stopped after %d cycles with %v, awake run after %d with %v",
						label, parked.cycles, errKind(parked.err), awake.cycles, errKind(awake.err))
				}
				if tc.finish && parked.err != nil {
					t.Fatalf("%s: %v", label, parked.err)
				}
				if tc.name == "to the stall" && !errors.Is(parked.err, ErrStalled) {
					t.Fatalf("%s: %v, want ErrStalled once every event has fired", label, errKind(parked.err))
				}
				if errors.Is(parked.err, ErrMaxCycles) && parked.cycles != dense.cycles {
					t.Fatalf("%s: watchdog after %d cycles, dense after %d", label, parked.cycles, dense.cycles)
				}
				p, a := parked.stats, awake.stats
				if p.Steps != a.Steps || p.Jumps != a.Jumps || p.SkippedCycles != a.SkippedCycles {
					t.Fatalf("%s: parked run took steps=%d jumps=%d skipped=%d, awake run %d/%d/%d",
						label, p.Steps, p.Jumps, p.SkippedCycles, a.Steps, a.Jumps, a.SkippedCycles)
				}
				if p.Visits > a.Visits {
					t.Fatalf("%s: parking cost visits: %d parked, %d awake", label, p.Visits, a.Visits)
				}
				visitsAwake, visitsParked = visitsAwake+a.Visits, visitsParked+p.Visits
			}
		}
		// Under skip the jumps already remove most idle visits; what parking
		// saves there is the visits between jumps.
		if visitsParked >= visitsAwake {
			t.Errorf("%s: parking saved no visits (%d parked, %d awake)", mode, visitsParked, visitsAwake)
		}
		if mode == EngineQuiescent && visitsParked*2 > visitsAwake {
			t.Errorf("quiescent: parked networks still made %d of %d visits", visitsParked, visitsAwake)
		}
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

// parker parks until the given cycle on every tick and records its ticks.
// busy is what its Tick returns, which the engine ignores once it has parked.
type parker struct {
	h     Handle
	until func(now uint64) uint64
	busy  bool
	ticks []uint64
	took  []bool
}

func (p *parker) Tick(cycle uint64) bool {
	p.ticks = append(p.ticks, cycle)
	p.took = append(p.took, p.h.Park(p.until(cycle)))
	return p.busy
}

// TestParkUntilDueOrWake pins the mechanics one by one: a parked component is
// not visited before its due cycle and is visited on it, the skip engine
// jumps to that cycle and no further, and a Wake ends the park early — in the
// same cycle from an earlier slot, in the next from a later one.
func TestParkUntilDueOrWake(t *testing.T) {
	for _, mode := range []EngineMode{EngineQuiescent, EngineSkip} {
		for _, busy := range []bool{false, true} {
			eng := NewEngine()
			eng.SetMode(mode)
			p := &parker{until: func(now uint64) uint64 { return now + 10 }, busy: busy}
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
			if fmt.Sprint(p.ticks) != "[0 10]" || eng.ActiveCount() != 0 {
				t.Fatalf("%s, Tick returning %v: parker ticked at %v with %d active, want [0 10] and parked",
					mode, busy, p.ticks, eng.ActiveCount())
			}
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

// TestParkDeclined: the dense engine visits everything anyway, and a
// component a Wake already reached in this tick stays awake. A declined park
// changes nothing: the component is visited the next cycle like any busy one.
func TestParkDeclined(t *testing.T) {
	eng := NewEngine()
	eng.SetMode(EngineDense)
	p := &parker{until: func(now uint64) uint64 { return now + 100 }}
	p.h = eng.Register("parker", p)
	eng.Step()
	if p.took[0] {
		t.Error("dense: Park accepted")
	}
	eng = NewEngine()
	eng.SetMode(EngineQuiescent)
	var h Handle
	var took bool
	var ticks []uint64
	h = eng.Register("self", TickFunc(func(c uint64) bool {
		ticks = append(ticks, c)
		if c == 0 {
			h.Wake()
			took = h.Park(50)
		}
		return false
	}))
	eng.Step()
	eng.Step()
	eng.Step()
	if took || fmt.Sprint(ticks) != "[0 1]" {
		t.Errorf("self-woken component: Park accepted=%v, ticked at %v; want declined and [0 1]", took, ticks)
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
	// With nothing else pending, only the parked component stands between
	// the run and ErrStalled.
	eng := NewEngine()
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
