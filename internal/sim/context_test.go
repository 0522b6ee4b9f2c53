package sim

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestRunContextCancel: canceling the context stops a spinning engine at
// its next cooperative check — within one ctxCheckInterval of cycles —
// with the typed ErrCanceled.
func TestRunContextCancel(t *testing.T) {
	eng := NewEngine()
	ctx, cancel := context.WithCancel(context.Background())
	var ticks uint64
	eng.Register("spin", TickFunc(func(uint64) bool {
		if ticks++; ticks == 100 {
			cancel()
		}
		return true
	}))
	n, err := eng.RunContext(ctx, func() bool { return false }, 1<<40)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if n > 100+2*ctxCheckInterval {
		t.Errorf("ran %d cycles after cancel at 100; want within ~%d", n, ctxCheckInterval)
	}
}

// TestRunContextPreCanceled: an already-fired context still stops the run
// at the first check instead of simulating to the watchdog.
func TestRunContextPreCanceled(t *testing.T) {
	eng := NewEngine()
	eng.Register("spin", TickFunc(func(uint64) bool { return true }))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n, err := eng.RunContext(ctx, func() bool { return false }, 1<<40)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if n > 2*ctxCheckInterval {
		t.Errorf("pre-canceled run still simulated %d cycles", n)
	}
}

// TestRunContextDeadline: an expired deadline returns ErrDeadline carrying
// the engine diagnosis, so a wedged run still says which unit held work.
func TestRunContextDeadline(t *testing.T) {
	eng := NewEngine()
	eng.Register("wedged-unit", TickFunc(func(uint64) bool { return true }))
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err := eng.RunContext(ctx, func() bool { return false }, 1<<40)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if !strings.Contains(err.Error(), "wedged-unit") || !strings.Contains(err.Error(), "busy") {
		t.Errorf("deadline error lacks component diagnosis: %v", err)
	}
}

// TestRunContextDoneWinsOverCancel: a run that completes never reports a
// context error, even if the context fires on the same cycle — completed
// work is not retroactively failed.
func TestRunContextDoneWinsOverCancel(t *testing.T) {
	eng := NewEngine()
	count := 0
	eng.Register("c", TickFunc(func(uint64) bool { count++; return true }))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n, err := eng.RunContext(ctx, func() bool { return count >= 1 }, 100)
	if err != nil || n != 1 {
		t.Fatalf("ran %d cycles, err %v; want 1 cycle, nil", n, err)
	}
}

// TestRunBackgroundUnaffected: the context path must not perturb the
// plain Run contract (byte-identity depends on it).
func TestRunBackgroundUnaffected(t *testing.T) {
	eng := NewEngine()
	count := 0
	eng.Register("c", TickFunc(func(uint64) bool { count++; return true }))
	n, err := eng.Run(func() bool { return count >= 5 }, 100)
	if err != nil || n != 5 {
		t.Fatalf("ran %d cycles, err %v; want 5, nil", n, err)
	}
}

// TestDiagnosisBounded: past diagnosisMaxComponents registered
// components, the dump lists busy components first, caps the listing, and
// says how many were elided — an ErrMaxCycles on the full 70-component
// system must not turn error strings into novels.
func TestDiagnosisBounded(t *testing.T) {
	eng := NewEngine()
	total := diagnosisMaxComponents + 8
	for i := 0; i < total; i++ {
		// Components 3 and total-1 stay busy; the rest quiesce instantly.
		busy := i == 3 || i == total-1
		eng.Register(fmt.Sprintf("comp%02d", i), TickFunc(func(uint64) bool { return busy }))
	}
	eng.Step() // let the idle components quiesce
	d := eng.Diagnosis()
	busyLine := regexp.MustCompile(`comp03\s+busy`)
	lastLine := regexp.MustCompile(fmt.Sprintf(`comp%02d\s+busy`, total-1))
	if !busyLine.MatchString(d) || !lastLine.MatchString(d) {
		t.Errorf("busy components missing from bounded diagnosis:\n%s", d)
	}
	if lines := strings.Count(d, "\n  "); lines > diagnosisMaxComponents+1 {
		t.Errorf("diagnosis lists %d lines, want at most %d plus the elision note", lines, diagnosisMaxComponents)
	}
	if !strings.Contains(d, "elided") {
		t.Errorf("over-cap diagnosis missing elision note:\n%s", d)
	}
}

// TestDiagnosisSmallSystemUnchanged: at or under the cap the dump still
// lists every component in registration order, no elision note.
func TestDiagnosisSmallSystemUnchanged(t *testing.T) {
	eng := NewEngine()
	eng.Register("a", TickFunc(func(uint64) bool { return true }))
	eng.Register("b", TickFunc(func(uint64) bool { return false }))
	eng.Step()
	d := eng.Diagnosis()
	ia := regexp.MustCompile(`\n\s+a\s+busy`).FindStringIndex(d)
	ib := regexp.MustCompile(`\n\s+b\s+idle`).FindStringIndex(d)
	if ia == nil || ib == nil || ib[0] < ia[0] {
		t.Errorf("small diagnosis lost registration order:\n%s", d)
	}
	if strings.Contains(d, "elided") {
		t.Errorf("small diagnosis has an elision note:\n%s", d)
	}
}
