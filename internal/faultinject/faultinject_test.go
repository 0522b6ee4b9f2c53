package faultinject_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"gsi"
	"gsi/internal/cpu"
	"gsi/internal/faultinject"
	"gsi/internal/gpu"
	"gsi/internal/mem"
)

// stub is a minimal underlying workload for wrapper-level tests.
type stub struct{ built int }

func (s *stub) Name() string { return "stub" }

func (s *stub) Build(h *cpu.Host) (*gpu.Kernel, func(h *cpu.Host) error, error) {
	s.built++
	return nil, nil, errors.New("stub: not a runnable workload")
}

func TestParseSpec(t *testing.T) {
	in, err := faultinject.Parse("seed=7, uts:panic, implicit:stall, slow=0.25, slowms=10")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if in.Seed != 7 {
		t.Errorf("Seed = %d, want 7", in.Seed)
	}
	if in.SlowFor != 10*time.Millisecond {
		t.Errorf("SlowFor = %v, want 10ms", in.SlowFor)
	}
	if got := in.Decide("uts/denovo"); got != faultinject.FaultPanic {
		t.Errorf("Decide(uts/denovo) = %v, want panic", got)
	}
	if got := in.Decide("implicit/scratch"); got != faultinject.FaultStall {
		t.Errorf("Decide(implicit/scratch) = %v, want stall", got)
	}

	for _, bad := range []string{
		"uts:explode",         // unknown fault
		"panic=1.5",           // probability out of range
		"panic=0.7,slow=6",    // bad probability
		"frobnicate",          // not a clause
		"seed=x",              // bad seed
		"panic=0.8,stall=0.8", // sums past 1
	} {
		if _, err := faultinject.Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}

	none, err := faultinject.Parse("")
	if err != nil {
		t.Fatalf("Parse(empty): %v", err)
	}
	if got := none.Decide("anything"); got != faultinject.FaultNone {
		t.Errorf("empty spec Decide = %v, want none", got)
	}
}

func TestDecideIsDeterministic(t *testing.T) {
	a, _ := faultinject.Parse("seed=42,panic=0.3,stall=0.3,slow=0.3")
	b, _ := faultinject.Parse("seed=42,panic=0.3,stall=0.3,slow=0.3")
	counts := map[faultinject.Fault]int{}
	labels := []string{"uts/a", "uts/b", "implicit/1", "implicit/2", "bfs", "spmv", "gups", "pipeline"}
	for _, l := range labels {
		fa, fb := a.Decide(l), b.Decide(l)
		if fa != fb {
			t.Fatalf("Decide(%q) differs between identical injectors: %v vs %v", l, fa, fb)
		}
		counts[fa]++
	}
	// With p(fault)=0.9 over 8 labels, at least one label must draw a fault;
	// the draw is a fixed hash, so this cannot flake.
	if counts[faultinject.FaultNone] == len(labels) {
		t.Errorf("no label drew a fault under panic+stall+slow=0.9")
	}

	// A different seed must change at least one decision across the labels.
	c, _ := faultinject.Parse("seed=43,panic=0.3,stall=0.3,slow=0.3")
	same := true
	for _, l := range labels {
		if a.Decide(l) != c.Decide(l) {
			same = false
			break
		}
	}
	if same {
		t.Errorf("seed change did not alter any decision")
	}
}

func TestWrapPanicAndCounters(t *testing.T) {
	in, _ := faultinject.Parse("stub:panic")
	w := in.Wrap("stub/point", &stub{})
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("wrapped Build did not panic")
			}
			if !strings.Contains(r.(string), "injected panic") {
				t.Errorf("panic value %q missing injection marker", r)
			}
		}()
		w.Build(cpu.NewHost(mem.NewBacking()))
	}()
	if got := in.Injected(faultinject.FaultPanic); got != 1 {
		t.Errorf("Injected(panic) = %d, want 1", got)
	}
}

func TestWrapSlowDelegates(t *testing.T) {
	in, _ := faultinject.Parse("stub:slow,slowms=1")
	s := &stub{}
	w := in.Wrap("stub/point", s)
	if _, _, err := w.Build(cpu.NewHost(mem.NewBacking())); err == nil || s.built != 1 {
		t.Fatalf("slow wrapper did not delegate (built=%d, err=%v)", s.built, err)
	}
	if got := in.Injected(faultinject.FaultSlow); got != 1 {
		t.Errorf("Injected(slow) = %d, want 1", got)
	}
}

func TestWrapNoneReturnsUnderlying(t *testing.T) {
	in, _ := faultinject.Parse("other:panic")
	s := &stub{}
	if w := in.Wrap("stub/point", s); w != gsi.Workload(s) {
		t.Errorf("unfaulted Wrap returned a wrapper, want the underlying workload")
	}
}

// implicitWorkload builds the registry's implicit microbenchmark at its
// defaults (baseline scratchpad).
func implicitWorkload(t *testing.T) gsi.Workload {
	t.Helper()
	e, _ := gsi.Workloads().Lookup("implicit")
	w, err := e.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestStallHitsWatchdog runs a stall-injected workload under the real
// engine and asserts the in-sim MaxCycles watchdog converts it into a
// typed, diagnosable error instead of a hang.
func TestStallHitsWatchdog(t *testing.T) {
	in, _ := faultinject.Parse("implicit:stall")
	w := in.Wrap("implicit/scratch", implicitWorkload(t))
	opt := gsi.Options{System: gsi.DefaultConfig()}
	opt.System.MaxCycles = 20_000
	_, err := gsi.Run(opt, w)
	if !errors.Is(err, gsi.ErrMaxCycles) {
		t.Fatalf("stalled run returned %v, want ErrMaxCycles", err)
	}
	if got := in.Injected(faultinject.FaultStall); got != 1 {
		t.Errorf("Injected(stall) = %d, want 1", got)
	}
}

// TestStallHitsDeadline asserts the wall-clock bound fires on a wedged
// simulation well before the (deliberately huge) in-sim watchdog, and
// that the deadline error carries the engine diagnosis.
func TestStallHitsDeadline(t *testing.T) {
	in, _ := faultinject.Parse("implicit:stall")
	w := in.Wrap("implicit/scratch", implicitWorkload(t))
	opt := gsi.Options{System: gsi.DefaultConfig()}
	opt.System.MaxCycles = 1 << 62
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := gsi.RunContext(ctx, opt, w)
	if !errors.Is(err, gsi.ErrDeadline) {
		t.Fatalf("deadline run returned %v, want ErrDeadline", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("deadline took %v to fire", elapsed)
	}
	if !strings.Contains(err.Error(), "cycle") {
		t.Errorf("deadline error %q carries no diagnosis", err)
	}
}
