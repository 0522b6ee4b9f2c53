// Package faultinject wraps workloads to inject faults — panics, in-sim
// stalls, and wall-clock slowness — at deterministic, configurable points.
// It exists to prove the serve/sweep stack's fault-isolation story instead
// of asserting it: a chaos-wrapped sweep must complete with the injected
// points failing individually (typed per-point errors, panic counters
// moving) while their siblings succeed and the process stays up.
//
// An Injector decides per job label, so a given spec + seed always faults
// the same points: tests and the CI chaos gate can assert exact outcomes.
// Two clause forms compose in one spec string (see Parse):
//
//	substr:fault     rule — any label containing substr gets fault
//	fault=p          probability — labels draw from a seeded hash
//
// Faults:
//
//	panic   Build panics (exercises panic containment and the panic counter)
//	stall   the kernel is replaced by an infinite spin loop (exercises the
//	        in-sim ErrMaxCycles watchdog and the wall-clock ErrDeadline)
//	slow    Build sleeps SlowFor before delegating (exercises deadlines and
//	        cancellation on points that are merely slow, not wedged)
//
// The package is test/chaos-only wiring: nothing in the production path
// imports it except the serve layer's hidden -chaos hook.
package faultinject

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"gsi/internal/cpu"
	"gsi/internal/gpu"
	"gsi/internal/isa"
	"gsi/internal/workloads"
)

// Fault is one injectable failure mode.
type Fault uint8

// The injectable failure modes; FaultNone leaves the workload untouched.
const (
	FaultNone Fault = iota
	FaultPanic
	FaultStall
	FaultSlow
)

// String names the fault as accepted in spec clauses.
func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultPanic:
		return "panic"
	case FaultStall:
		return "stall"
	case FaultSlow:
		return "slow"
	}
	return fmt.Sprintf("Fault(%d)", uint8(f))
}

func parseFault(s string) (Fault, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "panic":
		return FaultPanic, nil
	case "stall":
		return FaultStall, nil
	case "slow":
		return FaultSlow, nil
	}
	return FaultNone, fmt.Errorf("faultinject: unknown fault %q (want panic, stall, or slow)", s)
}

// rule is one deterministic substring clause.
type rule struct {
	substr string
	fault  Fault
}

// Injector decides, per job label, whether and how to sabotage a workload.
// The decision is a pure function of (spec, seed, label): rules win over
// probability draws, first matching rule first.
type Injector struct {
	// Seed perturbs the per-label probability draw.
	Seed uint64
	// SlowFor is how long a FaultSlow build sleeps (default 250ms).
	SlowFor time.Duration

	rules []rule
	// cumulative probability thresholds for the draw, in fault order
	// panic, stall, slow; zero when the spec has no probability clauses.
	pPanic, pStall, pSlow float64

	// Injected counts faults actually injected, by kind, for assertions.
	injected [4]atomic.Uint64
}

// Parse builds an Injector from a spec string: comma-separated clauses of
// the forms "substr:fault" (rule), "fault=p" (probability, p in [0,1]),
// "seed=n", and "slowms=n". An empty spec yields an injector that never
// faults.
func Parse(spec string) (*Injector, error) {
	in := &Injector{SlowFor: 250 * time.Millisecond}
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		if sub, fs, ok := strings.Cut(clause, ":"); ok {
			f, err := parseFault(fs)
			if err != nil {
				return nil, err
			}
			in.rules = append(in.rules, rule{substr: sub, fault: f})
			continue
		}
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("faultinject: bad clause %q (want substr:fault or key=value)", clause)
		}
		switch strings.ToLower(strings.TrimSpace(key)) {
		case "seed":
			n, err := strconv.ParseUint(strings.TrimSpace(val), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: bad seed %q: %v", val, err)
			}
			in.Seed = n
		case "slowms":
			n, err := strconv.Atoi(strings.TrimSpace(val))
			if err != nil || n < 0 {
				return nil, fmt.Errorf("faultinject: bad slowms %q", val)
			}
			in.SlowFor = time.Duration(n) * time.Millisecond
		case "panic", "stall", "slow":
			p, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
			// The NaN check matters: ParseFloat accepts "NaN", and NaN
			// fails neither range comparison, so it would slip through as
			// a probability that never fires.
			if err != nil || math.IsNaN(p) || p < 0 || p > 1 {
				return nil, fmt.Errorf("faultinject: bad probability %q", clause)
			}
			f, _ := parseFault(key)
			switch f {
			case FaultPanic:
				in.pPanic = p
			case FaultStall:
				in.pStall = p
			case FaultSlow:
				in.pSlow = p
			}
		default:
			return nil, fmt.Errorf("faultinject: unknown clause %q", clause)
		}
	}
	if in.pPanic+in.pStall+in.pSlow > 1 {
		return nil, fmt.Errorf("faultinject: probabilities sum past 1")
	}
	return in, nil
}

// Decide returns the fault (if any) for a job label.
func (in *Injector) Decide(label string) Fault {
	for _, r := range in.rules {
		if strings.Contains(label, r.substr) {
			return r.fault
		}
	}
	total := in.pPanic + in.pStall + in.pSlow
	if total == 0 {
		return FaultNone
	}
	u := draw(in.Seed, label)
	switch {
	case u < in.pPanic:
		return FaultPanic
	case u < in.pPanic+in.pStall:
		return FaultStall
	case u < total:
		return FaultSlow
	}
	return FaultNone
}

// draw maps (seed, label) to a uniform value in [0, 1) via FNV-1a — no
// global randomness, so a spec's outcome is reproducible run to run.
func draw(seed uint64, label string) float64 {
	h := uint64(14695981039346656037)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	for i := 0; i < 8; i++ {
		mix(byte(seed >> (8 * i)))
	}
	for i := 0; i < len(label); i++ {
		mix(label[i])
	}
	return float64(h>>11) / float64(1<<53)
}

// Injected returns how many times the given fault has actually been
// injected (a wrapped workload's Build ran and sabotaged the job).
func (in *Injector) Injected(f Fault) uint64 { return in.injected[f].Load() }

// Wrap returns w, sabotaged according to the injector's decision for
// label. FaultNone returns w unchanged.
func (in *Injector) Wrap(label string, w workloads.Instance) workloads.Instance {
	switch in.Decide(label) {
	case FaultPanic:
		return &faulty{w: w, fault: FaultPanic, in: in}
	case FaultStall:
		return &faulty{w: w, fault: FaultStall, in: in}
	case FaultSlow:
		return &faulty{w: w, fault: FaultSlow, in: in}
	}
	return w
}

// faulty is the sabotaged workload wrapper.
type faulty struct {
	w     workloads.Instance
	fault Fault
	in    *Injector
}

func (f *faulty) Name() string { return f.w.Name() }

func (f *faulty) Build(h *cpu.Host) (*gpu.Kernel, func(h *cpu.Host) error, error) {
	f.in.injected[f.fault].Add(1)
	switch f.fault {
	case FaultPanic:
		panic(fmt.Sprintf("faultinject: injected panic in workload %s", f.w.Name()))
	case FaultStall:
		return stallKernel(), func(*cpu.Host) error {
			return fmt.Errorf("faultinject: stalled workload reached verification")
		}, nil
	case FaultSlow:
		time.Sleep(f.in.SlowFor)
	}
	return f.w.Build(h)
}

// stallKernel returns a one-warp kernel that spins forever: the SM stays
// busy, the active set never drains, and the run ends only when the in-sim
// MaxCycles watchdog (ErrMaxCycles) or a wall-clock deadline (ErrDeadline)
// fires — exactly the two bounds the isolation layer must enforce.
func stallKernel() *gpu.Kernel {
	const rCount isa.Reg = 2
	b := isa.NewBuilder("faultinject-stall")
	spin := b.Here()
	b.AddI(rCount, rCount, 1)
	b.Br(spin)
	b.Exit() // unreachable; satisfies the builder's has-exit validation
	prog, err := b.Build()
	if err != nil {
		panic(fmt.Sprintf("faultinject: stall kernel failed to assemble: %v", err))
	}
	return &gpu.Kernel{
		Name:          "faultinject-stall",
		Program:       prog,
		Blocks:        1,
		WarpsPerBlock: 1,
		InitRegs:      func(block, warp int, regs *[isa.NumRegs]uint64) {},
	}
}
