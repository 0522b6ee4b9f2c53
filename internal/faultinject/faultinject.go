// Package faultinject wraps workloads to inject faults — panics, in-sim
// stalls, and wall-clock slowness — at deterministic, configurable points.
// It exists to prove the serve/sweep stack's fault-isolation story instead
// of asserting it: a chaos-wrapped sweep must complete with the injected
// points failing individually (typed per-point errors, panic counters
// moving) while their siblings succeed and the process stays up.
//
// An Injector decides per job label, so a given spec always faults the
// same points: tests and the CI chaos gate can assert exact outcomes. Two
// clause forms compose in one spec string (see Parse):
//
//	substr:fault     rule — any label containing substr gets fault
//	slowms=n         how long a slow fault sleeps, in milliseconds
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
// The decision is a pure function of (spec, label): the first matching
// rule wins.
type Injector struct {
	// SlowFor is how long a FaultSlow build sleeps (default 250ms).
	SlowFor time.Duration

	rules []rule

	// Injected counts faults actually injected, by kind, for assertions.
	injected [4]atomic.Uint64
}

// Parse builds an Injector from a spec string: comma-separated clauses of
// the forms "substr:fault" (rule) and "slowms=n". An empty spec yields an
// injector that never faults.
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
			return nil, fmt.Errorf("faultinject: bad clause %q (want substr:fault or slowms=n)", clause)
		}
		if !strings.EqualFold(strings.TrimSpace(key), "slowms") {
			return nil, fmt.Errorf("faultinject: unknown clause %q", clause)
		}
		n, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("faultinject: bad slowms %q", val)
		}
		in.SlowFor = time.Duration(n) * time.Millisecond
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
	return FaultNone
}

// Injected returns how many times the given fault has actually been
// injected (a wrapped workload's Build ran and sabotaged the job).
func (in *Injector) Injected(f Fault) uint64 { return in.injected[f].Load() }

// Wrap returns w, sabotaged according to the injector's decision for
// label. FaultNone returns w unchanged.
func (in *Injector) Wrap(label string, w workloads.Instance) workloads.Instance {
	if f := in.Decide(label); f != FaultNone {
		return &faulty{w: w, fault: f, in: in}
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
