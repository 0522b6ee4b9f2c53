// Package sim provides the deterministic cycle engine and the shared system
// configuration for the tightly coupled CPU-GPU simulator. All components
// advance in a fixed registration order each GPU cycle; no wall-clock time
// or map iteration order ever influences timing, so a given configuration
// always produces the identical result.
//
// A component tells the engine when it next needs a visit in two words:
// Tick's busy bool (pending work of its own, or none — then it sleeps until a
// Wake) and, optionally, NextEvent (the earliest cycle at which that work can
// change anything). The engine asks NextEvent once, right after a busy tick,
// and parks the component until the cycle it names or the first Wake.
//
// The engine runs in one of three modes that all produce byte-identical
// results and differ only in per-cycle cost:
//
//   - EngineDense ticks every component every cycle — the reference loop
//     (the oracle the other two are tested against).
//   - EngineQuiescent keeps a deterministic active set: an idle component
//     leaves it until something re-arms it through its registration Handle,
//     and a busy one whose next event lies beyond the next cycle is parked
//     until then. Because an idle component's Tick is required to be a pure
//     no-op, and a parked one's until its NextEvent, skipping them cannot
//     change the simulation.
//   - EngineSkip (the default) is the same loop with one more condition:
//     when a pass leaves nothing active, the clock jumps straight to the
//     earliest park instead of ticking through the gap. A component learns
//     of a jump only from the gap between its consecutive Tick cycles; one
//     that must account skipped cycles keeps its own local time (the GPU's
//     SMs credit the cycles they were parked through, see
//     docs/ARCHITECTURE.md).
//
// One goroutine owns an engine and everything registered with it from
// construction to the end of the run; nothing in a simulation is shared
// between goroutines (sweeps run whole simulations side by side instead).
//
// docs/ARCHITECTURE.md is the component author's guide to these
// contracts — the idle-tick no-op rule, Wake re-arming, parking on
// NextEvent, the never-under-promise contract, and SM naps — with each invariant
// cross-referenced to the test that enforces it.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"strings"
)

// Component is one simulated unit. Tick is called at most once per cycle, in
// registration order, and reports whether the component still has pending
// work of its own (queued messages, draining state machines, in-flight
// timers). A component that returns false is removed from the active set and
// will not tick again until woken via its Handle; its Tick must therefore be
// a pure no-op whenever it would return false, so that skipping the call is
// indistinguishable from making it.
type Component interface {
	Tick(cycle uint64) (busy bool)
}

// TickFunc adapts a function to the Component interface.
type TickFunc func(cycle uint64) bool

// Tick implements Component.
func (f TickFunc) Tick(cycle uint64) bool { return f(cycle) }

// NoEvent is the NextEvent return value of a component whose remaining work
// waits purely on external input (a message in flight toward it, a wake from
// another component): it has no internal timer of its own, so the engine
// parks it until a Wake, and the park bounds no skip-ahead jump.
const NoEvent = ^uint64(0)

// NextEventer is the optional Component extension that lets the engine park
// a busy component. NextEvent is called once, right after the component's own
// busy Tick at cycle now (and only if no Wake reached it during that tick),
// and returns the earliest cycle strictly after now at which ticking the
// component could change any state or produce any output — including
// per-cycle side effects a dense loop would accumulate (retry counters,
// one-entry-per-cycle drains). A component that cannot make that promise
// must return now+1; a component waiting only on external events returns
// NoEvent. NextEvent must be read-only: it must not mutate simulation state
// or wake other components.
//
// Because the question is asked mid-pass, a component registered later that
// changes this one's pending work in the same cycle must Wake it, exactly as
// it must wake an idle one.
//
// The contract is "never under-promise": reporting an event later than it
// really is loses simulated work; reporting it earlier than necessary only
// costs a wasted tick and is always safe.
type NextEventer interface {
	NextEvent(now uint64) uint64
}

// Diagnoser is an optional Component extension: Diagnose returns a short
// description of the component's pending work (queue depths, in-flight
// counts, state-machine phase) for the engine's deadlock dump.
type Diagnoser interface {
	Diagnose() string
}

// EngineMode selects the scheduling loop. The zero value is EngineSkip, the
// fastest mode; all modes produce byte-identical results.
type EngineMode uint8

const (
	// EngineSkip is the quiescence-aware loop plus event-driven
	// skip-ahead over windows in which every pending component is parked on
	// a timer.
	EngineSkip EngineMode = iota
	// EngineQuiescent is the quiescence-aware loop without skip-ahead:
	// idle components cost nothing, but the clock still advances one
	// cycle at a time.
	EngineQuiescent
	// EngineDense ticks every component every cycle — the reference loop
	// for cross-engine diff tests and scheduler-bug isolation.
	EngineDense
)

// String names the mode as accepted by the CLIs' -engine flag.
func (m EngineMode) String() string {
	switch m {
	case EngineSkip:
		return "skip"
	case EngineQuiescent:
		return "quiescent"
	case EngineDense:
		return "dense"
	}
	return fmt.Sprintf("EngineMode(%d)", uint8(m))
}

// ParseEngineMode parses a -engine flag value.
func ParseEngineMode(s string) (EngineMode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "skip", "skip-ahead", "skipahead":
		return EngineSkip, nil
	case "quiescent", "quiesce":
		return EngineQuiescent, nil
	case "dense":
		return EngineDense, nil
	}
	return EngineSkip, fmt.Errorf("sim: unknown engine mode %q (want dense, quiescent, or skip)", s)
}

// Handle re-arms a registered component. Waking is idempotent and may happen
// at any point, including during the woken component's own tick: if the
// component's slot in the current cycle has already passed, it ticks again
// starting next cycle — exactly when a dense loop would first let it observe
// work created after its slot.
type Handle struct {
	e  *Engine
	id int
}

// Wake puts the component back in the active set, ending its park if it has
// one.
func (h Handle) Wake() {
	e := h.e
	w, mask := bitOf(h.id)
	if e.parked[w]&mask != 0 {
		e.parked[w] &^= mask
		e.parkedCount--
		if t := e.parkUntil[h.id]; t == e.parkDue && t != NoEvent {
			e.rearmDue()
		}
	}
	if e.active[w]&mask == 0 {
		e.active[w] |= mask
		e.activeCount++
	}
}

// EngineStats counts scheduling work for benchmarks and tests; it is not
// part of any Report's JSON (all engine modes produce identical Reports).
type EngineStats struct {
	// Steps is the number of cycles actually executed (tick passes).
	Steps uint64 `json:"steps"`
	// Visits is the number of component Tick calls the engine made: Steps
	// times the components registered under the dense engine, and what
	// was awake in each step under the others.
	Visits uint64 `json:"visits"`
	// Jumps is the number of skip-ahead jumps taken.
	Jumps uint64 `json:"jumps"`
	// SkippedCycles is the total width of all jumped windows: simulated
	// cycles that were accounted without a tick pass.
	SkippedCycles uint64 `json:"skippedCycles"`
	// Naps counts the windows of at least one cycle in which an SM did not
	// tick and its frozen classification was credited in bulk instead, and
	// NappedSMCycles the SM-cycles those windows credited (the drained tail
	// included); both are zero under the dense engine, which ticks every SM
	// every cycle. They are produced by the GPU's SMs, not the engine: an
	// SM naps whether or not the global clock jumps.
	Naps           uint64 `json:"naps"`
	NappedSMCycles uint64 `json:"nappedSMCycles"`

	// Deprecated: ExpressDeliveries counted express-routed mesh deliveries.
	// Express routing is deleted; nothing writes or reads the field, it is
	// always zero and is left out of the JSON encoding. It survives only
	// because bench/layers.go compiles against it; the benchmark PR that
	// retires the parallel2/express_off ladder rows and the
	// noc.express_* metrics removes it.
	ExpressDeliveries uint64 `json:"-"`
	// Deprecated: ExpressDemotions counted express flits demoted to per-hop
	// routing. Always zero; same status and same follow-up as
	// ExpressDeliveries.
	ExpressDemotions uint64 `json:"-"`
}

// Observer receives engine scheduling events for structured tracing
// (implemented by trace.Collector; defined here so sim stays free of trace
// dependencies).
type Observer interface {
	// Jump reports a skip-ahead jump: the clock advanced from from
	// straight to to without a tick pass.
	Jump(from, to uint64)
}

// Engine drives the simulation: a single-threaded cycle loop over the
// registered components that skips components with no pending work, parks
// the ones whose next event lies beyond the next cycle, and, in skip mode,
// jumps the clock when every pending component is parked.
type Engine struct {
	cycle uint64
	comps []Component
	names []string
	mode  EngineMode

	// active is the active set, one bit per component in registration
	// order, so a tick pass visits set bits and costs nothing for sleepers.
	// parked marks the components sleeping until a cycle their NextEvent
	// named; parkUntil holds those cycles and parkDue the earliest of them
	// (NoEvent when there is none). No component is in both sets.
	active      []uint64
	activeCount int
	parked      []uint64
	parkedCount int
	parkUntil   []uint64
	parkDue     uint64

	// nexters caches the NextEventer assertion per component (nil when
	// not implemented), so asking a due cycle costs no interface type
	// switch.
	nexters []NextEventer

	// skipLimit bounds jumps so the watchdog in Run fires at exactly the
	// same cycle it would under the dense loop.
	skipLimit uint64

	stats EngineStats
	// obs, when set, receives jump events (see Observer); nil costs one
	// pointer test per jump.
	obs Observer
}

// NewEngine returns an empty engine at cycle 0 in the default (skip-ahead)
// mode.
func NewEngine() *Engine { return &Engine{skipLimit: NoEvent, parkDue: NoEvent} }

// SetMode selects the scheduling loop.
func (e *Engine) SetMode(m EngineMode) { e.mode = m }

// Mode returns the current scheduling loop.
func (e *Engine) Mode() EngineMode { return e.mode }

// Stats returns scheduling counters accumulated since construction.
func (e *Engine) Stats() EngineStats { return e.stats }

// SetObserver installs (or, with nil, removes) the scheduling-event
// observer. Observation never changes scheduling decisions or results.
func (e *Engine) SetObserver(o Observer) { e.obs = o }

// Register appends a component to the tick order and returns its wake
// handle. Registration order defines evaluation order within a cycle;
// callers register producers before consumers (NoC before caches before
// cores) so messages sent in cycle N are visible no earlier than N+1.
// Components start active and are guaranteed at least one tick.
func (e *Engine) Register(name string, c Component) Handle {
	id := len(e.comps)
	e.comps = append(e.comps, c)
	e.names = append(e.names, name)
	if id&63 == 0 {
		e.active = append(e.active, 0)
		e.parked = append(e.parked, 0)
	}
	w, mask := bitOf(id)
	e.active[w] |= mask
	e.activeCount++
	e.parkUntil = append(e.parkUntil, NoEvent)
	ne, _ := c.(NextEventer)
	e.nexters = append(e.nexters, ne)
	return Handle{e: e, id: id}
}

// Cycle returns the current cycle (the number of completed cycles).
func (e *Engine) Cycle() uint64 { return e.cycle }

// LastTick returns the cycle of the most recent completed tick — the "now"
// a component would have observed during it, and the reference cycle for
// direct probes made between engine steps (clamped to 0 before any tick).
func (e *Engine) LastTick() uint64 {
	if e.cycle > 0 {
		return e.cycle - 1
	}
	return 0
}

// ErrMaxCycles is returned by Run when the cycle limit is reached before
// done reports completion — the simulator equivalent of a watchdog timeout,
// and almost always a deadlocked workload or protocol bug.
var ErrMaxCycles = errors.New("sim: max cycles exceeded")

// ErrStalled is returned by Run when every component has quiesced but done
// still reports false: no tick can ever change anything again, so the run
// can never complete. It carries the same diagnosis dump as ErrMaxCycles.
var ErrStalled = errors.New("sim: all components idle before completion")

// ErrDeadline is returned by RunContext when the context's wall-clock
// deadline expires mid-run. Unlike ErrMaxCycles (an in-sim watchdog on
// simulated cycles) this is a bound on real time; it carries the same
// per-component diagnosis dump, so a deadline on a wedged simulation still
// says which unit held work.
var ErrDeadline = errors.New("sim: wall-clock deadline exceeded")

// ErrCanceled is returned by RunContext when the context is canceled
// mid-run — a deliberate stop (job deletion, shutdown), so no diagnosis
// dump is attached.
var ErrCanceled = errors.New("sim: run canceled")

// ctxCheckInterval is the number of engine iterations (tick passes or
// skip-ahead jumps) between cooperative context checks in RunContext. The
// poll is a non-blocking select, so the steady-state cost is one channel
// check per interval; cancellation latency is bounded by the wall-clock
// cost of one interval's worth of tick passes.
const ctxCheckInterval = 1024

// Run advances the simulation until done returns true with no external
// cancellation: RunContext under context.Background().
func (e *Engine) Run(done func() bool, maxCycles uint64) (uint64, error) {
	return e.RunContext(context.Background(), done, maxCycles)
}

// RunContext advances the simulation until done returns true, checking done
// before every cycle. It returns the number of cycles executed by this call.
// Both failure modes — the watchdog limit and a fully quiesced-but-unfinished
// system — append a per-component diagnosis so the dump says which unit
// still held work instead of leaving a timeout opaque.
//
// ctx is polled cooperatively every ctxCheckInterval iterations, at tick/jump
// boundaries only — never mid-cycle — so cancellation cannot perturb
// simulation state: a run that completes did exactly what an uncancellable
// run would have done. A fired deadline returns ErrDeadline (with the
// diagnosis dump); any other cancellation returns ErrCanceled.
func (e *Engine) RunContext(ctx context.Context, done func() bool, maxCycles uint64) (uint64, error) {
	start := e.cycle
	e.skipLimit = NoEvent
	if maxCycles < NoEvent-start {
		// Jumping past the watchdog would report a different cycle count
		// than the dense loop; clamp jumps to the limit instead.
		e.skipLimit = start + maxCycles
	}
	defer func() { e.skipLimit = NoEvent }()
	ctxDone := ctx.Done()
	sincePoll := 0
	for !done() {
		if e.cycle-start >= maxCycles {
			return e.cycle - start, fmt.Errorf("%w (%d)\n%s", ErrMaxCycles, maxCycles, e.Diagnosis())
		}
		if e.mode != EngineDense && e.activeCount+e.parkedCount == 0 {
			return e.cycle - start, fmt.Errorf("%w (cycle %d)\n%s", ErrStalled, e.cycle, e.Diagnosis())
		}
		if ctxDone != nil {
			if sincePoll++; sincePoll >= ctxCheckInterval {
				sincePoll = 0
				select {
				case <-ctxDone:
					return e.cycle - start, e.contextError(ctx)
				default:
				}
			}
		}
		e.Step()
	}
	return e.cycle - start, nil
}

// contextError converts a fired context into the engine's typed error: a
// deadline becomes ErrDeadline with the diagnosis dump (the caller wants to
// know what the simulation was stuck on), a plain cancel becomes ErrCanceled
// without one (the caller asked for the stop).
func (e *Engine) contextError(ctx context.Context) error {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return fmt.Errorf("%w (cycle %d)\n%s", ErrDeadline, e.cycle, e.Diagnosis())
	}
	return fmt.Errorf("%w (cycle %d)", ErrCanceled, e.cycle)
}

// Step executes exactly one cycle: every active component ticks in
// registration order (every component, in dense mode), after the parked
// components that fall due this cycle have rejoined the active set. A
// component woken during the pass ticks this cycle if its slot has not passed
// yet, next cycle otherwise — matching when the dense loop would first have
// it see the new work.
//
// Outside dense mode a component whose Tick returns busy, and which no Wake
// reached during that tick, is asked its NextEvent once; an answer beyond the
// next cycle parks it until then. In skip mode, a completed cycle that leaves
// nothing active advances the clock straight to the earliest park.
func (e *Engine) Step() {
	if e.parkDue <= e.cycle {
		e.rearmDue()
	}
	if e.mode == EngineDense {
		for i, c := range e.comps {
			w, mask := bitOf(i)
			if e.active[w]&mask != 0 {
				e.active[w] &^= mask
				e.activeCount--
			}
			if c.Tick(e.cycle) && e.active[w]&mask == 0 {
				e.active[w] |= mask
				e.activeCount++
			}
		}
		e.stats.Visits += uint64(len(e.comps))
	} else {
		next := e.cycle + 1
		for w := range e.active {
			for word := e.active[w]; word != 0; {
				b := bits.TrailingZeros64(word)
				mask := uint64(1) << b
				i := w<<6 | b
				e.active[w] &^= mask
				e.activeCount--
				e.stats.Visits++
				if e.comps[i].Tick(e.cycle) && e.active[w]&mask == 0 {
					due := next
					if ne := e.nexters[i]; ne != nil {
						due = ne.NextEvent(e.cycle)
					}
					if due > next {
						e.parked[w] |= mask
						e.parkedCount++
						e.parkUntil[i] = due
						e.parkDue = min(e.parkDue, due)
					} else {
						e.active[w] |= mask
						e.activeCount++
					}
				}
				// Re-read the word: a bit set mid-pass above this slot is
				// a component whose turn has not passed yet.
				word = e.active[w] &^ (mask<<1 - 1)
			}
		}
	}
	e.cycle++
	e.stats.Steps++
	// A park until NoEvent waits for a Wake that only an active component
	// could send: it never licenses a jump, so a run that can end only at
	// the watchdog or the stall detector ends there on the dense loop's cycle.
	if e.mode == EngineSkip && e.activeCount == 0 && e.parkDue != NoEvent {
		if target := min(e.parkDue, e.skipLimit); target > e.cycle {
			e.stats.Jumps++
			e.stats.SkippedCycles += target - e.cycle
			if e.obs != nil {
				e.obs.Jump(e.cycle, target)
			}
			e.cycle = target
		}
	}
}

// rearmDue moves every parked component whose cycle has come back into the
// active set and sets parkDue to the earliest due cycle of the rest, in one
// pass over the parked words.
func (e *Engine) rearmDue() {
	due := NoEvent
	for w, word := range e.parked {
		for ; word != 0; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			if t := e.parkUntil[w<<6|b]; t > e.cycle {
				due = min(due, t)
				continue
			}
			mask := uint64(1) << b
			e.parked[w] &^= mask
			e.parkedCount--
			e.active[w] |= mask
			e.activeCount++
		}
	}
	e.parkDue = due
}

// bitOf returns component i's word index and mask in the active and parked
// bitmaps.
func bitOf(i int) (w int, mask uint64) { return i >> 6, 1 << (i & 63) }

// isActive reports whether component i is in the active set.
func (e *Engine) isActive(i int) bool {
	w, mask := bitOf(i)
	return e.active[w]&mask != 0
}

// isParked reports whether component i is parked.
func (e *Engine) isParked(i int) bool {
	w, mask := bitOf(i)
	return e.parked[w]&mask != 0
}

// ActiveCount reports how many components are in the active set (parked
// components are pending but not in it).
func (e *Engine) ActiveCount() int { return e.activeCount }

// diagnosisMaxComponents bounds the Diagnosis dump. The dump is embedded in
// ErrMaxCycles/ErrStalled/ErrDeadline error strings, which the serve layer
// stores per job and ships over SSE — on large meshes an unbounded dump
// grows linearly with component count. Busy and parked components carry the
// signal (they are what a deadlock dump exists to name), so they are listed
// first; idle ones fill the remaining budget and the rest collapse into one
// elision note.
const diagnosisMaxComponents = 32

// Diagnosis renders registered components' names, busy/parked/idle state,
// next-event time (for NextEventers), and (for Diagnosers) pending-work
// description — the deadlock dump attached to ErrMaxCycles, ErrStalled, and
// ErrDeadline. The next-event column says when each busy component expected
// to make progress; "external" marks a component waiting purely on input
// from others, and a parked component shows the cycle it parked until. At
// most diagnosisMaxComponents components are listed — all of them in
// registration order when the system fits, otherwise busy components first,
// then parked, then idle (each still in registration order) with a trailing
// note counting what was elided.
func (e *Engine) Diagnosis() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "engine diagnosis at cycle %d (%d/%d components busy, %d parked):\n",
		e.cycle, e.activeCount, len(e.comps), e.parkedCount)
	now := e.LastTick()
	const busy, parked, idle = 0, 1, 2
	stateOf := func(i int) int {
		switch {
		case e.isActive(i):
			return busy
		case e.isParked(i):
			return parked
		}
		return idle
	}
	line := func(i int) {
		c := e.comps[i]
		fmt.Fprintf(&sb, "  %-10s ", e.names[i])
		switch stateOf(i) {
		case busy:
			sb.WriteString("busy")
			if ne, ok := c.(NextEventer); ok {
				if t := ne.NextEvent(now); t == NoEvent {
					sb.WriteString("  next-event=external")
				} else {
					fmt.Fprintf(&sb, "  next-event=%d", t)
				}
			}
		case parked:
			if t := e.parkUntil[i]; t == NoEvent {
				sb.WriteString("parked until woken")
			} else {
				fmt.Fprintf(&sb, "parked until %d", t)
			}
		default:
			sb.WriteString("idle")
		}
		if d, ok := c.(Diagnoser); ok {
			fmt.Fprintf(&sb, "  %s", d.Diagnose())
		}
		sb.WriteByte('\n')
	}
	if len(e.comps) <= diagnosisMaxComponents {
		for i := range e.comps {
			line(i)
		}
		return sb.String()
	}
	printed := 0
	for state := busy; state <= idle; state++ {
		for i := range e.comps {
			if stateOf(i) == state && printed < diagnosisMaxComponents {
				line(i)
				printed++
			}
		}
	}
	fmt.Fprintf(&sb, "  ... %d more components elided (dump capped at %d)\n",
		len(e.comps)-printed, diagnosisMaxComponents)
	return sb.String()
}
