package scale

import "fmt"

// Finding is one smoke-gate violation: an identity break, a determinism
// drift, or a series the replay did not reproduce.
type Finding struct {
	Workload string
	Axis     string
	Rung     int
	Msg      string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s/%s rung %d: %s", f.Workload, f.Axis, f.Rung, f.Msg)
}

// Compare checks a replayed document against the committed baseline and
// returns every violation (empty means the gate passes). minRungs is the
// number of rungs the replay must have completed per series (clamped to
// what the baseline recorded).
//
// Only exact columns gate: engine identity, the axis value, and the cycles,
// steps and jumps a fixed configuration always reproduces. A drift in the
// counters means the timing semantics or the engine's scheduling changed and
// the baseline must be regenerated deliberately. Wall time is not compared
// here (see Timing): on a shared host it moves by more than any bound worth
// setting.
func Compare(baseline, current *Doc, minRungs int) []Finding {
	var out []Finding
	add := func(w, a string, rung int, format string, args ...any) {
		out = append(out, Finding{Workload: w, Axis: a, Rung: rung, Msg: fmt.Sprintf(format, args...)})
	}
	for _, base := range baseline.Results {
		cur := current.Lookup(base.Workload, base.Axis)
		if cur == nil {
			add(base.Workload, base.Axis, 0, "series missing from replay")
			continue
		}
		if want := min(minRungs, len(base.Rungs)); len(cur.Rungs) < want {
			add(base.Workload, base.Axis, len(cur.Rungs),
				"replay completed %d rungs, want %d (wall: %s %s)",
				len(cur.Rungs), want, cur.Wall, cur.WallDetail)
		}
		for i := 0; i < min(len(cur.Rungs), len(base.Rungs)); i++ {
			b, c := base.Rungs[i], cur.Rungs[i]
			if c.Identity != "ok" {
				add(base.Workload, base.Axis, i, "engine identity break: %s", c.Identity)
				continue
			}
			if b.Value != c.Value {
				add(base.Workload, base.Axis, i, "axis value drift: baseline %d, replay %d", b.Value, c.Value)
				continue
			}
			if b.Cycles != c.Cycles {
				add(base.Workload, base.Axis, i,
					"cycle count drift: baseline %d, replay %d (timing semantics changed; regenerate the baseline)",
					b.Cycles, c.Cycles)
			}
			if b.Steps != c.Steps || b.Jumps != c.Jumps {
				add(base.Workload, base.Axis, i,
					"scheduling drift: baseline steps=%d jumps=%d, replay steps=%d jumps=%d (regenerate the baseline)",
					b.Steps, b.Jumps, c.Steps, c.Jumps)
			}
		}
	}
	return out
}

// Timing renders, for every rung past rung 0 that both documents hold, the
// ns-per-cycle ratio to the series' own rung 0 in the replay and in the
// baseline. Normalizing to rung 0 cancels a uniformly faster or slower host,
// so the lines show the growth curve's shape; they carry no verdict.
func Timing(baseline, current *Doc) []string {
	var out []string
	for _, base := range baseline.Results {
		cur := current.Lookup(base.Workload, base.Axis)
		if cur == nil || len(cur.Rungs) == 0 || len(base.Rungs) == 0 {
			continue
		}
		b0, c0 := base.Rungs[0].NsPerCycle, cur.Rungs[0].NsPerCycle
		if b0 <= 0 || c0 <= 0 {
			continue
		}
		for i := 1; i < min(len(cur.Rungs), len(base.Rungs)); i++ {
			out = append(out, fmt.Sprintf("%s/%s rung %d: ns/cycle %.2fx rung 0, baseline %.2fx",
				base.Workload, base.Axis, i, cur.Rungs[i].NsPerCycle/c0, base.Rungs[i].NsPerCycle/b0))
		}
	}
	return out
}
