package scale

import "fmt"

// noiseFloorNS is the minimum timed-run wall time for a rung's timing
// to enter the regression gate: a run measured in a couple of
// milliseconds has scheduler jitter larger than any threshold worth
// setting, so such rungs keep their determinism and identity checks but
// skip the ns-per-cycle comparison. 10ms keeps every workload whose
// curve the gate can meaningfully guard while excusing the bursty
// pipeline's sub-millisecond rungs.
const noiseFloorNS = 10_000_000

// Finding is one smoke-gate violation: a regression, an identity break,
// or a determinism drift between the committed baseline and a replay.
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
// what the baseline recorded); threshold is the allowed fractional
// ns-per-cycle regression (0.15 = 15%).
//
// The timing check is host-speed independent: both documents are
// normalized to their own rung 0 before comparing, so a uniformly faster
// or slower machine cancels out and only shape changes — one rung growing
// disproportionately — fail the gate. Absolute throughput is bench/'s
// ledger, not this gate. Rungs whose timed run (in either document)
// finished under noiseFloorNS are exempt from the timing check
// — their measurement is jitter-dominated — as is a whole series whose
// rung-0 anchor is that fast. Cycles, steps, and jumps are deterministic
// for a fixed configuration and compared for equality on every rung,
// floor or no floor: a drift there means the timing semantics or engine
// scheduling changed and the baseline must be regenerated deliberately.
func Compare(baseline, current *Doc, threshold float64, minRungs int) []Finding {
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
		want := minRungs
		if want > len(base.Rungs) {
			want = len(base.Rungs)
		}
		if len(cur.Rungs) < want {
			add(base.Workload, base.Axis, len(cur.Rungs),
				"replay completed %d rungs, want %d (wall: %s %s)",
				len(cur.Rungs), want, cur.Wall, cur.WallDetail)
		}
		n := len(cur.Rungs)
		if n > len(base.Rungs) {
			n = len(base.Rungs)
		}
		if n == 0 {
			continue
		}
		b0, c0 := base.Rungs[0].NsPerCycle, cur.Rungs[0].NsPerCycle
		for i := 0; i < n; i++ {
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
			if i == 0 || b0 <= 0 || c0 <= 0 || b.NsPerCycle <= 0 {
				continue
			}
			if base.Rungs[0].WallNS < noiseFloorNS || cur.Rungs[0].WallNS < noiseFloorNS ||
				b.WallNS < noiseFloorNS || c.WallNS < noiseFloorNS {
				continue
			}
			baseRatio, curRatio := b.NsPerCycle/b0, c.NsPerCycle/c0
			if curRatio > baseRatio*(1+threshold) {
				add(base.Workload, base.Axis, i,
					"ns-per-cycle regression: rung-0-normalized ratio %.2f, baseline %.2f (threshold %.0f%%)",
					curRatio, baseRatio, threshold*100)
			}
		}
	}
	return out
}
