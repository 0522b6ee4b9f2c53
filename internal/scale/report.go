package scale

import (
	"fmt"
	"strings"
)

// Markdown renders the ceiling report: one section per (workload, axis)
// series with the rung table, the first knee, and the wall that stopped
// the growth — the human-readable companion to BENCH_scale.json.
func (d *Doc) Markdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# Scale ceilings\n\n")
	fmt.Fprintf(&sb, "Generated by gsi-scale (%s). Each series grows one axis from the\n", d.Date)
	fmt.Fprintf(&sb, "SmallScale base until a wall; every rung asserts dense and skip engine\n")
	fmt.Fprintf(&sb, "byte-identity. Machine-readable form: BENCH_scale.json.\n\n")
	fmt.Fprintf(&sb, "Host: %s\n\n", d.Host)
	if d.Note != "" {
		fmt.Fprintf(&sb, "Note: %s\n\n", d.Note)
	}
	for _, res := range d.Results {
		fmt.Fprintf(&sb, "## %s / %s axis\n\n", res.Workload, res.Axis)
		fmt.Fprintf(&sb, "| rung | value | cycles | ns/cycle | jumps | skipped | rss KB | identity |\n")
		fmt.Fprintf(&sb, "|-----:|------:|-------:|---------:|------:|--------:|-------:|----------|\n")
		for _, r := range res.Rungs {
			fmt.Fprintf(&sb, "| %d | %d | %d | %.0f | %d | %d | %d | %s |\n",
				r.Rung, r.Value, r.Cycles, r.NsPerCycle, r.Jumps, r.SkippedCycles, r.RSSKB, r.Identity)
		}
		sb.WriteString("\n")
		if res.FirstKnee != nil {
			fmt.Fprintf(&sb, "First knee: rung %d (value %d), %.2fx the best ns/cycle so far.\n",
				res.FirstKnee.Rung, res.FirstKnee.Value, res.FirstKnee.Ratio)
		} else {
			fmt.Fprintf(&sb, "First knee: none — throughput stayed within the knee factor.\n")
		}
		wall := res.Wall
		if res.WallDetail != "" {
			wall += " (" + res.WallDetail + ")"
		}
		fmt.Fprintf(&sb, "Wall: %s.\n\n", wall)
	}
	return sb.String()
}
