package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"gsi/internal/core"
)

// Chrome trace-event export: the object form of the trace-event format,
// loadable in Perfetto and chrome://tracing. One simulated cycle maps to
// one microsecond of trace time (ts and dur are in µs by the format's
// definition), so the UI's time axis reads directly as cycles.
//
// Track layout:
//
//	pid 1 "SMs"    — one thread per SM ("SM0".."SMn"); stall spans as
//	                 complete ("X") slices named by stall kind, colored
//	                 per kind, with the sub-cause in args.
//	pid 2 "engine" — thread 0 "clock jumps": each skip-ahead jump as a
//	                 slice spanning the jumped window.

// chromeEvent is one trace-event entry. Fields follow the trace-event
// format's names exactly.
type chromeEvent struct {
	Name  string         `json:"name"`
	Ph    string         `json:"ph"`
	Ts    uint64         `json:"ts"`
	Dur   uint64         `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Cat   string         `json:"cat,omitempty"`
	Cname string         `json:"cname,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

const (
	pidSMs    = 1
	pidEngine = 2
)

// kindColors maps each stall kind to a trace-viewer reserved color name, so
// the timeline is readable without custom categories.
var kindColors = [core.NumStallKinds]string{
	core.NoStall:        "thread_state_running",
	core.Idle:           "grey",
	core.Control:        "yellow",
	core.Sync:           "thread_state_runnable",
	core.MemData:        "thread_state_iowait",
	core.MemStructural:  "terrible",
	core.CompData:       "rail_animation",
	core.CompStructural: "olive",
}

// WriteChromeTrace writes the collected events as Chrome trace-event JSON.
// The document is the object form ({"traceEvents": [...], ...}) with the
// collector's dropped-event counters in otherData, so a truncated trace
// declares itself.
func (c *Collector) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	spanDrop, jumpDrop, loadDrop := c.Dropped()
	meta := map[string]any{
		"tool":              "gsi",
		"clock":             "1 cycle = 1us",
		"droppedSpanCycles": spanDrop,
		"droppedJumps":      jumpDrop,
		"droppedLoads":      loadDrop,
	}
	metaDoc, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "{\"otherData\":%s,\"traceEvents\":[", metaDoc); err != nil {
		return err
	}
	first := true
	emit := func(ev chromeEvent) error {
		doc, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if !first {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		first = false
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
		_, err = bw.Write(doc)
		return err
	}

	// Metadata: process and thread names for every track.
	named := func(pid int, name string) error {
		return emit(chromeEvent{Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": name}})
	}
	thread := func(pid, tid int, name string) error {
		return emit(chromeEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": name}})
	}
	if err := named(pidSMs, "SMs"); err != nil {
		return err
	}
	for sm := range c.sms {
		if err := thread(pidSMs, sm, fmt.Sprintf("SM%d", sm)); err != nil {
			return err
		}
	}
	if err := named(pidEngine, "engine"); err != nil {
		return err
	}
	if err := thread(pidEngine, 0, "clock jumps"); err != nil {
		return err
	}

	// Per-SM stall slices.
	for sm := range c.sms {
		for _, s := range c.sms[sm].spans {
			args := map[string]any{
				"kind":   s.Class.Kind.String(),
				"cycles": s.Cycles,
			}
			if sub := c.SubCause(sm, s); sub != "" {
				args["cause"] = sub
			}
			if err := emit(chromeEvent{
				Name: s.Class.Kind.String(), Ph: "X",
				Ts: s.Start, Dur: s.Cycles,
				Pid: pidSMs, Tid: sm, Cat: "stall",
				Cname: kindColors[s.Class.Kind], Args: args,
			}); err != nil {
				return err
			}
		}
	}

	// Engine track: jumps as slices over the jumped window.
	for _, j := range c.jumps {
		if err := emit(chromeEvent{
			Name: "jump", Ph: "X", Ts: j.From, Dur: j.To - j.From,
			Pid: pidEngine, Tid: 0, Cat: "engine", Cname: "good",
			Args: map[string]any{"from": j.From, "to": j.To, "width": j.To - j.From},
		}); err != nil {
			return err
		}
	}

	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
