package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// traceEvent is one Chrome trace-event record (chrome://tracing, Perfetto).
// Times are microseconds.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

func threadName(pid, tid int, name string) traceEvent {
	return traceEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid, Args: map[string]any{"name": name}}
}

// simEvents renders traced simulations: one process per run, track 0 for
// the phase spans (run -> setup, simulate, finish and their children) and
// one track per layer holding that layer's tick spans, aggregated into
// traceWindows cycle windows (unit ticks, busy ticks, total ns each).
func simEvents(runs []*tracedRun) []traceEvent {
	var evs []traceEvent
	for i, r := range runs {
		pid := i + 1
		base := int64(r.begin.Sub(runs[0].begin))
		span := func(name string, tid int, start, dur int64, args map[string]any) {
			evs = append(evs, traceEvent{Name: name, Ph: "X", Ts: us(base + start), Dur: us(dur), Pid: pid, Tid: tid, Args: args})
		}
		evs = append(evs, traceEvent{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": r.label}},
			threadName(pid, 0, "phases"))
		setup := r.gpuNew + r.build
		span("run", 0, 0, r.total, map[string]any{"cycles": r.cycles})
		span("setup", 0, 0, setup, nil)
		span("gpu.new", 0, 0, r.gpuNew, nil)
		span("workloads.build", 0, r.gpuNew, r.build, nil)
		span("simulate", 0, setup, r.simulate, nil)
		span("finish", 0, setup+r.simulate, r.verify, nil)
		span("workloads.verify", 0, setup+r.simulate, r.verify, nil)
		for l, name := range layerNames {
			tid := l + 1
			evs = append(evs, threadName(pid, tid, name))
			for win, aggs := range r.windows {
				if r.windowStart[win] < 0 {
					continue
				}
				a := aggs[l]
				span(name, tid, r.windowStart[win], a.ns, map[string]any{
					"window": win, "ticks": a.ticks, "busy_ticks": a.busy, "ns": a.ns})
			}
		}
	}
	return evs
}

// sweepEvents renders the serve pass: one track per client, three spans
// per sweep, the grid name as the trace id.
func sweepEvents(spans []sweepSpan) []traceEvent {
	if len(spans) == 0 {
		return nil
	}
	origin := spans[0].t.start
	for _, s := range spans {
		if s.t.start.Before(origin) {
			origin = s.t.start
		}
	}
	var evs []traceEvent
	named := map[int]bool{}
	for _, s := range spans {
		if !named[s.client] {
			named[s.client] = true
			evs = append(evs, threadName(1, s.client, fmt.Sprintf("client %d", s.client)))
		}
		at := s.t.start.Sub(origin)
		for _, part := range []struct {
			name string
			dur  time.Duration
		}{{"submit", s.t.submit}, {"wait", s.t.wait}, {"fetch_results", s.t.fetch}} {
			if part.dur > 0 {
				evs = append(evs, traceEvent{Name: part.name, Ph: "X", Ts: us(int64(at)), Dur: us(int64(part.dur)),
					Pid: 1, Tid: s.client, Args: map[string]any{"trace_id": s.grid, "phase": s.phase}})
			}
			at += part.dur
		}
	}
	return evs
}

// writeTrace writes the spans kept in memory during the pass to
// <dir>/trace-<workload>.json.
func writeTrace(dir, workload string, evs []traceEvent) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
