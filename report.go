package gsi

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"gsi/internal/core"
	"gsi/internal/gpu"
	"gsi/internal/stats"
)

// Report is the outcome of one simulation: GSI's aggregated stall counts
// plus enough system statistics to sanity-check the run.
type Report struct {
	Workload string `json:"workload"`
	Protocol string `json:"protocol"`
	// LocalMem names the local-memory organization for case-study-2
	// workloads ("" otherwise).
	LocalMem string `json:"localMem,omitempty"`
	// Cycles is the kernel execution time in GPU cycles.
	Cycles uint64 `json:"cycles"`
	// Counts aggregates every SM's classified cycles; PerSM keeps the
	// per-core profiles.
	Counts core.Counts   `json:"counts"`
	PerSM  []core.Counts `json:"perSM"`

	// System-level statistics.
	Net          NetStats `json:"net"`
	Mem          MemStats `json:"mem"`
	InstrsIssued uint64   `json:"instrsIssued"`

	// Timeline is the rendered per-SM stall timeline (empty unless
	// Options.Timeline was set).
	Timeline string `json:"timeline,omitempty"`

	// EngineStats counts the scheduling work of the run (tick passes,
	// component visits, skip-ahead jumps, skipped cycles, SM naps).
	// Excluded from JSON by default: every engine mode
	// produces identical simulation results, but their scheduling cost
	// necessarily differs, and the serialized report is the
	// byte-identity contract between them. Opt in explicitly with
	// IncludeEngineStats, which mirrors the counters into Scheduling.
	EngineStats EngineStats `json:"-"`

	// Scheduling is the explicit opt-in JSON carrier for EngineStats:
	// nil (and therefore absent) by default, set by IncludeEngineStats.
	// DecodeReport folds a present block back into EngineStats, so the
	// opt-in round-trips exactly. Documents carrying it are not
	// byte-comparable across engine modes — the default encoding remains
	// the cross-engine contract.
	Scheduling *EngineStats `json:"engineStats,omitempty"`
}

// NetStats summarizes interconnect traffic.
type NetStats struct {
	Messages uint64 `json:"messages"`
	Hops     uint64 `json:"hops"`
}

// MemStats summarizes memory-side event counts across GPU cores.
type MemStats struct {
	L1Hits         uint64 `json:"l1Hits"`
	L1Misses       uint64 `json:"l1Misses"`
	MSHRMerges     uint64 `json:"mshrMerges"`
	MSHRFullEvents uint64 `json:"mshrFullEvents"`
	SBFullEvents   uint64 `json:"sbFullEvents"`
	Flushes        uint64 `json:"flushes"`
	ReleaseFlushes uint64 `json:"releaseFlushes"`
	FlushNoops     uint64 `json:"flushNoops"`
	WriteThroughs  uint64 `json:"writeThroughs"`
	OwnReqs        uint64 `json:"ownReqs"`
	RemoteServed   uint64 `json:"remoteServed"`
	Atomics        uint64 `json:"atomics"`
	LocalAtomics   uint64 `json:"localAtomics"`
	MemRequests    uint64 `json:"memRequests"`
}

func newReport(workload string, opt Options, g *gpu.GPU, cycles uint64) *Report {
	r := &Report{
		Workload: workload,
		Protocol: opt.Protocol.String(),
		LocalMem: localMemOf(workload),
		Cycles:   cycles,
		Counts:   g.Insp.Aggregate(),
		PerSM:    make([]core.Counts, g.Insp.NumSMs()),
	}
	for i := range r.PerSM {
		r.PerSM[i] = *g.Insp.SM(i)
	}
	r.Net = NetStats{Messages: g.Sys.Mesh.Stats.Messages, Hops: g.Sys.Mesh.Stats.Hops}
	for i := 0; i < g.Cfg.NumSMs; i++ {
		s := g.Sys.Cores[i].Stats
		r.Mem.L1Hits += s.Hits
		r.Mem.L1Misses += s.Misses
		r.Mem.MSHRMerges += s.Merges
		r.Mem.MSHRFullEvents += s.MSHRFullEvents
		r.Mem.SBFullEvents += s.SBFullEvents
		r.Mem.Flushes += s.Flushes
		r.Mem.ReleaseFlushes += s.ReleaseFlushes
		r.Mem.FlushNoops += s.FlushNoops
		r.Mem.WriteThroughs += s.WriteThroughs
		r.Mem.OwnReqs += s.OwnReqs
		r.Mem.RemoteServed += s.RemoteServed
		r.Mem.Atomics += s.Atomics
		r.Mem.LocalAtomics += s.LocalAtomics
	}
	r.Mem.MemRequests = g.Sys.Ctrl.Requests
	for _, sm := range g.SMs {
		r.InstrsIssued += sm.InstrsIssued
	}
	r.EngineStats = g.EngineStats
	return r
}

// ErrAccounting marks a run whose stall books do not balance (see
// checkBooks): a simulator bug, never a property of the workload.
var ErrAccounting = errors.New("gsi: stall accounting does not balance")

// checkBooks holds every SM's profile to GSI's conservation laws: its
// classified cycles sum to the run's, and each stall kind's sub-causes
// (service locations, structural causes, compute units) to the kind.
func (r *Report) checkBooks() error {
	for sm := range r.PerSM {
		c := &r.PerSM[sm]
		for _, b := range [...]struct {
			bucket    string
			got, want uint64
		}{
			{"classified cycles", c.Total(), r.Cycles},
			{"memory data locations", sum(c.MemData[:]), c.Cycles[core.MemData]},
			{"memory structural causes", sum(c.MemStruct[:]), c.Cycles[core.MemStructural]},
			{"compute data units", sum(c.CompData[:]), c.Cycles[core.CompData]},
			{"compute structural units", sum(c.CompStruct[:]), c.Cycles[core.CompStructural]},
		} {
			if b.got != b.want {
				return fmt.Errorf("%w: sm%d %s sum to %d, want %d", ErrAccounting, sm, b.bucket, b.got, b.want)
			}
		}
	}
	return nil
}

func sum(v []uint64) (t uint64) {
	for _, x := range v {
		t += x
	}
	return t
}

// ExecBreakdown returns the execution-time breakdown (figure "a" of each
// case study): total cycles across SMs by top-level stall kind.
func (r *Report) ExecBreakdown() stats.Breakdown {
	kinds := core.StallKinds()
	labels := make([]string, len(kinds))
	values := make([]float64, len(kinds))
	for i, k := range kinds {
		labels[i] = k.String()
		values[i] = float64(r.Counts.Cycles[k])
	}
	return stats.NewBreakdown(r.barName(), labels, values)
}

// MemDataBreakdown returns the memory data stall sub-classification
// (figure "b"): stall cycles by where the blocking load was serviced.
func (r *Report) MemDataBreakdown() stats.Breakdown {
	wheres := core.DataWheres()
	labels := make([]string, len(wheres))
	values := make([]float64, len(wheres))
	for i, wh := range wheres {
		labels[i] = wh.String()
		values[i] = float64(r.Counts.MemData[wh])
	}
	// Unresolved in-flight loads were flushed to main memory by the
	// Inspector; surface any "unknown" remainder there too.
	values[len(values)-1] += float64(r.Counts.MemData[core.WhereUnknown])
	return stats.NewBreakdown(r.barName(), labels, values)
}

// MemStructBreakdown returns the memory structural stall
// sub-classification (figure "c"): stall cycles by blocking resource.
func (r *Report) MemStructBreakdown() stats.Breakdown {
	causes := core.StructCauses()
	labels := make([]string, len(causes))
	values := make([]float64, len(causes))
	for i, c := range causes {
		labels[i] = c.String()
		values[i] = float64(r.Counts.MemStruct[c])
	}
	return stats.NewBreakdown(r.barName(), labels, values)
}

// CompDataBreakdown sub-classifies compute data stalls by the producing
// pipeline (the paper's suggested extension for functional-unit studies).
func (r *Report) CompDataBreakdown() stats.Breakdown {
	units := core.CompUnits()
	labels := make([]string, len(units))
	values := make([]float64, len(units))
	for i, u := range units {
		labels[i] = u.String()
		values[i] = float64(r.Counts.CompData[u])
	}
	return stats.NewBreakdown(r.barName(), labels, values)
}

// CompStructBreakdown sub-classifies compute structural stalls by the
// contended pipeline.
func (r *Report) CompStructBreakdown() stats.Breakdown {
	units := core.CompUnits()
	labels := make([]string, len(units))
	values := make([]float64, len(units))
	for i, u := range units {
		labels[i] = u.String()
		values[i] = float64(r.Counts.CompStruct[u])
	}
	return stats.NewBreakdown(r.barName(), labels, values)
}

// localMemOf extracts the organization from a case-study-2 workload name
// like "implicit (stash)".
func localMemOf(workload string) string {
	if !strings.HasPrefix(workload, "implicit (") {
		return ""
	}
	return strings.TrimSuffix(strings.TrimPrefix(workload, "implicit ("), ")")
}

// barName labels this run's bar in grouped figures: case study 2 compares
// local-memory organizations (all under DeNovo), case study 1 protocols.
func (r *Report) barName() string {
	if r.LocalMem != "" {
		return r.LocalMem
	}
	return r.Protocol
}

// JSON encodes the report as an indented, machine-readable document.
// Stall profiles appear as label-keyed maps (the figure labels), so the
// output diffs cleanly and survives taxonomy reordering; DecodeReport
// reverses it exactly. Scheduling counters are omitted unless the report
// opted in via IncludeEngineStats.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// IncludeEngineStats opts this report's scheduling counters into its JSON
// encoding by mirroring EngineStats into the Scheduling field; it returns
// r for chaining (gsi-run wires it to -json -stats). Use it only when the
// consumer wants the scheduling-cost picture: documents carrying the
// block legitimately differ across engine modes, so they fall outside the
// cross-engine byte-identity contract of the default encoding.
func (r *Report) IncludeEngineStats() *Report {
	st := r.EngineStats
	r.Scheduling = &st
	return r
}

// DecodeReport parses a document produced by Report.JSON, folding an
// opted-in scheduling block (see IncludeEngineStats) back into
// EngineStats, so the opt-in round-trips exactly.
func DecodeReport(data []byte) (*Report, error) {
	r := new(Report)
	if err := json.Unmarshal(data, r); err != nil {
		return nil, fmt.Errorf("gsi: decoding report: %w", err)
	}
	if r.Scheduling != nil {
		r.EngineStats = *r.Scheduling
	}
	return r, nil
}

// JSON encodes the whole figure — the three grouped sub-figures plus every
// per-run report — as an indented document; DecodeFigureSet reverses it.
// The groups are included so non-Go consumers can plot the stacked bars
// without reimplementing the breakdown logic, but the reports are the
// source of truth: decoding rebuilds the groups from them, so a document
// whose groups disagree with its reports cannot smuggle the divergence in.
func (fs *FigureSet) JSON() ([]byte, error) {
	return json.MarshalIndent(fs, "", "  ")
}

// UnmarshalJSON decodes the header and reports, then rederives the three
// sub-figure groups exactly as the figure was originally built.
func (fs *FigureSet) UnmarshalJSON(data []byte) error {
	var doc struct {
		ID       string    `json:"id"`
		Title    string    `json:"title"`
		Baseline string    `json:"baseline"`
		BarBy    string    `json:"barBy"`
		Reports  []*Report `json:"reports"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	// Reject documents the figure methods cannot operate on, rather than
	// letting a truncated or hand-edited file panic the consumer later.
	if len(doc.Reports) == 0 {
		return fmt.Errorf("figure set %q has no reports", doc.ID)
	}
	for i, r := range doc.Reports {
		if r == nil {
			return fmt.Errorf("figure set %q: report %d is null", doc.ID, i)
		}
	}
	*fs = FigureSet{ID: doc.ID, Title: doc.Title, Baseline: doc.Baseline, BarBy: doc.BarBy}
	for _, r := range doc.Reports {
		fs.add(r)
	}
	return nil
}

// DecodeFigureSet parses a document produced by FigureSet.JSON.
func DecodeFigureSet(data []byte) (*FigureSet, error) {
	fs := new(FigureSet)
	if err := json.Unmarshal(data, fs); err != nil {
		return nil, fmt.Errorf("gsi: decoding figure set: %w", err)
	}
	return fs, nil
}

// Summary renders a one-run overview: totals, the three breakdowns, and
// key memory-system counters.
func (r *Report) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "workload: %s   protocol: %s   cycles: %d   instrs: %d\n",
		r.Workload, r.Protocol, r.Cycles, r.InstrsIssued)
	exec := stats.NewGroup("execution time breakdown (cycles across SMs)", r.ExecBreakdown().Labels)
	exec.Add(r.ExecBreakdown())
	sb.WriteString(exec.Table())
	data := stats.NewGroup("memory data stalls by service location", r.MemDataBreakdown().Labels)
	data.Add(r.MemDataBreakdown())
	sb.WriteString(data.Table())
	st := stats.NewGroup("memory structural stalls by cause", r.MemStructBreakdown().Labels)
	st.Add(r.MemStructBreakdown())
	sb.WriteString(st.Table())
	fmt.Fprintf(&sb, "L1 hits %d  misses %d  merges %d  |  flushes %d (release %d, no-op lines %d)\n",
		r.Mem.L1Hits, r.Mem.L1Misses, r.Mem.MSHRMerges,
		r.Mem.Flushes, r.Mem.ReleaseFlushes, r.Mem.FlushNoops)
	fmt.Fprintf(&sb, "write-throughs %d  ownership reqs %d  remote L1 served %d  atomics %d (%d local)  DRAM reqs %d\n",
		r.Mem.WriteThroughs, r.Mem.OwnReqs, r.Mem.RemoteServed, r.Mem.Atomics, r.Mem.LocalAtomics, r.Mem.MemRequests)
	fmt.Fprintf(&sb, "network: %d messages, %d hops\n", r.Net.Messages, r.Net.Hops)
	return sb.String()
}
