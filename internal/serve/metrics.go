package serve

import (
	"fmt"
	"io"
	"strconv"
	"sync"

	"gsi"
	"gsi/internal/core"
)

// nsPerCycleBounds are the upper bounds (inclusive, in nanoseconds of
// wall clock per simulated GPU cycle) of the throughput histogram's
// buckets; observations above the last bound land in the overflow
// bucket. Powers of two from 1 ns to ~1 ms per cycle cover everything
// from skip-ahead bursts to dense-mode crawls.
var nsPerCycleBounds = []float64{
	1, 2, 4, 8, 16, 32, 64, 128, 256, 512,
	1024, 4096, 16384, 65536, 262144, 1048576,
}

// metrics is the server's observability state, exposed on /metrics. All
// methods are safe for concurrent use.
type metrics struct {
	mu sync.Mutex

	submitted uint64 // jobs accepted across all sweeps
	running   uint64 // simulations executing right now for a waiting job (see flightGroup.gauge)
	done      uint64 // jobs finished successfully (any source)
	failed    uint64 // jobs finished with an error

	cacheHits   uint64 // jobs served from the result cache
	dedupHits   uint64 // jobs that shared another job's in-flight run
	simulations uint64 // fresh simulations completed, one per claiming job
	panics      uint64 // simulations that panicked (contained)
	canceled    uint64 // jobs that ended on cancellation or deadline

	simNanos  uint64 // total wall-clock nanoseconds across simulations
	simCycles uint64 // total simulated cycles across simulations

	// Aggregates folded from every claimed fresh simulation's Report: classified
	// stall cycles by top-level kind (summed across SMs), and the
	// engine event counters behind the run.
	stallCycles [core.NumStallKinds]uint64
	engJumps    uint64 // skip-ahead clock jumps
	engSkipped  uint64 // cycles the skip-ahead jumps covered

	hist    []uint64 // ns-per-cycle histogram; last slot is overflow
	histSum float64  // sum of observed ns-per-cycle values (Prometheus _sum)
}

func newMetrics() *metrics {
	return &metrics{hist: make([]uint64, len(nsPerCycleBounds)+1)}
}

// accept counts a submission's n jobs, of which hits were answered from
// the cache at submission and are already done.
func (m *metrics) accept(n, hits int) {
	m.mu.Lock()
	m.submitted += uint64(n)
	m.cacheHits += uint64(hits)
	m.done += uint64(hits)
	m.mu.Unlock()
}

func (m *metrics) runStart() {
	m.mu.Lock()
	m.running++
	m.mu.Unlock()
}

func (m *metrics) runEnd() {
	m.mu.Lock()
	m.running--
	m.mu.Unlock()
}

func (m *metrics) jobDone(failed bool) {
	m.mu.Lock()
	if failed {
		m.failed++
	} else {
		m.done++
	}
	m.mu.Unlock()
}

func (m *metrics) cacheHit() {
	m.mu.Lock()
	m.cacheHits++
	m.mu.Unlock()
}

func (m *metrics) dedupHit() {
	m.mu.Lock()
	m.dedupHits++
	m.mu.Unlock()
}

// panicked counts one contained simulation panic: the simulation became
// a per-job error instead of taking the process down.
func (m *metrics) panicked() {
	m.mu.Lock()
	m.panics++
	m.mu.Unlock()
}

// cancel counts one job ended by cancellation or deadline.
func (m *metrics) cancel() {
	m.mu.Lock()
	m.canceled++
	m.mu.Unlock()
}

// simulation records one fresh run, for the job that claimed it: its
// wall-clock cost and the simulated cycles it covered, bucketed as ns per
// cycle, and its Report folded into the aggregate stall and engine
// counters. Cached and deduplicated jobs are deliberately not folded: the
// aggregates count simulation work performed by this process, and
// double-counting a shared run would skew the per-kind mix.
func (m *metrics) simulation(rep *gsi.Report, nanos uint64) {
	cycles := max(rep.Cycles, 1)
	perCycle := float64(nanos) / float64(cycles)
	m.mu.Lock()
	for k, n := range rep.Counts.Cycles {
		m.stallCycles[k] += n
	}
	m.engJumps += rep.EngineStats.Jumps
	m.engSkipped += rep.EngineStats.SkippedCycles
	m.simulations++
	m.simNanos += nanos
	m.simCycles += cycles
	slot := len(nsPerCycleBounds)
	for i, le := range nsPerCycleBounds {
		if perCycle <= le {
			slot = i
			break
		}
	}
	m.hist[slot]++
	m.histSum += perCycle
	m.mu.Unlock()
}

// histBucket is one /metrics histogram row; Le is nil on the overflow
// bucket (JSON null, read it as +Inf).
type histBucket struct {
	Le    *float64 `json:"le"`
	Count uint64   `json:"count"`
}

// metricsSnapshot is the /metrics response document.
type metricsSnapshot struct {
	Jobs struct {
		Queued  uint64 `json:"queued"`
		Running uint64 `json:"running"`
		Done    uint64 `json:"done"`
		Failed  uint64 `json:"failed"`
	} `json:"jobs"`
	Cache struct {
		Hits          uint64 `json:"hits"`
		DedupHits     uint64 `json:"dedupHits"`
		Entries       uint64 `json:"entries"`
		Bytes         uint64 `json:"bytes"`
		Evictions     uint64 `json:"evictions"`
		Loaded        uint64 `json:"loaded"`
		PersistErrors uint64 `json:"persistErrors"`
	} `json:"cache"`
	Simulations uint64       `json:"simulations"`
	Panics      uint64       `json:"panics"`
	Canceled    uint64       `json:"canceled"`
	SimNanos    uint64       `json:"simNanos"`
	SimCycles   uint64       `json:"simCycles"`
	NsPerCycle  []histBucket `json:"nsPerCycle"`
	// StallCycles aggregates classified cycles by top-level stall kind
	// (label-keyed, summed over every SM of every fresh simulation).
	StallCycles map[string]uint64 `json:"stallCycles"`
	Engine      struct {
		Jumps         uint64 `json:"jumps"`
		SkippedCycles uint64 `json:"skippedCycles"`
	} `json:"engine"`

	histSum float64 // carried for the Prometheus rendering, not in JSON

	// stallByKind carries the kind-ordered counts for the Prometheus
	// rendering (label maps lose the taxonomy order).
	stallByKind [core.NumStallKinds]uint64
}

// snapshot captures a consistent view; queued is derived (submitted jobs
// neither finished nor currently simulating). The difference is exact: the
// flight group takes a simulation out of running the moment its last
// waiter detaches, before that job is finished as canceled.
func (m *metrics) snapshot(cs cacheStats) metricsSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	var s metricsSnapshot
	finished := m.done + m.failed
	s.Jobs.Queued = m.submitted - finished - m.running
	s.Jobs.Running = m.running
	s.Jobs.Done = m.done
	s.Jobs.Failed = m.failed
	s.Cache.Hits = m.cacheHits
	s.Cache.DedupHits = m.dedupHits
	s.Cache.Entries = uint64(cs.entries)
	s.Cache.Bytes = uint64(cs.bytes)
	s.Cache.Evictions = cs.evictions
	s.Cache.Loaded = uint64(cs.loaded)
	s.Cache.PersistErrors = cs.persistErrs
	s.Simulations = m.simulations
	s.Panics = m.panics
	s.Canceled = m.canceled
	s.SimNanos = m.simNanos
	s.SimCycles = m.simCycles
	s.StallCycles = make(map[string]uint64, core.NumStallKinds)
	for _, k := range core.StallKinds() {
		s.StallCycles[k.String()] = m.stallCycles[k]
	}
	s.stallByKind = m.stallCycles
	s.Engine.Jumps = m.engJumps
	s.Engine.SkippedCycles = m.engSkipped
	s.histSum = m.histSum
	s.NsPerCycle = make([]histBucket, len(m.hist))
	for i, n := range m.hist {
		b := histBucket{Count: n}
		if i < len(nsPerCycleBounds) {
			le := nsPerCycleBounds[i]
			b.Le = &le
		}
		s.NsPerCycle[i] = b
	}
	return s
}

// prometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): gauges for instantaneous values, counters for
// monotone totals, and the ns-per-cycle histogram in the standard
// cumulative-bucket form with le labels and the +Inf terminator.
func (s metricsSnapshot) prometheus(w io.Writer) {
	gauge := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge("gsi_jobs_queued", "Jobs accepted but neither finished nor simulating.", s.Jobs.Queued)
	gauge("gsi_jobs_running", "Simulations holding a pool slot right now.", s.Jobs.Running)
	counter("gsi_jobs_done_total", "Jobs finished successfully.", s.Jobs.Done)
	counter("gsi_jobs_failed_total", "Jobs finished with an error.", s.Jobs.Failed)
	counter("gsi_cache_hits_total", "Jobs served from the result cache.", s.Cache.Hits)
	counter("gsi_cache_dedup_hits_total", "Jobs that shared another job's in-flight run.", s.Cache.DedupHits)
	gauge("gsi_cache_entries", "Results currently cached in memory.", s.Cache.Entries)
	gauge("gsi_cache_bytes", "Bytes of cached result documents in memory.", s.Cache.Bytes)
	counter("gsi_cache_evictions_total", "Cache entries evicted by the LRU bounds.", s.Cache.Evictions)
	gauge("gsi_cache_loaded", "Results loaded from the cache directory at boot.", s.Cache.Loaded)
	counter("gsi_cache_persist_errors_total", "Results that failed to reach the cache directory (still served from memory).", s.Cache.PersistErrors)
	counter("gsi_simulations_total", "Fresh simulations completed.", s.Simulations)
	counter("gsi_sim_panics_total", "Simulations that panicked and were contained.", s.Panics)
	counter("gsi_jobs_canceled_total", "Jobs ended by cancellation or deadline.", s.Canceled)
	counter("gsi_sim_nanoseconds_total", "Wall-clock nanoseconds across fresh simulations.", s.SimNanos)
	counter("gsi_sim_cycles_total", "Simulated cycles across fresh simulations.", s.SimCycles)
	counter("gsi_engine_jumps_total", "Skip-ahead clock jumps across fresh simulations.", s.Engine.Jumps)
	counter("gsi_engine_skipped_cycles_total", "Cycles covered by skip-ahead jumps across fresh simulations.", s.Engine.SkippedCycles)
	fmt.Fprintf(w, "# HELP gsi_stall_cycles_total Classified cycles by top-level stall kind across fresh simulations.\n# TYPE gsi_stall_cycles_total counter\n")
	for _, k := range core.StallKinds() {
		fmt.Fprintf(w, "gsi_stall_cycles_total{kind=%q} %d\n", k.String(), s.stallByKind[k])
	}

	name := "gsi_sim_ns_per_cycle"
	fmt.Fprintf(w, "# HELP %s Wall-clock nanoseconds per simulated cycle.\n# TYPE %s histogram\n", name, name)
	var cum uint64
	for _, b := range s.NsPerCycle {
		cum += b.Count
		le := "+Inf"
		if b.Le != nil {
			le = strconv.FormatFloat(*b.Le, 'g', -1, 64)
		}
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, cum)
	}
	fmt.Fprintf(w, "%s_sum %s\n", name, strconv.FormatFloat(s.histSum, 'g', -1, 64))
	fmt.Fprintf(w, "%s_count %d\n", name, cum)
}
