package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"gsi"
)

// sweepSpan is one sweep as its caller saw it, for the trace file: one
// trace id (the grid name) with real spans submit, wait and fetch_results.
type sweepSpan struct {
	phase  string
	grid   string
	client int
	t      sweepTimes
}

// serveLayers is the traced pass of the serve workloads, three phases on
// one server. cold: never-seen grids one at a time, submit until every
// result is fetched. cached: the clients resubmit those grids round-robin
// (no simulation runs). overlap: fresh grids, every client submitting the
// same grid at the same instant (singleflight dedup). The clients form a
// closed loop of min(nproc, 2) goroutines.
func serveLayers(seed uint64, name string, quick bool, o *ops, m map[string]float64) ([]sweepSpan, string) {
	h, err := newHarness()
	if !o.check("server boot", err) {
		return nil, ""
	}
	defer h.close()
	clients := runtime.NumCPU()
	if clients > 2 {
		clients = 2
	}
	// Fixed counts, not a deadline: the server's outcome counters are then
	// the same on every host.
	cachedSweeps, rounds := 400, 3
	if quick {
		cachedSweeps, rounds = 8, 1
	}
	var spans []sweepSpan
	var mu sync.Mutex
	note := func(phase string, g gsi.Grid, client int, t sweepTimes) {
		mu.Lock()
		spans = append(spans, sweepSpan{phase, g.Name, client, t})
		mu.Unlock()
	}
	// eachClient runs fn on every client goroutine and waits for them.
	eachClient := func(fn func(client int)) {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				fn(c)
			}(c)
		}
		wg.Wait()
	}

	// Cold and overlap grids alternate.
	var coldS, submitMs, getUs, overlapS []float64
	var grids []gsi.Grid
	var first [][]byte
	var resultBytes, results int
	var coldWall time.Duration
	var simNanos uint64
	for round := 0; round < rounds; round++ {
		before, err := h.counters()
		o.check("GET /metrics", err)
		g := serveGrid(seed, name+"-cold", round, quick)
		res, t, err := h.sweep(g, true)
		if o.check("cold sweep", err) {
			note("cold", g, 0, t)
			grids = append(grids, g)
			if first == nil {
				first = res
			}
			coldS = append(coldS, t.total().Seconds())
			submitMs = append(submitMs, float64(t.submit.Microseconds())/1e3)
			getUs = append(getUs, float64(t.fetch.Nanoseconds())/1e3/float64(len(res)))
			for _, r := range res {
				resultBytes += len(r)
			}
			results += len(res)
			after, err := h.counters()
			if o.check("GET /metrics", err) {
				simNanos += after.SimNanos - before.SimNanos
				coldWall += t.total()
			}
		}

		g = serveGrid(seed, name+"-overlap", round, quick)
		eachClient(func(c int) {
			_, t, err := h.sweep(g, true)
			if o.check("overlapping sweep", err) {
				note("overlap", g, c, t)
				mu.Lock()
				overlapS = append(overlapS, t.total().Seconds())
				mu.Unlock()
			}
		})
	}
	if len(grids) == 0 {
		return spans, ""
	}
	m["serve.cold_sweep_s"] = median(coldS)
	m["serve.submit_ms_p50"] = median(submitMs)
	m["serve.result_get_us_p50"] = median(getUs)
	m["serve.result_bytes"] = ratio(float64(resultBytes), float64(results))
	m["serve.pool_busy_share"] = ratio(float64(simNanos), float64(coldWall.Nanoseconds())*float64(runtime.NumCPU()))
	m["serve.overlap_sweep_s_p50"] = median(overlapS)

	var cachedMs []float64
	eachClient(func(c int) {
		for i := c; i < cachedSweeps; i += clients {
			g := grids[i%len(grids)]
			_, t, err := h.sweep(g, false)
			if o.check("cached sweep", err) {
				note("cached", g, c, t)
				mu.Lock()
				cachedMs = append(cachedMs, float64(t.total().Microseconds())/1e3)
				mu.Unlock()
			}
		}
	})
	m["serve.cached_sweep_ms_p50"] = median(cachedMs)
	if p95, ok := percentile(cachedMs, 95); ok {
		m["serve.cached_sweep_ms_p95"] = p95
	}

	c, err := h.counters()
	if o.check("GET /metrics", err) {
		m["serve.cache_hits"] = float64(c.Cache.Hits)
		m["serve.dedup_hits"] = float64(c.Cache.DedupHits)
		m["serve.simulations"] = float64(c.Simulations)
		// ROADMAP item 0: sometimes non-zero on multi-core hosts. Reported,
		// not counted as a failed operation.
		m["serve.unaccounted_jobs"] = c.unaccounted()
	}

	// Every served result of the first cold grid must equal the bytes
	// gsi.Run produces for that point; its reports also give this
	// workload's deterministic simulator counts.
	reps := verifyServed(grids[0], first, o)
	if reps == nil {
		return spans, ""
	}
	_, _, sha := productCounts(reps, first, m)
	logf("%s: %d cold, %d overlapping, %d cached sweeps; cached p50 %.3f ms (%s)", name, len(coldS), len(overlapS),
		len(cachedMs), median(cachedMs), describeTail(cachedMs, "ms"))
	return spans, sha
}

// describeTail names the highest percentile that has enough samples beyond
// it, or says why none is given.
func describeTail(xs []float64, unit string) string {
	if label, v, ok := highestPercentile(xs); ok {
		return fmt.Sprintf("%s %.3f %s, %d samples", label, v, unit, len(xs))
	}
	return fmt.Sprintf("%d samples, too few for a percentile", len(xs))
}
