package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"gsi"
	"gsi/internal/serve"
)

// harness is gsi-serve in process behind a real loopback HTTP listener,
// with Workers = nproc, plus the client the benchmark drives it with.
type harness struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
}

func newHarness() (*harness, error) {
	srv, err := serve.New(serve.Config{Workers: runtime.NumCPU()})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	return &harness{srv: srv, ts: ts, client: ts.Client()}, nil
}

// close stops the listener and waits for the server's jobs to end.
func (h *harness) close() error {
	h.ts.Close()
	return h.srv.Drain()
}

// sweepDoc is the part of gsi-serve's sweep status document the benchmark
// reads.
type sweepDoc struct {
	ID       string `json:"id"`
	Total    int    `json:"total"`
	Failed   int    `json:"failed"`
	Finished bool   `json:"finished"`
	Jobs     []struct {
		Key string `json:"key"`
	} `json:"jobs"`
}

// call makes one request and returns the body; any status other than want
// is an error.
func (h *harness) call(method, path string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequest(method, h.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %.200s", method, path, resp.StatusCode, want, data)
	}
	return data, nil
}

// sweepTimes are the spans of one sweep as its caller sees them.
type sweepTimes struct {
	start               time.Time
	submit, wait, fetch time.Duration
}

func (t sweepTimes) total() time.Duration { return t.submit + t.wait + t.fetch }

// sweep submits a grid and blocks until it is done; with fetch it also
// downloads every result. Each HTTP call must return its expected 2xx and
// the sweep must finish with no failed job.
func (h *harness) sweep(g gsi.Grid, fetch bool) (results [][]byte, t sweepTimes, err error) {
	body, err := json.Marshal(submission(g))
	if err != nil {
		return nil, t, err
	}
	t.start = time.Now()
	data, err := h.call(http.MethodPost, "/sweeps", body, http.StatusAccepted)
	t.submit = time.Since(t.start)
	if err != nil {
		return nil, t, err
	}
	var doc sweepDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, t, fmt.Errorf("decoding submit reply: %w", err)
	}
	data, err = h.call(http.MethodGet, "/sweeps/"+doc.ID+"?wait=1", nil, http.StatusOK)
	t.wait = time.Since(t.start) - t.submit
	if err != nil {
		return nil, t, err
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, t, fmt.Errorf("decoding sweep status: %w", err)
	}
	if !doc.Finished || doc.Failed != 0 {
		return nil, t, fmt.Errorf("sweep %s: finished=%t failed=%d of %d", doc.ID, doc.Finished, doc.Failed, doc.Total)
	}
	if !fetch {
		return nil, t, nil
	}
	for _, j := range doc.Jobs {
		data, err := h.call(http.MethodGet, "/results/"+j.Key, nil, http.StatusOK)
		if err != nil {
			return nil, t, err
		}
		results = append(results, data)
	}
	t.fetch = time.Since(t.start) - t.submit - t.wait
	return results, t, nil
}

// serveCounters is the part of gsi-serve's /metrics document the
// benchmark reads.
type serveCounters struct {
	Jobs struct {
		Queued, Running, Done, Failed uint64
	}
	Cache struct {
		Hits, DedupHits uint64
	}
	Simulations, Canceled, SimNanos uint64
}

func (h *harness) counters() (serveCounters, error) {
	var c serveCounters
	data, err := h.call(http.MethodGet, "/metrics", nil, http.StatusOK)
	if err != nil {
		return c, err
	}
	return c, json.Unmarshal(data, &c)
}

// unaccounted is the server's accounting hole: jobs accepted and finished
// that no outcome counter claims (ROADMAP item 0).
func (c serveCounters) unaccounted() float64 {
	accepted := c.Jobs.Queued + c.Jobs.Running + c.Jobs.Done + c.Jobs.Failed
	return float64(accepted) - float64(c.Cache.Hits+c.Cache.DedupHits+c.Simulations+c.Jobs.Failed+c.Canceled)
}

// sumCycles decodes served reports and adds up their simulated cycles.
func sumCycles(results [][]byte) (uint64, error) {
	var total uint64
	for _, data := range results {
		rep, err := gsi.DecodeReport(data)
		if err != nil {
			return 0, err
		}
		total += rep.Cycles
	}
	return total, nil
}
