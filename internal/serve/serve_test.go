package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"gsi"
	"gsi/internal/core"
	"gsi/internal/faultinject"
)

// smallSweep is a fast 4-point submission (implicit microbenchmark, two
// local memories x two MSHR sizes, 1-SM tuned system, ~1k cycles each).
func smallSweep(name string) Submission {
	return Submission{
		Name:      name,
		Workloads: []string{"implicit"},
		LocalMems: []string{"scratchpad", "stash"},
		MSHRSizes: []int{16, 32},
		Params:    map[string]string{"warps": "4", "databytes": "2048", "rounds": "1"},
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	// Registered last, so it runs first: the books are checked while the
	// server is still up.
	t.Cleanup(func() { assertBooksBalance(t, s) })
	return s, ts
}

// assertBooksBalance is the serve layer's accounting invariant, checked at
// the end of every test that boots a server: once all accepted jobs have
// finished, each is claimed by exactly one outcome —
// served from the cache, shared from another job's in-flight run, simulated,
// or failed (the failed counter includes canceled jobs, which /metrics also
// counts on their own).
func assertBooksBalance(t testing.TB, s *Server) {
	t.Helper()
	s.jobs.Wait()
	m := s.metrics.snapshot(s.cache.stats())
	// Queued is the raw submitted - done - failed - running (unsigned, so
	// an over-count on either side shows up, not only an under-count).
	if m.Jobs.Queued != 0 || m.Jobs.Running != 0 {
		t.Errorf("all jobs returned but /metrics still shows %d queued, %d running", m.Jobs.Queued, m.Jobs.Running)
	}
	accepted := m.Jobs.Done + m.Jobs.Failed
	claimed := m.Cache.Hits + m.Cache.DedupHits + m.Simulations + m.Jobs.Failed
	if accepted != claimed || m.Canceled > m.Jobs.Failed {
		t.Errorf("books do not balance: %d jobs accepted, but hits(%d) + dedup(%d) + simulations(%d) + failed(%d, of which %d canceled) = %d",
			accepted, m.Cache.Hits, m.Cache.DedupHits, m.Simulations, m.Jobs.Failed, m.Canceled, claimed)
	}
}

// submit POSTs a submission and decodes the acceptance document.
func submit(t *testing.T, ts *httptest.Server, sub Submission) sweepDoc {
	t.Helper()
	doc, status := trySubmit(t, ts, sub)
	if status != http.StatusAccepted {
		t.Fatalf("POST /sweeps: status %d", status)
	}
	return doc
}

func trySubmit(t *testing.T, ts *httptest.Server, sub Submission) (sweepDoc, int) {
	t.Helper()
	body, err := json.Marshal(sub)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc sweepDoc
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
	}
	return doc, resp.StatusCode
}

// wait blocks until the sweep finishes and returns its final status doc.
func wait(t *testing.T, ts *httptest.Server, id string) sweepDoc {
	t.Helper()
	resp, err := http.Get(ts.URL + "/sweeps/" + id + "?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc sweepDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !doc.Finished {
		t.Fatalf("sweep %s not finished after wait", id)
	}
	return doc
}

func getMetrics(t *testing.T, ts *httptest.Server) metricsSnapshot {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m metricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

func getResult(t *testing.T, ts *httptest.Server, key string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/results/" + key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /results/%s: status %d", key, resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestServeCachedSweepByteIdentical is the service's core contract:
// resubmitting a sweep serves every point from the content-addressed
// cache — zero new simulations, observable on /metrics — and the cached
// bytes are identical to the fresh run's.
func TestServeCachedSweepByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	first := submit(t, ts, smallSweep("first"))
	if first.Total != 4 {
		t.Fatalf("submission expanded to %d jobs, want 4", first.Total)
	}
	firstDone := wait(t, ts, first.ID)
	if firstDone.Failed != 0 {
		t.Fatalf("first pass had %d failures: %+v", firstDone.Failed, firstDone.Jobs)
	}
	m := getMetrics(t, ts)
	if m.Simulations != 4 {
		t.Fatalf("first pass ran %d simulations, want 4", m.Simulations)
	}
	fresh := map[string][]byte{}
	for _, job := range firstDone.Jobs {
		fresh[job.Key] = getResult(t, ts, job.Key)
		if _, err := gsi.DecodeReport(fresh[job.Key]); err != nil {
			t.Fatalf("job %q: cached bytes are not a Report: %v", job.Label, err)
		}
	}

	second := submit(t, ts, smallSweep("second"))
	secondDone := wait(t, ts, second.ID)
	if secondDone.Failed != 0 {
		t.Fatalf("second pass had %d failures", secondDone.Failed)
	}
	m = getMetrics(t, ts)
	if m.Simulations != 4 {
		t.Errorf("second pass ran %d new simulations, want 0 (total still 4)", m.Simulations-4)
	}
	if m.Cache.Hits != 4 {
		t.Errorf("second pass recorded %d cache hits, want 4", m.Cache.Hits)
	}
	for i, job := range secondDone.Jobs {
		if !job.Cached {
			t.Errorf("second-pass job %q not marked cached", job.Label)
		}
		if job.Key != firstDone.Jobs[i].Key {
			t.Errorf("job %q: key changed between submissions", job.Label)
		}
		if got := getResult(t, ts, job.Key); !bytes.Equal(got, fresh[job.Key]) {
			t.Errorf("job %q: cached response not byte-identical to fresh run", job.Label)
		}
	}
	if m.Jobs.Done != 8 || m.Jobs.Queued != 0 || m.Jobs.Running != 0 {
		t.Errorf("job gauges off: %+v", m.Jobs)
	}
}

// TestServeFinishedSweepsRetainLittle: gsi-serve keeps every sweep it was
// sent, so what one finished sweep retains is what a long-running server
// grows by. After a run of cache-hit submissions of an 8-point grid under
// distinct names and a GC, each finished sweep holds under 1,000 B. Each
// name is a distinct body, so each sweep brings its own job table, whose
// label and key strings are shared with every other table of the same
// points; per job the sweep adds a status byte, a cached flag and its place
// in the completion order, not its options, workload thunk or stored
// progress events. Its status document still names every point.
func TestServeFinishedSweepsRetainLittle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	grid := func(name string) Submission {
		sub := smallSweep(name)
		sub.Protocols = []string{"gpu", "denovo"}
		return sub
	}
	fill := wait(t, ts, submit(t, ts, grid("fill")).ID)
	if fill.Total != 8 || fill.Failed != 0 {
		t.Fatalf("fill sweep: %d points, %d failed", fill.Total, fill.Failed)
	}
	const sweeps = 500
	before := retainedHeap()
	var last sweepDoc
	for i := 0; i < sweeps; i++ {
		last = wait(t, ts, submit(t, ts, grid(fmt.Sprintf("hit-%d", i))).ID)
	}
	per := (int64(retainedHeap()) - int64(before)) / sweeps
	t.Logf("%d B of heap retained per finished sweep", per)
	if per > 1000 {
		t.Errorf("each finished sweep retains %d B of heap, want under 1,000 B", per)
	}
	for i, job := range last.Jobs {
		if want := fill.Jobs[i]; job.Label != want.Label || job.Key != want.Key || job.Status != "done" || !job.Cached {
			t.Errorf("finished job %d: %+v, want %+v served from the cache", i, job, want)
		}
	}
}

// tableCount is how many job tables the server has adopted.
func tableCount(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.tables)
}

// retainedHeap is the live heap after two collections, for measuring what
// finished sweeps keep.
func retainedHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestServeResubmittedSweepsShareTheirTable: resubmitting one body reuses
// the job table its first acceptance stored, so each repeated finished
// sweep keeps only its header, its job states and its completion order —
// at most 300 B for an 8-point grid — and still serves the same status
// document (apart from its id) and the same event replay as the first
// cached sweep of that body.
func TestServeResubmittedSweepsShareTheirTable(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	sub := smallSweep("repeat")
	sub.Protocols = []string{"gpu", "denovo"}
	fill := wait(t, ts, submit(t, ts, sub).ID)
	if fill.Total != 8 || fill.Failed != 0 {
		t.Fatalf("fill sweep: %d points, %d failed", fill.Total, fill.Failed)
	}
	first := wait(t, ts, submit(t, ts, sub).ID)
	const sweeps = 500
	before := retainedHeap()
	ids := make([]string, sweeps)
	for i := range ids {
		ids[i] = wait(t, ts, submit(t, ts, sub).ID).ID
	}
	per := (int64(retainedHeap()) - int64(before)) / sweeps
	t.Logf("%d B of heap retained per finished sweep of a repeated body", per)
	if per > 300 {
		t.Errorf("each finished sweep of a repeated body retains %d B of heap, want at most 300 B", per)
	}
	if n := tableCount(s); n != 1 {
		t.Errorf("%d job tables for one body, want 1", n)
	}
	for i, job := range first.Jobs {
		if want := fill.Jobs[i]; job.Label != want.Label || job.Key != want.Key || job.Status != "done" || !job.Cached {
			t.Errorf("cached job %d: %+v, want %+v served from the cache", i, job, want)
		}
	}
	firstEvents, _ := readEvents(t, ts, first.ID)
	for _, id := range ids {
		doc := wait(t, ts, id)
		doc.ID = first.ID
		if !reflect.DeepEqual(doc, first) {
			t.Fatalf("sweep %s: %+v, want %+v but for its id", id, doc, first)
		}
		if events, sawDone := readEvents(t, ts, id); !sawDone || !reflect.DeepEqual(events, firstEvents) {
			t.Fatalf("sweep %s replays %+v (done %t), want %+v", id, events, sawDone, firstEvents)
		}
	}
}

// TestServeResubmissionAfterEviction: a body whose table is stored but
// some of whose points the cache has since evicted simulates exactly those
// points again, to the same bytes, and answers the rest from the cache.
// The cache directory keeps every result, so both passes' bytes can be
// compared after the in-memory copies are gone.
func TestServeResubmissionAfterEviction(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{Workers: 2, CacheDir: dir, CacheMaxEntries: 2})
	sub := smallSweep("evict")
	sub.Protocols = []string{"gpu", "denovo"}
	first := wait(t, ts, submit(t, ts, sub).ID)
	if first.Total != 8 || first.Failed != 0 {
		t.Fatalf("first pass: %d points, %d failed", first.Total, first.Failed)
	}
	stored := func(key string) []byte {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, key+".json"))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	firstBytes := map[string][]byte{}
	held := map[string]bool{}
	for _, job := range first.Jobs {
		firstBytes[job.Key] = stored(job.Key)
		resp, err := http.Get(ts.URL + "/results/" + job.Key)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		held[job.Key] = resp.StatusCode == http.StatusOK
	}
	evicted := 0
	for _, h := range held {
		if !h {
			evicted++
		}
	}
	if evicted != 6 {
		t.Fatalf("%d of 8 points evicted after the first pass, want 6", evicted)
	}
	before := getMetrics(t, ts)
	again := wait(t, ts, submit(t, ts, sub).ID)
	after := getMetrics(t, ts)
	if got := after.Simulations - before.Simulations; got != uint64(evicted) {
		t.Errorf("resubmission ran %d simulations, want %d (the evicted points)", got, evicted)
	}
	if again.Failed != 0 {
		t.Fatalf("resubmission failed: %+v", again.Jobs)
	}
	for i, job := range again.Jobs {
		if want := first.Jobs[i]; job.Label != want.Label || job.Key != want.Key || job.Status != "done" || job.Cached != held[job.Key] {
			t.Errorf("resubmitted job %d: %+v, want %+v cached=%t", i, job, want, held[job.Key])
		}
		if got := stored(job.Key); !bytes.Equal(got, firstBytes[job.Key]) {
			t.Errorf("job %q: resimulated bytes differ from the first pass", job.Label)
		}
	}
	for _, job := range again.Jobs {
		resp, err := http.Get(ts.URL + "/results/" + job.Key)
		if err != nil {
			t.Fatal(err)
		}
		var body bytes.Buffer
		_, err = body.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK && !bytes.Equal(body.Bytes(), firstBytes[job.Key]) {
			t.Errorf("job %q: served bytes differ from the first pass", job.Label)
		}
	}
}

// TestServeTablePerAcceptedBody: a job table belongs to one accepted body.
// A body that differs only in name, timeout or trace gets its own, and
// concurrent first sightings of one body settle on one table; a body
// answered 400, 413 or 503 adopts none.
func TestServeTablePerAcceptedBody(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	base := smallSweep("base")
	wait(t, ts, submit(t, ts, base).ID)
	submit(t, ts, base)
	if n := tableCount(s); n != 1 {
		t.Fatalf("one body submitted twice: %d tables, want 1", n)
	}
	named, timed, traced := base, base, base
	named.Name = "renamed"
	timed.Timeout = "90s"
	traced.Trace = true
	for i, sub := range []Submission{named, timed, traced} {
		doc := submit(t, ts, sub)
		if doc.Name != sub.Name || !doc.Finished {
			t.Errorf("%+v: reply %+v, want finished under its own name", sub, doc)
		}
		if n := tableCount(s); n != i+2 {
			t.Errorf("after %+v: %d tables, want %d", sub, n, i+2)
		}
	}
	racing := base
	racing.Name = "racing"
	body, err := json.Marshal(racing)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/sweeps", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("concurrent submission: status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	if n := tableCount(s); n != 5 {
		t.Errorf("six concurrent submissions of one new body: %d tables, want 5", n)
	}

	unknown, badTimeout := base, base
	unknown.Workloads = []string{"nosuch"}
	badTimeout.Timeout = "soon"
	for _, sub := range []Submission{unknown, badTimeout} {
		if _, status := trySubmit(t, ts, sub); status != http.StatusBadRequest {
			t.Errorf("%+v: status %d, want 400", sub, status)
		}
	}
	big := fmt.Sprintf(`{"name":%q,"workloads":["implicit"]}`, strings.Repeat("x", maxSubmissionBytes))
	resp, err := http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", resp.StatusCode)
	}
	s.BeginDrain()
	late := base
	late.Name = "late"
	if _, status := trySubmit(t, ts, late); status != http.StatusServiceUnavailable {
		t.Errorf("submission while draining: status %d, want 503", status)
	}
	if n := tableCount(s); n != 5 {
		t.Errorf("refused bodies adopted tables: %d, want 5", n)
	}
}

// TestServeConcurrentOverlappingSubmissions: many clients submitting the
// same grid at once must collapse onto one simulation per distinct point
// (cache + singleflight), every response byte-identical. Run under -race
// this is also the server's concurrency-safety test.
func TestServeConcurrentOverlappingSubmissions(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	const clients = 6
	ids := make([]string, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			doc, status := trySubmit(t, ts, smallSweep(fmt.Sprintf("client-%d", c)))
			if status == http.StatusAccepted {
				ids[c] = doc.ID
			}
		}(c)
	}
	wg.Wait()
	keys := map[string][]byte{}
	for _, id := range ids {
		if id == "" {
			t.Fatal("a concurrent submission was not accepted")
		}
		done := wait(t, ts, id)
		if done.Failed != 0 {
			t.Fatalf("sweep %s had failures: %+v", id, done.Jobs)
		}
		for _, job := range done.Jobs {
			data := getResult(t, ts, job.Key)
			if prev, ok := keys[job.Key]; ok && !bytes.Equal(prev, data) {
				t.Errorf("key %s served different bytes to different clients", job.Key)
			}
			keys[job.Key] = data
		}
	}
	if len(keys) != 4 {
		t.Fatalf("%d distinct keys, want 4", len(keys))
	}
	m := getMetrics(t, ts)
	if m.Simulations != 4 {
		t.Errorf("%d simulations for %d distinct points across %d clients (dedup failed)",
			m.Simulations, len(keys), clients)
	}
	if got := m.Cache.Hits + m.Cache.DedupHits + m.Simulations; got != clients*4 {
		t.Errorf("hits(%d) + dedup(%d) + simulations(%d) = %d, want %d jobs accounted",
			m.Cache.Hits, m.Cache.DedupHits, m.Simulations, got, clients*4)
	}
}

// TestServeDrain: after BeginDrain the server refuses new submissions
// with 503 while in-flight jobs run to completion.
func TestServeDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	doc := submit(t, ts, smallSweep("pre-drain"))
	s.BeginDrain()
	if _, status := trySubmit(t, ts, smallSweep("late")); status != http.StatusServiceUnavailable {
		t.Fatalf("late submission got status %d, want 503", status)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	done := wait(t, ts, doc.ID)
	if done.Failed != 0 || done.Done != done.Total {
		t.Fatalf("in-flight sweep did not complete cleanly: %+v", done)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health map[string]bool
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if !health["draining"] {
		t.Error("healthz does not report draining")
	}
}

// TestServeEventsStream: the SSE endpoint delivers one progress event per
// job (replayed or live) and a terminal done event.
func TestServeEventsStream(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	doc := submit(t, ts, smallSweep("events"))
	events, sawDone := readEvents(t, ts, doc.ID)
	if len(events) != doc.Total {
		t.Fatalf("%d progress events, want %d", len(events), doc.Total)
	}
	if !sawDone {
		t.Error("stream ended without a done event")
	}
	seen := map[int]bool{}
	for _, ev := range events {
		if ev.Total != doc.Total || ev.Err != "" {
			t.Errorf("unexpected event %+v", ev)
		}
		seen[ev.Index] = true
	}
	if len(seen) != doc.Total {
		t.Errorf("events covered %d distinct jobs, want %d", len(seen), doc.Total)
	}
}

// TestServeEventsReplayMatchesLive: a sweep stores no progress events, only
// its completion order, so a subscriber that watched the sweep live and
// one that attaches after it finished must read the same stream. The
// sweep mixes a point the cache answers at submission (the last index, so
// it completes first), a slow fresh point at the first index (completing
// last), and a point whose simulation panics.
func TestServeEventsReplayMatchesLive(t *testing.T) {
	inj, err := faultinject.Parse("mshr=16 scratchpad:slow,mshr=32 scratchpad:panic,slowms=200")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 2, Chaos: inj})
	warm := smallSweep("warm")
	warm.MSHRSizes, warm.LocalMems = []int{32}, []string{"stash"}
	if done := wait(t, ts, submit(t, ts, warm).ID); done.Failed != 0 {
		t.Fatalf("warm-up failed: %+v", done.Jobs)
	}

	doc := submit(t, ts, smallSweep("mixed"))
	liveCh := make(chan []progressEvent, 1)
	go func() {
		events, _ := readEvents(t, ts, doc.ID)
		liveCh <- events
	}()
	final := wait(t, ts, doc.ID)
	live := <-liveCh
	replay, sawDone := readEvents(t, ts, doc.ID)
	if !sawDone {
		t.Error("replayed stream ended without a done event")
	}
	if fmt.Sprint(live) != fmt.Sprint(replay) {
		t.Fatalf("live stream %+v\nreplayed stream %+v", live, replay)
	}

	if len(replay) != final.Total {
		t.Fatalf("%d events for %d jobs", len(replay), final.Total)
	}
	seen := map[int]bool{}
	for k, ev := range replay {
		job := final.Jobs[ev.Index]
		if ev.Done != k+1 || ev.Total != final.Total || seen[ev.Index] ||
			ev.Label != job.Label || ev.Err != job.Err || ev.Cached != job.Cached {
			t.Errorf("event %d: %+v, for job %+v", k, ev, job)
		}
		seen[ev.Index] = true
	}
	if first, last := replay[0], replay[len(replay)-1]; first.Index != 3 || !first.Cached || last.Index != 0 {
		t.Errorf("completion order %+v: want the cached index 3 first and the slow index 0 last", replay)
	}
	if final.Failed != 1 || final.Jobs[2].Status != "failed" || !strings.Contains(final.Jobs[2].Err, "panicked") {
		t.Errorf("want only job 2 failed by the injected panic: %+v", final.Jobs)
	}
}

// TestServeSweepIDs: sweep ids are "s<n>" for the n-th accepted sweep, and
// only that canonical spelling resolves — on the status, long-poll, cancel
// and event endpoints alike. Every other spelling is a 404 naming the id.
func TestServeSweepIDs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	const n = 3
	sub := smallSweep("ids")
	sub.MSHRSizes, sub.LocalMems = []int{16}, []string{"scratchpad"}
	for i := 1; i <= n; i++ {
		if doc := submit(t, ts, sub); doc.ID != fmt.Sprintf("s%d", i) {
			t.Fatalf("sweep %d has id %q", i, doc.ID)
		}
	}
	call := func(method, path string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body bytes.Buffer
		if _, err := body.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body.String()
	}
	for i := 1; i <= n; i++ {
		id := fmt.Sprintf("s%d", i)
		if doc := wait(t, ts, id); doc.ID != id || doc.Total != 1 {
			t.Errorf("GET /sweeps/%s?wait=1: %+v", id, doc)
		}
		if status, body := call(http.MethodGet, "/sweeps/"+id); status != http.StatusOK || !strings.Contains(body, `"id":"`+id+`"`) {
			t.Errorf("GET /sweeps/%s: %d %s", id, status, body)
		}
		if events, sawDone := readEvents(t, ts, id); len(events) != 1 || !sawDone {
			t.Errorf("GET /sweeps/%s/events: %d events, done %t", id, len(events), sawDone)
		}
		if status, body := call(http.MethodDelete, "/sweeps/"+id); status != http.StatusOK || !strings.Contains(body, `"id":"`+id+`"`) {
			t.Errorf("DELETE /sweeps/%s: %d %s", id, status, body)
		}
	}
	for _, id := range []string{"s0", "s01", "s+1", "s-1", "1", "S1", fmt.Sprintf("s%d", n+1)} {
		want := fmt.Sprintf("no sweep %q\n", id)
		for _, c := range []struct{ method, path string }{
			{http.MethodGet, "/sweeps/" + id},
			{http.MethodGet, "/sweeps/" + id + "?wait=1"},
			{http.MethodDelete, "/sweeps/" + id},
			{http.MethodGet, "/sweeps/" + id + "/events"},
		} {
			if status, body := call(c.method, c.path); status != http.StatusNotFound || body != want {
				t.Errorf("%s %s: %d %q, want 404 %q", c.method, c.path, status, body, want)
			}
		}
	}
}

// readEvents reads a sweep's SSE stream until the server closes it,
// returning the progress events and whether the done event came.
func readEvents(t *testing.T, ts *httptest.Server, id string) (events []progressEvent, sawDone bool) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/sweeps/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	scanner := bufio.NewScanner(resp.Body)
	event := ""
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if event == "done" {
				sawDone = true
				continue
			}
			var ev progressEvent
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatalf("bad event payload %q: %v", line, err)
			}
			events = append(events, ev)
		}
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}
	return events, sawDone
}

// TestServeCachedResubmissionAnsweredAtSubmit: a sweep whose every point
// is cached is finished in its own POST reply — every job done and
// cached, nothing simulated, the hits counted once each — and an SSE
// subscriber attaching afterwards gets every event replayed and a closed
// stream. A grid that is half cached simulates only its misses.
func TestServeCachedResubmissionAnsweredAtSubmit(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	half := smallSweep("half")
	half.MSHRSizes = []int{16}
	first := submit(t, ts, half)
	if done := wait(t, ts, first.ID); done.Failed != 0 {
		t.Fatalf("first pass failed: %+v", done.Jobs)
	}
	before := getMetrics(t, ts)

	again := submit(t, ts, half)
	if !again.Finished || again.Done != again.Total || again.Failed != 0 {
		t.Fatalf("fully cached resubmission not finished in its reply: %+v", again)
	}
	for i, job := range again.Jobs {
		if job.Status != "done" || !job.Cached || job.Key != first.Jobs[i].Key {
			t.Errorf("reply job %+v, want done and cached under key %s", job, first.Jobs[i].Key)
		}
	}
	m := getMetrics(t, ts)
	if m.Simulations != before.Simulations {
		t.Errorf("cached resubmission simulated: %d -> %d", before.Simulations, m.Simulations)
	}
	if got := m.Cache.Hits - before.Cache.Hits; got != uint64(again.Total) {
		t.Errorf("cache hits grew by %d, want %d", got, again.Total)
	}
	events, sawDone := readEvents(t, ts, again.ID)
	if len(events) != again.Total || !sawDone {
		t.Fatalf("late subscriber got %d events (done %t), want %d and done", len(events), sawDone, again.Total)
	}
	for i, ev := range events {
		if ev.Done != i+1 || ev.Total != again.Total || !ev.Cached || ev.Err != "" {
			t.Errorf("replayed event %+v", ev)
		}
	}

	full := smallSweep("full") // scratchpad and stash at MSHR 16 are cached
	mixed := submit(t, ts, full)
	for _, job := range mixed.Jobs {
		hit := false
		for _, c := range first.Jobs {
			hit = hit || c.Key == job.Key
		}
		if hit && (job.Status != "done" || !job.Cached) {
			t.Errorf("cached point %+v not answered in the reply", job)
		}
	}
	done := wait(t, ts, mixed.ID)
	if done.Failed != 0 {
		t.Fatalf("mixed grid failed: %+v", done.Jobs)
	}
	after := getMetrics(t, ts)
	misses := uint64(done.Total - first.Total)
	if got := after.Simulations - m.Simulations; got != misses {
		t.Errorf("mixed grid ran %d simulations, want %d (its misses)", got, misses)
	}
	if got := after.Cache.Hits - m.Cache.Hits; got != uint64(first.Total) {
		t.Errorf("mixed grid counted %d cache hits, want %d", got, first.Total)
	}
	cached := 0
	for _, job := range done.Jobs {
		if job.Cached {
			cached++
		}
	}
	if cached != first.Total {
		t.Errorf("mixed grid marked %d jobs cached, want %d", cached, first.Total)
	}
}

// TestServeDeleteFinishedSweep: a DELETE of a sweep that has already
// finished cancels nothing, so it leaves the sweep unmarked: the reply and
// every later read show it finished, not canceled, with nothing failed,
// and /metrics counts no cancellation.
func TestServeDeleteFinishedSweep(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	sub := smallSweep("finished")
	wait(t, ts, submit(t, ts, sub).ID)
	cached := submit(t, ts, sub)
	before := getMetrics(t, ts)
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/sweeps/"+cached.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var reply sweepDoc
	err = json.NewDecoder(resp.Body).Decode(&reply)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !cached.Finished || cached.Canceled || cached.Failed != 0 {
		t.Fatalf("fully cached resubmission: %+v, want finished with nothing failed", cached)
	}
	cached.Jobs = nil
	if resp.StatusCode != http.StatusOK || !reflect.DeepEqual(reply, cached) {
		t.Errorf("DELETE of a finished sweep: %d %+v, want 200 %+v", resp.StatusCode, reply, cached)
	}
	after := wait(t, ts, cached.ID)
	after.Jobs = nil
	if !reflect.DeepEqual(after, cached) {
		t.Errorf("after DELETE the sweep reads %+v, want %+v unchanged", after, cached)
	}
	if m := getMetrics(t, ts); m.Canceled != before.Canceled {
		t.Errorf("canceled counter moved %d -> %d", before.Canceled, m.Canceled)
	}
}

// TestServeJobErrorsSurface: a submission whose points cannot build (uts
// has no local-memory parameter) completes with per-job errors that name
// the cause, on both the status document and the event stream.
func TestServeJobErrorsSurface(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	doc := submit(t, ts, Submission{
		Name:      "broken",
		Workloads: []string{"uts"},
		LocalMems: []string{"stash"},
	})
	done := wait(t, ts, doc.ID)
	if done.Failed != done.Total {
		t.Fatalf("%d of %d jobs failed, want all", done.Failed, done.Total)
	}
	for _, job := range done.Jobs {
		if job.Status != "failed" || !strings.Contains(job.Err, `no parameter "local"`) {
			t.Errorf("job %q: status %q err %q does not explain the failure",
				job.Label, job.Status, job.Err)
		}
	}
	m := getMetrics(t, ts)
	if m.Simulations != 0 {
		t.Errorf("broken jobs still ran %d simulations", m.Simulations)
	}
	if m.Jobs.Failed != uint64(done.Total) {
		t.Errorf("metrics count %d failures, want %d", m.Jobs.Failed, done.Total)
	}
}

// TestServeSubmissionValidation: malformed submissions are rejected up
// front with 400s, not accepted as doomed sweeps.
func TestServeSubmissionValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, sub := range map[string]Submission{
		"no workloads":     {Name: "x"},
		"unknown workload": {Workloads: []string{"nosuch"}},
		"bad protocol":     {Workloads: []string{"uts"}, Protocols: []string{"mesi"}},
		"bad local memory": {Workloads: []string{"implicit"}, LocalMems: []string{"l3"}},
	} {
		if _, status := trySubmit(t, ts, sub); status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, status)
		}
	}
	resp, err := http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("syntactically bad body: status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/results/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown result key: status %d, want 404", resp.StatusCode)
	}
}

// TestServeCachePersistence: a server writes its results to the configured
// directory, and a fresh server over the same directory serves the old
// results without re-simulating.
func TestServeCachePersistence(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{Workers: 2, CacheDir: dir})
	doc := submit(t, ts1, smallSweep("warmup"))
	done := wait(t, ts1, doc.ID)
	if err := s1.Drain(); err != nil {
		t.Fatal(err)
	}
	fresh := map[string][]byte{}
	for _, job := range done.Jobs {
		fresh[job.Key] = getResult(t, ts1, job.Key)
	}
	ts1.Close()

	_, ts2 := newTestServer(t, Config{Workers: 2, CacheDir: dir})
	doc2 := submit(t, ts2, smallSweep("warm"))
	done2 := wait(t, ts2, doc2.ID)
	m := getMetrics(t, ts2)
	if m.Simulations != 0 {
		t.Errorf("warm server re-ran %d simulations", m.Simulations)
	}
	if m.Cache.Hits != uint64(done2.Total) {
		t.Errorf("warm server recorded %d hits, want %d", m.Cache.Hits, done2.Total)
	}
	for _, job := range done2.Jobs {
		if got := getResult(t, ts2, job.Key); !bytes.Equal(got, fresh[job.Key]) {
			t.Errorf("persisted result for %q differs from the original run", job.Label)
		}
	}
}

// TestServeMetricsHistogram: fresh simulations populate the ns-per-cycle
// histogram (total observations equal the simulation count) and the
// aggregate cycle/nanosecond counters.
func TestServeMetricsHistogram(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	doc := submit(t, ts, smallSweep("hist"))
	wait(t, ts, doc.ID)
	m := getMetrics(t, ts)
	var observations uint64
	for _, b := range m.NsPerCycle {
		observations += b.Count
	}
	if observations != m.Simulations {
		t.Errorf("histogram holds %d observations for %d simulations", observations, m.Simulations)
	}
	if m.SimCycles == 0 {
		t.Error("no simulated cycles recorded")
	}
	if m.NsPerCycle[len(m.NsPerCycle)-1].Le != nil {
		t.Error("last histogram bucket should be the +Inf overflow (le null)")
	}
}

// tracedPoint is a one-point submission with the trace opt-in set.
func tracedPoint(name string, trace bool) Submission {
	return Submission{
		Name:      name,
		Workloads: []string{"implicit"},
		Params:    map[string]string{"warps": "4", "databytes": "2048", "rounds": "1"},
		Trace:     trace,
	}
}

// TestServeTraceArtifact: a submission with "trace": true stores a
// Chrome-trace artifact next to the cached result, served at
// /results/{key}/trace; the result bytes themselves stay byte-identical
// to an untraced run (trace presence is outside the cache identity), and
// a key that never opted in has no artifact.
func TestServeTraceArtifact(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{Workers: 2, CacheDir: dir})
	done := wait(t, ts, submit(t, ts, tracedPoint("traced", true)).ID)
	if done.Failed != 0 {
		t.Fatalf("traced sweep had failures: %+v", done.Jobs)
	}
	key := done.Jobs[0].Key

	resp, err := http.Get(ts.URL + "/results/" + key + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: status %d", resp.StatusCode)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&trace); err != nil {
		t.Fatalf("trace artifact is not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Error("trace artifact has no events")
	}

	// Tracing must not have perturbed the result: an untraced submission
	// of the same point is a cache hit on the same key with the same bytes.
	tracedBytes := getResult(t, ts, key)
	done2 := wait(t, ts, submit(t, ts, tracedPoint("untraced", false)).ID)
	if done2.Jobs[0].Key != key {
		t.Fatalf("trace opt-in changed the cache key: %s vs %s", done2.Jobs[0].Key, key)
	}
	if !done2.Jobs[0].Cached {
		t.Error("untraced resubmission was not a cache hit")
	}
	if !bytes.Equal(getResult(t, ts, key), tracedBytes) {
		t.Error("result bytes changed between traced and untraced submissions")
	}

	// The artifact is written through to the cache directory with a
	// suffix the result boot-glob ignores.
	if _, err := os.Stat(filepath.Join(dir, key+".trace")); err != nil {
		t.Errorf("trace artifact not persisted: %v", err)
	}

	// A restarted server serves the persisted artifact from disk.
	_, ts2 := newTestServer(t, Config{Workers: 2, CacheDir: dir})
	resp2, err := http.Get(ts2.URL + "/results/" + key + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("restarted server: GET trace status %d", resp2.StatusCode)
	}

	// A fresh key that never opted in has no artifact.
	done3 := wait(t, ts, submit(t, ts, Submission{
		Name:      "plain",
		Workloads: []string{"implicit"},
		Params:    map[string]string{"warps": "2", "databytes": "1024", "rounds": "1"},
	}).ID)
	resp3, err := http.Get(ts.URL + "/results/" + done3.Jobs[0].Key + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Errorf("untraced key served a trace: status %d", resp3.StatusCode)
	}
}

// TestServeStallMetrics: fresh simulations fold their per-kind stall
// cycles and engine counters into /metrics, in both the JSON and the
// Prometheus renderings; cached jobs do not double-count.
func TestServeStallMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	wait(t, ts, submit(t, ts, smallSweep("stalls")).ID)
	m := getMetrics(t, ts)
	var total uint64
	for _, n := range m.StallCycles {
		total += n
	}
	if total == 0 {
		t.Fatal("no stall cycles folded into /metrics")
	}
	if len(m.StallCycles) != core.NumStallKinds {
		t.Errorf("StallCycles has %d kinds, want %d", len(m.StallCycles), core.NumStallKinds)
	}
	before := total

	// A cache-hit pass must leave the aggregates untouched.
	wait(t, ts, submit(t, ts, smallSweep("again")).ID)
	m = getMetrics(t, ts)
	total = 0
	for _, n := range m.StallCycles {
		total += n
	}
	if total != before {
		t.Errorf("cached pass changed the stall aggregate: %d -> %d", before, total)
	}

	resp, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, series := range []string{
		`gsi_stall_cycles_total{kind="idle"}`,
		"gsi_engine_jumps_total",
		"gsi_engine_skipped_cycles_total",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("prometheus output missing %s", series)
		}
	}
}
