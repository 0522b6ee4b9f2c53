package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"gsi/internal/faultinject"
)

func mustInjector(t *testing.T, spec string) *faultinject.Injector {
	t.Helper()
	in, err := faultinject.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestServeChaosPanicIsolated is the poisoned-point contract: with panics
// injected into the stash half of a sweep, those points fail individually
// with the contained-panic error, the scratchpad siblings complete and
// cache normally, the panic counter moves, and the process (trivially)
// survives. Each poisoned point is simulated exactly once: the injector
// decides from the label alone, so a rerun would only panic again.
func TestServeChaosPanicIsolated(t *testing.T) {
	inj := mustInjector(t, "stash:panic")
	_, ts := newTestServer(t, Config{Workers: 2, Chaos: inj})
	doc := submit(t, ts, smallSweep("chaos"))
	final := wait(t, ts, doc.ID)

	var failed, done int
	for _, j := range final.Jobs {
		faulted := inj.Decide(j.Label) != faultinject.FaultNone
		switch {
		case faulted && j.Status == "failed":
			failed++
			if !strings.Contains(j.Err, "panicked") {
				t.Errorf("job %q error %q does not identify the contained panic", j.Label, j.Err)
			}
			// A faulted point must never be cached.
			resp, err := http.Get(ts.URL + "/results/" + j.Key)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("faulted job %q has a cached result (status %d)", j.Label, resp.StatusCode)
			}
		case !faulted && j.Status == "done":
			done++
			getResult(t, ts, j.Key) // sibling's result must be served
		default:
			t.Errorf("job %q: status %q with fault=%v", j.Label, j.Status, inj.Decide(j.Label))
		}
	}
	if failed == 0 || done == 0 {
		t.Fatalf("chaos spec did not split the sweep (failed=%d done=%d)", failed, done)
	}
	m := getMetrics(t, ts)
	if m.Panics != uint64(failed) {
		t.Errorf("panic counter = %d, want %d", m.Panics, failed)
	}
	if got := inj.Injected(faultinject.FaultPanic); got != uint64(failed) {
		t.Errorf("injector recorded %d panics, want %d (one simulation per poisoned point)", got, failed)
	}
	if m.Jobs.Failed != uint64(failed) || m.Jobs.Done != uint64(done) {
		t.Errorf("job counters failed=%d done=%d, want %d/%d", m.Jobs.Failed, m.Jobs.Done, failed, done)
	}
}

// TestServeJobDeadline: a stalled point blows its wall-clock deadline and
// fails with the typed diagnosis-carrying error while its healthy
// siblings complete.
func TestServeJobDeadline(t *testing.T) {
	inj := mustInjector(t, "stash:stall")
	_, ts := newTestServer(t, Config{Workers: 2, Chaos: inj,
		JobTimeout: 300 * time.Millisecond})
	doc := submit(t, ts, smallSweep("deadline"))
	final := wait(t, ts, doc.ID)

	var failed, done int
	for _, j := range final.Jobs {
		if inj.Decide(j.Label) != faultinject.FaultNone {
			failed++
			if j.Status != "failed" || !strings.Contains(j.Err, "deadline") {
				t.Errorf("stalled job %q: status %q err %q, want a deadline failure", j.Label, j.Status, j.Err)
			}
			if !strings.Contains(j.Err, "diagnosis") {
				t.Errorf("deadline error for %q carries no engine diagnosis: %q", j.Label, j.Err)
			}
		} else {
			done++
			if j.Status != "done" {
				t.Errorf("healthy job %q: status %q err %q", j.Label, j.Status, j.Err)
			}
		}
	}
	if failed == 0 || done == 0 {
		t.Fatalf("chaos spec did not split the sweep (failed=%d done=%d)", failed, done)
	}
	if m := getMetrics(t, ts); m.Canceled != uint64(failed) {
		t.Errorf("canceled counter = %d, want %d", m.Canceled, failed)
	}
}

// TestServeDeleteCancelsInFlight: DELETE /sweeps/{id} stops the sweep's
// running simulations at their next cooperative check — stalled points
// that would otherwise spin to the 50M-cycle watchdog unwind promptly and
// the sweep reaches finished with per-job canceled errors.
func TestServeDeleteCancelsInFlight(t *testing.T) {
	inj := mustInjector(t, "implicit:stall")
	_, ts := newTestServer(t, Config{Workers: 4, Chaos: inj})
	doc := submit(t, ts, smallSweep("doomed"))

	// Wait until at least one simulation holds a pool slot.
	deadline := time.Now().Add(10 * time.Second)
	for getMetrics(t, ts).Jobs.Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no simulation started within 10s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/sweeps/"+doc.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var delDoc sweepDoc
	if err := json.NewDecoder(resp.Body).Decode(&delDoc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !delDoc.Canceled {
		t.Errorf("DELETE response does not mark the sweep canceled")
	}

	start := time.Now()
	final := wait(t, ts, doc.ID)
	if waited := time.Since(start); waited > 30*time.Second {
		t.Errorf("sweep took %v to unwind after DELETE", waited)
	}
	if !final.Canceled || final.Failed != final.Total {
		t.Fatalf("after DELETE: canceled=%v failed=%d/%d, want all jobs failed",
			final.Canceled, final.Failed, final.Total)
	}
	for _, j := range final.Jobs {
		if !strings.Contains(j.Err, "cancel") {
			t.Errorf("job %q error %q does not identify the cancellation", j.Label, j.Err)
		}
	}
	if m := getMetrics(t, ts); m.Canceled != uint64(final.Total) {
		t.Errorf("canceled counter = %d, want %d", m.Canceled, final.Total)
	}
}

// TestServeCrashRecovery is the kill -9 contract: each result is durably
// on disk as <key>.json before its job completes, so a server that dies
// without draining loses nothing already finished — a fresh server over
// the same directory loads every result (visible on /readyz and /metrics)
// and re-serves the sweep with zero new simulations. A *.tmp left by a
// write the crash interrupted is neither loaded nor left behind.
func TestServeCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := newTestServer(t, Config{Workers: 2, CacheDir: dir})
	final := wait(t, ts1, submit(t, ts1, smallSweep("pre-crash")).ID)
	if final.Failed != 0 {
		t.Fatalf("seed sweep failed: %+v", final)
	}
	// No Drain: the process "dies" here. Every completed result must
	// already be its own file.
	for _, j := range final.Jobs {
		data, err := os.ReadFile(filepath.Join(dir, j.Key+".json"))
		if err != nil {
			t.Fatalf("job %q completed without its result on disk: %v", j.Label, err)
		}
		if !bytes.Equal(data, getResult(t, ts1, j.Key)) {
			t.Errorf("job %q: file differs from the served result", j.Label)
		}
	}
	// Simulate the crash interrupting a write before its rename.
	stray := filepath.Join(dir, "feedface.json.123.tmp")
	if err := os.WriteFile(stray, []byte(`{"torn`), 0o644); err != nil {
		t.Fatal(err)
	}

	_, ts2 := newTestServer(t, Config{Workers: 2, CacheDir: dir})
	var ready struct {
		Ready  bool `json:"ready"`
		Loaded int  `json:"loaded"`
	}
	resp, err := http.Get(ts2.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !ready.Ready || ready.Loaded != final.Total {
		t.Fatalf("readyz = %+v, want ready with %d loaded", ready, final.Total)
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Errorf("interrupted write %s survived the boot (stat: %v)", filepath.Base(stray), err)
	}

	final2 := wait(t, ts2, submit(t, ts2, smallSweep("post-crash")).ID)
	for _, j := range final2.Jobs {
		if j.Status != "done" || !j.Cached {
			t.Errorf("post-crash job %q: status %q cached %v, want cached done", j.Label, j.Status, j.Cached)
		}
	}
	m := getMetrics(t, ts2)
	if m.Simulations != 0 {
		t.Errorf("restart re-simulated %d points; the loaded results should serve all", m.Simulations)
	}
	if m.Cache.Loaded != uint64(final.Total) || m.Cache.Entries != uint64(final.Total) {
		t.Errorf("cache metrics loaded=%d entries=%d, want %d each", m.Cache.Loaded, m.Cache.Entries, final.Total)
	}
}

// TestServeLeaderDetachBooksBalance: sweep A leads a slow simulation,
// sweep B joins its flight, then A is deleted. A fails as canceled, the
// flight runs on for B, and B — the one job handed the result — claims
// the simulation. Nothing counts B as a dedup hit as well, so the books
// balance at two claims for two jobs.
func TestServeLeaderDetachBooksBalance(t *testing.T) {
	inj := mustInjector(t, "implicit:slow, slowms=1000")
	s, ts := newTestServer(t, Config{Workers: 2, Chaos: inj})
	point := smallSweep("leader")
	point.LocalMems, point.MSHRSizes = []string{"scratchpad"}, []int{16}
	a := submit(t, ts, point)
	key := a.Jobs[0].Key
	waiters := func() int {
		s.flight.mu.Lock()
		defer s.flight.mu.Unlock()
		if c := s.flight.m[key]; c != nil {
			return c.waiters
		}
		return 0
	}
	deadline := time.Now().Add(10 * time.Second)
	for getMetrics(t, ts).Jobs.Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("A's simulation did not start within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	point.Name = "follower"
	b := submit(t, ts, point)
	for waiters() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("B did not join A's flight within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/sweeps/"+a.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	if fa := wait(t, ts, a.ID); fa.Failed != 1 || !strings.Contains(fa.Jobs[0].Err, "cancel") {
		t.Fatalf("deleted leader: %+v, want one canceled job", fa.Jobs)
	}
	if fb := wait(t, ts, b.ID); fb.Failed != 0 || fb.Jobs[0].Cached {
		t.Fatalf("follower: %+v, want done from the simulation it claimed", fb.Jobs)
	}
	m := getMetrics(t, ts)
	if m.Jobs.Done != 1 || m.Jobs.Failed != 1 || m.Simulations != 1 || m.Cache.DedupHits != 0 || m.Cache.Hits != 0 {
		t.Errorf("done=%d failed=%d simulations=%d dedup=%d hits=%d, want 1/1/1/0/0",
			m.Jobs.Done, m.Jobs.Failed, m.Simulations, m.Cache.DedupHits, m.Cache.Hits)
	}
}

// TestServeDrainUnderLoad: a forced drain (grace already expired) with
// in-flight stalled jobs and an open SSE stream cancels the simulations
// cooperatively, lets every stream end, refuses new work, flips /readyz,
// and leaks no goroutines.
func TestServeDrainUnderLoad(t *testing.T) {
	inj := mustInjector(t, "implicit:stall")
	s, ts := newTestServer(t, Config{Workers: 4, CacheDir: t.TempDir(), Chaos: inj})
	baseline := runtime.NumGoroutine()

	doc := submit(t, ts, smallSweep("drain-load"))
	// Open an SSE stream and hold it across the drain.
	sseResp, err := http.Get(ts.URL + "/sweeps/" + doc.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sseResp.Body.Close()

	deadline := time.Now().Add(10 * time.Second)
	for getMetrics(t, ts).Jobs.Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no simulation started within 10s")
		}
		time.Sleep(5 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.DrainContext(ctx); err != nil {
		t.Fatalf("DrainContext: %v", err)
	}

	// Draining: not ready, no new sweeps.
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain: status %d, want 503", resp.StatusCode)
	}
	if _, status := trySubmit(t, ts, smallSweep("late")); status != http.StatusServiceUnavailable {
		t.Errorf("submission during drain: status %d, want 503", status)
	}

	// The sweep finished (canceled), so the SSE stream must end with the
	// done event rather than hang.
	sawDone := false
	sc := bufio.NewScanner(sseResp.Body)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "event: done") {
			sawDone = true
		}
	}
	if !sawDone {
		t.Errorf("SSE stream did not end with the done event after drain")
	}
	final := wait(t, ts, doc.ID)
	if final.Failed != final.Total {
		t.Errorf("forced drain: %d/%d jobs failed, want all (canceled)", final.Failed, final.Total)
	}

	// No goroutine leaks: everything spawned for the sweep (pool waits,
	// flight leaders, SSE plumbing) unwinds. Allow scheduling slack.
	leakDeadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+3 {
			break
		}
		if time.Now().After(leakDeadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked after drain: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServeSubmissionJobCap: a submission whose axes multiply past
// maxJobsPerSubmission is refused with a 400 that names the count, before
// any job is expanded or registered. A few hundred bytes of JSON would
// otherwise become thousands of jobs.
func TestServeSubmissionJobCap(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	sub := Submission{Name: "oversized", Workloads: []string{"implicit"}}
	for i := 1; i <= 65; i++ {
		sub.Protocols = append(sub.Protocols, "gpu")
		sub.MSHRSizes = append(sub.MSHRSizes, i)
	}
	body, err := json.Marshal(sub)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "4225") {
		t.Errorf("65x65 grid: status %d body %q, want a 400 naming 4225 jobs", resp.StatusCode, msg)
	}
	resp, err = http.Get(ts.URL + "/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	var sweeps []sweepDoc
	if err := json.NewDecoder(resp.Body).Decode(&sweeps); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m := getMetrics(t, ts); len(sweeps) != 0 || m.Jobs.Queued != 0 {
		t.Errorf("refused submission registered %d sweeps, %d queued jobs", len(sweeps), m.Jobs.Queued)
	}
}

// FuzzSubmission drives raw bodies through POST /sweeps on a server that is
// already draining, so nothing simulates. Whatever the body, the handler
// does not panic and answers 400, 413 or 503, and a 503 (refused only for
// draining) comes only for a body that decodes to a submission grid
// accepts — known names, within the job cap.
func FuzzSubmission(f *testing.F) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	s.BeginDrain()
	f.Cleanup(func() { assertBooksBalance(f, s) })
	seed := func(sub Submission) {
		body, err := json.Marshal(sub)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	seed(smallSweep("valid"))
	oversized := smallSweep("oversized")
	for i := 1; i <= 65; i++ {
		oversized.Protocols = append(oversized.Protocols, "gpu")
		oversized.MSHRSizes = append(oversized.MSHRSizes, i)
	}
	seed(oversized)
	badTimeout := smallSweep("bad-timeout")
	badTimeout.Timeout = "soon"
	seed(badTimeout)
	seed(Submission{Workloads: []string{"nosuch"}})
	seed(Submission{Workloads: []string{"implicit"}, Protocols: []string{"mesi"}})
	f.Add([]byte(fmt.Sprintf(`{"name":%q,"workloads":["implicit"]}`, strings.Repeat("x", maxSubmissionBytes))))

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sweeps", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		case http.StatusServiceUnavailable:
			var sub Submission
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&sub); err != nil {
				t.Fatalf("503 for a body that does not decode: %v", err)
			}
			if _, err := sub.grid(); err != nil {
				t.Fatalf("503 for a submission grid rejects: %v", err)
			}
		default:
			t.Fatalf("status %d, want 400, 413 or 503", rec.Code)
		}
	})
}

// TestServeSubmissionBodyLimit: an oversized POST /sweeps body is refused
// with 413 instead of being buffered.
func TestServeSubmissionBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	big := fmt.Sprintf(`{"name":%q,"workloads":["implicit"]}`, strings.Repeat("x", maxSubmissionBytes))
	resp, err := http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized submission: status %d, want 413", resp.StatusCode)
	}
}

// TestServeTimeoutOverride: submissions may override the default job
// deadline but a bad value is a 400 and the server cap always wins.
func TestServeTimeoutOverride(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	sub := smallSweep("bad-timeout")
	sub.Timeout = "soon"
	if _, status := trySubmit(t, ts, sub); status != http.StatusBadRequest {
		t.Errorf("bad timeout: status %d, want 400", status)
	}

	cfg := Config{JobTimeout: time.Minute, MaxJobTimeout: 2 * time.Minute}
	for _, tc := range []struct {
		override time.Duration
		want     time.Duration
	}{
		{0, time.Minute},                     // default applies
		{30 * time.Second, 30 * time.Second}, // override wins
		{time.Hour, 2 * time.Minute},         // cap beats the override
	} {
		if got := cfg.jobTimeout(tc.override); got != tc.want {
			t.Errorf("jobTimeout(%v) = %v, want %v", tc.override, got, tc.want)
		}
	}
	// A cap with no default still bounds every job.
	capped := Config{MaxJobTimeout: time.Minute}
	if got := capped.jobTimeout(0); got != time.Minute {
		t.Errorf("jobTimeout(0) under cap-only config = %v, want the cap", got)
	}
}

// TestFlightWaiterDetach: the singleflight keeps a shared run alive while
// any waiter remains — canceling sweep A's job must not kill the
// simulation sweep B is waiting on — and cancels the run only when the
// last waiter detaches.
func TestFlightWaiterDetach(t *testing.T) {
	var g flightGroup
	started := make(chan context.Context, 1)
	release := make(chan *freshRun, 1)
	fn := func(fctx context.Context) (*freshRun, error) {
		started <- fctx
		select {
		case run := <-release:
			return run, nil
		case <-fctx.Done():
			return nil, fctx.Err()
		}
	}

	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	type result struct {
		val   *freshRun
		err   error
		claim bool
	}
	aDone := make(chan result, 1)
	bDone := make(chan result, 1)
	go func() {
		val, err, claim := g.Do(ctxA, "k", fn)
		aDone <- result{val, err, claim}
	}()
	fctx := <-started // the leader's fn is running
	go func() {
		val, err, claim := g.Do(context.Background(), "k", fn)
		bDone <- result{val, err, claim}
	}()

	// Give B a moment to join the flight, then cancel A: A detaches with
	// its own context error while the flight keeps running for B.
	time.Sleep(20 * time.Millisecond)
	cancelA()
	a := <-aDone
	if !errors.Is(a.err, context.Canceled) {
		t.Fatalf("canceled waiter got %v, want context.Canceled", a.err)
	}
	select {
	case <-fctx.Done():
		t.Fatal("flight canceled while a waiter remained")
	default:
	}

	want := &freshRun{nanos: 1}
	release <- want
	b := <-bDone
	if b.err != nil || b.val != want {
		t.Fatalf("surviving waiter got (%v, %v), want the result", b.val, b.err)
	}
	// The detached leader claimed nothing, so the follower — the only job
	// handed the outcome — is its claimant.
	if !b.claim {
		t.Error("surviving follower was not handed the claim on the flight it kept alive")
	}

	// Second flight: when the last waiter detaches, the flight context
	// must fire so the simulation stops.
	ctxC, cancelC := context.WithCancel(context.Background())
	cDone := make(chan result, 1)
	go func() {
		val, err, claim := g.Do(ctxC, "k2", fn)
		cDone <- result{val, err, claim}
	}()
	fctx2 := <-started
	cancelC()
	<-cDone
	select {
	case <-fctx2.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("flight context did not cancel after the last waiter detached")
	}
}

// TestFlightGaugeFollowsWaiters: the running gauge drops the moment a
// simulation's last waiter detaches — that caller's job is about to be
// counted as failed, and /metrics must never show it as both — not when the
// abandoned simulation reaches its next cancellation check, and it does not
// drop a second time when it does.
func TestFlightGaugeFollowsWaiters(t *testing.T) {
	m := newMetrics()
	g := flightGroup{gauge: m}
	running := func() uint64 { return m.snapshot(cacheStats{}).Jobs.Running }

	simulating := make(chan struct{})
	unwind := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	detached := make(chan error, 1)
	go func() {
		_, err, _ := g.Do(ctx, "k", func(context.Context) (*freshRun, error) {
			g.simStart("k")
			defer g.simEnd("k")
			close(simulating)
			<-unwind // an engine between two cancellation checks
			return nil, context.Canceled
		})
		detached <- err
	}()
	<-simulating
	if got := running(); got != 1 {
		t.Fatalf("running = %d while the leader waits on its simulation, want 1", got)
	}
	cancel()
	if err := <-detached; !errors.Is(err, context.Canceled) {
		t.Fatalf("detached waiter got %v, want context.Canceled", err)
	}
	if got := running(); got != 0 {
		t.Fatalf("running = %d after the last waiter detached, want 0", got)
	}
	close(unwind)
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		g.mu.Lock()
		n := len(g.m)
		g.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("abandoned flight never unwound")
		}
	}
	if got := running(); got != 0 {
		t.Fatalf("running = %d after the abandoned simulation unwound, want 0", got)
	}
}
