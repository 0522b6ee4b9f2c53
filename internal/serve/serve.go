// Package serve implements sweep-as-a-service: a long-running HTTP/JSON
// server that accepts sweep submissions in the public Grid/Axes
// vocabulary, expands them into jobs on one shared bounded worker pool,
// and answers through a content-addressed result cache.
//
// The cache is sound because simulations are deterministic: a grid point
// is fully described by (Options, workload name, parameters), so its
// gsi.CacheKey content address maps to exactly one correct serialized
// Report, and a cached response is byte-identical to a fresh run.
// Identical grid points from overlapping client sweeps therefore become
// cache hits instead of re-simulations, and concurrent duplicates share
// one in-flight run via singleflight. See docs/ARCHITECTURE.md, "Sweep
// serving and the result cache".
//
// Failure is isolated per grid point: a panicking or deadline-blown job
// becomes a typed per-job error (streamed like any other completion) and
// never poisons its siblings, the cache, or the process. It is not
// retried: a simulation is deterministic, so a rerun fails the same way.
// See docs/ARCHITECTURE.md, "Failure domains and recovery".
//
// Endpoints:
//
//	POST   /sweeps            submit a sweep (Submission document); 202 + job keys
//	GET    /sweeps            list sweeps
//	GET    /sweeps/{id}       sweep status (+ ?wait=1 to block until finished)
//	DELETE /sweeps/{id}       cancel the sweep's unfinished jobs
//	GET    /sweeps/{id}/events  per-job progress as Server-Sent Events
//	GET    /results/{key}     cached Report bytes by content address
//	GET    /results/{key}/trace  Chrome/Perfetto trace of the run (submissions with "trace": true)
//	GET    /metrics           jobs queued/running/done, cache hits/bytes/evictions, stall-cycle and
//	                          engine counters, ns-per-cycle histogram
//	                          (?format=prometheus for the text exposition format)
//	GET    /healthz           liveness (reports draining state)
//	GET    /readyz            readiness: 503 while draining; reports results loaded at boot
//	GET    /debug/pprof/      live profiles (internal/prof)
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"gsi"
	"gsi/internal/faultinject"
	"gsi/internal/prof"
	"gsi/internal/sweep"
)

// maxSubmissionBytes bounds a POST /sweeps request body; a submission is
// a small JSON grid document, so anything past this is a client bug or
// abuse, not a bigger sweep.
const maxSubmissionBytes = 1 << 20

// maxJobsPerSubmission bounds the grid points one submission may expand
// to. The body limit alone does not: a few kilobytes of repeated axis
// values multiply into millions of jobs.
const maxJobsPerSubmission = 4096

// errSimPanic classifies a simulation that panicked and was contained;
// the wrapped error carries the panic value and stack.
var errSimPanic = errors.New("serve: simulation panicked")

// Config parameterizes a Server.
type Config struct {
	// Workers bounds the shared simulation pool: at most this many
	// simulations run at once across all submissions (anything below 1
	// selects GOMAXPROCS, as in SweepConfig.Parallel).
	Workers int
	// CacheDir, when non-empty, persists the result cache: entries found
	// there are loaded at startup, and each new result is written there
	// durably before its job completes.
	CacheDir string
	// CacheMaxEntries and CacheMaxBytes bound the in-memory result cache
	// with LRU eviction (0 = unlimited). Eviction is sound — a future
	// request re-simulates to the identical bytes — and loses nothing
	// already written to CacheDir.
	CacheMaxEntries int
	CacheMaxBytes   int
	// JobTimeout is the default per-job wall-clock deadline: a simulation
	// running longer is canceled at its next cooperative check and fails
	// with gsi.ErrDeadline (carrying the engine diagnosis). 0 means no
	// deadline. Submissions may override it per request, up to
	// MaxJobTimeout.
	JobTimeout time.Duration
	// MaxJobTimeout caps the effective per-job deadline, including
	// per-submission overrides (0 = no cap).
	MaxJobTimeout time.Duration
	// Chaos, when non-nil, wraps every fresh simulation's workload with
	// the fault injector — test wiring for the chaos gate, never for
	// production serving. Injected failures are contained exactly like
	// real ones; faulted results are never cached.
	Chaos *faultinject.Injector
}

// jobTimeout resolves the effective deadline for one submission:
// override (when positive) beats the default, and MaxJobTimeout caps
// the result.
func (c Config) jobTimeout(override time.Duration) time.Duration {
	t := c.JobTimeout
	if override > 0 {
		t = override
	}
	if c.MaxJobTimeout > 0 && (t <= 0 || t > c.MaxJobTimeout) {
		t = c.MaxJobTimeout
	}
	return t
}

// Server is the sweep service. Create with New, mount Handler on an
// http.Server, and Drain on shutdown.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	sem     chan struct{}
	cache   *resultCache
	flight  flightGroup
	metrics *metrics

	// rootCtx parents every sweep's context (and, through the flight
	// group, every simulation); rootCancel is the hard-stop lever the
	// forced-drain path pulls.
	rootCtx    context.Context
	rootCancel context.CancelFunc

	mu       sync.Mutex
	draining bool
	sweeps   map[string]*sweepRun
	order    []string
	nextID   int

	jobs sync.WaitGroup
}

// New builds a Server, loading any persisted cache entries.
func New(cfg Config) (*Server, error) {
	cache, err := newResultCache(cfg.CacheDir, cfg.CacheMaxEntries, cfg.CacheMaxBytes)
	if err != nil {
		return nil, err
	}
	workers := sweep.Workers(cfg.Workers)
	rootCtx, rootCancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		mux:        http.NewServeMux(),
		sem:        make(chan struct{}, workers),
		cache:      cache,
		metrics:    newMetrics(),
		rootCtx:    rootCtx,
		rootCancel: rootCancel,
		sweeps:     map[string]*sweepRun{},
	}
	s.flight.root = rootCtx
	s.flight.gauge = s.metrics
	s.mux.HandleFunc("/sweeps", s.handleSweeps)
	s.mux.HandleFunc("/sweeps/", s.handleSweep)
	s.mux.HandleFunc("/results/", s.handleResult)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/readyz", s.handleReady)
	prof.Routes(s.mux)
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// BeginDrain stops the server accepting new sweep submissions (they are
// refused with 503); jobs already submitted keep running.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// WaitJobs blocks until every submitted job has finished.
func (s *Server) WaitJobs() { s.jobs.Wait() }

// Drain is the graceful-shutdown sequence: stop accepting and let running
// jobs finish. The caller then shuts the http.Server down so streaming
// responses complete. The error is the first result that failed to reach
// the cache directory, if any.
func (s *Server) Drain() error {
	return s.DrainContext(context.Background())
}

// DrainContext is Drain with a grace bound: if ctx fires before the
// in-flight jobs finish on their own, every running simulation is
// canceled cooperatively (it unwinds at its next context check with
// gsi.ErrCanceled) and the drain completes once they do. Completed
// results are on disk as they finish, so even a forced drain loses only
// work that was still in flight.
func (s *Server) DrainContext(ctx context.Context) error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.jobs.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.rootCancel()
		<-done
	}
	return s.cache.err()
}

// Submission is the POST /sweeps request body: a cartesian grid in the
// public Grid/Axes vocabulary. Workloads is required (registry names);
// an empty axis contributes its default point exactly as gsi.Grid does.
// Params are registry parameter overrides applied to every point.
type Submission struct {
	Name         string            `json:"name"`
	Workloads    []string          `json:"workloads"`
	Protocols    []string          `json:"protocols,omitempty"`
	MSHRSizes    []int             `json:"mshrSizes,omitempty"`
	LocalMems    []string          `json:"localMems,omitempty"`
	SFIFO        []bool            `json:"sfifo,omitempty"`
	OwnedAtomics []bool            `json:"ownedAtomics,omitempty"`
	StrongCycle  []bool            `json:"strongCycle,omitempty"`
	Params       map[string]string `json:"params,omitempty"`
	// Timeout overrides the server's default per-job deadline for this
	// submission (Go duration syntax, e.g. "90s"); the server's
	// -job-timeout-max cap still applies.
	Timeout string `json:"timeout,omitempty"`
	// Trace, when true, records a structured event trace for every fresh
	// simulation this submission triggers and stores the Chrome/Perfetto
	// artifact next to the cached result, served at
	// /results/{key}/trace. Tracing never changes the Report or the cache
	// key: a traced and an untraced submission of the same grid point
	// share one result entry, and a job served from the cache (or from a
	// shared in-flight run) reuses whatever trace artifact the key
	// already has rather than re-simulating.
	Trace bool `json:"trace,omitempty"`
}

// grid expands the submission into the equivalent gsi.Grid. The job count
// is bounded from the axis lengths alone, before anything is expanded.
func (sub Submission) grid() (gsi.Grid, error) {
	if len(sub.Workloads) == 0 {
		return gsi.Grid{}, fmt.Errorf("serve: submission needs at least one workload")
	}
	jobs := 1
	for _, n := range []int{len(sub.Workloads), len(sub.Protocols), len(sub.MSHRSizes),
		len(sub.LocalMems), len(sub.SFIFO), len(sub.OwnedAtomics), len(sub.StrongCycle)} {
		jobs *= max(n, 1)
		if jobs > maxJobsPerSubmission {
			return gsi.Grid{}, fmt.Errorf("serve: submission expands to at least %d jobs; the limit is %d", jobs, maxJobsPerSubmission)
		}
	}
	reg := gsi.Workloads()
	for _, name := range sub.Workloads {
		if _, ok := reg.Lookup(name); !ok {
			return gsi.Grid{}, fmt.Errorf("serve: unknown workload %q", name)
		}
	}
	g := gsi.Grid{
		Name:         sub.Name,
		Workloads:    sub.Workloads,
		MSHRSizes:    sub.MSHRSizes,
		SFIFO:        sub.SFIFO,
		OwnedAtomics: sub.OwnedAtomics,
		StrongCycle:  sub.StrongCycle,
		Params:       gsi.WorkloadValues(sub.Params),
	}
	for _, p := range sub.Protocols {
		proto, err := gsi.ParseProtocol(p)
		if err != nil {
			return gsi.Grid{}, err
		}
		g.Protocols = append(g.Protocols, proto)
	}
	for _, lm := range sub.LocalMems {
		kind, err := gsi.ParseLocalMem(lm)
		if err != nil {
			return gsi.Grid{}, err
		}
		g.LocalMems = append(g.LocalMems, kind)
	}
	return g, nil
}

// jobState is one grid point of a submitted sweep. Immutable fields are
// set at submission; status/errMsg/run are guarded by the sweepRun mutex.
type jobState struct {
	index int
	label string
	key   string
	// run is what simulating the point takes. complete drops it, so a
	// finished sweep keeps only what its status document shows, not the
	// options and workload thunk (and the parameter maps it captures).
	run *simJob

	status string // "queued", "running", "done", "failed"
	errMsg string
	cached bool
}

// simJob is what one simulation of a grid point needs. runJob hands the
// flight this pointer rather than the job: a detached leader's flight can
// outlive its job, so the flight never reads the job's state.
type simJob struct {
	label   string
	key     string
	options gsi.Options
	thunk   func() gsi.Workload
	timeout time.Duration // effective wall-clock deadline; 0 = none
	trace   bool          // record + store a trace artifact on a fresh run
}

// progressEvent is one job-completion event, the serve counterpart of
// gsi.SweepProgress (plus the cache disposition), streamed on
// /sweeps/{id}/events and replayed to late subscribers.
type progressEvent struct {
	Done   int    `json:"done"`
	Total  int    `json:"total"`
	Index  int    `json:"index"`
	Label  string `json:"label"`
	Err    string `json:"err,omitempty"`
	Cached bool   `json:"cached"`
}

// sweepRun is the server-side state of one submission. ctx parents every
// job's work; cancel (DELETE /sweeps/{id}) detaches the sweep's jobs
// from their simulations — a simulation shared with another sweep keeps
// running for that sweep, an unshared one stops at its next cooperative
// check. Both are dropped (under mu) when the last job completes.
type sweepRun struct {
	id     string
	name   string
	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	jobs     []jobState
	done     int
	failed   int
	canceled bool
	events   []progressEvent
	subs     map[chan progressEvent]bool
	finished chan struct{}
}

// subscribe registers an events channel, returning the events already
// emitted (for replay) and whether the sweep is already finished. The
// channel is buffered for every remaining event, so senders never block.
func (sw *sweepRun) subscribe() (replay []progressEvent, ch chan progressEvent, finished bool) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	replay = append(replay, sw.events...)
	if sw.done == len(sw.jobs) {
		return replay, nil, true
	}
	ch = make(chan progressEvent, len(sw.jobs)-sw.done)
	sw.subs[ch] = true
	return replay, ch, false
}

// unsubscribe removes a subscriber (client went away before the end).
func (sw *sweepRun) unsubscribe(ch chan progressEvent) {
	sw.mu.Lock()
	delete(sw.subs, ch)
	sw.mu.Unlock()
}

// setRunning marks a job as actively processing.
func (sw *sweepRun) setRunning(i int) {
	sw.mu.Lock()
	sw.jobs[i].status = "running"
	sw.mu.Unlock()
}

// complete records one job's outcome, emits its progress event, and on
// the last job closes finished and the subscriber channels.
func (sw *sweepRun) complete(i int, errMsg string, cached bool) {
	sw.mu.Lock()
	job := &sw.jobs[i]
	job.errMsg = errMsg
	job.cached = cached
	job.run = nil
	job.status = "done"
	if errMsg != "" {
		job.status = "failed"
		sw.failed++
	}
	sw.done++
	ev := progressEvent{Done: sw.done, Total: len(sw.jobs), Index: i,
		Label: job.label, Err: errMsg, Cached: cached}
	sw.events = append(sw.events, ev)
	last := sw.done == len(sw.jobs)
	for ch := range sw.subs {
		ch <- ev // buffered for every remaining event; never blocks
		if last {
			close(ch)
		}
	}
	if last {
		sw.subs = nil
		close(sw.finished)
		// Every job has read ctx; the submit goroutine cancels it.
		sw.ctx, sw.cancel = nil, nil
	}
	sw.mu.Unlock()
}

// sweepDoc is the JSON view of a sweep's status.
type sweepDoc struct {
	ID       string   `json:"id"`
	Name     string   `json:"name"`
	Total    int      `json:"total"`
	Done     int      `json:"done"`
	Failed   int      `json:"failed"`
	Finished bool     `json:"finished"`
	Canceled bool     `json:"canceled,omitempty"`
	Jobs     []jobDoc `json:"jobs,omitempty"`
}

// jobDoc is the JSON view of one job. Result is the job's content
// address; fetch the Report bytes from /results/{result}.
type jobDoc struct {
	Index  int    `json:"index"`
	Label  string `json:"label"`
	Key    string `json:"key"`
	Status string `json:"status"`
	Err    string `json:"err,omitempty"`
	Cached bool   `json:"cached,omitempty"`
}

// doc snapshots the sweep, with per-job detail when jobs is true.
func (sw *sweepRun) doc(jobs bool) sweepDoc {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	d := sweepDoc{ID: sw.id, Name: sw.name, Total: len(sw.jobs),
		Done: sw.done, Failed: sw.failed, Finished: sw.done == len(sw.jobs),
		Canceled: sw.canceled}
	if !jobs {
		return d
	}
	d.Jobs = make([]jobDoc, len(sw.jobs))
	for i, j := range sw.jobs {
		d.Jobs[i] = jobDoc{Index: j.index, Label: j.label, Key: j.key,
			Status: j.status, Err: j.errMsg, Cached: j.cached}
	}
	return d
}

// handleSweeps serves POST /sweeps (submit) and GET /sweeps (list).
func (s *Server) handleSweeps(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.submit(w, r)
	case http.MethodGet:
		s.mu.Lock()
		docs := make([]sweepDoc, 0, len(s.order))
		for _, id := range s.order {
			docs = append(docs, s.sweeps[id].doc(false))
		}
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, docs)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// submit expands a Submission into jobs, registers the sweep, and kicks
// every job onto the shared pool. Jobs whose key is already cached (or
// already in flight) complete without a fresh simulation.
func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxSubmissionBytes)
	var sub Submission
	if err := json.NewDecoder(r.Body).Decode(&sub); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, fmt.Sprintf("bad submission: %v", err), status)
		return
	}
	var override time.Duration
	if sub.Timeout != "" {
		d, err := time.ParseDuration(sub.Timeout)
		if err != nil || d < 0 {
			http.Error(w, fmt.Sprintf("bad submission timeout %q", sub.Timeout), http.StatusBadRequest)
			return
		}
		override = d
	}
	grid, err := sub.grid()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	batch := grid.Sweep()
	ctx, cancel := context.WithCancel(s.rootCtx)
	sw := &sweepRun{
		name:     grid.Name,
		ctx:      ctx,
		cancel:   cancel,
		jobs:     make([]jobState, len(batch.Jobs)),
		subs:     map[chan progressEvent]bool{},
		finished: make(chan struct{}),
	}
	timeout := s.cfg.jobTimeout(override)
	for i, job := range batch.Jobs {
		key := gsi.CacheKey(job.Options, job.Axes.Workload, grid.PointParams(job.Axes))
		sw.jobs[i] = jobState{
			index: i,
			label: job.Label,
			key:   key,
			run: &simJob{label: job.Label, key: key, options: job.Options,
				thunk: job.Workload, timeout: timeout, trace: sub.Trace},
			status: "queued",
		}
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		cancel()
		http.Error(w, "draining: not accepting new sweeps", http.StatusServiceUnavailable)
		return
	}
	s.nextID++
	sw.id = fmt.Sprintf("s%d", s.nextID)
	s.sweeps[sw.id] = sw
	s.order = append(s.order, sw.id)
	// Register the jobs with the drain group while still holding the
	// lock: BeginDrain flips draining under the same lock, so every
	// accepted job is Added before WaitJobs can observe the group.
	s.jobs.Add(len(sw.jobs))
	s.mu.Unlock()

	s.metrics.enqueue(len(sw.jobs))
	go func() {
		// Release the sweep's context once every job has completed.
		<-sw.finished
		cancel()
	}()
	for i := range sw.jobs {
		go s.runJob(sw, i)
	}
	writeJSON(w, http.StatusAccepted, sw.doc(true))
}

// freshRun is what a flight that simulated hands the job claiming it: the
// run's Report and wall-clock cost, which /metrics folds in once per
// claimed simulation. A flight that found its key already cached hands
// out nil.
type freshRun struct {
	rep   *gsi.Report
	nanos uint64
}

// runJob resolves one job: cache hit, shared in-flight run, or a fresh
// simulation on the bounded pool. Any failure — panic, deadline,
// cancellation, simulation error — lands in this job's error slot and
// nowhere else: siblings keep running and nothing failed is cached.
func (s *Server) runJob(sw *sweepRun, i int) {
	defer s.jobs.Done()
	job := &sw.jobs[i]
	if _, ok := s.cache.get(job.key); ok {
		s.metrics.cacheHit()
		s.metrics.jobDone(false)
		sw.complete(i, "", true)
		return
	}
	sw.setRunning(i)
	// The flight gets its own pointer to what it simulates: complete drops
	// job.run, and a detached leader's flight can still be running then.
	run := job.run
	fresh, err, claim := s.flight.Do(sw.ctx, run.key, func(fctx context.Context) (*freshRun, error) {
		// The slot gates the simulation itself; singleflight followers
		// wait without occupying the pool, and a flight nobody wants any
		// more gives up the wait.
		select {
		case s.sem <- struct{}{}:
		case <-fctx.Done():
			return nil, fctx.Err()
		}
		defer func() { <-s.sem }()
		if _, ok := s.cache.get(run.key); ok {
			// A previous flight finished between our cache check and
			// flight entry: this one simulates nothing, and the job that
			// claims it is a cache hit, only a late one.
			return nil, nil
		}
		return s.simulate(fctx, run)
	})
	var errMsg string
	cached := true
	switch {
	case err != nil:
		errMsg, cached = err.Error(), false
		if isCancelClass(err) {
			s.metrics.cancel()
		}
	case !claim:
		s.metrics.dedupHit()
	case fresh != nil:
		s.metrics.simulation(fresh.rep, fresh.nanos)
		cached = false
	default:
		s.metrics.cacheHit()
	}
	s.metrics.jobDone(err != nil)
	sw.complete(i, errMsg, cached)
}

// simulate runs a job's simulation once under the job's wall-clock
// deadline, containing any panic (a component bug, an injected fault) as
// a typed error: the pool worker survives, the sweep's other points are
// untouched, and nothing is cached.
func (s *Server) simulate(fctx context.Context, job *simJob) (fresh *freshRun, err error) {
	runCtx := fctx
	if job.timeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(fctx, job.timeout)
		defer cancel()
	}
	s.flight.simStart(job.key)
	defer s.flight.simEnd(job.key)
	defer func() {
		if r := recover(); r != nil {
			s.metrics.panicked()
			err = fmt.Errorf("%w: %v\n%s", errSimPanic, r, debug.Stack())
		}
	}()
	wl := job.thunk()
	if s.cfg.Chaos != nil {
		wl = s.cfg.Chaos.Wrap(job.label, wl).(gsi.Workload)
	}
	// Tracing rides on a copy of the job's options, so the stored options
	// stay trace-free and the cache key derivation they fed remains
	// visibly untouched.
	opts := job.options
	var tr *gsi.Trace
	if job.trace {
		tr = gsi.NewTrace()
		opts.Trace = tr
	}
	start := time.Now()
	rep, err := gsi.RunContext(runCtx, opts, wl)
	if err != nil {
		return nil, err
	}
	doc, err := rep.JSON()
	if err != nil {
		return nil, err
	}
	s.cache.put(job.key, doc)
	if tr != nil {
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err == nil {
			s.cache.putTrace(job.key, buf.Bytes())
		}
	}
	return &freshRun{rep: rep, nanos: uint64(time.Since(start).Nanoseconds())}, nil
}

// isCancelClass reports whether a job error came from cancellation or a
// deadline rather than the simulation itself.
func isCancelClass(err error) bool {
	return errors.Is(err, gsi.ErrCanceled) || errors.Is(err, gsi.ErrDeadline) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// handleSweep serves GET /sweeps/{id} (status, ?wait=1 blocks until the
// sweep finishes), DELETE /sweeps/{id} (cancel the sweep's unfinished
// jobs), and GET /sweeps/{id}/events (SSE progress stream).
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/sweeps/")
	id, sub, _ := strings.Cut(rest, "/")
	s.mu.Lock()
	sw, ok := s.sweeps[id]
	s.mu.Unlock()
	if !ok {
		http.Error(w, fmt.Sprintf("no sweep %q", id), http.StatusNotFound)
		return
	}
	if r.Method == http.MethodDelete && sub == "" {
		sw.mu.Lock()
		sw.canceled = true
		cancel := sw.cancel
		sw.mu.Unlock()
		// Unfinished jobs observe the cancellation at their next
		// cooperative check and complete with a canceled error; the
		// sweep still reaches finished, so waiters and SSE streams end
		// normally. A finished sweep has nothing left to cancel.
		if cancel != nil {
			cancel()
		}
		writeJSON(w, http.StatusOK, sw.doc(false))
		return
	}
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	switch sub {
	case "":
		if r.URL.Query().Get("wait") != "" {
			// A long poll can outlive the server's WriteTimeout budget;
			// lift the per-connection write deadline for this response.
			http.NewResponseController(w).SetWriteDeadline(time.Time{})
			select {
			case <-sw.finished:
			case <-r.Context().Done():
				return
			}
		}
		writeJSON(w, http.StatusOK, sw.doc(true))
	case "events":
		s.streamEvents(w, r, sw)
	default:
		http.Error(w, "not found", http.StatusNotFound)
	}
}

// streamEvents writes the sweep's progress as Server-Sent Events: every
// already-emitted event is replayed, live events follow, and the stream
// ends when the sweep finishes.
func (s *Server) streamEvents(w http.ResponseWriter, r *http.Request, sw *sweepRun) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	// SSE streams are long-lived by design: exempt this response from the
	// server's WriteTimeout (a stuck client is still bounded — every
	// write goes through Flush, and the kernel buffer eventually refuses).
	http.NewResponseController(w).SetWriteDeadline(time.Time{})
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	// Push the headers out now: a subscriber to a sweep with no events yet
	// must still see the stream open rather than a never-arriving response.
	flusher.Flush()
	send := func(ev progressEvent) bool {
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		fmt.Fprintf(w, "event: progress\ndata: %s\n\n", data)
		flusher.Flush()
		return true
	}
	replay, ch, finished := sw.subscribe()
	for _, ev := range replay {
		if !send(ev) {
			return
		}
	}
	if !finished {
		defer sw.unsubscribe(ch)
		for {
			select {
			case ev, open := <-ch:
				if !open {
					goto done
				}
				if !send(ev) {
					return
				}
			case <-r.Context().Done():
				return
			}
		}
	}
done:
	fmt.Fprintf(w, "event: done\ndata: {}\n\n")
	flusher.Flush()
}

// handleResult serves GET /results/{key} (the exact cached Report bytes)
// and GET /results/{key}/trace (the run's Chrome/Perfetto trace artifact,
// present only when a submission opted in with "trace": true).
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	key, sub, _ := strings.Cut(strings.TrimPrefix(r.URL.Path, "/results/"), "/")
	switch sub {
	case "":
		data, ok := s.cache.get(key)
		if !ok {
			http.Error(w, "no cached result for key", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	case "trace":
		data, ok := s.cache.getTrace(key)
		if !ok {
			http.Error(w, "no trace artifact for key", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	default:
		http.Error(w, "not found", http.StatusNotFound)
	}
}

// handleMetrics serves GET /metrics as an indented JSON document, or in
// the Prometheus text exposition format with ?format=prometheus.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.metrics.snapshot(s.cache.stats())
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		snap.prometheus(w)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// handleHealth serves GET /healthz; the body reports the drain state.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true, "draining": draining})
}

// handleReady serves GET /readyz: readiness as distinct from liveness.
// A draining server is alive (healthz stays 200) but not ready — load
// balancers should stop routing to it. The body also reports how many
// results were loaded from the cache directory at boot, so an operator
// restarting after a crash can see the recovery happened.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	status := http.StatusOK
	if draining {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{
		"ready":    !draining,
		"draining": draining,
		"loaded":   s.cache.stats().loaded,
	})
}

// writeJSON writes v as an indented JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
