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
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/debug"
	"strconv"
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
	// sweeps holds every accepted sweep in submission order; sweep "s<n>"
	// is sweeps[n-1]. tables maps the SHA-256 of every accepted submission
	// body to its job table, which all the sweeps of that body share.
	// interned holds one copy of each distinct label and key the tables
	// carry, so tables of the same grid points share their strings.
	sweeps   []*sweepRun
	tables   map[[sha256.Size]byte]*jobTable
	interned map[string]string

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
		tables:     map[[sha256.Size]byte]*jobTable{},
		interned:   map[string]string{},
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

// expansion is a decoded, validated submission body and the jobs its grid
// expands to.
type expansion struct {
	sub      Submission
	grid     gsi.Grid
	jobs     []gsi.Job
	override time.Duration // the submission's timeout; 0 = the server's default
}

// expand decodes a submission body, validates it and expands its grid.
// The error is the text of the 400 answer.
func expand(body []byte) (*expansion, error) {
	var ex expansion
	// A decoder, not json.Unmarshal: bytes after the first JSON value are
	// ignored, as they were when the body was decoded as it streamed in.
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&ex.sub); err != nil {
		return nil, fmt.Errorf("bad submission: %v", err)
	}
	if ex.sub.Timeout != "" {
		d, err := time.ParseDuration(ex.sub.Timeout)
		if err != nil || d < 0 {
			return nil, fmt.Errorf("bad submission timeout %q", ex.sub.Timeout)
		}
		ex.override = d
	}
	var err error
	if ex.grid, err = ex.sub.grid(); err != nil {
		return nil, err
	}
	ex.jobs = ex.grid.Sweep().Jobs
	return &ex, nil
}

// table derives the expansion's job table: every point's label and
// content address.
func (ex *expansion) table() *jobTable {
	tab := &jobTable{name: ex.grid.Name, points: make([]point, len(ex.jobs))}
	for i, job := range ex.jobs {
		tab.points[i] = point{label: job.Label,
			key: gsi.CacheKey(job.Options, job.Axes.Workload, ex.grid.PointParams(job.Axes))}
	}
	return tab
}

// jobTable is what one accepted submission body expands to, kept once per
// distinct body and shared by every sweep of that body: the sweep name and,
// in job order, each point's label and content address. It is immutable
// once published in Server.tables.
type jobTable struct {
	name   string
	points []point
}

// point is one grid point of a jobTable.
type point struct {
	label string
	key   string
}

// jobStatus is a job's place in its lifecycle, spelled out only when a
// status document is encoded.
type jobStatus uint8

const (
	statusQueued jobStatus = iota
	statusRunning
	statusDone
	statusFailed
)

var statusNames = [...]string{"queued", "running", "done", "failed"}

func (st jobStatus) String() string { return statusNames[st] }

// jobState is what a sweep owns of one grid point, guarded by the
// sweepRun mutex; its index is the point's index in the sweep's job
// table, which holds the label and key. A failed job's error is in
// sweepRun.errs.
type jobState struct {
	status jobStatus
	cached bool
}

// simJob is what one simulation of a grid point needs, built at submission
// for a point the cache does not hold. Its runJob goroutine holds it until
// the job completes, so a finished sweep keeps none of its options or
// workload thunk (nor the parameter maps the thunk captures). runJob hands
// the flight this pointer rather than the job: a detached leader's flight
// can outlive its job, so the flight never reads the job's state.
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
// /sweeps/{id}/events and replayed to late subscribers. It is not stored:
// sweepRun.event rebuilds it from the completion order and the job.
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
// check. Both are dropped (under mu) when the last job completes, and so
// is the subscriber map, so a finished sweep keeps its job states, its
// completion order and its counters, and points at its shared job table.
type sweepRun struct {
	seq    int // the sweep's number: its id is "s<seq>"
	tab    *jobTable
	ctx    context.Context
	cancel context.CancelFunc

	mu sync.Mutex
	// jobs holds every grid point's state; done[k] is the index of the
	// (k+1)-th job to complete, so len(done) is the completed count.
	jobs     []jobState
	done     []int32
	errs     []string // job i's error, made on the first failure
	failed   int
	canceled bool
	subs     map[chan progressEvent]bool // made on first subscribe
	// finished is closed when the last job completes. A sweep the cache
	// answered whole at submission shares finishedAtSubmit.
	finished chan struct{}
}

// finishedAtSubmit is the finished channel of every sweep with no misses:
// such a sweep completes before it is published, so nobody waits on it.
var finishedAtSubmit = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// id is the sweep's public name.
func (sw *sweepRun) id() string { return "s" + strconv.Itoa(sw.seq) }

// event rebuilds the progress event of the (k+1)-th completion. Caller
// holds mu.
func (sw *sweepRun) event(k int) progressEvent {
	i := int(sw.done[k])
	return progressEvent{Done: k + 1, Total: len(sw.jobs), Index: i,
		Label: sw.tab.points[i].label, Err: sw.errMsg(i), Cached: sw.jobs[i].cached}
}

// errMsg is job i's error, "" unless it failed. Caller holds mu.
func (sw *sweepRun) errMsg(i int) string {
	if sw.errs == nil {
		return ""
	}
	return sw.errs[i]
}

// subscribe registers an events channel, returning the events already
// emitted (for replay) and whether the sweep is already finished. The
// channel is buffered for every remaining event, so senders never block.
func (sw *sweepRun) subscribe() (replay []progressEvent, ch chan progressEvent, finished bool) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	replay = make([]progressEvent, len(sw.done))
	for k := range replay {
		replay[k] = sw.event(k)
	}
	if len(sw.done) == len(sw.jobs) {
		return replay, nil, true
	}
	ch = make(chan progressEvent, len(sw.jobs)-len(sw.done))
	if sw.subs == nil {
		sw.subs = map[chan progressEvent]bool{}
	}
	sw.subs[ch] = true
	return replay, ch, false
}

// unsubscribe removes a subscriber (client went away before the end).
func (sw *sweepRun) unsubscribe(ch chan progressEvent) {
	sw.mu.Lock()
	delete(sw.subs, ch)
	sw.mu.Unlock()
}

// complete records one job's outcome, emits its progress event, and on
// the last job closes finished and the subscriber channels.
func (sw *sweepRun) complete(i int, errMsg string, cached bool) {
	sw.mu.Lock()
	sw.completeLocked(i, errMsg, cached)
	sw.mu.Unlock()
}

// completeLocked is complete with sw.mu held.
func (sw *sweepRun) completeLocked(i int, errMsg string, cached bool) {
	job := &sw.jobs[i]
	job.cached = cached
	job.status = statusDone
	if errMsg != "" {
		if sw.errs == nil {
			sw.errs = make([]string, len(sw.jobs))
		}
		sw.errs[i] = errMsg
		job.status = statusFailed
		sw.failed++
	}
	sw.done = append(sw.done, int32(i))
	last := len(sw.done) == len(sw.jobs)
	if len(sw.subs) > 0 {
		ev := sw.event(len(sw.done) - 1)
		for ch := range sw.subs {
			ch <- ev // buffered for every remaining event; never blocks
			if last {
				close(ch)
			}
		}
	}
	if last {
		sw.subs = nil
		if sw.finished == nil {
			sw.finished = finishedAtSubmit
		} else {
			close(sw.finished)
		}
		// Every job has read ctx; the submit goroutine cancels it.
		sw.ctx, sw.cancel = nil, nil
	}
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
	d := sweepDoc{ID: sw.id(), Name: sw.tab.name, Total: len(sw.jobs),
		Done: len(sw.done), Failed: sw.failed, Finished: len(sw.done) == len(sw.jobs),
		Canceled: sw.canceled}
	if !jobs {
		return d
	}
	d.Jobs = make([]jobDoc, len(sw.jobs))
	for i, j := range sw.jobs {
		p := sw.tab.points[i]
		d.Jobs[i] = jobDoc{Index: i, Label: p.label, Key: p.key,
			Status: j.status.String(), Err: sw.errMsg(i), Cached: j.cached}
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
		docs := make([]sweepDoc, len(s.sweeps))
		for i, sw := range s.sweeps {
			docs[i] = sw.doc(false)
		}
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, docs)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// submit registers a sweep of a submission body and kicks every job that
// needs work onto the shared pool. A body seen for the first time is
// decoded, validated and expanded, and its job table (labels and keys)
// derived; once the sweep is accepted, the table is kept under the body's
// SHA-256, so the same body again skips all of that and starts from the
// stored keys. Jobs whose key is already cached complete here, before the
// reply is written: a cache hit costs a lookup, and a fully cached sweep is
// finished in its own 202 document. A job the cache does not hold, because
// the body is new or its entry was evicted since, is given to runJob.
func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	// The body is read whole so its hash names it; the cap bounds it all,
	// including bytes after the submission's JSON value.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSubmissionBytes))
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, fmt.Sprintf("bad submission: %v", err), status)
		return
	}
	sum := sha256.Sum256(body)
	s.mu.Lock()
	tab := s.tables[sum]
	s.mu.Unlock()
	adopt := tab == nil
	// ex is the decoded body: needed for a new body, and for an accepted
	// one only when the cache has evicted one of its points.
	var ex *expansion
	if adopt {
		if ex, err = expand(body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		tab = ex.table()
	}
	n := len(tab.points)
	sw := &sweepRun{tab: tab, jobs: make([]jobState, n), done: make([]int32, 0, n)}
	var runs []*simJob // indexed like the jobs; nil for a hit
	// The hits complete before the sweep is published, under one lock, so
	// no reader sees them queued and no subscriber misses their events.
	sw.mu.Lock()
	for i, p := range tab.points {
		if s.cache.has(p.key) {
			sw.completeLocked(i, "", true)
			continue
		}
		if ex == nil {
			// Expanding a body that was accepted before cannot fail.
			if ex, err = expand(body); err != nil {
				sw.mu.Unlock()
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
		}
		if runs == nil {
			runs = make([]*simJob, n)
		}
		job := ex.jobs[i]
		runs[i] = &simJob{label: p.label, key: p.key, options: job.Options, thunk: job.Workload,
			timeout: s.cfg.jobTimeout(ex.override), trace: ex.sub.Trace}
	}
	hits := len(sw.done)
	misses := n - hits
	if misses > 0 {
		sw.finished = make(chan struct{})
	}
	sw.mu.Unlock()
	var cancel context.CancelFunc
	if misses > 0 {
		sw.ctx, cancel = context.WithCancel(s.rootCtx)
		sw.cancel = cancel
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		http.Error(w, "draining: not accepting new sweeps", http.StatusServiceUnavailable)
		return
	}
	// Nothing else sees sw until it is appended, so its table can be
	// swapped without its lock.
	if adopt {
		if published := s.tables[sum]; published != nil {
			// A concurrent first sighting of the same body was accepted first.
			sw.tab = published
		} else {
			for i := range tab.points {
				p := &tab.points[i]
				p.label, p.key = s.internLocked(p.label), s.internLocked(p.key)
			}
			s.tables[sum] = tab
		}
	}
	sw.seq = len(s.sweeps) + 1
	s.sweeps = append(s.sweeps, sw)
	// Register the jobs with the drain group while still holding the
	// lock: BeginDrain flips draining under the same lock, so every
	// accepted job is Added before WaitJobs can observe the group.
	s.jobs.Add(misses)
	s.mu.Unlock()

	s.metrics.accept(n, hits)
	if misses > 0 {
		go func() {
			// Release the sweep's context once every job has completed.
			<-sw.finished
			cancel()
		}()
		for i, run := range runs {
			if run != nil {
				go s.runJob(sw, i, run)
			}
		}
	}
	writeJSON(w, http.StatusAccepted, sw.doc(true))
}

// internLocked returns the server's copy of str, adopting str as that copy
// if it is new. Caller holds s.mu; only accepted sweeps' tables are
// interned, so the map never holds a string no sweep holds.
func (s *Server) internLocked(str string) string {
	if shared, ok := s.interned[str]; ok {
		return shared
	}
	s.interned[str] = str
	return str
}

// lookup resolves a sweep id. Only the canonical spelling "s<n>", for
// 1 <= n <= the sweeps accepted, names a sweep: "s01", "s+1" and "S1" do
// not.
func (s *Server) lookup(id string) (*sweepRun, bool) {
	digits, ok := strings.CutPrefix(id, "s")
	if !ok || digits == "" || digits[0] < '1' || digits[0] > '9' {
		return nil, false
	}
	n, err := strconv.Atoi(digits)
	if err != nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if n > len(s.sweeps) {
		return nil, false
	}
	return s.sweeps[n-1], true
}

// freshRun is what a flight that simulated hands the job claiming it: the
// run's Report and wall-clock cost, which /metrics folds in once per
// claimed simulation. A flight that found its key already cached hands
// out nil.
type freshRun struct {
	rep   *gsi.Report
	nanos uint64
}

// runJob resolves one job that missed the cache at submission: a shared
// in-flight run, a late cache hit, or a fresh simulation on the bounded
// pool. Any failure — panic, deadline, cancellation, simulation error —
// lands in this job's error slot and nowhere else: siblings keep running
// and nothing failed is cached.
func (s *Server) runJob(sw *sweepRun, i int, run *simJob) {
	defer s.jobs.Done()
	sw.mu.Lock()
	sw.jobs[i].status = statusRunning
	ctx := sw.ctx
	sw.mu.Unlock()
	fresh, err, claim := s.flight.Do(ctx, run.key, func(fctx context.Context) (*freshRun, error) {
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
			// A previous flight finished between the submission's cache
			// check and this flight's start: this one simulates nothing,
			// and the job that claims it is a cache hit, only a late one.
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
		wl = s.cfg.Chaos.Wrap(job.label, wl)
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
	sw, ok := s.lookup(id)
	if !ok {
		http.Error(w, fmt.Sprintf("no sweep %q", id), http.StatusNotFound)
		return
	}
	if r.Method == http.MethodDelete && sub == "" {
		// Unfinished jobs observe the cancellation at their next
		// cooperative check and complete with a canceled error; the
		// sweep still reaches finished, so waiters and SSE streams end
		// normally. A finished sweep has nothing left to cancel, so it
		// is not marked canceled and answers its unchanged document.
		sw.mu.Lock()
		cancel := sw.cancel
		if len(sw.done) < len(sw.jobs) {
			sw.canceled = true
		}
		sw.mu.Unlock()
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

// handleMetrics serves GET /metrics as a compact JSON document, or in
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

// writeJSON writes v as a compact JSON response, encoded in one pass.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
