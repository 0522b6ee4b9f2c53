package gsi

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// A configuration determines its Report bytes (TestReportFingerprints), so
// a test binary simulates each configuration once: a test whose assertion
// reads a report takes it from this memo, keyed by the defaulted Options
// (engine mode included) and the built workload value, and gets a private
// copy decoded from the report's JSON with EngineStats restored. What a
// key reports does not depend on which test asked first, so the memo is
// order- and repeat-independent (-shuffle, -count=2). A test that compares
// two paths to one report, or observes the run itself (progress, panics,
// allocation, trace, timeline, drawn configurations), runs fresh and says
// so.

type memoEntry struct {
	once  sync.Once
	doc   []byte      // Report.JSON of the one run
	stats EngineStats // the scheduling counters the document omits
	err   error
}

var memo sync.Map // key → *memoEntry

// report decodes a private copy of the memoized run.
func (m *memoEntry) report() (*Report, error) {
	if m.err != nil {
		return nil, m.err
	}
	rep, err := DecodeReport(m.doc)
	if err != nil {
		return nil, err
	}
	rep.EngineStats = m.stats
	return rep, nil
}

// memoized runs the untraced w under opt once per test binary and returns
// a copy of its report.
func memoized(opt Options, w Workload) (*Report, error) {
	opt = opt.withDefaults()
	v, _ := memo.LoadOrStore(fmt.Sprintf("%#v\n%#v", opt, w), new(memoEntry))
	m := v.(*memoEntry)
	m.once.Do(func() {
		rep, err := Run(opt, w)
		if err == nil {
			m.doc, err = rep.JSON()
			m.stats = rep.EngineStats
		}
		if m.err = err; err != nil {
			return
		}
		// A copy must be the fresh report, field for field, so it also
		// re-encodes byte for byte.
		if cp, err := m.report(); err != nil {
			m.err = err
		} else if !reflect.DeepEqual(cp, rep) {
			m.err = fmt.Errorf("memo: the decoded copy of %s differs from the fresh report", w.Name())
		}
	})
	return m.report()
}

// sharedRuns returns a copy of each job's report, simulating the jobs the
// memo has not seen up to GOMAXPROCS at a time.
func sharedRuns(t testing.TB, jobs []Job) []*Report {
	t.Helper()
	reps, errs := make([]*Report, len(jobs)), make([]error, len(jobs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := range jobs {
		i := i
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			reps[i], errs[i] = memoized(jobs[i].Options, jobs[i].Workload())
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", jobs[i].Label, err)
		}
	}
	return reps
}

func sharedRun(t testing.TB, opt Options, w Workload) *Report {
	t.Helper()
	return sharedRuns(t, []Job{{Label: w.Name(), Options: opt, Workload: func() Workload { return w }}})[0]
}

// registryPoint is one registry entry at its Small size on its tuned
// system under p: the point the fingerprint golden pins.
func registryPoint(t testing.TB, e *WorkloadEntry, p Protocol, owned bool) (Options, Workload) {
	t.Helper()
	cfg, err := e.TuneSystem(true, nil, DefaultConfig())
	if err != nil {
		t.Fatalf("%s: %v", e.Name, err)
	}
	w, err := e.BuildSmall(nil)
	if err != nil {
		t.Fatalf("%s: %v", e.Name, err)
	}
	return Options{System: cfg, Protocol: p, OwnedAtomics: owned}, w
}

// figureSpecs is the one figure list, in gsi-run -figure all order.
func figureSpecs(sc Scale) []FigureSpec {
	specs := []FigureSpec{Figure61Spec(sc), Figure62Spec(sc), Figure63Spec(), WorkloadGallerySpec(sc)}
	return append(specs, Figure64Specs(sc)...)
}

// sharedFigures returns a copy of each figure of figureSpecs(sc), every
// job on the given engine, folded as RunFigureSpecs folds them.
func sharedFigures(t testing.TB, sc Scale, mode EngineMode) []*FigureSet {
	t.Helper()
	specs := figureSpecs(sc)
	var jobs []Job
	for _, sp := range specs {
		for _, j := range sp.Sweep.Jobs {
			j.Options.System.Engine = mode
			jobs = append(jobs, j)
		}
	}
	reps := sharedRuns(t, jobs)
	sets := make([]*FigureSet, len(specs))
	for i, sp := range specs {
		sets[i] = &FigureSet{ID: sp.ID, Title: sp.Title, Baseline: sp.Baseline, BarBy: sp.BarBy}
		for range sp.Sweep.Jobs {
			sets[i].add(reps[0])
			reps = reps[1:]
		}
	}
	return sets
}

// sharedFigure is figure id of sharedFigures(t, sc, EngineSkip).
func sharedFigure(t testing.TB, sc Scale, id string) *FigureSet {
	t.Helper()
	for _, fs := range sharedFigures(t, sc, EngineSkip) {
		if fs.ID == id {
			return fs
		}
	}
	t.Fatalf("no figure %s", id)
	return nil
}

func reportJSON(t testing.TB, r interface{ JSON() ([]byte, error) }) []byte {
	t.Helper()
	doc, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return doc
}
