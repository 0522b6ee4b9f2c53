package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict is the outcome of comparing one metric on one workload.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegressed  verdict = "regressed"  // worse by more than the bound
	verdictImproved   verdict = "improved"   // better by more than the bound
	verdictUnresolved verdict = "unresolved" // run-to-run spread wider than the bound
	verdictChanged    verdict = "changed"    // an exact metric differs: a model change
	verdictInfo       verdict = "info"       // a layer timing: shown, not judged
)

// compare judges metric d on one workload from its values in the runs of A
// (the parent) and B (the change). worse is B's median relative to A's,
// positive when worse. An exact metric must be identical. A bounded metric
// is unresolved when either side's spread (quartile distance over median,
// known from four runs up) is wider than its bound; otherwise it regressed
// or improved when the medians differ by more than the bound. A layer
// timing has no bound and is only shown.
func compare(d metricDef, a, b []float64) (v verdict, worse float64) {
	ma, mb := median(a), median(b)
	worse = ratio(mb-ma, ma)
	if d.higher {
		worse = -worse
	}
	switch {
	case d.exact:
		if ma != mb {
			return verdictChanged, worse
		}
		return verdictOK, worse
	case d.bound == 0:
		return verdictInfo, worse
	}
	for _, xs := range [][]float64{a, b} {
		if s, ok := spread(xs); ok && s > d.bound {
			return verdictUnresolved, worse
		}
	}
	switch {
	case worse > d.bound:
		return verdictRegressed, worse
	case worse < -d.bound:
		return verdictImproved, worse
	}
	return verdictOK, worse
}

func loadResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// sameConditions refuses pairs of result files whose numbers do not mean
// the same thing.
func sameConditions(a, b *resultsFile) error {
	switch {
	case a.Version != b.Version || a.Version != benchVersion:
		return fmt.Errorf("benchmark versions %d and %d (this binary: %d)", a.Version, b.Version, benchVersion)
	case a.Seed != b.Seed:
		return fmt.Errorf("seeds %d and %d", a.Seed, b.Seed)
	case a.Host.NProc != b.Host.NProc:
		return fmt.Errorf("hosts with %d and %d cores", a.Host.NProc, b.Host.NProc)
	case a.Quick != b.Quick || a.Seconds != b.Seconds:
		return fmt.Errorf("different run lengths (quick %t/%t, seconds %g/%g)", a.Quick, b.Quick, a.Seconds, b.Seconds)
	}
	return nil
}

// runCheck compares two result files row by row (metric x workload) and
// prints one verdict per judged row. It reports whether every end-to-end
// row is within its bound and every exact row identical.
func runCheck(w io.Writer, aPath, bPath string) (bool, error) {
	a, err := loadResults(aPath)
	if err != nil {
		return false, err
	}
	b, err := loadResults(bPath)
	if err != nil {
		return false, err
	}
	if err := sameConditions(a, b); err != nil {
		return false, fmt.Errorf("refusing to compare %s with %s: %w", aPath, bPath, err)
	}
	counts := map[verdict]int{}
	for _, trace := range []bool{false, true} {
		for _, d := range defsFor(trace) {
			for _, wl := range workloads {
				ra, rb := a.Workloads[wl.name], b.Workloads[wl.name]
				if ra == nil || rb == nil {
					continue
				}
				va, vb := ra.values(d.name, trace), rb.values(d.name, trace)
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				v, worse := compare(d, va, vb)
				counts[v]++
				if v == verdictInfo || (v == verdictOK && d.exact) {
					continue // layer timings and identical counts stay quiet
				}
				fmt.Fprintf(w, "%-10s %-24s %-14s A %-12.6g B %-12.6g %+.2f%% worse (bound %g%%, %d+%d runs)\n",
					v, d.name, wl.name, median(va), median(vb), worse*100, d.bound*100, len(va), len(vb))
			}
		}
	}
	for _, wl := range workloads {
		ra, rb := a.Workloads[wl.name], b.Workloads[wl.name]
		if ra != nil && rb != nil && ra.ReportSHA256 != rb.ReportSHA256 {
			fmt.Fprintf(w, "model_changed %s: report_sha256 %.12s -> %.12s\n", wl.name, ra.ReportSHA256, rb.ReportSHA256)
		}
	}
	fmt.Fprintf(w, "%d ok, %d improved, %d regressed, %d unresolved, %d exact rows changed, %d layer timings not judged\n",
		counts[verdictOK], counts[verdictImproved], counts[verdictRegressed], counts[verdictUnresolved],
		counts[verdictChanged], counts[verdictInfo])
	return counts[verdictRegressed]+counts[verdictUnresolved]+counts[verdictChanged] == 0, nil
}
