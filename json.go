package gsi

// Canonical hashing for content-addressed results.
//
// A simulation is fully determined by (Options, workload name, workload
// parameters): runs are single-threaded and deterministic, and the engine
// modes are byte-identical by contract (engine_diff_test.go), so two
// requests that canonicalize to the same inputs must produce the same
// Report bytes. CacheKey turns that determinism into a content address —
// the soundness argument behind the serve layer's result cache (see
// docs/ARCHITECTURE.md, "Sweep serving and the result cache").

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// CanonicalOptions normalizes an Options value so that two configurations
// demanding byte-identical Reports compare (and hash) equal:
//
//   - defaults are materialized (a zero System hashes like an explicit
//     DefaultConfig),
//   - Engine is reset to its default, because every engine mode produces
//     byte-identical results (the cross-engine contract enforced by
//     engine_diff_test.go); it changes wall-clock cost, never the Report,
//   - the two inert scheduling fields, Parallel and Express, are zeroed:
//     nothing reads them (see their Deprecated notes on SystemConfig), but
//     the hash document serializes the whole SystemConfig, so a caller
//     that still sets one must not split a cache key,
//   - Trace is cleared: tracing observes a run without perturbing it, so
//     a traced and an untraced run share one cache identity. (The field
//     is also tagged out of JSON, so it never reaches the hash document
//     either way.)
//
// Every other field stays significant. In particular MaxCycles (a tighter
// watchdog can fail a run that a looser one completes), Timeline (it adds
// a rendered block to the Report), and SkipVerify (it changes which runs
// error) all separate cache entries.
func CanonicalOptions(opt Options) Options {
	opt = opt.withDefaults()
	opt.System.Engine = EngineSkip
	opt.System.Parallel = 0
	opt.System.Express = false
	opt.Trace = nil
	return opt
}

// CacheKey returns the content address of one simulation: a SHA-256 hash
// (hex) over a stable JSON encoding of the canonicalized Options, the
// workload's registry name, and its parameter overrides. Two invocations
// hash equal exactly when they demand byte-identical Reports, so a cache
// keyed by this string may serve one run's serialized Report for the
// other — the serve layer's core invariant.
//
// Parameters are canonicalized through the workload's registry schema
// when the name resolves: overrides are layered over the schema defaults,
// so an explicit default-valued parameter hashes like an absent one, and
// map ordering never matters (names are sorted). Names are lower-cased
// and values trimmed, matching how the registry parses them. An unknown
// workload name or an override naming no schema parameter still produces
// a stable key — such jobs fail at Run time and failures are never
// cached, so their keys are inert.
func CacheKey(opt Options, workload string, params WorkloadValues) string {
	type pair struct {
		Name, Value string
	}
	workload = strings.ToLower(strings.TrimSpace(workload))
	doc := struct {
		Options  Options
		Workload string
		Params   []pair
	}{Options: CanonicalOptions(opt), Workload: workload}
	resolved := canonicalParams(workload, params)
	names := make([]string, 0, len(resolved))
	for name := range resolved {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		doc.Params = append(doc.Params, pair{name, resolved[name]})
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		// Unreachable: the document is built from fixed value types
		// (ints, bools, strings) that always marshal.
		panic(fmt.Sprintf("gsi: encoding cache key: %v", err))
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// canonicalParams resolves overrides against the workload's schema
// defaults so equivalent override sets collapse to one value map. When
// the name or an override does not resolve, the trimmed overrides are
// used as given (the job itself will fail with the real error).
func canonicalParams(workload string, params WorkloadValues) WorkloadValues {
	trimmed := make(WorkloadValues, len(params))
	for name, value := range params {
		trimmed[strings.ToLower(strings.TrimSpace(name))] = strings.TrimSpace(value)
	}
	e, ok := Workloads().Lookup(workload)
	if !ok {
		return trimmed
	}
	resolved := e.Defaults()
	for name, value := range trimmed {
		if _, known := resolved[name]; !known {
			return trimmed
		}
		resolved[name] = value
	}
	return resolved
}
