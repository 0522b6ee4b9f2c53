package gsi

// Canonical hashing for content-addressed results.
//
// Under one model revision, a simulation is fully determined by (Options,
// workload name, workload parameters): runs are single-threaded and
// deterministic, and the engine modes are byte-identical by contract
// (engine_diff_test.go), so two requests that canonicalize to the same
// inputs must produce the same Report bytes. CacheKey turns that
// determinism into a content address — the soundness argument behind the
// serve layer's result cache (see docs/ARCHITECTURE.md, "Sweep serving and
// the result cache").

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"

	"gsi/internal/workloads"
)

// modelRevision names the timing model CacheKey addresses Reports of; a
// change that moves any Report byte bumps it, so a persisted result of an
// older model never answers for this one. modelFingerprint is the SHA-256
// of testdata/fingerprints.golden's report columns at this revision
// (TestModelRevisionTracksFingerprints). The golden runs only Small sizes:
// drift seen only at other sizes needs a bump by hand.
const (
	modelRevision    = "1"
	modelFingerprint = "267cdd72d8232f869a8d485ae345b35c73716b489c171b9b3585a2e6626b3527"
)

// CacheKey returns the content address of one simulation: a SHA-256 hash
// (hex) over a stable JSON encoding of the model revision, the Options with
// defaults resolved, the workload's registry name, and its parameter
// overrides. Two invocations hash equal exactly when they demand
// byte-identical Reports, so a cache keyed by this string may serve one
// run's serialized Report for the other — the serve layer's core invariant.
//
// What cannot change a Report (the engine, the inert scheduling fields,
// Options.Trace) is tagged out of JSON where it is declared. Every other
// field separates keys, MaxCycles and Timeline included.
//
// Workload and parameter names are folded (trimmed, lower-cased) and
// values trimmed, exactly as the registry looks them up and parses them.
// When the workload and every override resolve in its schema, the
// parameters hashed are the whole schema in name order, overrides layered
// over the defaults, so an explicit default-valued parameter hashes like
// an absent one and map ordering never matters. Otherwise the folded
// overrides are hashed as given, and when two override names fold to one
// the raw spellings are: the registry rejects all of these at build time,
// and failures are never cached, so their keys are stable but inert.
func CacheKey(opt Options, workload string, params WorkloadValues) string {
	st := keyStates.Get().(*keyState)
	defer keyStates.Put(st)
	st.doc.Revision = modelRevision
	st.doc.Options = opt.withDefaults()
	st.doc.Workload = workloads.FoldName(workload)
	st.params = keyParams(st.params[:0], st.doc.Workload, params)
	st.doc.Params = nil // an empty list hashes as null, never []
	if len(st.params) > 0 {
		st.doc.Params = st.params
	}
	st.buf.Reset()
	if err := st.enc.Encode(&st.doc); err != nil {
		// Unreachable: the document is built from fixed value types
		// (ints, bools, strings) that always marshal.
		panic(fmt.Sprintf("gsi: encoding cache key: %v", err))
	}
	// Encode ends the document with a newline; the key hashes the
	// document alone, the bytes json.Marshal would return.
	raw := st.buf.Bytes()
	sum := sha256.Sum256(raw[:len(raw)-1])
	var digits [2 * sha256.Size]byte
	hex.Encode(digits[:], sum[:])
	return string(digits[:])
}

// keyDoc is the document CacheKey hashes. Its JSON encoding is the
// content address of every persisted serve result: a renamed or
// reordered field orphans them all (TestCacheKeyRegistryPins).
type keyDoc struct {
	Revision string
	Options  Options
	Workload string
	Params   []workloads.Setting
}

// keyState is CacheKey's scratch — the document, its parameter list, the
// buffer it is encoded into and the encoder writing there — reused across
// calls, so a key costs no garbage beyond its string.
type keyState struct {
	doc    keyDoc
	params []workloads.Setting
	buf    bytes.Buffer
	enc    *json.Encoder
}

var keyStates = sync.Pool{New: func() any {
	st := new(keyState)
	st.enc = json.NewEncoder(&st.buf)
	return st
}}

// keyParams appends the hashed parameter list to dst (see CacheKey).
func keyParams(dst []workloads.Setting, workload string, params WorkloadValues) []workloads.Setting {
	folded, err := params.Fold()
	if err != nil {
		return appendSorted(dst, params, func(s string) string { return s })
	}
	if e, ok := Workloads().Lookup(workload); ok {
		if resolved, ok := e.Resolve(dst, folded); ok {
			return resolved
		}
	}
	return appendSorted(dst, folded, strings.TrimSpace)
}

// appendSorted appends v's entries to dst in name order, each value
// passed through clean.
func appendSorted(dst []workloads.Setting, v WorkloadValues, clean func(string) string) []workloads.Setting {
	n := len(dst)
	for name, value := range v {
		dst = append(dst, workloads.Setting{Name: name, Value: clean(value)})
	}
	added := dst[n:]
	sort.Slice(added, func(i, j int) bool { return added[i].Name < added[j].Name })
	return dst
}
