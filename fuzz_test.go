package gsi

import (
	"bytes"
	"strings"
	"testing"
	"unicode/utf8"
)

// isASCII reports whether s contains only ASCII bytes. Case-folding
// assertions are gated on it: for some Unicode code points (the long s,
// the Kelvin sign) ToLower(ToUpper(x)) differs from ToLower(x), so only
// ASCII spellings are guaranteed to collapse under the registry's
// lower-casing.
func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// FuzzCacheKey drives CacheKey with arbitrary workload/parameter
// spellings and scheduling-knob settings, asserting the canonicalization
// invariants the serve layer's result cache is built on:
//
//   - the key is a stable 64-hex content address,
//   - engine mode, trace presence and the two inert scheduling fields
//     (Parallel, Express) are erased (none can change a Report),
//   - cosmetic spellings — name case and surrounding whitespace — collapse,
//   - an explicitly default-valued parameter hashes like an absent one
//     when the workload resolves in the registry,
//   - engine-relevant differences (protocol, Timeline, SkipVerify,
//     ablations, architectural parameters, the workload itself) all
//     separate keys.
func FuzzCacheKey(f *testing.F) {
	f.Add("uts", "nodes", "6000", uint8(0), uint8(0), false, false, false, true, uint16(0))
	f.Add(" UTS ", "NODES", " 6000 ", uint8(1), uint8(4), true, false, false, false, uint16(64))
	f.Add("stencil", "steps", "3", uint8(2), uint8(2), false, true, true, true, uint16(16))
	f.Add("steal", "tasks", "40", uint8(3), uint8(7), true, true, false, true, uint16(32))
	f.Add("implicit", "databytes", "", uint8(0), uint8(0), false, false, false, true, uint16(1))
	f.Add("no-such-workload", "whatever", "value", uint8(0), uint8(0), false, false, false, false, uint16(0))
	f.Add("", "", "", uint8(0), uint8(0), false, false, false, true, uint16(0))
	f.Add("gups", "updates", "0x10", uint8(1), uint8(3), false, false, true, false, uint16(8))
	f.Fuzz(func(t *testing.T, wl, pname, pval string, engineSel, parallel uint8, timeline, skipVerify, sfifo, express bool, mshr uint16) {
		modes := []EngineMode{EngineSkip, EngineQuiescent, EngineDense}
		sys := DefaultConfig()
		sys.Engine = modes[int(engineSel)%len(modes)]
		sys.Parallel = int(parallel % 8)
		sys.Express = express
		if mshr > 0 {
			sys.MSHREntries = int(mshr)
		}
		opt := Options{System: sys, Protocol: DeNovo, Timeline: timeline, SkipVerify: skipVerify, SFIFO: sfifo}
		params := WorkloadValues{}
		if pname != "" {
			params[pname] = pval
		}

		key := CacheKey(opt, wl, params)
		if len(key) != 64 {
			t.Fatalf("key %q is not 64 hex chars", key)
		}
		for _, c := range key {
			if !strings.ContainsRune("0123456789abcdef", c) {
				t.Fatalf("key %q is not lowercase hex", key)
			}
		}
		if again := CacheKey(opt, wl, params); again != key {
			t.Fatalf("CacheKey is not deterministic: %s then %s", key, again)
		}

		// Scheduling erasure: every engine mode and trace attachment demands
		// byte-identical Reports, and the inert fields are read by nothing,
		// so all must share one cache identity.
		sched := opt
		sched.System.Engine = modes[(int(engineSel)+1)%len(modes)]
		sched.System.Parallel = (sys.Parallel + 3) % 8
		sched.System.Express = !express
		sched.Trace = NewTrace()
		if got := CacheKey(sched, wl, params); got != key {
			t.Fatalf("scheduling knobs changed the key: %s vs %s", got, key)
		}

		// Spelling collapse: whitespace padding always; case only for ASCII.
		spelledW, spelledN := "  "+wl+"\t", pname
		if isASCII(wl) {
			spelledW = "  " + strings.ToUpper(wl) + "\t"
		}
		spelledParams := WorkloadValues{}
		if pname != "" {
			if isASCII(pname) {
				spelledN = strings.ToUpper(pname)
			}
			spelledN = " " + spelledN + " "
			spelledParams[spelledN] = "\t" + pval + " "
		}
		// Padding can collide two distinct fuzzed names (e.g. "n" and
		// " n"), so only assert when the respelling still trims back to
		// the same single entry.
		if pname == "" || strings.ToLower(strings.TrimSpace(spelledN)) == strings.ToLower(strings.TrimSpace(pname)) {
			if got := CacheKey(opt, spelledW, spelledParams); got != key {
				t.Fatalf("cosmetic respelling changed the key: %s vs %s", got, key)
			}
		}

		// Default-param collapse: when the workload resolves, writing any
		// schema parameter at its default value is a no-op.
		canonical := strings.ToLower(strings.TrimSpace(wl))
		if e, ok := Workloads().Lookup(canonical); ok {
			defaults := e.Defaults()
			bare := CacheKey(opt, wl, nil)
			for name, value := range defaults {
				if got := CacheKey(opt, wl, WorkloadValues{name: value}); got != bare {
					t.Fatalf("default-valued %s=%s changed the key: %s vs %s", name, value, got, bare)
				}
				break
			}
		}

		// Engine-relevant differences must all separate keys — from the
		// base and from each other.
		moreCycles := opt
		moreCycles.System.MaxCycles = sys.MaxCycles + 1
		moreMSHR := opt
		moreMSHR.System.MSHREntries = sys.MSHREntries + 1
		variants := map[string]string{
			"base":         key,
			"protocol":     CacheKey(Options{System: sys, Protocol: GPUCoherence, Timeline: timeline, SkipVerify: skipVerify, SFIFO: sfifo}, wl, params),
			"timeline":     CacheKey(Options{System: sys, Protocol: DeNovo, Timeline: !timeline, SkipVerify: skipVerify, SFIFO: sfifo}, wl, params),
			"skip-verify":  CacheKey(Options{System: sys, Protocol: DeNovo, Timeline: timeline, SkipVerify: !skipVerify, SFIFO: sfifo}, wl, params),
			"sfifo":        CacheKey(Options{System: sys, Protocol: DeNovo, Timeline: timeline, SkipVerify: skipVerify, SFIFO: !sfifo}, wl, params),
			"strong-cycle": CacheKey(Options{System: sys, Protocol: DeNovo, Timeline: timeline, SkipVerify: skipVerify, SFIFO: sfifo, StrongCycle: true}, wl, params),
			"max-cycles":   CacheKey(moreCycles, wl, params),
			"mshr":         CacheKey(moreMSHR, wl, params),
			"workload":     CacheKey(opt, wl+" -other", params),
		}
		seen := map[string]string{}
		for name, k := range variants {
			if prev, dup := seen[k]; dup {
				t.Fatalf("engine-relevant variants %s and %s collide on %s", name, prev, k)
			}
			seen[k] = name
		}
	})
}

// FuzzDecodeReport feeds DecodeReport arbitrary bytes (it must never
// panic) and round-trips constructed reports, with and without a rendered
// timeline, through both sides of the IncludeEngineStats opt-in, asserting
// the fold-back is exact: an opted-in block decodes back into EngineStats,
// an absent block leaves it zero, and re-encoding a decoded document
// reproduces it byte for byte.
func FuzzDecodeReport(f *testing.F) {
	f.Add([]byte("{}"), "uts", uint64(100), uint64(7), uint64(3), uint64(42), uint64(5), uint64(12), true)
	f.Add([]byte("null"), "", uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), false)
	f.Add([]byte(`{"workload":"uts","cycles":1`), "stencil", uint64(1), uint64(2), uint64(3), uint64(4), uint64(5), uint64(6), true)
	f.Add([]byte(`{"engineStats":{"steps":-1}}`), "steal", uint64(9), uint64(8), uint64(7), uint64(6), uint64(5), uint64(4), false)
	f.Add([]byte(`{"timelineData":{"bucketWidth":0,"sms":[[{"bogus":1}]]}}`), "gups", uint64(2), uint64(0), uint64(1), uint64(0), uint64(1), uint64(0), true)
	f.Fuzz(func(t *testing.T, raw []byte, wl string, cycles, memData, whereL1, steps, jumps, skipped uint64, withTimeline bool) {
		// Arbitrary bytes: any error is fine, a panic is the bug.
		if r, err := DecodeReport(raw); err == nil && r == nil {
			t.Fatal("DecodeReport returned nil report and nil error")
		}

		// json.Marshal escapes invalid UTF-8 bytes as �, which decodes
		// to a literal U+FFFD that re-encodes unescaped — so byte-exact
		// round-tripping is only promised for valid UTF-8. Apply the same
		// replacement Marshal would before building the report.
		wl = strings.ToValidUTF8(wl, "�")
		base := &Report{Workload: wl, Protocol: DeNovo.String(), Cycles: cycles}
		base.Counts.Cycles[MemData] = memData
		base.Counts.MemData[WhereL1] = whereL1
		base.Counts.MemStruct[StructMSHRFull] = skipped % 97
		base.PerSM = []Counts{base.Counts}
		base.InstrsIssued = cycles / 2
		base.EngineStats = EngineStats{
			Steps: steps, Jumps: jumps, SkippedCycles: skipped,
			Naps: steps % 13, NappedSMCycles: jumps % 5,
		}
		if withTimeline {
			base.Timeline = "SM0 |####|"
		}

		for _, stats := range []bool{false, true} {
			rep := *base
			if stats {
				rep.IncludeEngineStats()
			}
			doc, err := rep.JSON()
			if err != nil {
				t.Fatalf("encoding (stats=%v): %v", stats, err)
			}
			dec, err := DecodeReport(doc)
			if err != nil {
				t.Fatalf("decoding own encoding (stats=%v): %v\n%s", stats, err, doc)
			}
			if stats {
				if dec.Scheduling == nil || dec.EngineStats != base.EngineStats {
					t.Fatalf("scheduling block did not fold back: %+v vs %+v", dec.EngineStats, base.EngineStats)
				}
			} else if dec.Scheduling != nil || dec.EngineStats != (EngineStats{}) {
				t.Fatalf("scheduling leaked into a non-opted-in document: %+v", dec.EngineStats)
			}
			if dec.Cycles != base.Cycles || dec.Counts != base.Counts || dec.Timeline != base.Timeline {
				t.Fatalf("core fields drifted through the round trip")
			}
			again, err := dec.JSON()
			if err != nil {
				t.Fatalf("re-encoding decoded report: %v", err)
			}
			if !bytes.Equal(doc, again) {
				t.Fatalf("encode(decode(doc)) != doc (stats=%v):\n%s\nvs\n%s", stats, doc, again)
			}
		}
	})
}
