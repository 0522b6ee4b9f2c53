package faultinject_test

import (
	"testing"
	"time"

	"gsi/internal/faultinject"
)

// TestParseEmptyAndBlankSpecs: specs with no clauses — empty, whitespace,
// stray commas — parse to an injector that never faults, with the slow
// default intact.
func TestParseEmptyAndBlankSpecs(t *testing.T) {
	for _, spec := range []string{"", "   ", ",", " , ,, ", "\t"} {
		in, err := faultinject.Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if got := in.Decide("uts/denovo"); got != faultinject.FaultNone {
			t.Errorf("Parse(%q).Decide = %v, want none", spec, got)
		}
		if in.SlowFor != 250*time.Millisecond {
			t.Errorf("Parse(%q).SlowFor = %v, want the 250ms default", spec, in.SlowFor)
		}
	}
}

// TestParseOverlappingRules: when several substring rules match one label,
// the first clause in the spec wins — spec order is the priority order.
func TestParseOverlappingRules(t *testing.T) {
	in, err := faultinject.Parse("uts:panic,ut:stall,u:slow")
	if err != nil {
		t.Fatal(err)
	}
	if got := in.Decide("uts/denovo"); got != faultinject.FaultPanic {
		t.Errorf("Decide(uts/denovo) = %v, want panic (first matching clause)", got)
	}
	if got := in.Decide("utd/denovo"); got != faultinject.FaultStall {
		t.Errorf("Decide(utd/denovo) = %v, want stall", got)
	}
	if got := in.Decide("gups"); got != faultinject.FaultSlow {
		t.Errorf("Decide(gups) = %v, want slow (the 'u' clause)", got)
	}
	if got := in.Decide("bfs"); got != faultinject.FaultNone {
		t.Errorf("Decide(bfs) = %v, want none", got)
	}

	// Reversing the spec reverses the priority: the broad clause shadows
	// the narrow ones entirely.
	rev, err := faultinject.Parse("u:slow,ut:stall,uts:panic")
	if err != nil {
		t.Fatal(err)
	}
	if got := rev.Decide("uts/denovo"); got != faultinject.FaultSlow {
		t.Errorf("reversed Decide(uts/denovo) = %v, want slow", got)
	}
}

// TestParseCatchAllRule: an empty substring (":fault") matches every
// label, and shadows every rule after it.
func TestParseCatchAllRule(t *testing.T) {
	in, err := faultinject.Parse(":stall,uts:panic")
	if err != nil {
		t.Fatal(err)
	}
	for _, label := range []string{"uts/denovo", "implicit/stash", ""} {
		if got := in.Decide(label); got != faultinject.FaultStall {
			t.Errorf("Decide(%q) = %v, want stall (the catch-all rule comes first)", label, got)
		}
	}
}

// TestParseDuplicateKeys: repeating a key=value clause keeps the last
// value — the spec reads left to right like flag overrides.
func TestParseDuplicateKeys(t *testing.T) {
	in, err := faultinject.Parse("slowms=5,slowms=40")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if in.SlowFor != 40*time.Millisecond {
		t.Errorf("SlowFor = %v, want 40ms (last clause wins)", in.SlowFor)
	}
}

// TestParseRuleFaultSpellings: the fault side of a rule is parsed
// case-insensitively with surrounding space tolerated; the substring side
// is taken verbatim (labels are matched case-sensitively).
func TestParseRuleFaultSpellings(t *testing.T) {
	in, err := faultinject.Parse("uts: PANIC ")
	if err != nil {
		t.Fatal(err)
	}
	if got := in.Decide("uts/denovo"); got != faultinject.FaultPanic {
		t.Errorf("Decide(uts/denovo) = %v, want panic", got)
	}
	if _, err := faultinject.Parse("uts:"); err == nil {
		t.Error("Parse(\"uts:\") succeeded, want error (empty fault name)")
	}
	// The substring is not case-folded: a capitalized substring does not
	// match lowercase labels.
	caps, err := faultinject.Parse("UTS:panic")
	if err != nil {
		t.Fatal(err)
	}
	if got := caps.Decide("uts/denovo"); got != faultinject.FaultNone {
		t.Errorf("Decide(uts/denovo) under UTS rule = %v, want none (substrings are verbatim)", got)
	}
}
