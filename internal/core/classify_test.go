package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestClassifyInstructionPriority(t *testing.T) {
	// Algorithm 1's "strong" priority: each row sets every weaker flag
	// too and must still classify as the strongest cause.
	tests := []struct {
		name string
		cond Cond
		want StallKind
	}{
		{"control beats everything", Cond{
			NextUnavailable: true, SyncBlocked: true, MemDataHazard: true,
			MemStructHazard: true, CompDataHazard: true, CompStructHazard: true,
		}, Control},
		{"sync beats data and structural", Cond{
			SyncBlocked: true, MemDataHazard: true, MemStructHazard: true,
			CompDataHazard: true, CompStructHazard: true,
		}, Sync},
		{"memory data beats memory structural", Cond{
			MemDataHazard: true, MemStructHazard: true,
			CompDataHazard: true, CompStructHazard: true,
		}, MemData},
		{"memory structural beats compute data", Cond{
			MemStructHazard: true, CompDataHazard: true, CompStructHazard: true,
		}, MemStructural},
		{"compute data beats compute structural", Cond{
			CompDataHazard: true, CompStructHazard: true,
		}, CompData},
		{"compute structural alone", Cond{CompStructHazard: true}, CompStructural},
		{"issued", Cond{Issued: true}, NoStall},
		{"arbitration loss counts as compute structural", Cond{}, CompStructural},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := ClassifyInstruction(tt.cond); got.Kind != tt.want {
				t.Errorf("ClassifyInstruction(%+v).Kind = %v, want %v", tt.cond, got.Kind, tt.want)
			}
		})
	}
}

func TestClassifyInstructionPayloads(t *testing.T) {
	obs := ClassifyInstruction(Cond{MemDataHazard: true, PendingLoad: 42})
	if obs.Kind != MemData || obs.PendingLoad != 42 {
		t.Errorf("mem data obs = %+v, want MemData with load 42", obs)
	}
	obs = ClassifyInstruction(Cond{MemStructHazard: true, StructCause: StructPendingDMA})
	if obs.Kind != MemStructural || obs.StructCause != StructPendingDMA {
		t.Errorf("mem structural obs = %+v, want pending DMA", obs)
	}
	// Payloads do not leak when a stronger cause wins.
	obs = ClassifyInstruction(Cond{
		SyncBlocked: true, MemDataHazard: true, PendingLoad: 7,
	})
	if obs.Kind != Sync || obs.PendingLoad != 0 {
		t.Errorf("sync obs carries load payload: %+v", obs)
	}
}

func TestClassifyCycleNoWarps(t *testing.T) {
	if got := ClassifyCycle(nil); got.Kind != Idle {
		t.Errorf("ClassifyCycle(nil).Kind = %v, want Idle", got.Kind)
	}
	if got := ClassifyCycle([]WarpObs{}); got.Kind != Idle {
		t.Errorf("ClassifyCycle(empty).Kind = %v, want Idle", got.Kind)
	}
}

func TestClassifyCycleWeakPriority(t *testing.T) {
	// Algorithm 2: no-stall wins outright; otherwise the weak order is
	// MemStructural > MemData > Sync > CompStructural > CompData >
	// Control > Idle.
	all := []WarpObs{
		{Kind: Control},
		{Kind: Sync},
		{Kind: MemData, PendingLoad: 9},
		{Kind: MemStructural, StructCause: StructMSHRFull},
		{Kind: CompData},
		{Kind: CompStructural},
	}
	tests := []struct {
		name string
		obs  []WarpObs
		want StallKind
	}{
		{"any issue wins", append([]WarpObs{{Kind: NoStall}}, all...), NoStall},
		{"mem structural first", all, MemStructural},
		{"mem data next", all[:3], MemData},
		{"sync next", all[:2], Sync},
		{"control last", all[:1], Control},
		{"comp structural over comp data", []WarpObs{{Kind: CompData}, {Kind: CompStructural}}, CompStructural},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := ClassifyCycle(tt.obs); got.Kind != tt.want {
				t.Errorf("ClassifyCycle = %v, want %v", got.Kind, tt.want)
			}
		})
	}
}

func TestClassifyCycleAttributionOrder(t *testing.T) {
	// Ties attribute to the first warp in scheduler priority order.
	cc := ClassifyCycle([]WarpObs{
		{Kind: MemData, PendingLoad: 1},
		{Kind: MemData, PendingLoad: 2},
	})
	if cc.PendingLoad != 1 {
		t.Errorf("attributed load %d, want 1 (first in priority order)", cc.PendingLoad)
	}
	cc = ClassifyCycle([]WarpObs{
		{Kind: Sync},
		{Kind: MemStructural, StructCause: StructBankConflict},
		{Kind: MemStructural, StructCause: StructMSHRFull},
	})
	if cc.StructCause != StructBankConflict {
		t.Errorf("attributed cause %v, want bank conflict (first matching warp)", cc.StructCause)
	}
}

// classifyCycleStrong classifies a cycle as an Inspector with StrongCycle
// set does: the strong (Algorithm 1) priority at cycle level.
func classifyCycleStrong(warps []WarpObs) CycleClass {
	return classifyCycle(newFold(&strongPriority), warps)
}

func TestClassifyCycleStrongAblation(t *testing.T) {
	obs := []WarpObs{{Kind: Control}, {Kind: MemStructural, StructCause: StructMSHRFull}}
	if got := ClassifyCycle(obs); got.Kind != MemStructural {
		t.Errorf("weak order = %v, want MemStructural", got.Kind)
	}
	if got := classifyCycleStrong(obs); got.Kind != Control {
		t.Errorf("strong order = %v, want Control", got.Kind)
	}
	if got := classifyCycleStrong(nil); got.Kind != Idle {
		t.Errorf("strong order on empty = %v, want Idle", got.Kind)
	}
	if got := classifyCycleStrong([]WarpObs{{Kind: NoStall}, {Kind: Sync}}); got.Kind != NoStall {
		t.Errorf("strong order with issue = %v, want NoStall", got.Kind)
	}
}

// TestClassifyCycleProperty checks, for arbitrary observation sets, that
// the chosen cycle kind is always present among the observations (or Idle
// for an empty set), under both priority orders.
func TestClassifyCycleProperty(t *testing.T) {
	prop := func(kinds []uint8) bool {
		obs := make([]WarpObs, len(kinds))
		for i, k := range kinds {
			obs[i] = WarpObs{Kind: StallKind(k % uint8(NumStallKinds))}
		}
		for _, cc := range []CycleClass{ClassifyCycle(obs), classifyCycleStrong(obs)} {
			if len(obs) == 0 {
				if cc.Kind != Idle {
					return false
				}
				continue
			}
			found := false
			for _, o := range obs {
				if o.Kind == cc.Kind {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestClassifyCyclePermutationInvariance: the chosen *kind* must not depend
// on warp order (attribution may, the kind may not).
func TestClassifyCyclePermutationInvariance(t *testing.T) {
	prop := func(kinds []uint8, rot uint8) bool {
		if len(kinds) == 0 {
			return true
		}
		obs := make([]WarpObs, len(kinds))
		for i, k := range kinds {
			obs[i] = WarpObs{Kind: StallKind(k % uint8(NumStallKinds))}
		}
		r := int(rot) % len(obs)
		rotated := append(append([]WarpObs{}, obs[r:]...), obs[:r]...)
		return ClassifyCycle(obs).Kind == ClassifyCycle(rotated).Kind
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// classifyNested is Algorithm 2 as the paper writes it — for each kind in
// priority order, the first warp of that kind — kept as the oracle for the
// one-pass rank-table classifier.
func classifyNested(warps []WarpObs, order []StallKind) CycleClass {
	if len(warps) == 0 {
		return CycleClass{Kind: Idle}
	}
	for _, w := range warps {
		if w.Kind == NoStall {
			return CycleClass{Kind: NoStall}
		}
	}
	for _, kind := range order {
		for _, w := range warps {
			if w.Kind == kind {
				return CycleClass(w)
			}
		}
	}
	return CycleClass{Kind: Idle}
}

var (
	weakOrder   = []StallKind{MemStructural, MemData, Sync, CompStructural, CompData, Control, Idle}
	strongOrder = []StallKind{Control, Sync, MemData, MemStructural, CompData, CompStructural, Idle}
)

// obsFor gives each warp a distinct payload, so a tie attributed to any but
// the first warp in scheduler order shows.
func obsFor(kinds []StallKind) []WarpObs {
	obs := make([]WarpObs, len(kinds))
	for i, k := range kinds {
		obs[i] = WarpObs{
			Kind:        k,
			PendingLoad: LoadID(100 + i),
			StructCause: StructCause(1 + i%(NumStructCauses-1)),
			CompUnit:    CompUnit(1 + i%(NumCompUnits-1)),
		}
	}
	return obs
}

// TestCycleFoldMatchesNested: the Inspector's running fold, under both
// cycle-level orders, classifies random observation slices — empty ones, and
// NoStall at any position — as the nested-loop definition does. Each slice is
// also folded in random pieces with Class read between them, as the SM reads
// nothing until its walk ends: every prefix classifies as the nested
// definition of that prefix, so the fold keeps the first best warp in
// scheduler order however the walk is cut.
func TestCycleFoldMatchesNested(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, strong := range []bool{false, true} {
		in := NewInspector(1)
		in.StrongCycle = strong
		order := weakOrder
		if strong {
			order = strongOrder
		}
		for n := 0; n < 20_000; n++ {
			kinds := make([]StallKind, rng.Intn(10))
			for i := range kinds {
				kinds[i] = StallKind(1 + rng.Intn(NumStallKinds-1))
				if rng.Intn(12) == 0 {
					kinds[i] = NoStall
				}
			}
			obs := obsFor(kinds)
			f := in.Fold()
			for _, o := range obs {
				f.Add(o)
			}
			if got, want := f.Class(), classifyNested(obs, order); got != want {
				t.Fatalf("strong=%v %v: fold %+v, nested %+v", strong, kinds, got, want)
			}
			f = in.Fold()
			for i := 0; i < len(obs); {
				end := i + 1 + rng.Intn(len(obs)-i)
				for _, o := range obs[i:end] {
					f.Add(o)
				}
				i = end
				if got, want := f.Class(), classifyNested(obs[:i], order); got != want {
					t.Fatalf("strong=%v %v cut at %d: fold %+v, nested %+v", strong, kinds, i, got, want)
				}
			}
		}
	}
}

// TestClassifyCycleMatchesNestedLoops: the rank-table pass picks the same
// kind and the same warp's payload as the nested-loop definition, under
// both orders, on every kind vector of up to four warps and on random
// 32-warp vectors.
func TestClassifyCycleMatchesNestedLoops(t *testing.T) {
	check := func(kinds []StallKind) {
		t.Helper()
		obs := obsFor(kinds)
		if got, want := ClassifyCycle(obs), classifyNested(obs, weakOrder); got != want {
			t.Fatalf("weak %v: got %+v, want %+v", kinds, got, want)
		}
		if got, want := classifyCycleStrong(obs), classifyNested(obs, strongOrder); got != want {
			t.Fatalf("strong %v: got %+v, want %+v", kinds, got, want)
		}
	}
	for k := 0; k <= 4; k++ {
		kinds := make([]StallKind, k)
		total := 1
		for i := 0; i < k; i++ {
			total *= NumStallKinds
		}
		for n := 0; n < total; n++ {
			for i, v := 0, n; i < k; i, v = i+1, v/NumStallKinds {
				kinds[i] = StallKind(v % NumStallKinds)
			}
			check(kinds)
		}
	}
	rng := rand.New(rand.NewSource(1))
	kinds := make([]StallKind, 32)
	for n := 0; n < 10_000; n++ {
		// Mostly stalled warps: an issued one short-circuits the order.
		for i := range kinds {
			kinds[i] = StallKind(1 + rng.Intn(NumStallKinds-1))
		}
		if n%8 == 0 {
			kinds[rng.Intn(len(kinds))] = NoStall
		}
		check(kinds)
	}
}
