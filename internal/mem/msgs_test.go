package mem

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"gsi/internal/core"
	"gsi/internal/noc"
	"gsi/internal/sim"
)

// TestMsgIsPointerFree: Msg is copied into every ring it crosses, so it must
// stay small and hold nothing the collector would have to scan or the write
// barrier to guard.
func TestMsgIsPointerFree(t *testing.T) {
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Ptr, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.Interface,
			reflect.String, reflect.Func, reflect.Chan:
			t.Errorf("%s is a %s: Msg must be pointer-free", path, ty.Kind())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		}
	}
	walk("Msg", reflect.TypeOf(Msg{}))
	if size := unsafe.Sizeof(Msg{}); size > 64 {
		t.Errorf("Msg is %d bytes, want at most 64", size)
	}
}

func TestMsgKindString(t *testing.T) {
	for k, want := range map[MsgKind]string{
		ReadReq: "ReadReq", AtomicResp: "AtomicResp", memFill: "memFill",
		0: "MsgKind(0)", memFill + 1: fmt.Sprintf("MsgKind(%d)", memFill+1), 200: "MsgKind(200)",
	} {
		if got := k.String(); got != want {
			t.Errorf("MsgKind(%d).String() = %q, want %q", uint8(k), got, want)
		}
	}
}

// plainPolicy is a write-through protocol without ownership, enough to build
// a System inside the package (the real policies import it).
type plainPolicy struct{}

func (plainPolicy) Name() string                       { return "plain" }
func (plainPolicy) KeepOnAcquire(LineState, bool) bool { return false }
func (plainPolicy) FlushLine(LineState) FlushAction    { return FlushWriteThrough }
func (plainPolicy) UsesOwnership() bool                { return false }

func plainSystem(t *testing.T, cfg sim.Config) *System {
	t.Helper()
	policies := make([]Policy, cfg.NumCores())
	for i := range policies {
		policies[i] = plainPolicy{}
	}
	sys, err := NewSystem(cfg, policies)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestMisdeliveryPanicsNameTheMessage: a message that reaches a unit which
// does not handle it — a protocol bug — panics with the message's kind, so a
// recovered stack says which one went astray.
func TestMisdeliveryPanicsNameTheMessage(t *testing.T) {
	cfg := sim.Default()
	cfg.NumSMs = 1 // two cores on sixteen tiles: most tiles are coreless
	sys := plainSystem(t, cfg)
	coreless := -1
	for tile, c := range sys.tileCore {
		if c < 0 {
			coreless = tile
		}
	}
	for _, tc := range []struct {
		name string
		call func()
		want string
	}{
		{"core", func() { sys.Cores[0].Deliver(&Msg{Kind: OwnReq}, 0) }, "unexpected message OwnReq"},
		{"bank", func() { sys.Banks[0].process(&Msg{Kind: WriteAck}, 0) }, "unexpected message WriteAck"},
		{"bank, unfilled", func() { sys.Banks[0].process(&Msg{}, 0) }, "unexpected message MsgKind(0)"},
		{"coreless tile", func() { sys.deliver(1, coreless, noc.PortCore, &Msg{Kind: ReadResp}) }, "ReadResp for core port of coreless tile"},
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), tc.want) {
					t.Errorf("%s: panic %v, want one containing %q", tc.name, r, tc.want)
				}
			}()
			tc.call()
		}()
	}
}

// TestFillCallbackMayStartMiss: a completion callback may start a miss. Here
// the only MSHR is being filled, with two merged targets, and the primary's
// callback loads a line that hashes to the very slot being completed and
// merges a second target into it. The slot must already be free (the new miss
// is a miss, not MSHR-full) and the old entry's merged targets must already be
// out of it (they complete intact, not overwritten by the new entry's).
func TestFillCallbackMayStartMiss(t *testing.T) {
	cfg := sim.Default()
	cfg.NumSMs = 1
	cfg.MSHREntries = 1
	sys := plainSystem(t, cfg)
	cm := sys.Cores[0]
	lineSize := uint64(cfg.LineSize)

	const first = uint64(0x4_0000)
	var cycle uint64
	if out := cm.Load(first, Target{Load: 1}, cycle); out != LoadMiss {
		t.Fatalf("first load: %v", out)
	}
	for id := core.LoadID(2); id <= 3; id++ {
		if out := cm.Load(first+8*uint64(id), Target{Load: id}, cycle); out != LoadMerged {
			t.Fatalf("load %d: %v, want merged", id, out)
		}
	}
	// A different line whose home slot is the one first occupies.
	second := first + lineSize
	for cm.mshr.home(second) != cm.mshr.home(first) {
		second += lineSize
	}

	type done struct {
		id    core.LoadID
		where core.DataWhere
	}
	var got []done
	cm.OnLoadDone = func(tg Target, where core.DataWhere) {
		got = append(got, done{tg.Load, where})
		if tg.Load != 1 {
			return
		}
		if out := cm.Load(second, Target{Load: 10}, cycle); out != LoadMiss {
			t.Errorf("load started from the callback: %v, want a miss in the slot being completed", out)
		}
		if out := cm.Load(second+8, Target{Load: 11}, cycle); out != LoadMerged {
			t.Errorf("second load started from the callback: %v, want merged", out)
		}
	}
	for ; !sys.Quiesced(); cycle++ {
		if cycle > 10_000 {
			t.Fatal("memory system did not quiesce")
		}
		sys.Tick(cycle)
	}
	want := []done{
		{1, core.WhereMemory}, {2, core.WhereL1Coalescing}, {3, core.WhereL1Coalescing},
		{10, core.WhereMemory}, {11, core.WhereL1Coalescing},
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("completions %v, want %v", got, want)
	}
}

// TestOutboxInjectsInArrivalOrder: messages that fall due the same cycle enter
// the mesh in the order they were handed to the outbox, whatever was queued
// between them — injection order decides delivery order, and with it every
// cycle count in a Report.
func TestOutboxInjectsInArrivalOrder(t *testing.T) {
	var got []uint64
	mesh := noc.New(1, 1, 1, 1, func(_ uint64, _ int, _ noc.Port, m *Msg) { got = append(got, m.Addr) })
	o := outbox{mesh: mesh}
	for addr, at := range []uint64{5, 3, 5, 9, 5, 3} {
		o.send(at, 0, noc.PortL2, &Msg{Kind: ReadReq, Addr: uint64(addr)})
	}
	for cycle := uint64(0); cycle < 30; cycle++ {
		mesh.Tick(cycle)
		o.tick(cycle)
		if due := o.nextDue(); due <= cycle {
			t.Fatalf("after the tick of cycle %d the outbox holds a message due at %d", cycle, due)
		}
	}
	if want := []uint64{1, 5, 0, 2, 4, 3}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("delivered in order %v, want %v", got, want)
	}
}

// TestTablesAreSizedOnDemand: the configured MSHR and store-buffer capacities
// reach NewSystem from a sweep request with nothing but a positive-value check
// behind them, so construction must not allocate in proportion to them.
func TestTablesAreSizedOnDemand(t *testing.T) {
	cfg := sim.Default()
	cfg.MSHREntries, cfg.StoreBufEntries = 1<<40, 1<<40
	sys := plainSystem(t, cfg)
	cm := sys.Cores[0]
	if n := len(cm.mshr.slots) + len(cm.sbSet.slots) + len(cm.acksWanted.slots) + cap(cm.sb); n != 0 {
		t.Fatalf("a fresh CoreMem holds %d table slots", n)
	}
	if cm.MSHRFree() != 1<<40 {
		t.Fatalf("MSHRFree = %d", cm.MSHRFree())
	}
}
