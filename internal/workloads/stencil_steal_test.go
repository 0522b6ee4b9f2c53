package workloads

import (
	"strings"
	"testing"

	"gsi/internal/cpu"
	"gsi/internal/mem"
)

// Fault injection for the stencil and steal verifiers, in the same spirit
// as verify_test.go: forge the exact memory image a perfect run leaves,
// confirm the verifier accepts it, then break one invariant at a time and
// confirm the matching check fires.

// forgeStencilRun builds stencil memory and overwrites it with the CPU
// replay's final image plus the barrier words a complete run leaves.
func forgeStencilRun(t *testing.T) (*cpu.Host, Stencil, func(*cpu.Host) error) {
	t.Helper()
	h := cpu.NewHost(mem.NewBacking())
	w := Stencil{Seed: 7, Width: 16, Rows: 2, Steps: 3, Blocks: 3, WarpsPerBlock: 2, Work: 1}
	_, verify, err := w.Build(h)
	if err != nil {
		t.Fatal(err)
	}
	ref := w.Reference()
	for b := 0; b < w.Blocks; b++ {
		for i, v := range ref.win[b] {
			h.Write64(w.windowAddr(b)+uint64(i)*8, v)
		}
	}
	for p := 0; p < 2; p++ {
		for b := -1; b < w.Blocks; b++ {
			for c, v := range ref.haloDn[(b+1)*2+p] {
				h.Write64(w.haloDnAddr(b, p)+uint64(c)*8, v)
			}
		}
		for b := 0; b <= w.Blocks; b++ {
			for c, v := range ref.haloUp[b*2+p] {
				h.Write64(w.haloUpAddr(b, p)+uint64(c)*8, v)
			}
		}
	}
	h.Write64(addrStenBarGen, uint64(w.Steps))
	h.Write64(addrStenBarCnt, uint64(w.Steps*w.Blocks*w.WarpsPerBlock))
	return h, w, verify
}

func TestVerifyStencilAcceptsPerfectRun(t *testing.T) {
	h, _, verify := forgeStencilRun(t)
	if err := verify(h); err != nil {
		t.Fatalf("perfect run rejected: %v", err)
	}
}

func TestVerifyStencilDetectsFaults(t *testing.T) {
	faults := []struct {
		name   string
		inject func(h *cpu.Host, w Stencil)
		want   string
	}{
		{"corrupted interior cell", func(h *cpu.Host, w Stencil) {
			a := w.windowAddr(1) + w.planeBytes() + w.rowBytes() + 2*8
			h.Write64(a, h.Read64(a)^1)
		}, "plane"},
		{"stale down halo", func(h *cpu.Host, w Stencil) {
			a := w.haloDnAddr(0, 1) + 3*8
			h.Write64(a, h.Read64(a)+1)
		}, "haloDn"},
		{"stale up halo", func(h *cpu.Host, w Stencil) {
			a := w.haloUpAddr(1, 0) + 5*8
			h.Write64(a, h.Read64(a)+1)
		}, "haloUp"},
		{"missing step", func(h *cpu.Host, w Stencil) {
			h.Write64(addrStenBarGen, uint64(w.Steps)-1)
		}, "steps"},
		{"lost barrier arrival", func(h *cpu.Host, w Stencil) {
			h.Write64(addrStenBarCnt, h.Read64(addrStenBarCnt)-1)
		}, "barrier count"},
	}
	for _, f := range faults {
		t.Run(f.name, func(t *testing.T) {
			h, w, verify := forgeStencilRun(t)
			f.inject(h, w)
			err := verify(h)
			if err == nil {
				t.Fatal("fault not detected")
			}
			if !strings.Contains(err.Error(), f.want) {
				t.Fatalf("err = %v, want mention of %q", err, f.want)
			}
		})
	}
}

// forgeStealRun builds steal memory and forges the state a correct run
// leaves: every deque drained, every result word exact, done == Tasks.
func forgeStealRun(t *testing.T) (*cpu.Host, Steal, func(*cpu.Host) error) {
	t.Helper()
	h := cpu.NewHost(mem.NewBacking())
	w := Steal{Tasks: 40, Cap: 64, Blocks: 3, WarpsPerBlock: 2, Work: 2, FMAs: 1, Skew: 100}
	_, verify, err := w.Build(h)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < w.Blocks; q++ {
		h.Write64(sqHeadAddr(q), h.Read64(sqTailAddr(q)))
	}
	h.Write64(addrStealDone, uint64(w.Tasks))
	for id := 0; id < w.Tasks; id++ {
		h.Write64(addrStealRes+uint64(id)*8, StealResult(uint64(id), w.Work, w.FMAs))
	}
	return h, w, verify
}

func TestVerifyStealAcceptsPerfectRun(t *testing.T) {
	h, _, verify := forgeStealRun(t)
	if err := verify(h); err != nil {
		t.Fatalf("perfect run rejected: %v", err)
	}
}

func TestVerifyStealDetectsFaults(t *testing.T) {
	faults := []struct {
		name   string
		inject func(h *cpu.Host, w Steal)
		want   string
	}{
		{"lost task", func(h *cpu.Host, w Steal) {
			h.Write64(addrStealDone, uint64(w.Tasks)-1)
		}, "done="},
		{"corrupted result", func(h *cpu.Host, w Steal) {
			a := addrStealRes + uint64(w.Tasks-1)*8
			h.Write64(a, h.Read64(a)^1)
		}, "result["},
		{"deque not drained", func(h *cpu.Host, w Steal) {
			h.Write64(sqHeadAddr(1), h.Read64(sqHeadAddr(1))+1)
		}, "not drained"},
		{"lock leaked", func(h *cpu.Host, w Steal) {
			h.Write64(sqLockAddr(2), 1)
		}, "lock still held"},
	}
	for _, f := range faults {
		t.Run(f.name, func(t *testing.T) {
			h, w, verify := forgeStealRun(t)
			f.inject(h, w)
			err := verify(h)
			if err == nil {
				t.Fatal("fault not detected")
			}
			if !strings.Contains(err.Error(), f.want) {
				t.Fatalf("err = %v, want mention of %q", err, f.want)
			}
		})
	}
}

func TestStealSeedDequesSkew(t *testing.T) {
	w := Steal{Tasks: 100, Cap: 128, Blocks: 5, WarpsPerBlock: 2, Skew: 60}
	qs := w.seedDeques()
	if n := len(qs[0]); n != 60 {
		t.Fatalf("deque 0 seeded with %d tasks, want 60", n)
	}
	total := 0
	for _, q := range qs {
		total += len(q)
	}
	if total != w.Tasks {
		t.Fatalf("seeded %d tasks, want %d", total, w.Tasks)
	}
	// The cold deques split the remainder evenly.
	for q := 1; q < w.Blocks; q++ {
		if len(qs[q]) != 10 {
			t.Fatalf("deque %d seeded with %d tasks, want 10", q, len(qs[q]))
		}
	}
}

func TestStealDequeLayoutSpreadsBanks(t *testing.T) {
	// Same property the UTSD queues guarantee: deque locks must spread
	// across the 16 L2 banks rather than aliasing onto a few.
	const banks, lineSize = 16, 64
	used := map[uint64]bool{}
	for q := 0; q < 15; q++ {
		used[(sqLockAddr(q)/lineSize)%banks] = true
	}
	if len(used) < 12 {
		t.Fatalf("15 deque locks alias onto only %d of %d banks", len(used), banks)
	}
}
