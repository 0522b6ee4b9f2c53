package workloads

import (
	"strings"
	"testing"

	"gsi/internal/cpu"
	"gsi/internal/gpu"
	"gsi/internal/isa"
	"gsi/internal/mem"
)

// Fault injection: the post-run verifiers are the harness's defense against
// timing bugs that corrupt results; these tests prove each check actually
// fires when its invariant is broken.

// buildAndSimulateUTS builds UTS memory and forges a "perfect run" by
// writing the state a correct execution would leave. The tree and its
// seeding are regenerated from the same seed the build used.
func buildAndSimulateUTS(t *testing.T) (*cpu.Host, *Tree, Seeding, func(*cpu.Host) error) {
	t.Helper()
	h := cpu.NewHost(mem.NewBacking())
	u := UTS{Seed: 5, Nodes: 50, FrontierMin: 8, Blocks: 2, WarpsPerBlock: 2, Work: 2, FMAs: 1}
	_, verify, err := u.Build(h)
	if err != nil {
		t.Fatal(err)
	}
	tree := GenTree(u.Seed, u.Nodes)
	seed := tree.SeedFrontier(u.FrontierMin)
	total := uint64(tree.Nodes())
	h.Write64(addrDone, total)
	pushed := total - seed.HostProcessed
	h.Write64(addrHead, pushed)
	h.Write64(addrTail, pushed)
	for n := int(seed.HostProcessed); n < tree.Nodes(); n++ {
		v := uint64(n)
		for i := 0; i < u.Work; i++ {
			v = isa.Mix64(v)
		}
		for i := 0; i < u.FMAs; i++ {
			v = v*v + v
		}
		h.Write64(addrResult+uint64(n)*8, v)
	}
	return h, tree, seed, verify
}

func TestVerifyQueueRunAcceptsPerfectRun(t *testing.T) {
	h, _, _, verify := buildAndSimulateUTS(t)
	if err := verify(h); err != nil {
		t.Fatalf("perfect run rejected: %v", err)
	}
}

func TestVerifyQueueRunDetectsFaults(t *testing.T) {
	faults := []struct {
		name   string
		inject func(h *cpu.Host, tree *Tree, seed Seeding)
		want   string
	}{
		{"lost node", func(h *cpu.Host, tree *Tree, seed Seeding) {
			h.Write64(addrDone, uint64(tree.Nodes())-1)
		}, "done="},
		{"queue not drained", func(h *cpu.Host, tree *Tree, seed Seeding) {
			h.Write64(addrHead, h.Read64(addrHead)-1)
		}, "not drained"},
		{"phantom pushes", func(h *cpu.Host, tree *Tree, seed Seeding) {
			h.Write64(addrHead, h.Read64(addrHead)+2)
			h.Write64(addrTail, h.Read64(addrTail)+2)
		}, "pushed"},
		{"corrupted result", func(h *cpu.Host, tree *Tree, seed Seeding) {
			n := uint64(tree.Nodes()) - 1
			h.Write64(addrResult+n*8, h.Read64(addrResult+n*8)^1)
		}, "result["},
	}
	for _, f := range faults {
		t.Run(f.name, func(t *testing.T) {
			h, tree, seed, verify := buildAndSimulateUTS(t)
			f.inject(h, tree, seed)
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

func TestVerifyUTSDRunDetectsLocalQueueFault(t *testing.T) {
	h := cpu.NewHost(mem.NewBacking())
	u := UTSD{Seed: 5, Nodes: 50, FrontierMin: 8, Blocks: 2, WarpsPerBlock: 2,
		Work: 2, FMAs: 1, LQCap: 16}
	_, verify, err := u.Build(h)
	if err != nil {
		t.Fatal(err)
	}
	// Forge completion except local queue 1 still holds a task.
	h.Write64(addrDone, uint64(u.Nodes))
	h.Write64(lqHeadAddr(0), h.Read64(lqTailAddr(0)))
	h.Write64(lqHeadAddr(1), h.Read64(lqTailAddr(1))-1)
	err = verify(h)
	if err == nil || !strings.Contains(err.Error(), "local queue 1") {
		t.Fatalf("err = %v, want local queue fault", err)
	}
}

func TestVerifyImplicitDetectsCorruption(t *testing.T) {
	h := cpu.NewHost(mem.NewBacking())
	im := Implicit{Local: gpu.LocalScratch, Seed: 9, Warps: 4, DataBytes: 4096, FMAs: 2, Rounds: 1}
	_, verify, err := im.Build(h)
	if err != nil {
		t.Fatal(err)
	}
	// Forge the expected output, then corrupt one word.
	perGroup := groupBytes / 8
	for g := 0; g < im.DataBytes/8/perGroup; g++ {
		want := applyFMA(isa.Mix64(im.Seed^uint64(g*perGroup)), im.FMAs)
		for w := 0; w < perGroup; w++ {
			h.Write64(addrData+uint64(g*perGroup+w)*8, want)
		}
	}
	if err := verify(h); err != nil {
		t.Fatalf("perfect output rejected: %v", err)
	}
	h.Write64(addrData+8*37, h.Read64(addrData+8*37)+1)
	if err := verify(h); err == nil {
		t.Fatal("corruption not detected")
	}
}

func TestUTSDBuildSeedsLocalQueues(t *testing.T) {
	h := cpu.NewHost(mem.NewBacking())
	u := UTSD{Seed: 0xC0FFEE, Nodes: 300, FrontierMin: 45, Blocks: 15,
		WarpsPerBlock: 8, Work: 16, FMAs: 4, LQCap: 128}
	if _, _, err := u.Build(h); err != nil {
		t.Fatal(err)
	}
	seed := GenTree(u.Seed, u.Nodes).SeedFrontier(u.FrontierMin)
	var queued uint64
	for q := 0; q < u.Blocks; q++ {
		if h.Read64(lqHeadAddr(q)) != 0 {
			t.Fatalf("queue %d head nonzero", q)
		}
		queued += h.Read64(lqTailAddr(q))
	}
	if queued != uint64(len(seed.Frontier)) {
		t.Fatalf("seeded %d tasks, frontier has %d", queued, len(seed.Frontier))
	}
	// Round-robin distribution: counts differ by at most one.
	lo, hi := ^uint64(0), uint64(0)
	for q := 0; q < u.Blocks; q++ {
		n := h.Read64(lqTailAddr(q))
		if n < lo {
			lo = n
		}
		if n > hi {
			hi = n
		}
	}
	if hi-lo > 1 {
		t.Fatalf("frontier unbalanced: min %d max %d", lo, hi)
	}
}

func TestLocalQueueLayoutSpreadsBanks(t *testing.T) {
	// The hot per-queue lines must spread across L2 banks (16-bank line
	// interleaving): a stride that aliases every lock onto a few banks
	// recreates the global hotspot UTSD exists to avoid.
	const banks, lineSize = 16, 64
	used := map[uint64]bool{}
	for q := 0; q < 15; q++ {
		used[(lqLockAddr(q)/lineSize)%banks] = true
	}
	if len(used) < 12 {
		t.Fatalf("15 queue locks alias onto only %d of %d banks", len(used), banks)
	}
}
