package mem

import (
	"fmt"

	"gsi/internal/noc"
	"gsi/internal/sim"
)

// System wires the full memory side of the simulated chip: the mesh, one
// CoreMem per core (SMs then the CPU), one L2 bank per tile, and the memory
// controller. Core i sits at tile CoreTile(i); L2 bank b sits at tile b.
type System struct {
	Cfg     sim.Config
	Backing *Backing
	Mesh    *noc.Mesh[Msg]
	Ctrl    *MemCtrl
	Cores   []*CoreMem
	Banks   []*L2Bank

	coreTiles []int
	tileCore  []int // tile -> core id, or -1
}

// NewSystem builds the memory system. policies supplies one coherence
// policy per core (index = core id); the paper's configurations give GPU
// cores the protocol under study and the CPU DeNovo.
func NewSystem(cfg sim.Config, policies []Policy) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(policies) != cfg.NumCores() {
		return nil, fmt.Errorf("mem: %d policies for %d cores", len(policies), cfg.NumCores())
	}
	s := &System{
		Cfg:     cfg,
		Backing: NewBacking(),
		Ctrl:    NewMemCtrl(cfg.MemLat, cfg.MemBandwidthCycles),
	}
	tiles := cfg.MeshWidth * cfg.MeshHeight
	s.coreTiles = make([]int, cfg.NumCores())
	s.tileCore = make([]int, tiles)
	for i := range s.tileCore {
		s.tileCore[i] = -1
	}
	for i := 0; i < cfg.NumCores(); i++ {
		t := i * tiles / cfg.NumCores()
		s.coreTiles[i] = t
		s.tileCore[t] = i
	}
	s.Mesh = noc.New(cfg.MeshWidth, cfg.MeshHeight, cfg.LinkLat, cfg.RouterLat, s.deliver)

	s.Banks = make([]*L2Bank, cfg.L2Banks)
	for b := range s.Banks {
		s.Banks[b] = NewL2Bank(b, cfg.L2Size/cfg.L2Banks, cfg.L2Assoc,
			cfg.LineSize, cfg.L2AccessLat, s.Backing, s.Ctrl, s.Mesh, s.CoreTile)
	}
	s.Cores = make([]*CoreMem, cfg.NumCores())
	for c := range s.Cores {
		s.Cores[c] = NewCoreMem(CoreMemConfig{
			CoreID:   c,
			Tile:     s.coreTiles[c],
			LineSize: cfg.LineSize,
			L1Size:   cfg.L1Size,
			L1Assoc:  cfg.L1Assoc,
			MSHRCap:  cfg.MSHREntries,
			SBCap:    cfg.StoreBufEntries,
			Policy:   policies[c],
			Backing:  s.Backing,
			Mesh:     s.Mesh,
			BankTile: s.BankTile,
			CoreTile: s.CoreTile,
		})
	}
	return s, nil
}

// deliver is the mesh ejection handler; m is the mesh's, for this call only.
func (s *System) deliver(cycle uint64, tile int, port noc.Port, m *Msg) {
	if port == noc.PortL2 {
		s.Banks[tile%len(s.Banks)].Deliver(m)
		return
	}
	c := s.tileCore[tile]
	if c < 0 {
		panic(fmt.Sprintf("mem: %s for core port of coreless tile %d", m.Kind, tile))
	}
	// The mesh ticks before the cores within a cycle, so a delivered
	// message finds the core as its previous tick left it; passing
	// cycle-1 keeps the core's timestamps identical whether or not it
	// actually ticked every intervening cycle. (No message can be in
	// flight before cycle 1, so the subtraction cannot underflow in a
	// driven system; guard anyway for robustness.)
	now := cycle
	if now > 0 {
		now--
	}
	s.Cores[c].Deliver(m, now)
}

// BankTile maps a line address to its home bank's tile (line interleaved).
func (s *System) BankTile(line uint64) int {
	return int((line / uint64(s.Cfg.LineSize)) % uint64(len(s.Banks)))
}

// CoreTile maps a core id to its tile.
func (s *System) CoreTile(core int) int { return s.coreTiles[core] }

// Attach registers every memory-side unit with the scheduling engine, in
// the same order a dense System.Tick evaluates them (mesh, controller,
// banks, cores), and wires each unit's wake callback to its engine handle
// so idle units stop ticking until a message, fill, or flush re-arms them.
func (s *System) Attach(eng *sim.Engine) {
	s.Mesh.SetWaker(eng.Register("mesh", s.Mesh).Wake)
	s.Ctrl.SetWaker(eng.Register("memctrl", s.Ctrl).Wake)
	for i, b := range s.Banks {
		b.SetWaker(eng.Register(fmt.Sprintf("l2b%d", i), b).Wake)
	}
	for i, c := range s.Cores {
		c.SetWaker(eng.Register(fmt.Sprintf("core%d", i), c).Wake)
	}
}

// Tick advances the whole memory side one cycle: mesh delivery first, then
// the memory controller, the banks, and the per-core units, in fixed order.
// It is the dense compound form of Attach's per-unit registration, kept for
// calibration probes and tests that drive the system as a single component;
// it reports whether any unit still has tick work.
func (s *System) Tick(cycle uint64) bool {
	busy := s.Mesh.Tick(cycle)
	if s.Ctrl.Tick(cycle) {
		busy = true
	}
	for _, b := range s.Banks {
		if b.Tick(cycle) {
			busy = true
		}
	}
	for _, c := range s.Cores {
		if c.Tick(cycle) {
			busy = true
		}
	}
	return busy
}

// Quiesced reports that no request, response, flush, or fill is in flight
// anywhere in the memory system.
func (s *System) Quiesced() bool {
	if !s.Mesh.Quiesced() || s.Ctrl.Pending() != 0 {
		return false
	}
	for _, b := range s.Banks {
		if !b.Quiesced() {
			return false
		}
	}
	for _, c := range s.Cores {
		if !c.Quiesced() {
			return false
		}
	}
	return true
}
