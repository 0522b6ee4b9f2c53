package main

import (
	"runtime"
	"sync"
	"time"
)

// The build host is a shared virtual machine whose speed drifts by up to
// 1.7x over minutes and bursts over seconds, whatever this process does.
// A wall-clock timing taken on it says as much about the neighbours as
// about gsi. The benchmark therefore times a fixed reference kernel beside
// the operations it measures and reports wall-clock metrics at reference
// speed: measured time x (refKernelMs / measured kernel ms).
//
// The kernel is frozen (changing it changes the meaning of every timing:
// bump benchVersion). It is half memory-latency-bound - a pointer chase
// through a 4 MB single-cycle permutation - and half dispatch-bound - 32
// units ticked through an interface, each with a slice queue and a map,
// the shape of the simulator's own inner loop. Either half alone tracks
// the simulator poorly (one over-reacts to memory contention, the other to
// core contention); measured over ten-second windows on the build host
// while gsi.Run's time ranged over 1.7x, the ratio to the sum of the two
// stayed within a 7-10% quartile spread.

// refKernelMs defines reference speed: the speed at which the kernel takes
// this long. It is near what a quiet build host measures, so a normalised
// figure reads like a wall-clock one.
const refKernelMs = 100

const (
	chaseWords = 1 << 20 // 4 MB of uint32
	chaseSteps = 1500000
	tickUnits  = 32
	tickCycles = 33000
)

type calibUnit struct {
	q   []uint64
	m   map[uint64]uint64
	acc uint64
}

type calibTicker interface{ tick(cycle uint64) bool }

func (u *calibUnit) tick(cycle uint64) bool {
	u.q = append(u.q, cycle)
	if len(u.q) > 8 {
		v := u.q[0]
		u.q = u.q[1:]
		u.m[v&1023] = v
		u.acc += u.m[(v*7)&1023]
	}
	return len(u.q) > 0
}

var (
	calibOnce  sync.Once
	calibChase []uint32
	calibUnits []calibTicker
	calibSink  uint64
)

// calibInit builds the kernel's tables: a Sattolo shuffle, so the
// permutation is one cycle and the chase never settles into a short loop.
func calibInit() {
	calibChase = make([]uint32, chaseWords)
	for i := range calibChase {
		calibChase[i] = uint32(i)
	}
	x := uint64(12345)
	for i := chaseWords - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		calibChase[i], calibChase[j] = calibChase[j], calibChase[i]
	}
	for i := 0; i < tickUnits; i++ {
		calibUnits = append(calibUnits, &calibUnit{m: map[uint64]uint64{}})
	}
}

// calibrate runs the reference kernel once (about a tenth of a second) and
// returns its wall time in milliseconds.
func calibrate() float64 {
	calibOnce.Do(calibInit)
	start := time.Now()
	p := uint32(0)
	for i := 0; i < chaseSteps; i++ {
		p = calibChase[p]
	}
	busy := uint64(p)
	for c := uint64(0); c < tickCycles; c++ {
		for _, u := range calibUnits {
			if u.tick(c) {
				busy++
			}
		}
	}
	calibSink += busy
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// calibrator takes a kernel sample whenever at least half a second has
// passed since the last one; the first call always samples. Each timing is
// converted with the sample taken just before it: the host's speed changes
// within seconds. gate, when set, is held exclusively while the kernel
// runs: operations hold it shared, so none overlaps a sample and allocated
// counts the kernel's bytes alone.
type calibrator struct {
	gate      *sync.RWMutex
	last      time.Time
	samples   []float64
	allocated uint64
}

func (c *calibrator) maybe() {
	if c.samples != nil && time.Since(c.last) < 500*time.Millisecond {
		return
	}
	if c.gate != nil {
		c.gate.Lock()
		defer c.gate.Unlock()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c.samples = append(c.samples, calibrate())
	runtime.ReadMemStats(&after)
	c.allocated += after.TotalAlloc - before.TotalAlloc
	c.last = time.Now()
}

// toReference is the factor that converts a wall time measured right after
// the latest sample to reference speed. Callers hold the gate, shared.
func (c *calibrator) toReference() float64 { return ratio(refKernelMs, c.samples[len(c.samples)-1]) }
