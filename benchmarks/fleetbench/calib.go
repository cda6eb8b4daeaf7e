package main

import (
	"slices"
	"sync"
	"time"
)

// The machine this benchmark runs on is a shared virtual machine whose
// speed drifts by ±10% over minutes: consecutive runs of identical work
// showed throughput, latency, CPU time per op and set-up time all moving
// together, which no statistic inside one run can remove. So a run is
// interleaved with bursts of a reference kernel — fixed work that uses
// nothing from the repository — and every time it reports is in
// reference seconds: measured time × calibNominal / mean burst time. A
// machine running 10% slow stretches the kernel and the workload alike
// and the ratio stays put. Measured on this machine, 20 bursts spread
// over a 20 s phase halve the run-to-run spread of throughput (see
// REPEATABILITY.md). The kernel and calibNominal are part of the
// benchmark, so they are the same on both sides of any comparison.

const (
	// calibNominal is one burst's time on the commit that added the
	// benchmark, at the machine's usual speed. It only fixes the scale:
	// at that speed a reference second is a wall second.
	calibNominal = 62 * time.Millisecond

	calibRing  = 1 << 19 // uint32 slots of the pointer-chase ring: 2 MiB
	calibSteps = 1 << 20
	calibKeys  = 1 << 16 // uint64 keys per sort: 512 KiB
	calibSorts = 6
	// phaseBursts is how many bursts a timed phase is interleaved with,
	// at least.
	phaseBursts = 20
)

// kernel is the reference work of one core: a dependent-load walk over
// a ring the size of L2 and sorts of pseudo-random keys. The drift
// shows in cache- and memory-bound code far more than in pure
// arithmetic, and this mix tracked the serving path best. The ring
// stays within what the second-level TLB maps with 4 KiB pages, so the
// kernel's time does not depend on when the OS hands out huge pages.
// It allocates nothing after construction.
type kernel struct {
	ring []uint32
	keys []uint64
	work []uint64
	pos  uint32
}

func newKernel(seed uint64) *kernel {
	k := &kernel{
		ring: make([]uint32, calibRing),
		keys: make([]uint64, calibKeys),
		work: make([]uint64, calibKeys),
	}
	x := seed | 1
	next := func() uint64 { // xorshift64
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	// Sattolo's algorithm: one cycle through every slot.
	for i := range k.ring {
		k.ring[i] = uint32(i)
	}
	for i := len(k.ring) - 1; i > 0; i-- {
		j := int(next() % uint64(i))
		k.ring[i], k.ring[j] = k.ring[j], k.ring[i]
	}
	for i := range k.keys {
		k.keys[i] = next()
	}
	return k
}

func (k *kernel) run() time.Duration {
	t0 := time.Now()
	p := k.pos
	for i := 0; i < calibSteps; i++ {
		p = k.ring[p]
	}
	k.pos = p
	for r := 0; r < calibSorts; r++ {
		copy(k.work, k.keys)
		slices.Sort(k.work)
	}
	return time.Since(t0)
}

// calibration collects a run's bursts. One burst runs a kernel on each
// of the load's cores at once, as the workload does.
type calibration struct {
	kernels [loadClients]*kernel
	bursts  []float64 // seconds, one per burst
}

func newCalibration() *calibration {
	c := &calibration{}
	for i := range c.kernels {
		c.kernels[i] = newKernel(uint64(i) + 0x5EED)
	}
	// The first burst pays for cold caches; discard it.
	c.burst()
	c.bursts = c.bursts[:0]
	return c
}

func (c *calibration) burst() {
	var wg sync.WaitGroup
	var took [loadClients]time.Duration
	for i, k := range c.kernels {
		wg.Add(1)
		go func() {
			defer wg.Done()
			took[i] = k.run()
		}()
	}
	wg.Wait()
	var sum time.Duration
	for _, d := range took {
		sum += d
	}
	c.bursts = append(c.bursts, sum.Seconds()/loadClients)
}

// scale is the factor that turns wall times measured among bursts
// [from, to) into reference times: above 1 on a machine running faster
// than usual. An interval is scaled by its own bursts only — the
// machine's speed a minute earlier says little about it.
func (c *calibration) scale(from, to int) float64 {
	var sum float64
	for _, b := range c.bursts[from:to] {
		sum += b
	}
	return calibNominal.Seconds() / (sum / float64(to-from))
}
