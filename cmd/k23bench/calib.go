package main

import (
	"sync"
	"time"
)

// Host-speed calibration. The benchmark shares its host with other work
// that slows every instruction for seconds at a time: on a shared 2-CPU
// host the same job list ran at half speed for minutes, with no steal
// time, so neither longer runs nor CPU time removes it. Every timing is
// therefore rescaled to a reference host speed: before each job (and
// after the last) the benchmark times a fixed kernel that does not depend
// on the simulator, and a job's wall time is multiplied by
// calibRef / (the median kernel time around the job). A change to the
// simulator moves the rescaled times as it moves wall time; a change in
// the host's speed moves the kernel too and mostly cancels out (the
// simulator's workloads slow somewhat more or less than the kernel).
//
// The kernel mixes what the simulator's hot loops do: switch dispatch
// over a byte program in registers, lookups and updates in a Go map, and
// a dependent-load chase through a 256 KB table. The map and the table
// are walked once untimed first, so the kernel times the host rather than
// the cache state the previous job left behind.

// calibRef is the kernel's time on a quiet host: the 2-CPU host the
// bounds in BENCHMARK.json were measured on, when uncontended. Rescaled
// times read as milliseconds on that host.
const calibRef = 1300 * time.Microsecond

// calibWindow is how many kernel timings on each side of a job, besides
// the ones just before and after it, the median rescaling it takes.
const calibWindow = 2

const (
	calibMapKeys  = 1 << 14
	calibChaseLen = 1 << 16 // uint32 entries: 256 KB
)

// calibState is one goroutine's kernel data.
type calibState struct {
	m     map[uint64]uint64
	chase []uint32
	sink  uint64
}

func newCalibState() *calibState {
	c := &calibState{m: make(map[uint64]uint64, calibMapKeys), chase: make([]uint32, calibChaseLen)}
	for i := uint64(0); i < calibMapKeys; i++ {
		c.m[i*0x9e3779b97f4a7c15] = i
	}
	// One cycle through every entry, in an order a prefetcher cannot follow.
	order := make([]uint32, calibChaseLen)
	for i := range order {
		order[i] = uint32(i)
	}
	x := uint64(0x2545f4914f6cdd1d)
	for i := len(order) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x % uint64(i+1)
		order[i], order[j] = order[j], order[i]
	}
	for i, v := range order {
		c.chase[v] = order[(i+1)%len(order)]
	}
	return c
}

func (c *calibState) dispatch() {
	prog := [...]byte{0, 1, 2, 3, 4, 1, 2, 0, 3, 4, 2, 1}
	var r [5]uint64
	r[0] = 1
	for i := 0; i < 20000; i++ {
		for _, op := range prog {
			switch op {
			case 0:
				r[1] += r[0] * 0x9e3779b9
			case 1:
				r[2] ^= r[1] >> 7
			case 2:
				r[3] = r[3]*31 + r[2]
			case 3:
				r[4] += r[3] & 0xff
			case 4:
				r[0] = r[0]<<1 | r[4]&1
			}
		}
	}
	c.sink += r[0] + r[4]
}

func (c *calibState) mapPass() {
	for i := uint64(0); i < 30000; i++ {
		k := (i * 7919 & (calibMapKeys - 1)) * 0x9e3779b97f4a7c15
		c.sink += c.m[k]
		c.m[k] = c.sink
	}
}

func (c *calibState) chasePass(n int) {
	j := uint32(c.sink) & (calibChaseLen - 1)
	for i := 0; i < n; i++ {
		j = c.chase[j]
	}
	c.sink += uint64(j)
}

// run warms the kernel's data and returns the kernel's time.
func (c *calibState) run() time.Duration {
	c.mapPass()
	c.chasePass(calibChaseLen)
	t0 := time.Now()
	c.dispatch()
	c.mapPass()
	c.chasePass(100_000)
	return time.Since(t0)
}

// calibrator times the kernel on every CPU the workload's jobs may use.
type calibrator struct {
	states []*calibState
}

func newCalibrator(procs int) *calibrator {
	c := &calibrator{}
	for i := 0; i < procs; i++ {
		c.states = append(c.states, newCalibState())
	}
	return c
}

// time runs the kernel once on each of the calibrator's goroutines at
// the same time and returns the mean kernel time.
func (c *calibrator) time() time.Duration {
	if len(c.states) == 1 {
		return c.states[0].run()
	}
	durs := make([]time.Duration, len(c.states))
	var wg sync.WaitGroup
	for i, s := range c.states {
		wg.Add(1)
		go func() {
			defer wg.Done()
			durs[i] = s.run()
		}()
	}
	wg.Wait()
	var sum time.Duration
	for _, d := range durs {
		sum += d
	}
	return sum / time.Duration(len(durs))
}

// median returns the median of n kernel timings.
func (c *calibrator) median(n int) time.Duration {
	ts := make([]time.Duration, n)
	for i := range ts {
		ts[i] = c.time()
	}
	return time.Duration(median(durations(ts)))
}

func durations(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d)
	}
	return out
}

// scales turns n+1 kernel timings, taken before each of n jobs and after
// the last, into each job's rescaling factor.
func scales(cal []time.Duration) []float64 {
	ts := durations(cal)
	out := make([]float64, len(cal)-1)
	for i := range out {
		out[i] = float64(calibRef) / median(ts[max(0, i-calibWindow):min(len(ts), i+calibWindow+2)])
	}
	return out
}
