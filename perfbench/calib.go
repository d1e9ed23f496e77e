package main

import (
	"runtime"
	"slices"
	"time"
)

// The host this benchmark runs on shares its cores with other machines'
// work, and its speed drifts by 10–40% over minutes, in CPU time as much
// as in wall time. No run length averages that out, so the untraced run
// measures the host's speed around every set-up and through every pass
// with a fixed calibration job, and scales each set-up and pass time to a
// host on which that job takes calibRef. The job uses only the standard
// library, so no change to openmxsim moves it, and it allocates nothing
// after its first run, so the garbage collector does not move it either.

// calibRef is a fixed calibration job time within the range the job took
// on the 2-core machine the bounds were set on (3.1–6.1 ms); scaled times
// read as seconds on that machine when the job takes calibRef.
const calibRef = 0.006

const (
	calibN      = 1 << 15               // keys hashed, sorted and chased per run of the job
	calibBurst  = 9                     // runs of the job just before every set-up
	calibEvery  = 50 * time.Millisecond // least time between runs inside a pass
	calibSlices = 256                   // room for one round's runs, so recording them never allocates
)

// calibJob mixes what the simulator spends its time on: hashing into a
// map, sorting, and chasing indices through memory.
type calibJob struct {
	m    map[uint32]uint32
	keys []uint64
	perm []uint32 // one cycle through all indices
}

var calib = newCalibJob()

func newCalibJob() *calibJob {
	c := &calibJob{
		m:    make(map[uint32]uint32, calibN),
		keys: make([]uint64, calibN),
		perm: make([]uint32, calibN),
	}
	// Sattolo's algorithm with a fixed xorshift stream: a single cycle.
	for i := range c.perm {
		c.perm[i] = uint32(i)
	}
	x := uint64(2463534242)
	for i := calibN - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		c.perm[i], c.perm[j] = c.perm[j], c.perm[i]
	}
	c.slice()
	return c
}

var calibSink uint64

// slice runs the job once and returns its host time in seconds.
func (c *calibJob) slice() float64 {
	start := time.Now()
	clear(c.m)
	x := uint64(88172645463325252)
	for i := range c.keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.keys[i] = x
		c.m[uint32(x)&(calibN-1)] = uint32(i)
	}
	slices.Sort(c.keys)
	var sum uint64
	j := uint32(0)
	for range c.keys {
		j = c.perm[j]
		if v, ok := c.m[uint32(c.keys[j])&(calibN-1)]; ok {
			sum += uint64(v)
		}
	}
	calibSink += sum
	return time.Since(start).Seconds()
}

// A calibClock runs the calibration job around one set-up and pass: a
// burst before the set-up, then one run at each operation boundary of the
// pass at least calibEvery after the previous one. The median of a
// round's runs is the host's speed for that round; a momentary stall in
// one run does not move it, and the runs inside the pass follow the host
// through it.
type calibClock struct {
	runs  []float64
	spent time.Duration // host time of every run so far
	last  time.Time
}

func newCalibClock() *calibClock {
	return &calibClock{runs: make([]float64, 0, calibSlices)}
}

// burst starts a round: it collects the garbage left by earlier work,
// then runs the job calibBurst times.
func (c *calibClock) burst() {
	c.runs = c.runs[:0]
	runtime.GC()
	for i := 0; i < calibBurst; i++ {
		c.run()
	}
}

// tick runs the job if calibEvery has passed since the last run. It is a
// no-op on a nil clock, as in traced runs.
func (c *calibClock) tick() {
	if c == nil || time.Since(c.last) < calibEvery || len(c.runs) == cap(c.runs) {
		return
	}
	c.run()
}

func (c *calibClock) run() {
	start := time.Now()
	c.runs = append(c.runs, calib.slice())
	c.last = time.Now()
	c.spent += c.last.Sub(start)
}

// total is the host time spent in the job so far, 0 on a nil clock.
func (c *calibClock) total() time.Duration {
	if c == nil {
		return 0
	}
	return c.spent
}

// speed is the median time of the round's runs.
func (c *calibClock) speed() float64 { return median(c.runs) }
