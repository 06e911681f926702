package main

import "time"

// The host's CPU is shared, and its speed drifts by tens of percent over
// seconds to minutes as other tenants' load comes and goes. An untraced
// pass therefore runs a fixed reference kernel every refEvery, between
// calls into the program, and its timings are scaled by how fast the
// kernel ran during that pass: a pass on a machine running 20% slow has
// its durations scaled down accordingly. The kernel is perfbench's own
// code, so a change to the program moves the workload's timings and not
// the kernel's. Its time is taken out of the pass wall.
//
// refNominal is the kernel's mean duration that scale 1 stands for, near
// what it takes on a 2-vCPU Xeon VM at 2.0 GHz, so scaled figures stay
// close to raw ones there.
const (
	refEvery   = 25 * time.Millisecond
	refNominal = 250 * time.Microsecond
)

// speedRef samples the kernel during one pass.
type speedRef struct {
	on   bool
	last time.Time
	ns   latencies
}

// ref is the process's sampler; the load is one goroutine.
var ref speedRef

// refState is the kernel's working set, allocated once so the kernel
// allocates nothing: a map of a few thousand entries and a slice. Map
// updates and appends stall the way the simulator's own code does when
// a neighbour contends for the core and its caches; a pointer chase
// through memory was tried and did not follow the workloads' slowdowns.
var refState = struct {
	m    map[int]int
	s    []float64
	sink int
}{m: make(map[int]int, refKeys), s: make([]float64, 0, 1024)}

const (
	refKeys  = 5000
	refIters = 10000
)

func refKernel() {
	m, s := refState.m, refState.s[:0]
	clear(m)
	for i := 0; i < refIters; i++ {
		m[i%refKeys] += i
		s = append(s, float64(i))
		if len(s) == cap(s) {
			s = s[:0]
		}
	}
	refState.sink += len(m) + len(s)
}

// start begins sampling a pass. The first sample is taken by the first
// tick at least refEvery later, inside the pass's timed span.
func (r *speedRef) start() {
	r.on = true
	r.ns = r.ns[:0]
	r.last = time.Now()
}

// stop ends sampling; tick does nothing until the next start.
func (r *speedRef) stop() { r.on = false }

// tick runs the kernel if refEvery has passed since the last sample. The
// hooks call it between calls into the program, never inside a timed
// call.
func (r *speedRef) tick() {
	if r.on && time.Since(r.last) >= refEvery {
		r.sample()
	}
}

func (r *speedRef) sample() {
	t0 := time.Now()
	refKernel()
	r.ns.record(t0)
	r.last = time.Now()
}

// busy is the wall time the kernel took in this pass, in seconds.
func (r *speedRef) busy() float64 { return r.ns.busy() }

// mean is the kernel's mean duration in this pass, in seconds.
func (r *speedRef) mean() float64 { return r.ns.busy() / float64(len(r.ns)) }

// scale is refNominal over the kernel's mean duration in this pass: the
// factor that turns the pass's durations into durations at nominal
// speed.
func (r *speedRef) scale() float64 {
	if len(r.ns) == 0 {
		return 1
	}
	return refNominal.Seconds() / r.mean()
}
