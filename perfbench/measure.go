package main

import (
	"runtime"
	"time"
)

// pass is one run of an instance's work, as the end-to-end loop sees it.
type pass struct {
	wall              float64 // seconds
	jobs, decisions   int
	mapNs, redNs      latencies
	mem               memDelta
	attempted, failed int
}

// untraced is a workload as the end-to-end loop drives it: build sets up
// the instance with the given seed, and the returned function runs it.
type untraced func(seed int64) (func(c *checks) (pass, error), error)

// measureUntraced measures the end-to-end metrics. Every pass builds a
// fresh instance from the seed and the pass index, so a run's figures
// average over several inputs, and passes repeat until the budget is
// spent. Pass 0 warms the heap and caches: its outputs are checked, its
// figures are not kept. Each kept pass's timings are scaled to nominal
// machine speed by the reference kernel sampled during it (speed.go).
// Rates and allocations are medians across passes; decision latencies
// pool every pass; set-up time is the median of every build.
func measureUntraced(w untraced, o runOpts) (*report, error) {
	var (
		c                                   checks
		setups, jobRates, decRates          []float64
		allocsPerJob, kbPerJob, allocsPerDc []float64
		mapNs, redNs                        latencies
		attempted, failed                   int64
	)
	passes, err := passLoop(o.budget, 4, func(i int) error {
		var run func(*checks) (pass, error)
		var built []float64
		// The previous pass's garbage is collected first, so the builds
		// do not pay for it.
		runtime.GC()
		for start := time.Now(); len(built) < setupReps || time.Since(start) < setupMin; {
			t0 := time.Now()
			var err error
			if run, err = w(instanceSeed(o.seed, i)); err != nil {
				return err
			}
			built = append(built, time.Since(t0).Seconds())
		}
		ref.start()
		p, err := run(&c)
		ref.stop()
		if err != nil {
			return err
		}
		attempted += int64(p.attempted)
		failed += int64(p.failed)
		c.expect(p.jobs > 0 && p.decisions > 0, "pass %d completed %d jobs over %d decisions", i, p.jobs, p.decisions)
		if p.jobs == 0 || p.decisions == 0 {
			return nil
		}
		k := ref.scale()
		wall := p.wall - ref.busy()
		logf("pass %d: %.3fs (%.3fs at nominal speed; reference kernel %d× %.0fus), %d jobs, %d decisions",
			i, wall, wall*k, len(ref.ns), ref.mean()*1e6, p.jobs, p.decisions)
		if i == 0 {
			return nil
		}
		for _, s := range built {
			setups = append(setups, s*k)
		}
		jobs, decisions := float64(p.jobs), float64(p.decisions)
		jobRates = append(jobRates, jobs/(wall*k))
		decRates = append(decRates, decisions/(wall*k))
		allocsPerJob = append(allocsPerJob, float64(p.mem.mallocs)/jobs)
		kbPerJob = append(kbPerJob, float64(p.mem.bytes)/1024/jobs)
		allocsPerDc = append(allocsPerDc, float64(p.mem.mallocs)/decisions)
		mapNs = append(mapNs, p.mapNs.scaled(k)...)
		redNs = append(redNs, p.redNs.scaled(k)...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	m := map[string]metric{
		"setup_s":             {median(setups), "s"},
		"sim_jobs_per_s":      {median(jobRates), "1/s"},
		"decisions_per_s":     {median(decRates), "1/s"},
		"allocs_per_job":      {median(allocsPerJob), "count"},
		"alloc_kb_per_job":    {median(kbPerJob), "KiB"},
		"allocs_per_decision": {median(allocsPerDc), "count"},
	}
	percentiles(m, "map_decide", mapNs)
	percentiles(m, "reduce_decide", redNs)
	logf("%d passes", passes)
	return &report{Correct: c.finish(), Attempted: attempted, Failed: failed, Metrics: m}, nil
}
