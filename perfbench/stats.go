package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// latencies is a sample of per-call durations in nanoseconds.
type latencies []int64

// record appends the time elapsed since t0.
func (l *latencies) record(t0 time.Time) { *l = append(*l, int64(time.Since(t0))) }

// scaled returns the durations multiplied by k.
func (l latencies) scaled(k float64) latencies {
	s := make(latencies, len(l))
	for i, v := range l {
		s[i] = int64(math.Round(float64(v) * k))
	}
	return s
}

// busy returns the summed duration in seconds.
func (l latencies) busy() float64 {
	var sum int64
	for _, v := range l {
		sum += v
	}
	return float64(sum) / 1e9
}

// quantileUS returns the nearest-rank q-quantile in microseconds.
func (l latencies) quantileUS(q float64) float64 {
	if len(l) == 0 {
		return 0
	}
	s := append([]int64(nil), l...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return float64(s[rank]) / 1e3
}

// tailQ is the highest percentile up to p99 that still has at least ten
// samples beyond it; smaller samples report a lower percentile under the
// same metric name, and the log line says which.
func tailQ(n int) float64 {
	q := 0.99
	if n > 0 && float64(n)*(1-q) < 10 {
		q = 1 - 10/float64(n)
	}
	if q < 0.5 {
		q = 0.5
	}
	return q
}

// percentiles adds name_p50_us and name_p99_us to m and logs the sample
// count and the percentile the tail figure really is.
func percentiles(m map[string]metric, name string, l latencies) {
	q := tailQ(len(l))
	p50, tail := l.quantileUS(0.5), l.quantileUS(q)
	m[name+"_p50_us"] = metric{p50, "us"}
	m[name+"_p99_us"] = metric{tail, "us"}
	logf("%s: n=%d p50=%.2fus p%.4g=%.2fus", name, len(l), p50, 100*q, tail)
}

// memDelta is the allocation and GC activity between two MemStats reads.
type memDelta struct {
	mallocs, bytes uint64
	gcCycles       uint32
	pauseNs        uint64
}

// memSnap reads the runtime's allocation counters.
func memSnap() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func memSince(before runtime.MemStats) memDelta {
	after := memSnap()
	return memDelta{
		mallocs:  after.Mallocs - before.Mallocs,
		bytes:    after.TotalAlloc - before.TotalAlloc,
		gcCycles: after.NumGC - before.NumGC,
		pauseNs:  after.PauseTotalNs - before.PauseTotalNs,
	}
}

// logf writes a human-readable progress line to standard error; the
// result line alone goes to standard output.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// passLoop runs pass(i) for i = 0, 1, ... until the budget is spent,
// stopping early when the next pass would overrun it by more than half a
// pass. At least minPasses passes always run.
func passLoop(budget time.Duration, minPasses int, pass func(i int) error) (int, error) {
	start := time.Now()
	var last time.Duration
	i := 0
	for ; i < minPasses || time.Since(start)+last/2 < budget; i++ {
		t0 := time.Now()
		if err := pass(i); err != nil {
			return i, err
		}
		last = time.Since(t0)
	}
	return i, nil
}
