// Command perfbench is the repository's benchmark. It runs one
// named workload through the simulator's public entry points for a fixed
// wall-clock budget, checks the outputs, and prints the metrics as the
// last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end numbers a user of the
// system sees; with -trace 1 a separate traced run times the calls into
// each layer from outside and reports the per-layer split. README.md
// lists the workloads, why each was chosen, and which end-to-end metric
// every layer metric should move.
//
//	go run . -workload batch -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOpts are the command-line settings every workload receives.
type runOpts struct {
	seed   int64
	budget time.Duration
}

// Each pass builds its instance at least setupReps times and for at
// least setupMin. setup_s is the median over every build of a run; the
// last build is the one run.
const (
	setupReps = 5
	setupMin  = 50 * time.Millisecond
)

// workloadFn runs one workload untraced (end-to-end metrics) or traced
// (per-layer metrics).
type workloadFn func(o runOpts, traced bool) (*report, error)

var workloads = map[string]workloadFn{
	"batch":  runBatch,
	"open":   runOpen,
	"decide": runDecide,
}

func main() {
	name := flag.String("workload", "", "workload to run: batch, open, decide, or all of them in turn")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 30, "wall-clock measuring budget per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	flag.Parse()

	names := []string{*name}
	if *name == "all" {
		names = workloadNames()
	}
	if _, ok := workloads[names[0]]; !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload %s|all, -seconds > 0, -trace 0|1\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	// The load is one goroutine. One P keeps the collector's work on the
	// measured thread instead of on a second core whose availability
	// varies from run to run.
	runtime.GOMAXPROCS(1)
	ok := true
	for _, n := range names {
		logf("== %s", n)
		rep, err := workloads[n](runOpts{seed: *seed, budget: time.Duration(*seconds * float64(time.Second))}, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			os.Exit(1)
		}
		line, err := json.Marshal(rep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		// With -workload all, each workload's result line follows its
		// "== name" line on standard error.
		fmt.Println(string(line))
		ok = ok && rep.Correct && rep.Failed == 0
	}
	if !ok {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// checks collects output-check failures; any failure makes the run
// incorrect. Every check runs on every pass: none is sampled or skipped.
type checks struct{ failures []string }

func (c *checks) expect(ok bool, format string, args ...any) {
	if !ok {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// finish prints the failures to stderr and reports whether none occurred.
func (c *checks) finish() bool {
	for _, f := range c.failures {
		fmt.Fprintln(os.Stderr, "check failed:", f)
	}
	return len(c.failures) == 0
}

// instanceSeed derives the seed of the k-th workload instance of a run.
// A run averages over several instances, so its figures do not rest on
// a single draw of block placements and arrivals.
func instanceSeed(seed int64, k int) int64 {
	// splitmix64 finalizer: nearby run seeds give unrelated instances.
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(k+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}
