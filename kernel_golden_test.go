package mapsched

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Kernel changes (event queue, object pools, the flow-network solve
// cadence) are gated on the scheduler's decision stream. The files under
// testdata/kernel_golden pin every non-flow event (submissions, offers,
// assignments, skips, starts, finishes, speculation, faults) byte for
// byte. Flow events are excluded by design: how often shares are solved
// and emitted within one instant may change, but a decision must not
// move unless the change is meant to move it. A regeneration is a
// deliberate behaviour change and is recorded with its reason in
// CHANGES.md.
//
// Regenerate with: go test -run TestKernelGoldenDecisionStreams -update-golden
var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/kernel_golden decision-stream files")

type goldenScenario struct {
	name string
	defs []JobDef
	kind SchedulerKind
	opts []Option
}

func goldenScenarios(t *testing.T) []goldenScenario {
	t.Helper()
	plan, err := ParseFaultPlan("crash:3@12;slow:5@5+40*3;link:7@4+30*0.2;replica:9@8;taskfail:0.05")
	if err != nil {
		t.Fatal(err)
	}
	return []goldenScenario{
		{"terasort_prob_s11", Batch(Terasort), SchedulerProbabilistic,
			[]Option{WithSeed(11), WithScale(30)}},
		{"wordcount_fair_s7", Batch(Wordcount), SchedulerFair,
			[]Option{WithSeed(7), WithScale(30)}},
		{"grep_coupling_s3", Batch(Grep), SchedulerCoupling,
			[]Option{WithSeed(3), WithScale(30), WithCrossTraffic(25)}},
		{"terasort_faulty_s11", Batch(Terasort), SchedulerProbabilistic,
			[]Option{WithSeed(11), WithScale(30), WithFaultPlan(plan)}},
	}
}

// decisionStream runs the scenario and returns the JSONL event log with all
// flow_* events removed, preserving the exact bytes of the remaining lines.
func decisionStream(t *testing.T, sc goldenScenario) string {
	t.Helper()
	var buf bytes.Buffer
	log := NewJSONLSink(&buf)
	opts := append([]Option{WithObserver(log)}, sc.opts...)
	sim, err := New(smallConfig(), sc.defs, sc.kind, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	for _, line := range strings.SplitAfter(buf.String(), "\n") {
		if line == "" {
			continue
		}
		var head struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal([]byte(line), &head); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if strings.HasPrefix(head.Type, "flow_") {
			continue
		}
		out.WriteString(line)
	}
	return out.String()
}

func TestKernelGoldenDecisionStreams(t *testing.T) {
	for _, sc := range goldenScenarios(t) {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			got := decisionStream(t, sc)
			if got == "" {
				t.Fatal("empty decision stream")
			}
			path := filepath.Join("testdata", "kernel_golden", sc.name+".jsonl")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (regenerate with -update-golden): %v", err)
			}
			if got != string(want) {
				t.Fatalf("decision stream diverged from golden %s:\n%s",
					path, firstDiff(string(want), got))
			}
		})
	}
}

// firstDiff locates the first differing line for a readable failure message.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return "line " + itoa(i+1) + ":\n  want: " + wl[i] + "\n  got:  " + gl[i]
		}
	}
	return "line counts differ: want " + itoa(len(wl)) + ", got " + itoa(len(gl))
}

func itoa(n int) string {
	b, _ := json.Marshal(n)
	return string(b)
}
