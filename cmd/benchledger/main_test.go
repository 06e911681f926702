package main

import (
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
)

// sample is canned go test -bench output in the shape the ledger runs
// produce: a header, GOMAXPROCS-suffixed names, sub-benchmarks and
// fractional custom metrics.
const sample = `goos: linux
goarch: amd64
pkg: mapsched
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSimulation_Probabilistic-2   	       2	 230460998 ns/op	       119.1 meanJCT_s	     15238 sim_events	 3143144 B/op	   31050 allocs/op
BenchmarkSimulation_OpenSystem-2      	       1	4352626464 ns/op	       382.5 p99_jct_s	        17.00 preemptions	       306.0 rejected	43997240 B/op	  811758 allocs/op
BenchmarkSimulation_ComparisonWorkers/workers=9-2 	       1	 850946263 ns/op	         2.000 gomaxprocs
BenchmarkPlacement_Decide/readers4-2  	    2000	     79571 ns/op	     12653 decisions_per_sec	     75592 p50_ns	   1014419.5 p99_ns	   13923 B/op	      39 allocs/op
BenchmarkPlacement_Journal/on-2       	   20000	      1290 ns/op	     328 B/op	       6 allocs/op
PASS
ok  	mapsched	9.983s
`

func gate(bench, metric string, budget, tol float64) Row {
	return Row{Bench: bench, Metric: metric, Budget: budget, TolerancePct: tol}
}

func TestParse(t *testing.T) {
	rows, goos, cpu := parse(sample)
	if goos != "linux" || cpu != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Fatalf("header = %q, %q", goos, cpu)
	}
	want := map[[2]string]float64{
		{"BenchmarkSimulation_Probabilistic", "allocs/op"}:                31050,
		{"BenchmarkSimulation_OpenSystem", "p99_jct_s"}:                   382.5,
		{"BenchmarkSimulation_ComparisonWorkers/workers=9", "gomaxprocs"}: 2,
		{"BenchmarkPlacement_Decide/readers4", "p99_ns"}:                  1014419.5,
		{"BenchmarkPlacement_Journal/on", "ns/op"}:                        1290,
	}
	got := make(map[[2]string]float64)
	for _, r := range rows {
		if strings.HasSuffix(r.Bench, "-2") {
			t.Errorf("GOMAXPROCS suffix kept in %q", r.Bench)
		}
		got[r.key()] = r.Value
	}
	for k, v := range want {
		if g, ok := got[k]; !ok || g != v {
			t.Errorf("%v = %v (present %v), want %v", k, g, ok, v)
		}
	}
	if len(rows) != 5+6+2+6+3 {
		t.Errorf("parsed %d rows, want 22", len(rows))
	}
}

func TestCheckWithinBudget(t *testing.T) {
	got, _, _ := parse(sample)
	ledger := []Row{
		gate("BenchmarkSimulation_Probabilistic", "allocs/op", 31551, 20),
		gate("BenchmarkSimulation_OpenSystem", "p99_jct_s", 377, 25),
		{Bench: "BenchmarkSimulation_ComparisonWorkers/workers=9", Metric: "ns/op", Value: 1},
	}
	var out strings.Builder
	if err := check(ledger, got, &out); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(out.String(), " OK "); n != 2 {
		t.Fatalf("want 2 OK lines, got:\n%s", out.String())
	}
}

func TestCheckOverBudget(t *testing.T) {
	got, _, _ := parse(sample)
	err := check([]Row{gate("BenchmarkPlacement_Decide/readers4", "p99_ns", 120647, 200)}, got, io.Discard)
	if err == nil {
		t.Fatal("p99 1014419.5 over a 361941 limit passed")
	}
	for _, s := range []string{"BenchmarkPlacement_Decide/readers4", "p99_ns", "1014419.5", "361941"} {
		if !strings.Contains(err.Error(), s) {
			t.Errorf("error %q does not name %q", err, s)
		}
	}
}

func TestCheckMissing(t *testing.T) {
	got, _, _ := parse(sample)
	for name, tc := range map[string]struct {
		row  Row
		want string
	}{
		"metric":    {gate("BenchmarkPlacement_Journal/on", "p99_ns", 1, 0), "gated metric p99_ns missing"},
		"benchmark": {Row{Bench: "BenchmarkCore_MapCost", Metric: "ns/op"}, "BenchmarkCore_MapCost: benchmark missing"},
	} {
		t.Run(name, func(t *testing.T) {
			err := check([]Row{tc.row}, got, io.Discard)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want it to contain %q", err, tc.want)
			}
		})
	}
}

func TestRefreshKeepsBudgets(t *testing.T) {
	got, _, _ := parse(sample)
	rows, err := refresh([]Row{gate("BenchmarkPlacement_Journal/on", "ns/op", 1253, 200)}, got)
	if err != nil {
		t.Fatal(err)
	}
	var gates int
	for _, r := range rows {
		if r.Budget != 0 {
			gates++
			if r.Bench != "BenchmarkPlacement_Journal/on" || r.Metric != "ns/op" || r.Value != 1290 || r.Budget != 1253 || r.TolerancePct != 200 {
				t.Fatalf("refreshed gate = %+v", r)
			}
		}
	}
	if gates != 1 {
		t.Fatalf("refresh produced %d gates, want 1", gates)
	}
	if _, err := refresh([]Row{gate("BenchmarkGone", "ns/op", 1, 0)}, got); err == nil {
		t.Fatal("refresh dropped a gate the run no longer reports")
	}
}

func TestEncodeRoundTrip(t *testing.T) {
	got, goos, cpu := parse(sample)
	got[0].Budget, got[0].TolerancePct = 1e9, 5
	l := Ledger{Commit: "abc1234", GOOS: goos, CPU: cpu, Runs: []Run{{Pattern: "BenchmarkX$", Benchtime: "1s", Smoke: "2x"}}, Rows: got}
	back, err := decode(encode(l))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, l) {
		t.Fatalf("round trip changed the ledger:\n%+v\n%+v", back, l)
	}
	if _, err := decode([]byte(`{"rows": [{"bench": "B", "metric": "m", "value": 1, "tolerance": 5}]}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

// TestLedgerGates pins the committed ledger's four gates and shows
// each one trips once its budget drops below the recorded value.
func TestLedgerGates(t *testing.T) {
	raw, err := os.ReadFile("../../" + ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	l, err := decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	want := map[[2]string][2]float64{
		{"BenchmarkSimulation_Probabilistic", "allocs/op"}: {31551, 20},
		{"BenchmarkPlacement_Decide/readers4", "p99_ns"}:   {120647, 200},
		{"BenchmarkPlacement_Journal/on", "ns/op"}:         {1253, 200},
		{"BenchmarkSimulation_OpenSystem", "p99_jct_s"}:    {377, 25},
	}
	for _, r := range l.Rows {
		if r.Budget == 0 {
			continue
		}
		if w, ok := want[r.key()]; !ok || w != [2]float64{r.Budget, r.TolerancePct} {
			t.Fatalf("gate %s %s budget %v tolerance %v; want %v", r.Bench, r.Metric, r.Budget, r.TolerancePct, w)
		}
		delete(want, r.key())
		measured := []Row{{Bench: r.Bench, Metric: r.Metric, Value: r.Value}}
		if err := check([]Row{r}, []Row{{Bench: r.Bench, Metric: r.Metric, Value: r.Budget}}, io.Discard); err != nil {
			t.Errorf("value at budget fails: %v", err)
		}
		lowered := r
		lowered.Budget = r.Value / (1 + r.TolerancePct/100) / 2
		if err := check([]Row{lowered}, measured, io.Discard); err == nil {
			t.Errorf("%s %s passes with its budget lowered to %v below the recorded %v", r.Bench, r.Metric, lowered.Budget, r.Value)
		}
	}
	if len(want) > 0 {
		t.Fatalf("gates missing from %s: %v", ledgerPath, want)
	}
}
