// Command benchledger runs the repository's Go benchmark set and keeps
// its results in BENCH.json, the one bench ledger.
//
// Usage, from the repository root:
//
//	go run ./cmd/benchledger -check   # CI gate: smoke run + budgets
//	go run ./cmd/benchledger -write   # full run: refresh recorded values
//
// The ledger's "runs" list the go test -bench invocations: a pattern,
// the benchtime -write records at and the smoke benchtime -check runs
// at. Its "rows" hold one metric of one benchmark each. A row with a
// budget is a gate: -check fails when the metric exceeds
// budget × (1 + tolerance_pct/100), and also when any ledger benchmark
// or gated metric is missing from the smoke output. -write never sets
// a budget or a tolerance; those change only by hand.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
)

const ledgerPath = "BENCH.json"

// Ledger is the BENCH.json document: a header naming where the values
// were measured, the benchmark invocations, and the result rows.
type Ledger struct {
	Commit string `json:"commit"`
	GOOS   string `json:"goos"`
	CPU    string `json:"cpu"`
	Runs   []Run  `json:"runs"`
	Rows   []Row  `json:"rows"`
}

// Run is one go test -bench invocation over the root package.
type Run struct {
	Pattern   string `json:"pattern"`
	Benchtime string `json:"benchtime"` // used by -write
	Smoke     string `json:"smoke"`     // used by -check
}

// Row is one recorded metric; a non-zero Budget makes it a gate.
type Row struct {
	Bench        string  `json:"bench"`
	Metric       string  `json:"metric"`
	Value        float64 `json:"value"`
	Budget       float64 `json:"budget,omitempty"`
	TolerancePct float64 `json:"tolerance_pct,omitempty"`
}

func (r Row) key() [2]string { return [2]string{r.Bench, r.Metric} }

func main() {
	check := flag.Bool("check", false, "smoke-run the ledger benchmarks and enforce the budgets in "+ledgerPath)
	write := flag.Bool("write", false, "re-run the ledger benchmarks and refresh the values in "+ledgerPath)
	flag.Parse()
	if *check == *write {
		fmt.Fprintln(os.Stderr, "usage: benchledger -check | -write")
		os.Exit(2)
	}
	if err := run(*write); err != nil {
		for _, line := range strings.Split(err.Error(), "\n") {
			fmt.Fprintln(os.Stderr, "benchledger:", line)
		}
		os.Exit(1)
	}
}

func run(write bool) error {
	raw, err := os.ReadFile(ledgerPath)
	if err != nil {
		return err
	}
	l, err := decode(raw)
	if err != nil {
		return err
	}
	var out bytes.Buffer
	for _, r := range l.Runs {
		benchtime := r.Smoke
		if write {
			benchtime = r.Benchtime
		}
		cmd := exec.Command("go", "test", "-run", "^$", "-bench", r.Pattern, "-benchmem", "-benchtime", benchtime, ".")
		cmd.Stdout, cmd.Stderr = io.MultiWriter(os.Stdout, &out), os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("go test -bench %q: %w", r.Pattern, err)
		}
	}
	got, goos, cpu := parse(out.String())
	if !write {
		return check(l.Rows, got, os.Stdout)
	}
	if l.Rows, err = refresh(l.Rows, got); err != nil {
		return err
	}
	l.GOOS, l.CPU, l.Commit = goos, cpu, "unknown"
	if c, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		l.Commit = strings.TrimSpace(string(c))
	}
	return os.WriteFile(ledgerPath, encode(l), 0o644)
}

// decode parses a ledger, rejecting unknown fields so a misspelt
// hand-edited budget cannot silently disable a gate.
func decode(raw []byte) (Ledger, error) {
	var l Ledger
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&l); err != nil {
		return l, fmt.Errorf("%s: %w", ledgerPath, err)
	}
	return l, nil
}

// procSuffix is the -GOMAXPROCS suffix go test appends to benchmark names.
var procSuffix = regexp.MustCompile(`-\d+$`)

// parse extracts one row per reported finite metric from go test
// -bench output, plus the goos and cpu header lines.
func parse(out string) (rows []Row, goos, cpu string) {
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) > 1 && f[0] == "goos:":
			goos = f[1]
		case len(f) > 1 && f[0] == "cpu:":
			cpu = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case len(f) >= 4 && strings.HasPrefix(f[0], "Benchmark"):
			if _, err := strconv.Atoi(f[1]); err != nil {
				continue // not a result line
			}
			name := procSuffix.ReplaceAllString(f[0], "")
			for i := 2; i+1 < len(f); i += 2 {
				v, err := strconv.ParseFloat(f[i], 64)
				if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
					break
				}
				rows = append(rows, Row{Bench: name, Metric: f[i+1], Value: v})
			}
		}
	}
	return rows, goos, cpu
}

// check enforces the ledger against measured rows: every ledger
// benchmark must have run, and every gated metric must be reported and
// within its limit. Passing gates are reported on w; all failures come
// back joined.
func check(ledger, got []Row, w io.Writer) error {
	values := make(map[[2]string]float64, len(got))
	ran := make(map[string]bool)
	for _, r := range got {
		values[r.key()] = r.Value
		ran[r.Bench] = true
	}
	var errs []error
	missing := make(map[string]bool)
	for _, r := range ledger {
		if !ran[r.Bench] {
			if !missing[r.Bench] {
				missing[r.Bench] = true
				errs = append(errs, fmt.Errorf("FAIL %s: benchmark missing from the output", r.Bench))
			}
			continue
		}
		if r.Budget == 0 {
			continue
		}
		v, ok := values[r.key()]
		limit := r.Budget * (1 + r.TolerancePct/100)
		switch {
		case !ok:
			errs = append(errs, fmt.Errorf("FAIL %s: gated metric %s missing from the output", r.Bench, r.Metric))
		case v > limit:
			errs = append(errs, fmt.Errorf("FAIL %s %s %s exceeds budget %s by more than %s%% (limit %s)",
				r.Bench, r.Metric, num(v), num(r.Budget), num(r.TolerancePct), num(limit)))
		default:
			fmt.Fprintf(w, "benchledger: OK %s %s %s within budget %s (+%s%% = %s)\n",
				r.Bench, r.Metric, num(v), num(r.Budget), num(r.TolerancePct), num(limit))
		}
	}
	return errors.Join(errs...)
}

// refresh returns the measured rows with the ledger's hand-set budgets
// carried over. A gate the run no longer reports is an error, so a
// refresh can never drop one.
func refresh(ledger, got []Row) ([]Row, error) {
	idx := make(map[[2]string]int, len(got))
	for i, r := range got {
		idx[r.key()] = i
	}
	for _, r := range ledger {
		if r.Budget == 0 {
			continue
		}
		i, ok := idx[r.key()]
		if !ok {
			return nil, fmt.Errorf("gated %s %s missing from the output; %s not written", r.Bench, r.Metric, ledgerPath)
		}
		got[i].Budget, got[i].TolerancePct = r.Budget, r.TolerancePct
	}
	return got, nil
}

// encode renders the ledger with one run or row per line, so a refresh
// diffs as changed values only.
func encode(l Ledger) []byte {
	return fmt.Appendf(nil, "{\n  \"commit\": %s,\n  \"goos\": %s,\n  \"cpu\": %s,\n  \"runs\": [\n    %s\n  ],\n  \"rows\": [\n    %s\n  ]\n}\n",
		js(l.Commit), js(l.GOOS), js(l.CPU), lines(l.Runs), lines(l.Rows))
}

func lines[T any](items []T) string {
	s := make([]string, len(items))
	for i, it := range items {
		s[i] = js(it)
	}
	return strings.Join(s, ",\n    ")
}

func js(v any) string {
	j, _ := json.Marshal(v) // cannot fail: strings and finite floats only
	return string(j)
}

func num(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
