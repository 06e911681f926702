package faults

import (
	"fmt"
	"math"
	"testing"
)

// FuzzParsePlan hammers the fault-DSL parser: arbitrary input must
// never panic, must parse deterministically, and an accepted plan must
// survive Validate against a finite cluster without panicking either. A
// plan that validates must carry only finite times, durations, factors
// and probabilities.
func FuzzParsePlan(f *testing.F) {
	f.Add("crash:3@60; slow:7@30+120*2.5; link:4@10+40*0.1; replica:2@5; taskfail:0.02; attempts:5; blacklist:2")
	f.Add("slow:1@10*3")
	f.Add("crash:0@1;taskfail:0.5")
	f.Add("")
	f.Add(";;;  ; ")
	f.Add("crash:3")
	f.Add("link:4@10+40*NaN")
	f.Add("crash:3@NaN")
	f.Add("link:4@Inf+1*0.5")
	f.Add("taskfail:1e309")
	f.Add("CRASH:3@60")
	f.Add("slow:-1@-2+-3*-4")

	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseSpec(spec)
		if err != nil {
			if !p.Empty() {
				t.Fatalf("rejected spec %q returned a non-empty plan %+v", spec, p)
			}
			return
		}
		again, err2 := ParseSpec(spec)
		if err2 != nil {
			t.Fatalf("spec %q parsed, then failed on re-parse: %v", spec, err2)
		}
		// Formatted comparison, not DeepEqual: the parser lets NaN
		// factors through to Validate, and NaN != NaN.
		if fmt.Sprintf("%+v", p) != fmt.Sprintf("%+v", again) {
			t.Fatalf("spec %q parses non-deterministically: %+v vs %+v", spec, p, again)
		}
		// Validation may reject (out-of-range nodes, bad domains) but
		// must never panic, whatever the parser let through.
		if p.Validate(8) == nil {
			for _, v := range planFloats(p) {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("spec %q validated with non-finite field %v: %+v", spec, v, p)
				}
			}
		}
		_ = p.Validate(0)
	})
}

// planFloats lists every floating-point field of p.
func planFloats(p Plan) []float64 {
	vals := []float64{p.TaskFailProb}
	for _, c := range p.Crashes {
		vals = append(vals, c.At)
	}
	for _, s := range p.Slowdowns {
		vals = append(vals, s.At, s.Duration, s.Factor)
	}
	for _, l := range p.Links {
		vals = append(vals, l.At, l.Duration, l.Factor)
	}
	for _, r := range p.ReplicaLosses {
		vals = append(vals, r.At)
	}
	return vals
}
