package workload

import (
	"errors"
	"math"
	"testing"
)

func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// FuzzParseTenants checks that every tenant spec the parser accepts
// yields tenants that pass Validate and carry only finite numbers.
func FuzzParseTenants(f *testing.F) {
	f.Add("gold:weight=3,rate=0.05;best-effort:rate=0.02,cap=8")
	f.Add("a:min=5,max=20")
	f.Add(";;a; b:rate=0")
	f.Add("")
	f.Add("a:rate=NaN")
	f.Add("a:rate=Inf")
	f.Add("a:weight=-Inf")
	f.Add("a:cap=1e30")
	f.Add("a:cap=9223372036854775807")
	f.Add("a b:rate=1")
	f.Add("a:rate")
	f.Fuzz(func(t *testing.T, spec string) {
		ts, err := ParseTenants(spec)
		if err != nil {
			return
		}
		for _, tn := range ts {
			if err := tn.Validate(); err != nil {
				t.Fatalf("spec %q accepted tenant %+v that fails Validate: %v", spec, tn, err)
			}
			if !finite(tn.Weight, tn.Rate) {
				t.Fatalf("spec %q accepted non-finite tenant %+v", spec, tn)
			}
		}
	})
}

// FuzzParseArrivalPlan checks that every arrival spec the parser
// accepts yields a plan that passes Validate and has finite times, and
// that building it for a one-job-per-second tenant either stays within
// MaxArrivals or fails with ErrTooManyArrivals.
func FuzzParseArrivalPlan(f *testing.F) {
	f.Add("horizon=600,warmup=60,maxactive=12,preempt=1")
	f.Add("horizon=0")
	f.Add("")
	f.Add("preempt=1")
	f.Add("horizon=Inf")
	f.Add("horizon=NaN,warmup=NaN")
	f.Add("maxactive=1e30")
	f.Add("maxactive=-1")
	f.Add("warmup")
	f.Add("horizon=1e6")
	f.Add("horizon=1e300")
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseArrivalPlan(spec)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("spec %q accepted plan %+v that fails Validate: %v", spec, p, err)
		}
		if !finite(p.Horizon, p.Warmup) {
			t.Fatalf("spec %q accepted non-finite plan %+v", spec, p)
		}
		out, err := BuildArrivals(p, []Tenant{{Name: "a", Rate: 1}}, 1, DefaultOptions())
		if err != nil && !errors.Is(err, ErrTooManyArrivals) {
			t.Fatalf("spec %q: accepted plan fails to build: %v", spec, err)
		}
		if len(out) > MaxArrivals {
			t.Fatalf("spec %q built %d arrivals, cap is %d", spec, len(out), MaxArrivals)
		}
	})
}
