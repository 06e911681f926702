package workload

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// TestDSLRejectsNonFinite pins the open-system DSLs' handling of
// non-finite and out-of-range numbers: each spec used to parse, and an
// infinite rate or horizon then looped forever in BuildArrivals, while
// a cap beyond int wrapped to a misleading "negative" error.
func TestDSLRejectsNonFinite(t *testing.T) {
	for _, tc := range []struct{ tenants, plan, want string }{
		{tenants: "a:rate=NaN", want: "non-finite rate"},
		{tenants: "a:rate=Inf", want: "non-finite rate"},
		{tenants: "a:weight=NaN", want: "non-finite weight"},
		{tenants: "a:cap=1e30", want: "out of range"},
		{tenants: "a:min=NaN", want: "out of range"},
		{tenants: "a:max=-1e30", want: "out of range"},
		{plan: "horizon=Inf", want: "non-finite arrival horizon"},
		{plan: "horizon=NaN", want: "non-finite arrival horizon"},
		{plan: "warmup=NaN", want: "non-finite warmup"},
		{plan: "maxactive=1e30", want: "out of range"},
	} {
		var err error
		spec := tc.tenants
		if spec != "" {
			_, err = ParseTenants(spec)
		} else {
			spec = tc.plan
			_, err = ParseArrivalPlan(spec)
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: err = %v, want it to contain %q", spec, err, tc.want)
		}
	}

	p := ArrivalPlan{Horizon: 10, Trace: []TraceArrival{{At: 1}, {At: math.Inf(1)}}}
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "trace arrival 1") {
		t.Errorf("trace arrival at +Inf: err = %v", err)
	}
}

func TestDSLParses(t *testing.T) {
	ts, err := ParseTenants("gold:weight=3,rate=0.05;best-effort:rate=0.02,cap=8,min=5,max=20")
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 || ts[0].Weight != 3 || ts[0].Rate != 0.05 || ts[1].QueueCap != 8 || ts[1].MinGB != 5 || ts[1].MaxGB != 20 {
		t.Fatalf("ParseTenants = %+v", ts)
	}
	p, err := ParseArrivalPlan("horizon=600,warmup=60,maxactive=12,preempt=1")
	if err != nil {
		t.Fatal(err)
	}
	if p.Horizon != 600 || p.Warmup != 60 || p.MaxActive != 12 || !p.Preempt {
		t.Fatalf("ParseArrivalPlan = %+v", p)
	}
}

// TestBuildArrivalsCap pins the arrival cap: a finite but huge
// rate × horizon used to loop in BuildArrivals until memory ran out.
// It is now rejected up front with ErrTooManyArrivals, and a plan whose
// expectation sits exactly at the cap fails with the same error once
// the drawn count passes it (seed 1 draws past it).
func TestBuildArrivalsCap(t *testing.T) {
	o := DefaultOptions()
	ts, err := ParseTenants("a:rate=1e12")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ParseArrivalPlan("horizon=1e6")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildArrivals(plan, ts, 1, o); !errors.Is(err, ErrTooManyArrivals) {
		t.Fatalf("rate=1e12 over horizon=1e6: err = %v, want ErrTooManyArrivals", err)
	}
	trace := make([]TraceArrival, MaxArrivals+1)
	if _, err := BuildArrivals(ArrivalPlan{Trace: trace}, nil, 1, o); !errors.Is(err, ErrTooManyArrivals) {
		t.Fatalf("%d trace arrivals: err = %v, want ErrTooManyArrivals", len(trace), err)
	}
	atCap := []Tenant{{Name: "a", Rate: MaxArrivals}}
	if out, err := BuildArrivals(ArrivalPlan{Horizon: 1}, atCap, 1, o); !errors.Is(err, ErrTooManyArrivals) {
		t.Fatalf("plan drawing past the cap: %d arrivals, err = %v, want ErrTooManyArrivals", len(out), err)
	}
}
