package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestScheduleAndRunOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(3, func() { order = append(order, 3) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Schedule(2, func() { order = append(order, 2) })
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("ran %d events, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 3 {
		t.Fatalf("Now() = %v, want 3", e.Now())
	}
}

func TestEqualTimestampsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break not FIFO: order = %v", order)
		}
	}
}

func TestAfterRelative(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Schedule(10, func() {
		e.After(5, func() { at = e.Now() })
	})
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if at != 15 {
		t.Fatalf("nested After fired at %v, want 15", at)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(5, func() {})
	})
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
}

func TestNilCallbackPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("nil callback did not panic")
		}
	}()
	e.Schedule(1, nil)
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	ev := e.Schedule(1, func() { ran = true })
	ev.Cancel()
	if !ev.Cancelled() {
		t.Fatal("Cancelled() = false after Cancel")
	}
	// After RunAll the engine has reaped (and may recycle) the cancelled
	// event, so ev must not be inspected past this point — that is the
	// documented Event lifetime.
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("cancelled event ran")
	}
}

func TestRemove(t *testing.T) {
	e := NewEngine()
	ran := false
	ev := e.Schedule(1, func() { ran = true })
	e.Remove(ev)
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after Remove, want 0", e.Pending())
	}
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("removed event ran")
	}
	// Removing again, and removing nil, must be harmless.
	e.Remove(ev)
	e.Remove(nil)
}

func TestRunUntilHorizon(t *testing.T) {
	e := NewEngine()
	var ran []Time
	e.Schedule(1, func() { ran = append(ran, 1) })
	e.Schedule(10, func() { ran = append(ran, 10) })
	now, err := e.Run(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ran) != 1 || ran[0] != 1 {
		t.Fatalf("ran = %v, want [1]", ran)
	}
	if now != 1 {
		t.Fatalf("Run(5) returned now = %v, want 1 (time of last event)", now)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", e.Pending())
	}
	// Resume to completion.
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(ran) != 2 {
		t.Fatalf("after resume ran = %v, want both events", ran)
	}
}

func TestRunAdvancesToHorizonWhenDrained(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, func() {})
	now, err := e.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if now != 100 {
		t.Fatalf("Run(100) with drained queue returned %v, want 100", now)
	}
}

func TestEventLimit(t *testing.T) {
	e := NewEngine()
	var tick func()
	tick = func() { e.After(1, tick) }
	e.After(1, tick)
	e.SetEventLimit(50)
	if _, err := e.RunAll(); err == nil {
		t.Fatal("runaway loop did not trip the event limit")
	}
}

func TestStepSkipsCancelled(t *testing.T) {
	e := NewEngine()
	a := e.Schedule(1, func() {})
	ran := false
	e.Schedule(2, func() { ran = true })
	a.Cancel()
	if !e.Step() {
		t.Fatal("Step() = false with a live event pending")
	}
	if !ran {
		t.Fatal("Step executed the cancelled event instead of the live one")
	}
	if e.Step() {
		t.Fatal("Step() = true on an empty queue")
	}
}

func TestFiredCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.Schedule(Time(i), func() {})
	}
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if e.Fired() != 7 {
		t.Fatalf("Fired() = %d, want 7", e.Fired())
	}
}

func TestHeapPropertyRandomOrder(t *testing.T) {
	// Property: for any set of timestamps, execution order is sorted —
	// under both queue implementations.
	for _, q := range []struct {
		kind      string
		newEngine func() *Engine
	}{{"calendar", NewEngine}, {"heap", newHeapEngine}} {
		f := func(stamps []uint16) bool {
			e := q.newEngine()
			var got []Time
			for _, s := range stamps {
				at := Time(s)
				e.Schedule(at, func() { got = append(got, at) })
			}
			if _, err := e.RunAll(); err != nil {
				return false
			}
			for i := 1; i < len(got); i++ {
				if got[i] < got[i-1] {
					return false
				}
			}
			return len(got) == len(stamps)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("%s queue: %v", q.kind, err)
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced diverging streams")
		}
	}
}

func TestRNGForkIndependence(t *testing.T) {
	// Child streams depend on the label.
	a := NewRNG(7).Fork("net")
	b := NewRNG(7).Fork("disk")
	same := true
	for i := 0; i < 16; i++ {
		if a.Float64() != b.Float64() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("forks with different labels produced identical streams")
	}
	// Same label from same parent state is reproducible.
	c := NewRNG(7).Fork("net")
	d := NewRNG(7).Fork("net")
	for i := 0; i < 16; i++ {
		if c.Float64() != d.Float64() {
			t.Fatal("same-label forks diverged")
		}
	}
}

func TestRNGJitterBounds(t *testing.T) {
	g := NewRNG(1)
	for i := 0; i < 1000; i++ {
		v := g.Jitter(100, 0.2)
		if v < 80 || v > 120 {
			t.Fatalf("Jitter(100, 0.2) = %v out of [80,120]", v)
		}
	}
	if v := g.Jitter(50, -1); v != 50 {
		t.Fatalf("negative jitter factor should clamp to 0, got %v", v)
	}
	if v := g.Jitter(10, 5); v < 0 || v >= 20.001 {
		t.Fatalf("oversized jitter factor not clamped, got %v", v)
	}
}

func TestRNGBernoulliEdges(t *testing.T) {
	g := NewRNG(1)
	for i := 0; i < 100; i++ {
		if g.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !g.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if g.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !g.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestRNGBernoulliFrequency(t *testing.T) {
	g := NewRNG(99)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if g.Bernoulli(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) frequency = %v, want ~0.3", p)
	}
}

func TestRNGUniformRange(t *testing.T) {
	g := NewRNG(5)
	for i := 0; i < 1000; i++ {
		v := g.Uniform(2, 9)
		if v < 2 || v >= 9 {
			t.Fatalf("Uniform(2,9) = %v out of range", v)
		}
	}
}

func TestInfinityOrdering(t *testing.T) {
	if !(Time(1e18) < Infinity) {
		t.Fatal("Infinity is not later than large finite times")
	}
}

func TestRNGPermDeterministic(t *testing.T) {
	a := NewRNG(5).Perm(20)
	b := NewRNG(5).Perm(20)
	seen := make([]bool, 20)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Perm not deterministic")
		}
		if a[i] < 0 || a[i] >= 20 || seen[a[i]] {
			t.Fatal("Perm not a permutation")
		}
		seen[a[i]] = true
	}
}

func TestRNGShuffleDeterministic(t *testing.T) {
	mk := func() []int {
		v := []int{0, 1, 2, 3, 4, 5, 6, 7}
		NewRNG(9).Shuffle(len(v), func(i, j int) { v[i], v[j] = v[j], v[i] })
		return v
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Shuffle not deterministic")
		}
	}
}

func TestRNGDistributions(t *testing.T) {
	g := NewRNG(13)
	var sumN, sumE float64
	const n = 50000
	for i := 0; i < n; i++ {
		sumN += g.NormFloat64()
		sumE += g.ExpFloat64()
	}
	if m := sumN / n; math.Abs(m) > 0.02 {
		t.Fatalf("normal mean %v, want ~0", m)
	}
	if m := sumE / n; math.Abs(m-1) > 0.02 {
		t.Fatalf("exponential mean %v, want ~1", m)
	}
}

// TestRNGForkDoesNotConsumeParent pins the Fork contract the fault and
// scheduler subsystems rely on: deriving a child never advances the
// parent stream, so a subsystem that forks lazily mid-run cannot perturb
// draws elsewhere.
func TestRNGForkDoesNotConsumeParent(t *testing.T) {
	plain := NewRNG(99)
	forked := NewRNG(99)
	forked.Fork("a")
	forked.Fork("b").Fork("nested")
	for i := 0; i < 64; i++ {
		if plain.Int63() != forked.Int63() {
			t.Fatalf("draw %d differs: forking consumed the parent stream", i)
		}
	}
}

// TestRNGForkIgnoresParentDrawCount pins the other half of the contract:
// a child's stream depends only on (parent seed, label), not on how many
// values the parent drew first or in which order siblings were forked.
func TestRNGForkIgnoresParentDrawCount(t *testing.T) {
	fresh := NewRNG(7).Fork("sub")
	drained := NewRNG(7)
	for i := 0; i < 1000; i++ {
		drained.Float64()
	}
	late := drained.Fork("sub")
	for i := 0; i < 64; i++ {
		if fresh.Int63() != late.Int63() {
			t.Fatalf("draw %d differs: child stream depends on parent draw count", i)
		}
	}

	// Sibling fork order is equally irrelevant: "x" after "y" equals "x"
	// forked alone.
	xAfterY := func() *RNG {
		p := NewRNG(7)
		p.Fork("y")
		return p.Fork("x")
	}()
	xAlone := NewRNG(7).Fork("x")
	for i := 0; i < 64; i++ {
		if xAfterY.Int63() != xAlone.Int63() {
			t.Fatalf("draw %d differs: fork order changed a sibling's stream", i)
		}
	}
}
