package sim

import (
	"fmt"
	"testing"
)

// TestQueueCrossImplEquivalence is the randomized heap-vs-calendar proof:
// both implementations are driven with an identical, seeded stream of
// push / popMin / remove operations (including clustered and equal
// timestamps, far-future outliers, and Infinity) and must agree pop for
// pop. Pop order is the total order (at, seq), so agreement here means the
// engines built on top dispatch identically.
func TestQueueCrossImplEquivalence(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := NewRNG(int64(1000 + trial))
			cal := newCalendarQueue()
			ref := &heapQueue{}
			var calLive, refLive []*Event
			seq := uint64(0)

			mkAt := func() Time {
				switch rng.Intn(10) {
				case 0: // equal-timestamp cluster
					return Time(float64(rng.Intn(4)))
				case 1: // far-future outlier
					return Time(1e12 * (1 + rng.Float64()))
				case 2: // beyond bucket arithmetic: overflow list
					return Infinity
				case 3, 4:
					// Grid-aligned timestamps: exact multiples of a width-like
					// quantum land exactly on bucket boundaries, where mixed
					// float arithmetic once parked events behind the cursor
					// (the rewind check and the bucket assignment disagreed by
					// one ulp at t = k·width).
					return Time(float64(rng.Intn(400)) * 0.245)
				default:
					return Time(100 * rng.Float64())
				}
			}

			for op := 0; op < 4000; op++ {
				switch r := rng.Float64(); {
				case r < 0.55:
					at := mkAt()
					a := &Event{at: at, seq: seq, index: -1, bucket: -1}
					b := &Event{at: at, seq: seq, index: -1, bucket: -1}
					seq++
					cal.push(a)
					ref.push(b)
					calLive = append(calLive, a)
					refLive = append(refLive, b)
				case r < 0.75 && len(calLive) > 0:
					i := rng.Intn(len(calLive))
					if !cal.remove(calLive[i]) {
						t.Fatalf("op %d: calendar remove failed for a queued event", op)
					}
					if !ref.remove(refLive[i]) {
						t.Fatalf("op %d: heap remove failed for a queued event", op)
					}
					calLive = append(calLive[:i], calLive[i+1:]...)
					refLive = append(refLive[:i], refLive[i+1:]...)
				default:
					a, b := cal.popMin(), ref.popMin()
					switch {
					case a == nil && b == nil:
					case a == nil || b == nil:
						t.Fatalf("op %d: one queue empty, the other not", op)
					case a.at != b.at || a.seq != b.seq:
						t.Fatalf("op %d: pop mismatch calendar(at=%v seq=%d) heap(at=%v seq=%d)",
							op, a.at, a.seq, b.at, b.seq)
					default:
						calLive = drop(calLive, a)
						refLive = drop(refLive, b)
					}
				}
				if cal.len() != ref.len() {
					t.Fatalf("op %d: len mismatch %d vs %d", op, cal.len(), ref.len())
				}
			}
			// Drain: the tails must match exactly too.
			for {
				a, b := cal.popMin(), ref.popMin()
				if a == nil && b == nil {
					break
				}
				if a == nil || b == nil || a.at != b.at || a.seq != b.seq {
					t.Fatal("drain mismatch between calendar and heap queues")
				}
			}
		})
	}
}

func drop(s []*Event, ev *Event) []*Event {
	for i, e := range s {
		if e == ev {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// TestEngineCrossImplEquivalence runs the same randomized engine workload
// (nested scheduling, cancels, removes, reschedules of caller-owned
// events) on the calendar and the reference heap queue and requires
// identical dispatch traces.
func TestEngineCrossImplEquivalence(t *testing.T) {
	trace := func(newEngine func() *Engine, seed int64) []string {
		var out []string
		e := newEngine()
		rng := NewRNG(seed)
		var owned [8]Event
		var pending []*Event
		var step func(id int)
		step = func(id int) {
			out = append(out, fmt.Sprintf("%d@%v", id, e.Now()))
			for i := 0; i < 2; i++ {
				switch rng.Intn(6) {
				case 0, 1:
					id := id*10 + i
					pending = append(pending, e.After(rng.Float64()*3, func() { step(id) }))
				case 2:
					if len(pending) > 0 {
						pending[rng.Intn(len(pending))].Cancel()
					}
				case 3:
					if len(pending) > 0 {
						j := rng.Intn(len(pending))
						e.Remove(pending[j])
						pending = append(pending[:j], pending[j+1:]...)
					}
				case 4:
					ow := &owned[rng.Intn(len(owned))]
					oid := id*100 + i
					e.Reschedule(ow, e.Now()+Time(rng.Float64()*2), func() { step(oid) })
				}
			}
		}
		e.SetEventLimit(20000)
		for i := 0; i < 5; i++ {
			i := i
			e.Schedule(Time(i)*0.1, func() { step(i) })
		}
		if _, err := e.RunAll(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	for seed := int64(1); seed <= 10; seed++ {
		cal := trace(NewEngine, seed)
		ref := trace(newHeapEngine, seed)
		if len(cal) != len(ref) {
			t.Fatalf("seed %d: dispatch counts differ: %d vs %d", seed, len(cal), len(ref))
		}
		for i := range cal {
			if cal[i] != ref[i] {
				t.Fatalf("seed %d: dispatch %d differs: calendar %s, heap %s",
					seed, i, cal[i], ref[i])
			}
		}
	}
}

// TestCalendarFIFOWithinInstant pins the stable same-instant ordering the
// engine's determinism contract requires, through enough events to force
// calendar resizes.
func TestCalendarFIFOWithinInstant(t *testing.T) {
	e := NewEngine()
	var got []int
	const n = 500
	for i := 0; i < n; i++ {
		i := i
		e.Schedule(7, func() { got = append(got, i) })
		// Interleave other instants so buckets stay mixed.
		e.Schedule(Time(float64(i)*0.01), func() {})
	}
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("ran %d same-instant events, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant order not FIFO at %d: %v", i, v)
		}
	}
}

// TestRescheduleSemantics covers the caller-owned event contract: moving a
// pending event, reviving a cancelled one, and the new-seq FIFO placement.
func TestRescheduleSemantics(t *testing.T) {
	e := NewEngine()
	var order []string
	var ev Event
	e.Reschedule(&ev, 5, func() { order = append(order, "owned") })
	e.Reschedule(&ev, 2, func() { order = append(order, "moved") })
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d after rescheduling the same event, want 1", e.Pending())
	}
	e.Schedule(2, func() { order = append(order, "later-seq") })
	// Rescheduling assigns a fresh seq: the owned event now ties at t=2
	// but must fire after the Schedule above.
	e.Reschedule(&ev, 2, func() { order = append(order, "moved-again") })
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := []string{"later-seq", "moved-again"}
	if len(order) != len(want) || order[0] != want[0] || order[1] != want[1] {
		t.Fatalf("order = %v, want %v", order, want)
	}

	// A cancelled owned event is revived by Reschedule.
	ev.Cancel()
	e.Reschedule(&ev, e.Now()+1, func() { order = append(order, "revived") })
	if ev.Cancelled() {
		t.Fatal("Reschedule left the event cancelled")
	}
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if order[len(order)-1] != "revived" {
		t.Fatalf("revived event did not fire: %v", order)
	}

	// Remove detaches an owned event without recycling it.
	e.Reschedule(&ev, e.Now()+1, func() { t.Error("removed event fired") })
	e.Remove(&ev)
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after Remove, want 0", e.Pending())
	}
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
}

// TestEventPoolReuseAfterCancel is the stale-callback guard: an event that
// was cancelled and reaped may be recycled into a new Schedule, and the
// old life's cancellation or callback must not leak into the new one.
func TestEventPoolReuseAfterCancel(t *testing.T) {
	e := NewEngine()
	stale := false
	ev := e.Schedule(1, func() { stale = true })
	ev.Cancel()
	if _, err := e.RunAll(); err != nil { // reaps + recycles ev
		t.Fatal(err)
	}
	ran := 0
	ev2 := e.Schedule(e.Now()+1, func() { ran++ })
	if ev2 != ev {
		t.Log("allocator did not reuse the event; pool path not exercised")
	}
	if ev2.Cancelled() {
		t.Fatal("recycled event started life cancelled")
	}
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if stale {
		t.Fatal("stale callback from the event's previous life fired")
	}
	if ran != 1 {
		t.Fatalf("recycled event fired %d times, want 1", ran)
	}
}

// TestCommitHooksRunPerDispatch verifies hook ordering and timing: after
// every dispatched callback, at the callback's timestamp.
func TestCommitHooksRunPerDispatch(t *testing.T) {
	e := NewEngine()
	var log []string
	e.AddCommitHook(func() { log = append(log, fmt.Sprintf("commit@%v", e.Now())) })
	e.Schedule(1, func() { log = append(log, "a") })
	e.Schedule(1, func() { log = append(log, "b") })
	e.Schedule(3, func() { log = append(log, "c") })
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	// Run flushes hooks once on entry, then after every dispatch.
	want := []string{"commit@0", "a", "commit@1", "b", "commit@1", "c", "commit@3"}
	if len(log) != len(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
}
