// Package sim provides a deterministic discrete-event simulation core:
// a virtual clock, a priority event queue, and seeded random sources.
//
// All higher layers (network flows, heartbeats, task execution) are driven
// by events scheduled on a single *Engine. The engine is strictly
// single-threaded: callbacks run in timestamp order, ties broken by
// scheduling order, which makes every simulation bit-for-bit reproducible
// for a given seed.
package sim

import (
	"container/heap"
	"fmt"
	"math"
)

// Time is a point in simulated time, in seconds since the start of the run.
type Time float64

// Duration is a span of simulated time in seconds.
type Duration = float64

// Infinity is a time later than any event the simulator will ever fire.
const Infinity Time = Time(math.MaxFloat64)

// Event is a scheduled callback. The zero value is inert.
//
// Lifetime: an *Event returned by Schedule or After belongs to the engine.
// It may be read (At, Cancelled) and cancelled only until its callback runs
// or it is dropped from the queue (Remove, or a cancelled event reaped by
// Step); after that the engine recycles the object for a future Schedule
// and any retained pointer is stale. Callers that need a durable handle
// embed an Event value of their own and drive it with Reschedule/Remove —
// such caller-owned events are never recycled by the engine.
type Event struct {
	at     Time
	seq    uint64 // FIFO tie-break for equal timestamps
	fn     func()
	index  int // position in the heap / calendar bucket; -1 when not queued
	bucket int // calendar bucket; -1 when not queued, -2 in overflow
	cancel bool
	pooled bool // engine-owned: recycled after firing or removal
}

// UnqueuedEvent returns an Event value initialized as not-queued, ready
// for embedding in a caller-owned structure and driving with Reschedule.
// (The zero Event works too, but its queued-state fields only become
// meaningful after the first Reschedule.)
func UnqueuedEvent() Event { return Event{index: -1, bucket: -1} }

// At returns the simulated time the event fires at.
func (e *Event) At() Time { return e.at }

// Queued reports whether the event is currently in an engine's queue.
// Meaningful only for events initialized via engine APIs or UnqueuedEvent.
func (e *Event) Queued() bool { return e.index >= 0 }

// Cancelled reports whether Cancel was called on the event.
func (e *Event) Cancelled() bool { return e.cancel }

// Cancel prevents the event's callback from running. Cancelling an event
// that already fired or was already cancelled is a no-op.
func (e *Event) Cancel() { e.cancel = true }

// eventQueue is the pending-event set. Pop order is the total order
// (at, seq) ascending, so every implementation is pop-for-pop identical;
// cancelled events stay queued (and counted) until popped or removed.
type eventQueue interface {
	push(ev *Event)
	popMin() *Event // earliest (at, seq) event, nil if empty
	remove(ev *Event) bool
	len() int
}

func eventLess(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapQueue is the classic container/heap implementation, kept behind
// QueueHeap as the reference the calendar queue is equivalence-tested
// against.
type heapQueue []*Event

func (h heapQueue) Len() int           { return len(h) }
func (h heapQueue) Less(i, j int) bool { return eventLess(h[i], h[j]) }
func (h heapQueue) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *heapQueue) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}

func (h *heapQueue) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

func (h *heapQueue) push(ev *Event) { heap.Push(h, ev) }

func (h *heapQueue) popMin() *Event {
	if len(*h) == 0 {
		return nil
	}
	return heap.Pop(h).(*Event)
}

func (h *heapQueue) remove(ev *Event) bool {
	if ev.index < 0 || ev.index >= len(*h) || (*h)[ev.index] != ev {
		return false
	}
	heap.Remove(h, ev.index)
	return true
}

func (h *heapQueue) len() int { return len(*h) }

// QueueKind selects the pending-event set implementation.
type QueueKind int

const (
	// QueueCalendar is the default: a self-resizing calendar queue with
	// amortized O(1) push/pop on the simulator's clustered timestamps.
	QueueCalendar QueueKind = iota
	// QueueHeap is the container/heap reference implementation.
	QueueHeap
)

// Engine is a discrete-event simulator. Create one with NewEngine.
type Engine struct {
	now     Time
	queue   eventQueue
	seq     uint64
	fired   uint64 // events executed (for diagnostics and loop guards)
	limit   uint64 // safety cap on executed events; 0 means unlimited
	running bool
	free    []*Event // recycled engine-owned events
	commits []func() // run after each dispatched callback returns
}

// NewEngine returns an engine with the clock at 0, using the calendar
// event queue.
func NewEngine() *Engine { return NewEngineWithQueue(QueueCalendar) }

// NewEngineWithQueue returns an engine using the given queue implementation.
// Decision streams are bit-identical across kinds; QueueHeap exists as the
// cross-implementation reference and escape hatch.
func NewEngineWithQueue(k QueueKind) *Engine {
	e := &Engine{}
	switch k {
	case QueueHeap:
		e.queue = &heapQueue{}
	default:
		e.queue = newCalendarQueue()
	}
	return e
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// SetEventLimit caps the number of events Run will execute; exceeding the
// cap makes Run return an error. Zero disables the cap.
func (e *Engine) SetEventLimit(n uint64) { e.limit = n }

// Pending returns the number of events currently queued (including
// cancelled events that have not yet been discarded). Commit hooks run
// first so that work deferred within the current event — e.g. flow
// completions awaiting the per-event share solve — is counted.
func (e *Engine) Pending() int {
	for _, c := range e.commits {
		c()
	}
	return e.queue.len()
}

// AddCommitHook registers fn to run after every dispatched event callback
// returns, still at the callback's timestamp. Deferred work that must
// complete before the clock can advance — the per-event flow-share solve,
// batched observability emission — hangs off this hook. Hooks run in
// registration order and must not unregister.
func (e *Engine) AddCommitHook(fn func()) {
	if fn == nil {
		panic("sim: nil commit hook")
	}
	e.commits = append(e.commits, fn)
}

// Schedule queues fn to run at absolute time at. Scheduling in the past
// (before Now) panics: it is always a logic error in a causal simulation.
// The returned event is engine-owned (see Event lifetime).
func (e *Engine) Schedule(at Time, fn func()) *Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	if fn == nil {
		panic("sim: schedule with nil callback")
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &Event{}
	}
	ev.at, ev.seq, ev.fn = at, e.seq, fn
	ev.index, ev.bucket = -1, -1
	ev.cancel, ev.pooled = false, true
	e.seq++
	e.queue.push(ev)
	return ev
}

// After queues fn to run d seconds from now. Negative d panics.
func (e *Engine) After(d Duration, fn func()) *Event {
	return e.Schedule(e.now+Time(d), fn)
}

// Reschedule (re)queues the caller-owned event ev to fire fn at absolute
// time at, removing it from the queue first if currently pending and
// clearing any cancellation. It allocates nothing: hot paths embed an
// Event value and move it instead of scheduling fresh events. The event
// gets a new FIFO sequence number, exactly as if it had been cancelled and
// scheduled anew. Engine-owned events (returned by Schedule/After) must
// not be passed here.
func (e *Engine) Reschedule(ev *Event, at Time, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: reschedule at %v before now %v", at, e.now))
	}
	if fn == nil {
		panic("sim: reschedule with nil callback")
	}
	if ev.pooled {
		panic("sim: reschedule of an engine-owned event")
	}
	e.queue.remove(ev)
	ev.at, ev.seq, ev.fn = at, e.seq, fn
	ev.cancel = false
	e.seq++
	e.queue.push(ev)
}

// Remove drops ev from the queue immediately (stronger than Cancel, which
// leaves the event queued but inert). Removing an unqueued event is a
// no-op. An engine-owned event is recycled by Remove; the caller must drop
// its pointer.
func (e *Engine) Remove(ev *Event) {
	if ev == nil {
		return
	}
	if e.queue.remove(ev) && ev.pooled {
		e.recycle(ev)
	}
}

// recycle resets a detached engine-owned event and returns it to the free
// list. The whole object is cleared: stale callbacks or cancel flags must
// never leak into the event's next life.
func (e *Engine) recycle(ev *Event) {
	//lint:pooled Event
	*ev = Event{index: -1, bucket: -1}
	e.free = append(e.free, ev)
}

// popLive pops the earliest pending event that has not been cancelled,
// reaping (and recycling) cancelled events along the way.
func (e *Engine) popLive() *Event {
	for {
		ev := e.queue.popMin()
		if ev == nil {
			return nil
		}
		if !ev.cancel {
			return ev
		}
		if ev.pooled {
			e.recycle(ev)
		}
	}
}

// dispatch advances the clock to ev, runs its callback, and then the
// commit hooks. Engine-owned events are recycled once the callback
// returns; by then every holder of the pointer has dropped it (the
// callback contract).
func (e *Engine) dispatch(ev *Event) {
	e.now = ev.at
	e.fired++
	fn := ev.fn
	if ev.pooled {
		e.recycle(ev)
	}
	fn()
	for _, c := range e.commits {
		c()
	}
}

// Step executes the single earliest pending event, skipping cancelled
// events. It reports whether an event ran. Commit hooks run before the
// pop: work deferred by calls made outside any event dispatch (e.g. flows
// started before the run) must materialize before the next event is
// chosen.
func (e *Engine) Step() bool {
	for _, c := range e.commits {
		c()
	}
	ev := e.popLive()
	if ev == nil {
		return false
	}
	e.dispatch(ev)
	return true
}

// Run executes events until the queue drains or the clock passes until.
// It returns the final clock value. If an event limit is set and exceeded,
// Run returns an error identifying the runaway.
func (e *Engine) Run(until Time) (Time, error) {
	if e.running {
		return e.now, fmt.Errorf("sim: Run called reentrantly at t=%v", e.now)
	}
	e.running = true
	defer func() { e.running = false }()
	// Materialize work deferred by calls made before the run (commit hooks
	// also run after every dispatch, so mid-run the queue is always
	// current).
	for _, c := range e.commits {
		c()
	}
	for {
		next := e.popLive()
		if next == nil {
			break
		}
		if next.at > until {
			// Too early to fire: put it back untouched (same seq, so the
			// FIFO order is preserved) and stop.
			e.queue.push(next)
			break
		}
		e.dispatch(next)
		if e.limit > 0 && e.fired > e.limit {
			return e.now, fmt.Errorf("sim: event limit %d exceeded at t=%v", e.limit, e.now)
		}
	}
	if until < Infinity && e.now < until && e.queue.len() == 0 {
		// Advance the clock to the horizon so periodic processes resumed
		// by the caller observe a consistent notion of "now".
		e.now = until
	}
	return e.now, nil
}

// RunAll executes events until the queue drains.
func (e *Engine) RunAll() (Time, error) { return e.Run(Infinity) }
