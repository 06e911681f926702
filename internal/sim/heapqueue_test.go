package sim

import "container/heap"

// heapQueue is the classic container/heap event queue, the reference
// the calendar queue is equivalence-tested against.
type heapQueue []*Event

// newHeapEngine returns an engine running on the reference heap queue.
func newHeapEngine() *Engine {
	e := NewEngine()
	e.queue = &heapQueue{}
	return e
}

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
