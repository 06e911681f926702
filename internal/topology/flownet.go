package topology

import (
	"fmt"
	"math"

	"mapsched/internal/obs"
	"mapsched/internal/sim"
)

// LinkID identifies a directed link in a FlowNet.
type LinkID int

// flowKind distinguishes how a Flow completes.
type flowKind uint8

const (
	flowNet   flowKind = iota // attached to links, max-min shared
	flowZero                  // zero-byte transfer: completes next event cycle
	flowLocal                 // same-node disk read: fixed rate, no links
)

// Flow is a data transfer in progress. Exposed so callers can cancel
// persistent background flows; regular transfers complete on their own.
//
// Flow objects are pooled — see FlowNet.Release and maybeRecycle.
type Flow struct {
	id         int64    // creation order; makes event scheduling deterministic
	links      []LinkID // owned copy of the path; storage reused across lives
	total      float64  // original size in bytes
	remaining  float64  // bytes left; NaN-free, >= 0
	rate       float64  // current max-min share, bytes/second
	lastUpdate sim.Time
	done       func()
	doneEv     sim.Event // embedded completion event, rescheduled in place
	finishFn   func()    // bound once per object; survives pool reuse
	net        *FlowNet
	kind       flowKind
	persistent bool
	finished   bool

	// Pool/emission state.
	inLive       bool // referenced by liveList (tombstoned until compacted)
	released     bool // owner dropped its reference; recycle when safe
	pendingStart bool // flow_start emission deferred to the next flush

	slots  []int   // position of this flow in each path link's flow list
	next   float64 // share from the latest solve; Flush applies it to rate
	frozen bool    // scratch flag for progressive filling

	// Node endpoints for observability; -1 when the caller did not tag
	// the flow.
	src, dst NodeID
}

// Rate returns the flow's bandwidth share in bytes/second. A network
// flow read after churn in the current event is solved on demand, so the
// result is the share it runs at once the event commits.
func (f *Flow) Rate() float64 {
	if f.kind == flowNet && !f.finished {
		f.net.solve()
		return f.next
	}
	return f.rate
}

// Remaining returns the bytes left to transfer as of the last rate change.
func (f *Flow) Remaining() float64 { return f.remaining }

// Finished reports whether the flow has completed or been cancelled.
func (f *Flow) Finished() bool { return f.finished }

// link carries its active flows as a slice (swap-remove via Flow.slots):
// enumeration is the solver's hot loop, and slice iteration is several
// times cheaper than ranging a map. Order within the slice is arbitrary
// but immaterial — every consumer either sorts or commutes exactly.
type link struct {
	capacity float64 //lint:epoch-guarded rate shares derive from it; see FlowNet.epoch
	flows    []*Flow
}

// FlowNet is a flow-level network simulator: each active flow receives a
// max-min fair share of the capacity of every directed link on its path.
//
// Churn (flow start, finish, cancel, capacity or alpha change) only
// updates link occupancy, bumps the epoch and marks the shares stale.
// One full progressive-filling pass then runs per dispatched event that
// churned, in Flush — the engine's commit hook — which also settles every
// flow whose share changed, gives it one completion-event queue operation
// and emits the event's flow_rate/flow_start batch. Rate and CheckFeasible
// run the same solve on demand mid-event; it has no side effect on the
// simulation, which reads only occupancy (ProspectiveRate) until the
// event commits.
type FlowNet struct {
	eng   *sim.Engine
	links []link
	// liveList holds in-flight flows in creation-id order (ids are issued
	// monotonically and flows are appended at start), so progressive
	// filling never has to sort it; finished flows are tombstoned and
	// compacted lazily. liveCount is the exact number of live entries.
	liveList  []*Flow
	liveCount int
	alpha     float64 //lint:epoch-guarded congestion inefficiency scales every effective capacity; see Spec.CongestionAlpha

	// epoch counts observable rate/occupancy changes. Any quantity derived
	// from link occupancy or flow rates (ProspectiveRate, PathRate) is
	// constant between epochs, which lets higher layers cache derived
	// costs with exact invalidation.
	epoch uint64

	dirty     bool  // churn since the last solve: shares are stale
	unapplied bool  // solved shares not yet applied by Flush
	solves    int64 // progressive-filling passes

	// Flows whose flow_start emission is deferred until their first share
	// is known.
	pendingStarts []*Flow

	// freeFlows recycles Flow objects. A flow is recycled only once it is
	// finished, its owner has Released it, no liveList tombstone remains,
	// its completion event is off the queue, and no deferred maintenance
	// or emission mentions it — so a stale pointer can never observe or
	// cancel another transfer's state.
	freeFlows []*Flow

	// Reusable scratch state, sized to len(links).
	remCap   []float64
	cnt      []int
	linksBuf []int

	// stats
	started   int64
	completed int64
	bytesDone float64

	// obs receives flow_start / flow_rate / flow_finish events when a
	// sink is attached; a nil stream costs one comparison per churn.
	obs *obs.Stream
}

// NewFlowNet returns an empty network bound to eng. The per-event solve,
// completion rescheduling and emission batch ride eng's commit hook,
// firing at the end of each dispatched event.
func NewFlowNet(eng *sim.Engine) *FlowNet {
	n := &FlowNet{eng: eng}
	eng.AddCommitHook(n.Flush)
	return n
}

// SetCongestionAlpha sets the goodput-degradation coefficient: a link
// with n concurrent flows delivers capacity/(1 + alpha·(n−1)). Changing
// it marks every live flow for re-sharing and bumps the epoch — alpha
// scales every effective capacity, so costs cached against the previous
// epoch would otherwise survive stale. Setting the current value is a
// no-op.
func (n *FlowNet) SetCongestionAlpha(alpha float64) {
	if alpha < 0 {
		alpha = 0
	}
	if n.alpha == alpha {
		return
	}
	n.alpha = alpha
	n.mark()
}

// SetStream attaches the observability stream flow events are emitted
// on. A nil stream (the default) disables emission entirely.
func (n *FlowNet) SetStream(st *obs.Stream) { n.obs = st }

// flowEvent builds the observation for f. links are included only on
// flow_start (they never change afterwards).
func (n *FlowNet) flowEvent(t obs.Type, f *Flow, withLinks bool, reason string) obs.Event {
	info := &obs.FlowInfo{
		ID:         f.id,
		Src:        int(f.src),
		Dst:        int(f.dst),
		Bytes:      f.total,
		Rate:       f.rate,
		Persistent: f.persistent,
	}
	if withLinks {
		info.Links = make([]int, len(f.links))
		for i, l := range f.links {
			info.Links[i] = int(l)
		}
	}
	return obs.Event{
		T:      float64(n.eng.Now()),
		Type:   t,
		Node:   int(f.dst),
		Reason: reason,
		Flow:   info,
	}
}

// Epoch returns the churn counter. Between equal epochs no link occupancy
// or flow share has changed, so path-rate observations are guaranteed
// stable.
func (n *FlowNet) Epoch() uint64 { return n.epoch }

// FullRecomputes returns the number of progressive-filling solves: at most
// one per dispatched event that churned, plus on-demand solves from Rate
// and CheckFeasible.
func (n *FlowNet) FullRecomputes() int64 { return n.solves }

// IncrementalRecomputes always returns 0. Every solve is a full pass; the
// getter remains for callers that report the full/incremental split.
func (n *FlowNet) IncrementalRecomputes() int64 { return 0 }

// effCapacity returns a link's aggregate goodput when carrying n flows.
func (n *FlowNet) effCapacity(l int, flows int) float64 {
	c := n.links[l].capacity
	if n.alpha == 0 || flows <= 1 {
		return c
	}
	return c / (1 + n.alpha*float64(flows-1))
}

// AddLink creates a directed link with the given capacity (bytes/second),
// which must be positive and finite.
func (n *FlowNet) AddLink(capacity float64) LinkID {
	if !(capacity > 0) || math.IsInf(capacity, 1) {
		panic(fmt.Sprintf("topology: link capacity %v must be positive and finite", capacity))
	}
	n.links = append(n.links, link{capacity: capacity})
	n.remCap = append(n.remCap, 0)
	n.cnt = append(n.cnt, 0)
	return LinkID(len(n.links) - 1)
}

// SetLinkCapacity replaces a link's capacity (bytes/second), marks every
// flow for re-sharing and bumps the epoch so cost caches invalidate.
// Unlike AddLink, zero is allowed: flows crossing a zero-capacity link
// stall at rate zero (their completion events are parked) until capacity
// is restored, which models a severed link without detaching its flows.
// Negative values and -0 clamp to +0, so every share of a severed link is
// +0; NaN and infinities panic (a non-finite share never wins a
// bottleneck round, so its flows would silently stall); setting the
// current capacity again is a no-op.
func (n *FlowNet) SetLinkCapacity(l LinkID, capacity float64) {
	if math.IsNaN(capacity) || math.IsInf(capacity, 0) {
		panic(fmt.Sprintf("topology: link capacity %v must be finite", capacity))
	}
	if !(capacity > 0) {
		capacity = 0
	}
	if n.links[l].capacity == capacity {
		return
	}
	n.links[l].capacity = capacity
	n.mark()
}

// LinkCapacity returns a link's current capacity (bytes/second).
func (n *FlowNet) LinkCapacity(l LinkID) float64 { return n.links[l].capacity }

// LinkFlowCount returns the number of active flows on l.
func (n *FlowNet) LinkFlowCount(l LinkID) int { return len(n.links[l].flows) }

// ActiveFlows returns the number of in-flight flows.
func (n *FlowNet) ActiveFlows() int { return n.liveCount }

// Completed returns the number of flows that finished normally.
func (n *FlowNet) Completed() int64 { return n.completed }

// BytesDelivered returns total bytes carried by completed flows.
func (n *FlowNet) BytesDelivered() float64 { return n.bytesDone }

// allocFlow returns a reset Flow (from the pool when possible) with a
// fresh creation id, its completion callback bound, and the path copied
// into owned storage.
func (n *FlowNet) allocFlow(src, dst NodeID, path []LinkID) *Flow {
	var f *Flow
	if k := len(n.freeFlows); k > 0 {
		f = n.freeFlows[k-1]
		n.freeFlows[k-1] = nil
		n.freeFlows = n.freeFlows[:k-1]
	} else {
		f = &Flow{net: n}
		f.doneEv = sim.UnqueuedEvent()
		ff := f
		f.finishFn = func() { ff.net.fire(ff) }
	}
	f.id = n.started
	n.started++
	f.links = append(f.links[:0], path...)
	f.lastUpdate = n.eng.Now()
	f.src, f.dst = src, dst
	return f
}

// Release tells the network the caller holds no more references to f and
// will never touch it again: once every other condition clears (flow
// finished, liveList tombstone compacted, completion event off the
// queue) the object is recycled into a future transfer. Calling Release
// on an unfinished flow is a contract violation and is ignored; not
// calling it merely forgoes reuse.
func (n *FlowNet) Release(f *Flow) {
	if f == nil || !f.finished || f.released {
		return
	}
	f.released = true
	n.maybeRecycle(f)
}

// maybeRecycle returns f to the pool when no reference to it can remain:
// the owner released it, it is off the liveList, its completion event is
// not queued, and no deferred maintenance or emission mentions it. The
// reset clears every field — a recycled flow must carry nothing of its
// previous life.
func (n *FlowNet) maybeRecycle(f *Flow) {
	if !f.released || !f.finished || f.inLive || f.pendingStart || f.doneEv.Queued() {
		return
	}
	links, slots, finishFn, net := f.links[:0], f.slots[:0], f.finishFn, f.net
	//lint:pooled Flow
	*f = Flow{net: net, links: links, slots: slots, finishFn: finishFn}
	f.doneEv = sim.UnqueuedEvent()
	n.freeFlows = append(n.freeFlows, f)
}

// StartFlow begins transferring bytes across the given path and calls done
// (if non-nil) at completion. Zero or negative sizes complete immediately
// via a zero-delay event so callbacks still run in event order.
func (n *FlowNet) StartFlow(path []LinkID, bytes float64, done func()) *Flow {
	return n.StartFlowBetween(-1, -1, path, bytes, done)
}

// StartFlowBetween is StartFlow with the flow tagged by its source and
// destination node, so flow events carry endpoints the FlowNet itself
// does not know about.
func (n *FlowNet) StartFlowBetween(src, dst NodeID, path []LinkID, bytes float64, done func()) *Flow {
	if len(path) == 0 {
		panic("topology: StartFlow with empty path; use LocalTransfer")
	}
	f := n.allocFlow(src, dst, path)
	f.total, f.remaining, f.done = bytes, bytes, done
	if bytes <= 0 {
		f.kind = flowZero
		f.finished = true
		n.completed++
		if n.obs.Enabled() {
			n.obs.Emit(n.flowEvent(obs.FlowStart, f, true, ""))
		}
		n.eng.Reschedule(&f.doneEv, n.eng.Now(), f.finishFn)
		return f
	}
	f.kind = flowNet
	n.attach(f)
	return f
}

// StartPersistentFlow begins a background flow that never completes (until
// cancelled) and always consumes its fair share on the path.
func (n *FlowNet) StartPersistentFlow(path []LinkID) *Flow {
	return n.StartPersistentFlowBetween(-1, -1, path)
}

// StartPersistentFlowBetween is StartPersistentFlow with node endpoints
// attached for observability.
func (n *FlowNet) StartPersistentFlowBetween(src, dst NodeID, path []LinkID) *Flow {
	f := n.allocFlow(src, dst, path)
	f.kind = flowNet
	f.remaining = math.Inf(1)
	f.persistent = true
	n.attach(f)
	return f
}

// LocalTransfer models a same-node disk read at the given bandwidth; it
// does not contend with network flows.
func (n *FlowNet) LocalTransfer(bytes, diskBps float64, done func()) *Flow {
	return n.LocalTransferAt(-1, bytes, diskBps, done)
}

// LocalTransferAt is LocalTransfer tagged with the node whose disk
// serves the read.
func (n *FlowNet) LocalTransferAt(node NodeID, bytes, diskBps float64, done func()) *Flow {
	if diskBps <= 0 {
		panic(fmt.Sprintf("topology: disk bandwidth %v must be positive", diskBps))
	}
	if bytes < 0 {
		bytes = 0
	}
	f := n.allocFlow(node, node, nil)
	f.kind = flowLocal
	f.total, f.remaining, f.done = bytes, bytes, done
	f.rate = diskBps
	if n.obs.Enabled() {
		n.obs.Emit(n.flowEvent(obs.FlowStart, f, false, "local"))
	}
	n.eng.Reschedule(&f.doneEv, n.eng.Now()+sim.Time(bytes/diskBps), f.finishFn)
	return f
}

// Cancel removes a flow (typically persistent cross-traffic) from the
// network without invoking its completion callback.
func (n *FlowNet) Cancel(f *Flow) {
	if f == nil || f.finished {
		return
	}
	if f.kind == flowLocal {
		// Local reads never touched the shared network: stop the clock and
		// the completion event, nothing to re-share.
		n.settle(f)
		f.finished = true
		n.eng.Remove(&f.doneEv)
		if n.obs.Enabled() {
			n.obs.Emit(n.flowEvent(obs.FlowFinish, f, false, "cancel"))
		}
		n.maybeRecycle(f)
		return
	}
	n.settle(f)
	f.finished = true
	n.detach(f)
	n.mark()
	if n.obs.Enabled() {
		// A flow cancelled in its start event has its start emission
		// still deferred; emit it first so the stream stays well-formed.
		if f.pendingStart {
			n.emitPendingStart(f)
		}
		n.obs.Emit(n.flowEvent(obs.FlowFinish, f, false, "cancel"))
	}
}

// emitPendingStart emits f's deferred flow_start immediately and removes
// it from the pending list. Only used on the rare cancel-in-start-event
// path, where the flow never ran and its rate is still zero; normal starts
// are emitted in batch by Flush.
func (n *FlowNet) emitPendingStart(f *Flow) {
	n.obs.Emit(n.flowEvent(obs.FlowStart, f, true, ""))
	f.pendingStart = false
	for i, p := range n.pendingStarts {
		if p == f {
			n.pendingStarts = append(n.pendingStarts[:i], n.pendingStarts[i+1:]...)
			break
		}
	}
}

// attach registers f on every link of its path and in the live list,
// marks the churn, and defers f's flow_start emission to the next Flush,
// when its first share is known.
func (n *FlowNet) attach(f *Flow) {
	if cap(f.slots) < len(f.links) {
		f.slots = make([]int, len(f.links))
	} else {
		f.slots = f.slots[:len(f.links)]
	}
	for i, l := range f.links {
		f.slots[i] = len(n.links[l].flows)
		n.links[l].flows = append(n.links[l].flows, f)
	}
	n.liveList = append(n.liveList, f)
	f.inLive = true
	n.liveCount++
	n.mark()
	f.pendingStart = true
	n.pendingStarts = append(n.pendingStarts, f)
}

// detach removes f from its links (swap-remove, fixing the moved flow's
// slot) and drops its pending completion event. The live-list entry is
// tombstoned and reclaimed by the next compaction.
func (n *FlowNet) detach(f *Flow) {
	for i, l := range f.links {
		fl := n.links[l].flows
		last := len(fl) - 1
		if s := f.slots[i]; s != last {
			moved := fl[last]
			fl[s] = moved
			for k, ml := range moved.links {
				if ml == l {
					moved.slots[k] = s
					break
				}
			}
		}
		fl[last] = nil
		n.links[l].flows = fl[:last]
	}
	n.liveCount--
	n.eng.Remove(&f.doneEv)
}

// compactLive drops tombstoned (finished) flows from the live list,
// preserving creation order, and recycles the ones whose owners already
// released them.
func (n *FlowNet) compactLive() {
	w := 0
	for _, f := range n.liveList {
		if !f.finished {
			n.liveList[w] = f
			w++
			continue
		}
		f.inLive = false
		n.maybeRecycle(f)
	}
	for i := w; i < len(n.liveList); i++ {
		n.liveList[i] = nil
	}
	n.liveList = n.liveList[:w]
}

// settle charges progress made at the current rate since the last update.
func (n *FlowNet) settle(f *Flow) {
	now := n.eng.Now()
	if f.persistent {
		f.lastUpdate = now
		return
	}
	elapsed := float64(now - f.lastUpdate)
	if elapsed > 0 && f.rate > 0 {
		f.remaining -= f.rate * elapsed
		if f.remaining < 0 {
			f.remaining = 0
		}
	}
	f.lastUpdate = now
}

// mark records churn: it bumps the epoch and flags the shares stale. The
// solve waits for Flush (or an on-demand read), so however many flows
// start, finish or are cancelled within one event, progressive filling
// runs once.
func (n *FlowNet) mark() {
	n.epoch++
	n.dirty = true
}

// Flush commits the event's churn: one solve if anything churned, then
// the application of changed shares (settlement, completion-event
// maintenance, flow_rate emissions), then the batch of deferred
// flow_start emissions. It is the engine's commit hook, running at the
// end of every dispatched event.
func (n *FlowNet) Flush() {
	n.solve()
	if n.unapplied {
		n.apply()
	}

	// Announce the flows born this event, in creation order, now that
	// their first share is applied.
	if len(n.pendingStarts) > 0 {
		emit := n.obs.Enabled()
		for i, f := range n.pendingStarts {
			if emit {
				n.obs.Emit(n.flowEvent(obs.FlowStart, f, true, ""))
			}
			f.pendingStart = false
			n.pendingStarts[i] = nil
			n.maybeRecycle(f)
		}
		n.pendingStarts = n.pendingStarts[:0]
	}
}

// solve brings every live flow's share (Flow.next) up to date with one
// full progressive-filling pass, if anything churned since the last one.
// It settles and queues nothing — apply does, at Flush — so an on-demand
// solve mid-event leaves the simulation exactly as it was.
func (n *FlowNet) solve() {
	if !n.dirty {
		return
	}
	n.dirty = false
	n.compactLive()
	if n.liveCount == 0 {
		return
	}
	n.solves++
	n.unapplied = true
	n.fill()
}

// apply commits the latest solve. Every flow whose share changed is
// settled at its old rate and gets one completion-event queue operation
// against the new one (a reschedule, or a park at rate zero); flows whose
// share is unchanged are left alone, since their pending event already
// fires at the correct absolute time. The live list is in creation order,
// which fixes both the FIFO seqs of simultaneous completions and the
// order of flow_rate emissions.
func (n *FlowNet) apply() {
	n.unapplied = false
	emit := n.obs.Enabled()
	now := n.eng.Now()
	for _, f := range n.liveList {
		if f.next == f.rate {
			continue
		}
		n.settle(f)
		f.rate = f.next
		if emit && !f.pendingStart {
			n.obs.Emit(n.flowEvent(obs.FlowRate, f, false, ""))
		}
		if f.persistent {
			continue
		}
		if f.rate <= 0 {
			// Park the completion until contention clears.
			n.eng.Remove(&f.doneEv)
			continue
		}
		n.eng.Reschedule(&f.doneEv, now+sim.Time(f.remaining/f.rate), f.finishFn)
	}
}

// fill runs progressive filling (max-min fairness) over every live flow
// and every loaded link, writing each flow's share to Flow.next. Links
// are scanned in ascending order, so bottleneck ties break
// deterministically. The fill loop allocates nothing.
func (n *FlowNet) fill() {
	links := n.linksBuf[:0]
	for l := range n.links {
		if c := len(n.links[l].flows); c > 0 {
			links = append(links, l)
			n.cnt[l] = c
			n.remCap[l] = n.effCapacity(l, c)
		}
	}
	n.linksBuf = links
	flows := n.liveList
	for _, f := range flows {
		f.frozen = false
	}
	unfrozen := len(flows)
	for unfrozen > 0 {
		// Find the most constrained link among links carrying unfrozen
		// flows, compacting drained links out of the scan (preserving
		// ascending order so tie-breaks stay deterministic).
		best := -1
		bestShare := math.Inf(1)
		w := 0
		for _, l := range links {
			if n.cnt[l] == 0 {
				continue
			}
			links[w] = l
			w++
			share := n.remCap[l] / float64(n.cnt[l])
			if share < bestShare {
				bestShare = share
				best = l
			}
		}
		links = links[:w]
		if best < 0 {
			// No unfrozen flow crosses any link (cannot happen: every live
			// flow has a non-empty path), but guard against livelock.
			for _, f := range flows {
				if !f.frozen {
					f.next = 0
					f.frozen = true
				}
			}
			break
		}
		// Freeze every unfrozen flow on the bottleneck at the fair share.
		// The order of iteration is immaterial: every frozen flow gets
		// the same share, and the remCap/cnt updates commute exactly
		// (each round subtracts the same bestShare per crossing).
		for _, f := range n.links[best].flows {
			if f.frozen {
				continue
			}
			f.next = bestShare
			f.frozen = true
			unfrozen--
			for _, l := range f.links {
				n.remCap[l] -= bestShare
				if n.remCap[l] < 0 {
					n.remCap[l] = 0 // guard float error
				}
				n.cnt[l]--
			}
		}
	}
}

// fire dispatches a flow's completion event according to its kind.
func (n *FlowNet) fire(f *Flow) {
	switch f.kind {
	case flowZero:
		// Counted complete at creation; only the emission and callback
		// were deferred to the next event cycle.
		if n.obs.Enabled() {
			n.obs.Emit(n.flowEvent(obs.FlowFinish, f, false, ""))
		}
		if f.done != nil {
			f.done()
		}
		n.maybeRecycle(f)
	case flowLocal:
		f.finished = true
		f.remaining = 0
		n.completed++
		n.bytesDone += f.total
		if n.obs.Enabled() {
			n.obs.Emit(n.flowEvent(obs.FlowFinish, f, false, "local"))
		}
		if f.done != nil {
			f.done()
		}
		n.maybeRecycle(f)
	default:
		n.finish(f)
	}
}

// finish completes a network flow and triggers its callback.
func (n *FlowNet) finish(f *Flow) {
	if f.finished {
		return
	}
	f.finished = true
	f.remaining = 0
	n.completed++
	n.bytesDone += f.total
	n.detach(f)
	// Mark before the callback: the occupancy change and the epoch bump
	// must be observable to any path-rate reading the callback makes.
	n.mark()
	if n.obs.Enabled() {
		n.obs.Emit(n.flowEvent(obs.FlowFinish, f, false, ""))
	}
	if f.done != nil {
		f.done()
	}
	n.maybeRecycle(f)
}

// prospectiveShare returns the share a new flow would get on link l alone,
// effCapacity(l, n+1)/(n+1) for the link's current n flows. ProspectiveRate
// and Cluster.MaxPathRates both read link shares through it, so the two
// agree bit for bit.
func (n *FlowNet) prospectiveShare(l LinkID) float64 {
	flows := len(n.links[l].flows) + 1
	return n.effCapacity(int(l), flows) / float64(flows)
}

// ProspectiveRate estimates the max-min share a new flow on path would
// receive: the minimum over path links of capacity/(flows+1). This is the
// "path transmission rate" observation of Section II-B-3. It depends only
// on link occupancy, which churn updates immediately.
func (n *FlowNet) ProspectiveRate(path []LinkID) float64 {
	rate := math.Inf(1)
	for _, l := range path {
		if r := n.prospectiveShare(l); r < rate {
			rate = r
		}
	}
	if math.IsInf(rate, 1) {
		return 0
	}
	return rate
}

// CheckFeasible verifies that no link is oversubscribed: the sum of flow
// shares on each link must not exceed its capacity (within tolerance).
// Mid-event it checks the shares solved on demand, which is what the
// links carry once the event commits. Used by property tests.
func (n *FlowNet) CheckFeasible() error {
	const tol = 1e-6
	n.solve()
	for i := range n.links {
		var sum float64
		for _, f := range n.links[i].flows {
			sum += f.next
		}
		cap := n.effCapacity(i, len(n.links[i].flows))
		if sum > cap*(1+tol) {
			return fmt.Errorf("link %d oversubscribed: %v > %v", i, sum, cap)
		}
	}
	return nil
}
