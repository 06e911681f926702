package main

import (
	"time"

	"mapsched/internal/job"
	"mapsched/internal/obs"
	"mapsched/internal/sched"
	"mapsched/internal/sim"
	"mapsched/internal/topology"
)

// decisionClock times every AssignMap / AssignReduce call of the
// schedulers built through wrap. It hooks in from outside, as a
// sched.Builder around the real one, and one clock serves every
// simulation of a pass.
type decisionClock struct {
	mapNs, redNs         latencies
	mapPlaced, redPlaced int
}

// reset empties the clock for the next pass, keeping its buffers so the
// pass does not pay for growing them again.
func (c *decisionClock) reset() {
	c.mapNs, c.redNs = c.mapNs[:0], c.redNs[:0]
	c.mapPlaced, c.redPlaced = 0, 0
}

func (c *decisionClock) calls() int { return len(c.mapNs) + len(c.redNs) }

func (c *decisionClock) busy() float64 { return c.mapNs.busy() + c.redNs.busy() }

// assignRatio is tasks placed per offer.
func (c *decisionClock) assignRatio() float64 {
	if c.calls() == 0 {
		return 0
	}
	return float64(c.mapPlaced+c.redPlaced) / float64(c.calls())
}

func (c *decisionClock) wrap(b sched.Builder) sched.Builder {
	return func(env sched.Env) sched.Scheduler {
		inner := b(env)
		if inner == nil {
			return nil
		}
		return &timedScheduler{inner: inner, clock: c}
	}
}

type timedScheduler struct {
	inner sched.Scheduler
	clock *decisionClock
}

func (t *timedScheduler) Name() string { return t.inner.Name() }

func (t *timedScheduler) AssignMap(ctx *sched.Context, n topology.NodeID) *job.MapTask {
	t0 := time.Now()
	m := t.inner.AssignMap(ctx, n)
	t.clock.mapNs.record(t0)
	ref.tick()
	if m != nil {
		t.clock.mapPlaced++
	}
	return m
}

func (t *timedScheduler) AssignReduce(ctx *sched.Context, n topology.NodeID) *job.ReduceTask {
	t0 := time.Now()
	r := t.inner.AssignReduce(ctx, n)
	t.clock.redNs.record(t0)
	ref.tick()
	if r != nil {
		t.clock.redPlaced++
	}
	return r
}

// recorder is the observer of a traced pass: it counts the stream by
// kind and keeps the flow_start / flow_finish events the topology replay
// needs. Attach one recorder per simulation.
type recorder struct {
	events, flowEvents, rateEvents, decisionEvents, jobFinishes int
	flows                                                       []flowEvent
}

// flowEvent is one recorded flow start or cancellation.
type flowEvent struct {
	t      float64
	cancel bool
	info   *obs.FlowInfo
}

func (r *recorder) Observe(e obs.Event) {
	r.events++
	switch e.Type {
	case obs.FlowStart:
		r.flowEvents++
		r.flows = append(r.flows, flowEvent{t: e.T, info: e.Flow})
	case obs.FlowFinish:
		r.flowEvents++
		if e.Reason == "cancel" {
			r.flows = append(r.flows, flowEvent{t: e.T, cancel: true, info: e.Flow})
		}
	case obs.FlowRate:
		r.flowEvents++
		r.rateEvents++
	case obs.TaskOffer, obs.TaskAssign, obs.TaskSkip:
		r.decisionEvents++
	case obs.JobFinish:
		r.jobFinishes++
	}
}

// replayStats are the flow-network counters of a topology replay.
type replayStats struct {
	seconds         float64
	flows           int
	full, inc       int64
	events          uint64
	unfinishedFlows int
}

func (a *replayStats) add(b replayStats) {
	a.seconds += b.seconds
	a.flows += b.flows
	a.full += b.full
	a.inc += b.inc
	a.events += b.events
	a.unfinishedFlows += b.unfinishedFlows
}

// replayFlows replays one simulation's recorded flow stream open-loop
// into a fresh cluster of the same shape: each flow starts at its
// recorded instant and then runs under the solver on its own;
// cancelled flows are cancelled at their recorded instant. Persistent
// cross traffic is re-injected with InjectCrossTraffic. Only the event
// loop is timed.
func replayFlows(spec topology.Spec, flows []flowEvent) (replayStats, error) {
	eng := sim.NewEngine()
	cl, err := topology.NewCluster(eng, spec)
	if err != nil {
		return replayStats{}, err
	}
	var st replayStats
	live := make(map[int64]*topology.Flow)
	persistent := make(map[int64]bool)
	for _, ev := range flows {
		f := ev.info
		if ev.cancel {
			eng.Schedule(sim.Time(ev.t), func() { cl.Net().Cancel(live[f.ID]) })
			continue
		}
		st.flows++
		if f.Persistent {
			persistent[f.ID] = true
			eng.Schedule(sim.Time(ev.t), func() {
				live[f.ID] = cl.InjectCrossTraffic(topology.NodeID(f.Src), topology.NodeID(f.Dst))
			})
			continue
		}
		eng.Schedule(sim.Time(ev.t), func() {
			live[f.ID] = cl.Transfer(topology.NodeID(f.Src), topology.NodeID(f.Dst), f.Bytes, nil)
		})
	}
	t0 := time.Now()
	if _, err := eng.RunAll(); err != nil {
		return replayStats{}, err
	}
	st.seconds = time.Since(t0).Seconds()
	net := cl.Net()
	st.full, st.inc = net.FullRecomputes(), net.IncrementalRecomputes()
	st.events = eng.Fired()
	for id, f := range live {
		if !f.Finished() && !persistent[id] {
			st.unfinishedFlows++
		}
	}
	return st, nil
}
