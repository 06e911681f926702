package main

import (
	"fmt"
	"runtime"
	"time"

	"mapsched/internal/engine"
	"mapsched/internal/metrics"
	"mapsched/internal/topology"
)

// simWorkload is a workload made of whole simulations: batch and open.
type simWorkload struct {
	// setup builds the simulations of one instance, their schedulers
	// wrapped by clock. It is timed as set-up.
	setup func(seed int64, clock *decisionClock) (*simInstance, error)
	// check verifies one instance's results and returns the jobs
	// attempted and failed (unfinished or failed).
	check func(inst *simInstance, res []*engine.Result, c *checks) (attempted, failed int)
}

// simInstance is one instance of a simulation workload, ready to run.
type simInstance struct {
	sims  []*engine.Simulation
	specs []topology.Spec // each simulation's topology, for the replay
	// verify, when set, runs extra checks against the results of a
	// traced pass (e.g. equivalence with a public entry point).
	verify func(res []*engine.Result, c *checks) error
}

// simPass is the measured outcome of running one instance.
type simPass struct {
	wall      float64
	completed int
	attempted int
	failed    int
	events    uint64
	mem       memDelta
	results   []*engine.Result
}

// runPass runs every simulation of inst in order and times the whole.
// The heap is collected first so set-up garbage is not charged to it.
func runPass(w simWorkload, inst *simInstance, clock *decisionClock, c *checks) (simPass, error) {
	runtime.GC()
	before := memSnap()
	clock.reset()
	t0 := time.Now()
	var p simPass
	for _, s := range inst.sims {
		res, err := s.Run()
		if err != nil {
			return p, err
		}
		p.results = append(p.results, res)
	}
	p.wall = time.Since(t0).Seconds()
	p.mem = memSince(before)
	for _, res := range p.results {
		p.events += res.Events
		p.completed += finishedJobs(res)
	}
	p.attempted, p.failed = w.check(inst, p.results, c)
	return p, nil
}

// untraced adapts the workload to the end-to-end loop, its schedulers
// clocked so decision latencies are recorded.
func (w simWorkload) untraced() untraced {
	var clock decisionClock
	return func(seed int64) (func(*checks) (pass, error), error) {
		inst, err := w.setup(seed, &clock)
		if err != nil {
			return nil, err
		}
		return func(c *checks) (pass, error) {
			p, err := runPass(w, inst, &clock, c)
			if err != nil {
				return pass{}, err
			}
			return pass{
				wall:      p.wall,
				jobs:      p.completed,
				decisions: clock.calls(),
				mapNs:     clock.mapNs,
				redNs:     clock.redNs,
				mem:       p.mem,
				attempted: p.attempted,
				failed:    p.failed,
			}, nil
		}, nil
	}
}

// runSimTraced measures the per-layer split on the seed's first
// instance. Each round runs it twice, clocked only and then with a
// recording observer attached, and replays the recorded flow stream into
// fresh clusters. Counts come from the first round; timings are
// medians across rounds.
func runSimTraced(w simWorkload, o runOpts) (*report, error) {
	var (
		c                                              checks
		clock                                          decisionClock
		first                                          tracedRound
		wallA, schedMap, schedRed, selfS, replayS, ovh []float64
	)
	rounds, err := passLoop(o.budget, 1, func(i int) error {
		r, err := tracedSimRound(w, instanceSeed(o.seed, 0), &clock, &c)
		if err != nil {
			return err
		}
		if i == 0 {
			first = r
		} else {
			c.expect(r.a.events == first.a.events && r.replay.full == first.replay.full,
				"round %d: events %d / full recomputes %d differ from round 0 (%d / %d)",
				i, r.a.events, r.replay.full, first.a.events, first.replay.full)
		}
		wallA = append(wallA, r.a.wall)
		schedMap = append(schedMap, r.mapBusy)
		schedRed = append(schedRed, r.redBusy)
		selfS = append(selfS, r.a.wall-r.mapBusy-r.redBusy)
		replayS = append(replayS, r.replay.seconds)
		ovh = append(ovh, 100*(r.traced.wall-r.a.wall)/r.a.wall)
		return nil
	})
	if err != nil {
		return nil, err
	}
	f := first
	m := layerMetrics()
	set := func(name string, v float64) { m[name] = metric{v, m[name].Unit} }
	busy := median(schedMap) + median(schedRed)
	set("sched.calls", float64(f.calls))
	set("sched.map_busy_s", median(schedMap))
	set("sched.reduce_busy_s", median(schedRed))
	set("sched.busy_share", busy/median(wallA))
	set("sched.assign_ratio", f.assignRatio)
	set("sched.mean_jct_sim_s", f.meanJCT)
	set("sched.node_local_pct", f.nodeLocalPct)
	set("topology.replay_s", median(replayS))
	set("topology.flows", float64(f.replay.flows))
	set("topology.full_recomputes", float64(f.replay.full))
	set("topology.inc_recomputes", float64(f.replay.inc))
	if n := f.replay.full + f.replay.inc; n > 0 {
		set("topology.inc_ratio", float64(f.replay.inc)/float64(n))
	}
	set("topology.flow_rate_events", float64(f.rec.rateEvents))
	set("sim.events", float64(f.a.events))
	set("sim.events_per_s", float64(f.a.events)/median(wallA))
	set("sim.replay_events", float64(f.replay.events))
	set("engine.self_s", median(selfS))
	set("engine.preemptions", float64(f.preemptions))
	set("engine.rejected", float64(f.rejected))
	set("engine.steady_p99_jct_sim_s", f.steadyP99)
	set("obs.events", float64(f.rec.events))
	set("obs.flow_events", float64(f.rec.flowEvents))
	set("obs.decision_events", float64(f.rec.decisionEvents))
	set("obs.overhead_pct", median(ovh))
	set("gc.cycles", float64(f.a.mem.gcCycles))
	set("gc.pause_ms", float64(f.a.mem.pauseNs)/1e6)
	logf("%d traced rounds; untraced wall %.3fs, sched %.1f%%, replay %.3fs",
		rounds, median(wallA), 100*busy/median(wallA), median(replayS))
	return &report{Correct: c.finish(), Attempted: int64(f.a.attempted), Failed: int64(f.a.failed), Metrics: m}, nil
}

// tracedRound is one clocked pass, one observed pass and one replay of
// the same instance.
type tracedRound struct {
	a, traced        simPass
	calls            int
	mapBusy, redBusy float64
	assignRatio      float64
	meanJCT          float64
	nodeLocalPct     float64
	preemptions      int
	rejected         int
	steadyP99        float64
	rec              recorder // summed over the simulations
	replay           replayStats
}

func tracedSimRound(w simWorkload, seed int64, clock *decisionClock, c *checks) (tracedRound, error) {
	var r tracedRound
	inst, err := w.setup(seed, clock)
	if err != nil {
		return r, err
	}
	if r.a, err = runPass(w, inst, clock, c); err != nil {
		return r, err
	}
	r.calls = clock.calls()
	r.mapBusy, r.redBusy = clock.mapNs.busy(), clock.redNs.busy()
	r.assignRatio = clock.assignRatio()
	var jct float64
	var finished, local, maps int
	for _, res := range r.a.results {
		for _, j := range res.Jobs {
			if j.Finished() {
				jct += j.Completion
				finished++
			}
		}
		local += res.MapLocality.Node
		maps += res.MapLocality.Total()
		r.preemptions += res.Preemptions
		r.rejected += res.RejectedJobs
		if res.OpenSystem {
			r.steadyP99 = metrics.NewCDF(res.SteadyJCTs()).Quantile(0.99)
		}
	}
	if finished > 0 {
		r.meanJCT = jct / float64(finished)
	}
	if maps > 0 {
		r.nodeLocalPct = 100 * float64(local) / float64(maps)
	}

	// The observed pass: same instance, a recorder on every simulation.
	inst, err = w.setup(seed, clock)
	if err != nil {
		return r, err
	}
	recs := make([]*recorder, len(inst.sims))
	for i, s := range inst.sims {
		recs[i] = &recorder{}
		if err := s.Attach(recs[i]); err != nil {
			return r, err
		}
	}
	if r.traced, err = runPass(w, inst, clock, c); err != nil {
		return r, err
	}
	c.expect(r.traced.events == r.a.events, "observed pass fired %d events, unobserved %d", r.traced.events, r.a.events)
	for i, res := range r.traced.results {
		rec := recs[i]
		c.expect(rec.jobFinishes == finishedJobs(res), "simulation %d: %d job_finish events for %d finished jobs", i, rec.jobFinishes, finishedJobs(res))
		r.rec.events += rec.events
		r.rec.flowEvents += rec.flowEvents
		r.rec.rateEvents += rec.rateEvents
		r.rec.decisionEvents += rec.decisionEvents
		st, err := replayFlows(inst.specs[i], rec.flows)
		if err != nil {
			return r, fmt.Errorf("replay of simulation %d: %w", i, err)
		}
		c.expect(st.unfinishedFlows == 0, "replay of simulation %d left %d transfers unfinished", i, st.unfinishedFlows)
		r.replay.add(st)
	}
	if inst.verify != nil {
		if err := inst.verify(r.a.results, c); err != nil {
			return r, err
		}
	}
	return r, nil
}

func finishedJobs(res *engine.Result) int {
	n := 0
	for _, j := range res.Jobs {
		if j.Finished() {
			n++
		}
	}
	return n
}
