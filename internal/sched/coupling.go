package sched

import (
	"fmt"
	"math"

	"mapsched/internal/job"
	"mapsched/internal/obs"
	"mapsched/internal/placement"
	"mapsched/internal/topology"
)

// CouplingConfig tunes the Coupling Scheduler baseline (Tan et al.,
// INFOCOM'13), reconstructed from the paper's own description of it:
// probabilistic map launches on a coarse locality granularity, reduce
// launches paced by map progress and aimed at the data-"centrality" node,
// waiting at most MaxWaitRounds heartbeats before settling for the
// offered slot.
type CouplingConfig struct {
	// PLocal, PRack, PRemote are the launch probabilities for a map task
	// offered a slot at each locality degree — the "coarse granularity of
	// locations that differentiates data locations by local machines, the
	// same rack and different racks".
	PLocal, PRack, PRemote float64
	// MaxWaitRounds bounds how many offers a reduce task declines while
	// waiting for its centrality node ("can wait at most three rounds of
	// heartbeats before being assigned").
	MaxWaitRounds int
	// JobPolicy orders jobs.
	JobPolicy JobPolicy
}

// DefaultCouplingConfig returns the baseline settings.
func DefaultCouplingConfig() CouplingConfig {
	return CouplingConfig{
		PLocal:        1.0,
		PRack:         0.35,
		PRemote:       0.1,
		MaxWaitRounds: 3,
		JobPolicy:     FairJobs,
	}
}

// Coupling is the Coupling Scheduler baseline.
type Coupling struct {
	env   Env
	cfg   CouplingConfig
	dec   *placement.Decider
	waits map[*job.ReduceTask]int
}

// NewCoupling returns a Builder for the baseline.
func NewCoupling(cfg CouplingConfig) Builder {
	return func(env Env) Scheduler {
		dec := placement.NewDecider(env.Place, placement.Config{Naive: true}, env.RNG, env.Obs)
		return &Coupling{env: env, cfg: cfg, dec: dec, waits: make(map[*job.ReduceTask]int)}
	}
}

// Name implements Scheduler.
func (c *Coupling) Name() string {
	return fmt.Sprintf("coupling(wait=%d)", c.cfg.MaxWaitRounds)
}

// AssignMap launches a randomly picked pending map with a probability set
// by the offered node's locality degree for that task.
func (c *Coupling) AssignMap(ctx *Context, node topology.NodeID) *job.MapTask {
	for _, j := range orderJobs(ctx, c.cfg.JobPolicy, mapKind) {
		pending := j.PendingMaps()
		if len(pending) == 0 {
			continue
		}
		// Prefer a local task if one exists (any reasonable implementation
		// does); otherwise draw a random candidate and gate on locality.
		var m *job.MapTask
		for _, cand := range pending {
			if c.dec.Locality(cand, node) == job.LocalNode {
				m = cand
				break
			}
		}
		if m == nil {
			m = pending[c.dec.Intn(len(pending))]
		}
		loc := c.dec.Locality(m, node)
		var p float64
		switch loc {
		case job.LocalNode:
			p = c.cfg.PLocal
		case job.LocalRack:
			p = c.cfg.PRack
		default:
			p = c.cfg.PRemote
		}
		if c.dec.Bernoulli(p) {
			if c.env.Obs.Enabled() {
				e := decisionEvent(obs.TaskAssign, ctx.Now, node, j, "map", m.Index)
				e.Locality = loc.String()
				e.Decision = &obs.Decision{P: p, Draw: "accept"}
				c.env.Obs.Emit(e)
			}
			return m
		}
		if c.env.Obs.Enabled() {
			e := decisionEvent(obs.TaskSkip, ctx.Now, node, j, "map", m.Index)
			e.Locality = loc.String()
			e.Decision = &obs.Decision{P: p, Draw: "decline"}
			e.Reason = "locality_draw"
			c.env.Obs.Emit(e)
		}
		// Declined for this job: the job-level scheduler offers the slot
		// to the next job in fair order.
	}
	return nil
}

// emitReduce publishes a coupling reduce assignment and passes it through.
func (c *Coupling) emitReduce(ctx *Context, node topology.NodeID, r *job.ReduceTask, reason string) *job.ReduceTask {
	if c.env.Obs.Enabled() {
		e := decisionEvent(obs.TaskAssign, ctx.Now, node, r.Job, "reduce", r.Index)
		e.Reason = reason
		c.env.Obs.Emit(e)
	}
	return r
}

// AssignReduce paces reduce launches with map progress and places each
// launched reduce at the data-centrality node computed from the *current*
// intermediate sizes (the unscaled A_jf view the paper criticizes),
// falling back to the offered node after MaxWaitRounds declined offers.
func (c *Coupling) AssignReduce(ctx *Context, node topology.NodeID) *job.ReduceTask {
	for _, j := range orderJobs(ctx, c.cfg.JobPolicy, reduceKind) {
		if j.HasReduceOn(node) {
			continue // the coupling scheduler also spreads reduces [5,15]
		}
		// Pacing: allow roughly MapProgress × NumReduces launched reduces.
		_, running := j.RunningTasks()
		launched := running + j.DoneReds
		allowed := int(math.Ceil(j.MapProgress() * float64(j.NumReduces())))
		if launched >= allowed {
			continue
		}
		pending := j.PendingReduces()
		if len(pending) == 0 {
			continue
		}
		// Choose the pending reduce with the largest current data volume —
		// the one whose placement matters most right now.
		rc := c.dec.CurrentCoster(ctx.request(), j)
		best := pending[0]
		bestVol := rc.TotalEstimated(best.Index)
		for _, r := range pending[1:] {
			if v := rc.TotalEstimated(r.Index); v > bestVol {
				bestVol = v
				best = r
			}
		}
		central, ok := rc.Centrality(best.Index, ctx.AvailReduce.Nodes)
		if !ok {
			continue
		}
		if central == node || bestVol == 0 {
			delete(c.waits, best)
			return c.emitReduce(ctx, node, best, "centrality")
		}
		// Not the centrality node: wait, up to the bound.
		if c.waits[best] >= c.cfg.MaxWaitRounds {
			delete(c.waits, best)
			return c.emitReduce(ctx, node, best, "wait_expired")
		}
		c.waits[best]++
		if c.env.Obs.Enabled() {
			e := decisionEvent(obs.TaskSkip, ctx.Now, node, j, "reduce", best.Index)
			e.Reason = "wait_centrality"
			c.env.Obs.Emit(e)
		}
		return nil
	}
	return nil
}
