package sched

import (
	"fmt"

	"mapsched/internal/job"
	"mapsched/internal/placement"
	"mapsched/internal/topology"
)

// CapacityConfig tunes the Capacity Scheduler baseline, reconstructed
// from the paper's description of it (Section IV): "it gives a higher
// priority to a job that can achieve higher data locality when assigning
// available slot resources in the map task allocation and delays reduce
// tasks to achieve data locality in the reduce task allocation".
type CapacityConfig struct {
	// JobPolicy orders jobs within the (single) queue; the real scheduler
	// runs FIFO inside each capacity queue.
	JobPolicy JobPolicy
	// ReduceWait bounds how many offers a reduce declines waiting for a
	// node that holds part of its input.
	ReduceWait int
}

// DefaultCapacityConfig returns the baseline settings.
func DefaultCapacityConfig() CapacityConfig {
	return CapacityConfig{JobPolicy: FIFOJobs, ReduceWait: 4}
}

// Capacity is the Capacity Scheduler baseline (single queue).
type Capacity struct {
	env   Env
	cfg   CapacityConfig
	dec   *placement.Decider
	waits map[*job.ReduceTask]int
}

// NewCapacity returns a Builder for the baseline.
func NewCapacity(cfg CapacityConfig) Builder {
	return func(env Env) Scheduler {
		dec := placement.NewDecider(env.Place, placement.Config{Naive: true}, env.RNG, env.Obs)
		return &Capacity{env: env, cfg: cfg, dec: dec, waits: make(map[*job.ReduceTask]int)}
	}
}

// Name implements Scheduler.
func (c *Capacity) Name() string {
	return fmt.Sprintf("capacity(%s,wait=%d)", c.cfg.JobPolicy, c.cfg.ReduceWait)
}

// AssignMap prioritizes the job that achieves the best locality on the
// offered node: any job with a node-local task wins (in queue order),
// then any with a rack-local task, then the head job's first pending map.
func (c *Capacity) AssignMap(ctx *Context, node topology.NodeID) *job.MapTask {
	jobs := orderJobs(ctx, c.cfg.JobPolicy, mapKind)
	if len(jobs) == 0 {
		return nil
	}
	var rackChoice *job.MapTask
	for _, j := range jobs {
		for _, m := range j.PendingMaps() {
			switch c.dec.Locality(m, node) {
			case job.LocalNode:
				return m
			case job.LocalRack:
				if rackChoice == nil {
					rackChoice = m
				}
			}
		}
	}
	if rackChoice != nil {
		return rackChoice
	}
	return jobs[0].PendingMaps()[0]
}

// AssignReduce delays each reduce until the offered node holds some of
// its input, up to the wait bound.
func (c *Capacity) AssignReduce(ctx *Context, node topology.NodeID) *job.ReduceTask {
	for _, j := range orderJobs(ctx, c.cfg.JobPolicy, reduceKind) {
		pending := j.PendingReduces()
		if len(pending) == 0 {
			continue
		}
		rc := c.dec.CurrentCoster(ctx.request(), j)
		best := pending[0]
		bestOn := rc.OnNode(node, best.Index)
		for _, r := range pending[1:] {
			if v := rc.OnNode(node, r.Index); v > bestOn {
				bestOn = v
				best = r
			}
		}
		if bestOn > 0 || rc.TotalEstimated(best.Index) == 0 {
			delete(c.waits, best)
			return best
		}
		if c.waits[best] >= c.cfg.ReduceWait {
			delete(c.waits, best)
			return best
		}
		c.waits[best]++
		return nil
	}
	return nil
}
