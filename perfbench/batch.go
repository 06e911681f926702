package main

import (
	"mapsched/internal/engine"
	"mapsched/internal/experiments"
	"mapsched/internal/workload"
)

// batchScale is the workload scale cmd/experiments uses for quick runs.
const batchScale = 12

// batch is the paper's testbed as cmd/experiments runs it: the three
// Table II batches under the three compared schedulers, nine
// simulations and 90 jobs per instance.
var batch = simWorkload{setup: setupBatch, check: checkBatch}

func runBatch(o runOpts, traced bool) (*report, error) {
	if traced {
		return runSimTraced(batch, o)
	}
	return measureUntraced(batch.untraced(), o)
}

func setupBatch(seed int64, clock *decisionClock) (*simInstance, error) {
	s := experiments.DefaultSetup()
	s.Workload.Scale = batchScale
	s.Engine.Seed = seed
	inst := &simInstance{}
	for _, k := range experiments.SchedulerKinds() {
		for _, kind := range workload.Kinds() {
			specs, err := workload.Specs(workload.Batch(kind), s.Workload)
			if err != nil {
				return nil, err
			}
			sim, err := engine.New(s.Engine, specs, clock.wrap(s.BuilderFor(k)))
			if err != nil {
				return nil, err
			}
			inst.sims = append(inst.sims, sim)
			inst.specs = append(inst.specs, s.Engine.Topology)
		}
	}
	return inst, nil
}

// checkBatch: every job of every simulation finishes.
func checkBatch(_ *simInstance, results []*engine.Result, c *checks) (attempted, failed int) {
	for i, res := range results {
		done := finishedJobs(res)
		attempted += len(res.Jobs)
		failed += len(res.Jobs) - done
		c.expect(len(res.Jobs) == len(workload.Batch(workload.Kinds()[i%3])), "simulation %d ran %d jobs", i, len(res.Jobs))
		c.expect(done == len(res.Jobs) && res.Unfinished == 0 && res.FailedJobs == 0,
			"simulation %d: %d of %d jobs finished (%d unfinished, %d failed)", i, done, len(res.Jobs), res.Unfinished, res.FailedJobs)
	}
	return attempted, failed
}
