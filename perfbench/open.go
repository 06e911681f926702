package main

import (
	"fmt"

	"mapsched"
	"mapsched/internal/engine"
	"mapsched/internal/experiments"
	"mapsched/internal/sched"
	"mapsched/internal/sim"
	"mapsched/internal/topology"
	"mapsched/internal/workload"
)

const (
	openScale = 12
	openRho   = 0.9 // offered load as a share of the binding slot pool
)

// open is the facade's default cluster (hop-count costs, no cross
// traffic) in open-system mode: the three tenants of the ρ-sweep at
// ρ=0.9 over a 600 s arrival horizon with preemption on.
var open = simWorkload{setup: setupOpen, check: checkOpen}

func runOpen(o runOpts, traced bool) (*report, error) {
	if traced {
		return runSimTraced(open, o)
	}
	return measureUntraced(open.untraced(), o)
}

// openInputs derives the cluster, plan and calibrated tenants.
func openInputs() (mapsched.ClusterConfig, workload.Options, workload.ArrivalPlan, []workload.Tenant) {
	cfg := mapsched.DefaultClusterConfig()
	wo := workload.Options{Scale: openScale, Replication: 2, SubmitStagger: 1}
	plan := experiments.OpenPlan(cfg.Topology.Racks * cfg.Topology.NodesPerRack)
	tenants := experiments.CalibrateRates(experiments.OpenTenants(), openRho,
		experiments.Setup{Engine: cfg, Workload: wo})
	return cfg, wo, plan, tenants
}

// setupOpen builds the simulation mapsched.New builds for the same
// options (WithSeed, WithScale, WithArrivals, WithTenants, probabilistic
// scheduler), but through engine.New so the scheduler can be clocked.
// The traced run checks the two are the same simulation.
func setupOpen(seed int64, clock *decisionClock) (*simInstance, error) {
	cfg, wo, plan, tenants := openInputs()
	cfg.Seed = seed
	arr, err := workload.BuildArrivals(plan, tenants, seed, wo)
	if err != nil {
		return nil, err
	}
	sys := engine.OpenSystem{MaxActive: plan.MaxActive, Preempt: plan.Preempt, Warmup: plan.Warmup}
	for _, t := range tenants {
		sys.Tenants = append(sys.Tenants, engine.TenantPolicy{Name: t.Name, Weight: t.Weight, QueueCap: t.QueueCap})
	}
	for _, a := range arr {
		sys.Arrivals = append(sys.Arrivals, engine.Arrival{At: sim.Time(a.At), Tenant: a.Tenant, Spec: a.Spec})
	}
	cfg.Open = sys
	pc := sched.DefaultProbabilisticConfig()
	pc.Pmin = 0.4
	s, err := engine.New(cfg, nil, clock.wrap(sched.NewProbabilistic(pc)))
	if err != nil {
		return nil, err
	}
	return &simInstance{
		sims:   []*engine.Simulation{s},
		specs:  []topology.Spec{cfg.Topology},
		verify: func(res []*engine.Result, c *checks) error { return verifyOpenFacade(seed, res[0], c) },
	}, nil
}

// verifyOpenFacade runs the same instance through the public entry point
// and checks it is the simulation the benchmark measured.
func verifyOpenFacade(seed int64, want *engine.Result, c *checks) error {
	cfg, _, plan, tenants := openInputs()
	s, err := mapsched.New(cfg, nil, mapsched.SchedulerProbabilistic,
		mapsched.WithSeed(seed), mapsched.WithScale(openScale),
		mapsched.WithArrivals(plan), mapsched.WithTenants(tenants...))
	if err != nil {
		return fmt.Errorf("facade: %w", err)
	}
	got, err := s.Run()
	if err != nil {
		return fmt.Errorf("facade: %w", err)
	}
	c.expect(got.Events == want.Events && finishedJobs(got) == finishedJobs(want) &&
		got.RejectedJobs == want.RejectedJobs && got.Preemptions == want.Preemptions,
		"mapsched.New differs from the measured simulation: events %d/%d, finished %d/%d, rejected %d/%d, preempted %d/%d",
		got.Events, want.Events, finishedJobs(got), finishedJobs(want), got.RejectedJobs, want.RejectedJobs, got.Preemptions, want.Preemptions)
	return nil
}

// checkOpen: arrivals add up to completed + rejected + unfinished, where
// unfinished counts jobs admitted but not done and jobs still queued.
// Unfinished and failed jobs are failures; rejections are the admission
// policy working and are reported, not failed.
func checkOpen(_ *simInstance, results []*engine.Result, c *checks) (attempted, failed int) {
	for _, res := range results {
		var arrived, completed, rejected, failedJobs, queued int
		for _, t := range res.Tenants {
			arrived += t.Arrived
			completed += t.Completed
			rejected += t.Rejected
			failedJobs += t.Failed
			queued += t.QueuedAtEnd
		}
		unfinished := res.Unfinished + queued
		c.expect(arrived > 0 && arrived == completed+rejected+failedJobs+unfinished,
			"arrivals %d != completed %d + rejected %d + failed %d + unfinished %d", arrived, completed, rejected, failedJobs, unfinished)
		c.expect(completed == finishedJobs(res), "tenants completed %d jobs, result lists %d finished", completed, finishedJobs(res))
		attempted += arrived
		failed += failedJobs + unfinished
	}
	return attempted, failed
}
