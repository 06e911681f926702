package core

import (
	"math"
	"testing"

	"mapsched/internal/job"
	"mapsched/internal/sim"
	"mapsched/internal/topology"
)

// selectReducePerTask is the per-task reference for SelectReduceTask:
// Algorithm 2's candidate loop as first written, with one Cost and one
// CostAvg call and one model evaluation per pending task. The production
// selection sweeps the coster's rows once for all tasks and must agree
// with it bit for bit.
func selectReducePerTask(rc *ReduceCoster, model ProbabilityModel, tasks []*job.ReduceTask, i topology.NodeID, avail Avail) (best Choice, ok bool) {
	if model == nil {
		model = Exponential{}
	}
	for _, r := range tasks {
		if r.State != job.TaskPending {
			continue
		}
		cost := rc.Cost(i, r.Index)
		if math.IsInf(cost, 1) {
			continue
		}
		avg := rc.CostAvg(r.Index, avail)
		c := Choice{ReduceTask: r, Prob: model.Prob(avg, cost), Cost: cost, AvgCost: avg}
		if !ok || c.Saving() > best.Saving() {
			best = c
			ok = true
		}
	}
	return best, ok
}

// requireSameChoice asserts two reduce selections agree on the chosen
// task and, bit for bit, on its cost, average and probability.
func requireSameChoice(t *testing.T, ctx string, got Choice, gotOK bool, want Choice, wantOK bool) {
	t.Helper()
	if gotOK != wantOK {
		t.Fatalf("%s: ok = %v, per-task reference says %v", ctx, gotOK, wantOK)
	}
	if !gotOK {
		return
	}
	if got.ReduceTask != want.ReduceTask {
		t.Fatalf("%s: chose R%d, per-task reference chose R%d", ctx, got.ReduceTask.Index, want.ReduceTask.Index)
	}
	for _, f := range []struct {
		name string
		a, b float64
	}{{"Cost", got.Cost, want.Cost}, {"AvgCost", got.AvgCost, want.AvgCost}, {"Prob", got.Prob, want.Prob}} {
		if math.Float64bits(f.a) != math.Float64bits(f.b) {
			t.Fatalf("%s: %s = %v, per-task reference says %v", ctx, f.name, f.a, f.b)
		}
	}
}

// TestSelectReduceTaskMatchesPerTask drives random map churn, reduce
// launches, avail sets and offered nodes through SelectReduceTask and
// the per-task reference, for every probability model under a scalar
// and a non-scalar estimator, in hop mode and in network-condition mode
// with severed host links (+Inf costs). Paired partitions share their
// output column, so exact Saving ties occur on every offer; empty avail
// sets and non-pending tasks interleaved with pending ones are mixed in.
func TestSelectReduceTaskMatchesPerTask(t *testing.T) {
	for _, mode := range []Mode{ModeHops, ModeNetworkCondition} {
		for _, est := range []Estimator{ProgressScaled{}, nonScalar{}} {
			for _, model := range Models() {
				name := mode.String() + "/" + est.Name() + "/" + model.Name()
				t.Run(name, func(t *testing.T) {
					_, cl, cm, j := churnSetup(t, mode, 41)
					for _, m := range j.Maps {
						for f := 1; f < len(m.Out); f += 2 {
							m.Out[f] = m.Out[f-1] // R(f-1) and R(f) tie exactly
						}
					}
					rng := sim.NewRNG(42)
					rc := cm.NewReduceCoster(j, est)
					ties, severed := 0, 0
					for round := 0; round < 40; round++ {
						churnMaps(j, 10, rng, cl.Size())
						for _, r := range j.Reduces {
							r.State = job.TaskPending
							if rng.Float64() < 0.3 {
								r.State = job.TaskRunning
							}
						}
						if mode == ModeNetworkCondition {
							for n := 0; n < cl.Size(); n++ {
								factor := 1.0
								if rng.Float64() < 0.15 {
									factor = 0
								}
								cl.SetHostLinkFactor(topology.NodeID(n), factor)
							}
						}
						rc.Refresh()
						avail := NewAvail(randomAvail(rng, cl.Size()))
						if round%7 == 0 {
							avail = NewAvail(nil)
						}
						node := topology.NodeID(rng.Intn(cl.Size()))
						got, gotOK := SelectReduceTask(rc, model, j.Reduces, node, avail)
						want, wantOK := selectReducePerTask(rc, model, j.Reduces, node, avail)
						requireSameChoice(t, name, got, gotOK, want, wantOK)
						for _, r := range j.Reduces {
							if r.State == job.TaskPending && math.IsInf(rc.Cost(node, r.Index), 1) {
								severed++
								break
							}
						}
						if gotOK {
							if k := got.ReduceTask.Index; k%2 == 0 && k+1 < len(j.Reduces) && j.Reduces[k+1].State == job.TaskPending {
								ties++
							}
						}
					}
					if ties == 0 {
						t.Fatal("no offer exercised an exact Saving tie")
					}
					if mode == ModeNetworkCondition && severed == 0 {
						t.Fatal("no offer met an unreachable (+Inf) candidate")
					}
				})
			}
		}
	}
}

// TestSelectReduceTaskSkipsNonPending checks the pending filter alone:
// launched tasks are never chosen, and a task list with nothing pending
// selects nothing.
func TestSelectReduceTaskSkipsNonPending(t *testing.T) {
	cm, j := fig2Setup(t)
	j.Maps[0].State = job.TaskDone
	j.Maps[0].Node = 2
	j.Maps[1].State = job.TaskDone
	j.Maps[1].Node = 1
	rc := cm.NewReduceCoster(j, Oracle{})
	avail := NewAvail([]topology.NodeID{0, 1, 2, 3})
	best, ok := SelectReduceTask(rc, nil, j.Reduces, 1, avail)
	if !ok {
		t.Fatal("no reduce selected")
	}
	best.ReduceTask.State = job.TaskRunning
	other, ok := SelectReduceTask(rc, nil, j.Reduces, 1, avail)
	if !ok || other.ReduceTask == best.ReduceTask {
		t.Fatalf("launched R%d selected again (ok=%v)", best.ReduceTask.Index+1, ok)
	}
	other.ReduceTask.State = job.TaskDone
	if c, ok := SelectReduceTask(rc, nil, j.Reduces, 1, avail); ok {
		t.Fatalf("nothing pending, yet R%d selected", c.ReduceTask.Index+1)
	}
}
