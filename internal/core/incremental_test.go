package core

import (
	"math"
	"sort"
	"testing"

	"mapsched/internal/hdfs"
	"mapsched/internal/job"
	"mapsched/internal/sim"
	"mapsched/internal/topology"
)

// churnSetup builds a multi-rack cluster with a randomly placed job for
// the cache-equivalence tests.
func churnSetup(t *testing.T, mode Mode, seed int64) (*sim.Engine, *topology.Cluster, *CostModel, *job.Job) {
	t.Helper()
	eng := sim.NewEngine()
	spec := topology.DefaultSpec()
	spec.Racks = 3
	spec.NodesPerRack = 8
	cl, err := topology.NewCluster(eng, spec)
	if err != nil {
		t.Fatal(err)
	}
	store := hdfs.NewStore(cl, sim.NewRNG(seed))
	prof := job.Profile{
		Name: "churn", MapSelectivity: 1, MapRate: 1e6, ReduceRate: 1e6,
		PartitionSkew: 0.5, SelectivityJitter: 0.2, OutputCurveSpread: 0.3,
	}
	j, err := job.New(1, job.Spec{
		Name: "churn", Profile: prof, InputBytes: 40 * 64e6, BlockSize: 64e6,
		NumReduces: 7, Replication: 2,
	}, store, sim.NewRNG(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	var rate topology.RateObserver
	if mode == ModeNetworkCondition {
		rate = cl
	}
	cm, err := NewCostModel(cl, store, rate, mode)
	if err != nil {
		t.Fatal(err)
	}
	return eng, cl, cm, j
}

// churnMaps applies one round of random task-state churn: launches,
// progress advances, completions, failure-style reverts to pending, and
// speculation-style node moves.
func churnMaps(j *job.Job, n int, rng *sim.RNG, nodes int) {
	for i := 0; i < len(j.Maps); i++ {
		if rng.Float64() > 0.4 {
			continue
		}
		m := j.Maps[rng.Intn(len(j.Maps))]
		switch rng.Intn(5) {
		case 0: // launch or relocate
			m.State = job.TaskRunning
			m.Node = topology.NodeID(rng.Intn(nodes))
			m.Progress = rng.Float64()
		case 1: // progress advance
			if m.State == job.TaskRunning {
				m.Progress = math.Min(1, m.Progress+rng.Float64()*0.3)
			}
		case 2: // finish
			if m.State == job.TaskRunning {
				m.State = job.TaskDone
				m.Progress = 1
			}
		case 3: // node failure: task reverts to pending
			m.State = job.TaskPending
			m.Node = -1
			m.Progress = 0
		case 4: // speculation win on another node
			if m.State == job.TaskRunning {
				m.Node = topology.NodeID(rng.Intn(nodes))
			}
		}
	}
}

// randomAvail draws a sorted non-empty subset of nodes.
func randomAvail(rng *sim.RNG, nodes int) []topology.NodeID {
	var out []topology.NodeID
	for k := 0; k < nodes; k++ {
		if rng.Float64() < 0.5 {
			out = append(out, topology.NodeID(k))
		}
	}
	if len(out) == 0 {
		out = append(out, topology.NodeID(rng.Intn(nodes)))
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// requireCostersEqual asserts that a refreshed coster and a freshly built
// one are bit-identical in every observable: costs, averages, residency
// and totals.
func requireCostersEqual(t *testing.T, round int, got, want *ReduceCoster, nodes int, rng *sim.RNG) {
	t.Helper()
	if !equalNodes(got.nodes, want.nodes) {
		t.Fatalf("round %d: node sets differ: %v vs %v", round, got.nodes, want.nodes)
	}
	nf := got.j.NumReduces()
	for f := 0; f < nf; f++ {
		for i := 0; i < nodes; i++ {
			n := topology.NodeID(i)
			if a, b := got.Cost(n, f), want.Cost(n, f); a != b {
				t.Fatalf("round %d: Cost(%d,%d) = %v, fresh build says %v", round, n, f, a, b)
			}
			if a, b := got.OnNode(n, f), want.OnNode(n, f); a != b {
				t.Fatalf("round %d: OnNode(%d,%d) = %v, fresh build says %v", round, n, f, a, b)
			}
		}
		if a, b := got.TotalEstimated(f), want.TotalEstimated(f); a != b {
			t.Fatalf("round %d: TotalEstimated(%d) = %v, fresh build says %v", round, f, a, b)
		}
		avail := NewAvail(randomAvail(rng, nodes))
		if a, b := got.CostAvg(f, avail), want.CostAvg(f, avail); a != b {
			t.Fatalf("round %d: CostAvg(%d) = %v, fresh build says %v", round, f, a, b)
		}
	}
}

// TestRefreshMatchesRebuild drives random task churn through an
// incrementally refreshed ReduceCoster and checks it stays bit-identical
// to a coster built from scratch at every step, for each built-in
// estimator.
func TestRefreshMatchesRebuild(t *testing.T) {
	for _, est := range []Estimator{ProgressScaled{}, CurrentSize{}, Oracle{}} {
		t.Run(est.Name(), func(t *testing.T) {
			_, cl, cm, j := churnSetup(t, ModeHops, 21)
			rng := sim.NewRNG(33)
			rc := cm.NewReduceCoster(j, est)
			for round := 0; round < 60; round++ {
				churnMaps(j, 10, rng, cl.Size())
				rc.Refresh()
				requireCostersEqual(t, round, rc, cm.NewReduceCoster(j, est), cl.Size(), rng)
			}
		})
	}
}

// nonScalar hides the ScalarEstimator factorization, forcing Refresh down
// the full-rebuild fallback.
type nonScalar struct{}

func (nonScalar) Name() string { return "non-scalar" }
func (nonScalar) EstimateOutput(m *job.MapTask, f int) float64 {
	return ProgressScaled{}.EstimateOutput(m, f)
}

// TestRefreshFallsBackWithoutScalarEstimator checks the generic-estimator
// path: Refresh must still equal a fresh build.
func TestRefreshFallsBackWithoutScalarEstimator(t *testing.T) {
	_, cl, cm, j := churnSetup(t, ModeHops, 5)
	rng := sim.NewRNG(6)
	est := nonScalar{}
	if _, ok := Estimator(est).(ScalarEstimator); ok {
		t.Fatal("test estimator unexpectedly scalar")
	}
	rc := cm.NewReduceCoster(j, est)
	for round := 0; round < 20; round++ {
		churnMaps(j, 10, rng, cl.Size())
		rc.Refresh()
		requireCostersEqual(t, round, rc, cm.NewReduceCoster(j, est), cl.Size(), rng)
	}
}

// TestReduceCosterAvgTracksNetworkEpoch pins the invalidation rule in
// network-condition mode: CostAvg must follow rate changes caused by flow
// churn instead of serving stale distance sums.
func TestReduceCosterAvgTracksNetworkEpoch(t *testing.T) {
	eng, cl, cm, j := churnSetup(t, ModeNetworkCondition, 9)
	rng := sim.NewRNG(10)
	churnMaps(j, 10, rng, cl.Size())
	rc := cm.NewReduceCoster(j, ProgressScaled{})
	avail := randomAvail(rng, cl.Size())
	naive := func(f int) float64 {
		var sum float64
		for _, k := range avail {
			sum += rc.Cost(k, f)
		}
		return sum / float64(len(avail))
	}
	const f = 0
	if got, want := rc.CostAvg(f, NewAvail(avail)), naive(f); math.Abs(got-want) > 1e-9*math.Abs(want) {
		t.Fatalf("CostAvg = %v, want %v", got, want)
	}
	// Congest the network: path rates, hence distances, change.
	for i := 0; i < 30; i++ {
		src := topology.NodeID(rng.Intn(cl.Size()))
		dst := topology.NodeID(rng.Intn(cl.Size()))
		if src != dst {
			cl.Transfer(src, dst, 5e6, nil)
		}
	}
	for i := 0; i < 20; i++ {
		eng.Step()
	}
	if got, want := rc.CostAvg(f, NewAvail(avail)), naive(f); math.Abs(got-want) > 1e-9*math.Abs(want) {
		t.Fatalf("after churn: CostAvg = %v, want %v (stale cache?)", got, want)
	}
}

// hideEpoch strips the Epoch method from a rate observer, simulating a
// custom observer with unknown dynamics.
type hideEpoch struct{ r topology.RateObserver }

func (h hideEpoch) PathRate(a, b topology.NodeID) float64 { return h.r.PathRate(a, b) }

func (h hideEpoch) MaxPathRates(replicas []topology.NodeID, out []float64) {
	h.r.MaxPathRates(replicas, out)
}

// TestMapCosterMatchesNaive checks the cached Formula 1 path against the
// direct computation, bit for bit, across distance modes, epoch churn and
// changing avail sets — including the no-epoch-signal fallback. The
// network-condition cases run on three racks with host links severed and
// restored along the way.
func TestMapCosterMatchesNaive(t *testing.T) {
	cases := []struct {
		name string
		mode Mode
		hide bool
	}{
		{"hops", ModeHops, false},
		{"netcond", ModeNetworkCondition, false},
		{"netcond-no-epoch", ModeNetworkCondition, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, cl, cm, j := churnSetup(t, tc.mode, 13)
			if tc.hide {
				var err error
				cm, err = NewCostModel(cl, cm.store, hideEpoch{cl}, tc.mode)
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := cm.DistanceEpoch(); ok {
					t.Fatal("epoch unexpectedly available")
				}
			}
			mc := cm.NewMapCoster()
			rng := sim.NewRNG(14)
			for round := 0; round < 25; round++ {
				if tc.mode == ModeNetworkCondition && round%3 == 0 {
					src := topology.NodeID(rng.Intn(cl.Size()))
					dst := topology.NodeID(rng.Intn(cl.Size()))
					if src != dst {
						cl.Transfer(src, dst, 2e6, nil)
					}
					for i := 0; i < 5 && eng.Pending() > 0; i++ {
						eng.Step()
					}
				}
				if tc.mode == ModeNetworkCondition && round%4 == 1 {
					cl.SetHostLinkFactor(topology.NodeID(rng.Intn(cl.Size())), float64(rng.Intn(2)))
				}
				avail := randomAvail(rng, cl.Size())
				for _, m := range j.Maps {
					for n := topology.NodeID(0); int(n) < cl.Size(); n++ {
						if got, want := mc.Cost(m, n), cm.MapCost(m, n); got != want {
							t.Fatalf("round %d: Cost(m%d,%d) = %v, naive %v", round, m.Index, n, got, want)
						}
					}
					if got, want := mc.CostAvg(m, NewAvail(avail)), cm.MapCostAvg(m, avail); got != want {
						t.Fatalf("round %d: CostAvg(m%d) = %v, naive %v", round, m.Index, got, want)
					}
				}
			}
			if mc.Len() != len(j.Maps) {
				t.Fatalf("cached rows = %d, want %d", mc.Len(), len(j.Maps))
			}
			mc.Forget(j)
			if mc.Len() != 0 {
				t.Fatalf("Forget left %d rows", mc.Len())
			}
		})
	}
}

// TestSelectMapTaskWithMatchesDirect checks Algorithm 1 end to end: the
// cached evaluator must pick the same task with the same probability and
// costs as the uncached one.
func TestSelectMapTaskWithMatchesDirect(t *testing.T) {
	_, cl, cm, j := churnSetup(t, ModeHops, 17)
	mc := cm.NewMapCoster()
	rng := sim.NewRNG(18)
	for round := 0; round < 20; round++ {
		avail := NewAvail(randomAvail(rng, cl.Size()))
		node := topology.NodeID(rng.Intn(cl.Size()))
		a, okA := SelectMapTask(cm, nil, j.Maps, node, avail)
		b, okB := SelectMapTaskWith(mc, nil, j.Maps, node, avail)
		if okA != okB {
			t.Fatalf("round %d: ok %v vs %v", round, okA, okB)
		}
		if !okA {
			continue
		}
		if a.Best != b.Best {
			t.Fatalf("round %d: best differs: %+v vs %+v", round, a.Best, b.Best)
		}
		if a.Local != b.Local {
			t.Fatalf("round %d: local differs: %+v vs %+v", round, a.Local, b.Local)
		}
	}
}
