package core

import (
	"math"
	"sort"

	"mapsched/internal/hdfs"
	"mapsched/internal/job"
	"mapsched/internal/topology"
)

// MapCoster caches Formula 1 evaluations across scheduling rounds. For
// each input block it precomputes the nearest-replica distance
// min_{l: L_lj=1} h_il — per candidate node in general, or per distance
// class when the network collapses into classes — and for the avail-node
// set of the current round it caches the per-block cost sum feeding
// C_avg. A row only goes stale when the distance matrix changes or a
// block loses a replica — both of which the CostModel's DistanceEpoch
// signals exactly (it folds the flow network's rate-recompute epoch
// together with the store's replica-mutation epoch; hop distances never
// change and replica sets only shrink under faults). Every value it
// returns is bit-identical to the uncached CostModel.MapCost / MapCostAvg.
type MapCoster struct {
	cm        *CostModel
	rows      map[hdfs.BlockID]*mapRow
	cacheable bool // distances carry an epoch signal

	avail []topology.NodeID
	// seq numbers the distinct avail sets seen (rows memoize their cost
	// sum against it); lastExt is the producer's Avail.Version for the
	// current set, giving an O(1) revalidation instead of the O(nodes)
	// list comparison.
	seq     uint64
	lastExt uint64

	orderBuf []int // scratch for SizeOrder
}

type mapRow struct {
	dist       []float64 // per candidate node: min over replicas of h (unclassed)
	classMinD  []float64 // per distance class: min over replicas of D (classed)
	epoch      uint64    // distance epoch the row was filled at
	sumVersion uint64    // seq costSum was computed at (0 = stale)
	costSum    float64   // Σ_{k in avail} C_m(k, j), before the /N_m division
}

// NewMapCoster builds an empty cache over the model. One MapCoster serves
// all jobs; call Forget when a job completes to release its rows.
func (c *CostModel) NewMapCoster() *MapCoster {
	mc := &MapCoster{cm: c, rows: make(map[hdfs.BlockID]*mapRow), seq: 1}
	_, mc.cacheable = c.DistanceEpoch()
	return mc
}

// row returns the (refreshed) distance row for the task's block.
func (mc *MapCoster) row(m *job.MapTask) *mapRow {
	ep, _ := mc.cm.DistanceEpoch()
	cl := mc.cm.classes
	r := mc.rows[m.Block]
	if r == nil {
		r = &mapRow{}
		if cl != nil {
			r.classMinD = make([]float64, cl.Num())
		} else {
			r.dist = make([]float64, mc.cm.net.Size())
		}
		mc.rows[m.Block] = r
	} else if mc.cacheable && r.epoch == ep {
		return r
	}
	replicas := mc.cm.store.Replicas(m.Block)
	switch {
	case cl != nil:
		mc.cm.classMinD(replicas, r.classMinD)
	case mc.cm.mode == ModeNetworkCondition:
		// One nearest-replica rate per node from the observer's per-rack
		// terms; inverting the maximum rate is the minimum distance.
		mc.cm.rate.MaxPathRates(replicas, r.dist)
		for k, rate := range r.dist {
			r.dist[k] = rateDist(rate)
		}
	default:
		for k := range r.dist {
			best := math.Inf(1)
			for _, l := range replicas {
				if d := mc.cm.Distance(topology.NodeID(k), l); d < best {
					best = d
					if best == 0 {
						break
					}
				}
			}
			r.dist[k] = best
		}
	}
	r.epoch = ep
	r.sumVersion = 0 // distances changed: cached cost sum is stale
	return r
}

// Cost returns C_m(i,j) (Formula 1), bit-identical to CostModel.MapCost.
// On a classed network the nearest-replica distance depends only on i's
// class — except on a replica node itself, where it is 0.
func (mc *MapCoster) Cost(m *job.MapTask, i topology.NodeID) float64 {
	r := mc.row(m)
	if cl := mc.cm.classes; cl != nil {
		if mc.cm.store.HasReplica(m.Block, i) {
			return 0 // m.Size · h_ii = 0
		}
		d := r.classMinD[cl.Of(i)]
		if math.IsInf(d, 1) {
			return math.Inf(1) // no replicas: unschedulable
		}
		return m.Size * d
	}
	d := r.dist[i]
	if math.IsInf(d, 1) {
		return math.Inf(1) // no replicas: unschedulable
	}
	return m.Size * d
}

// syncAvail adopts the offered avail snapshot: a matching non-zero
// version is an O(1) hit, an equal node list re-arms the version, and
// anything else starts a new seq era (invalidating the per-row sums).
func (mc *MapCoster) syncAvail(a Avail) {
	if a.Version != 0 && a.Version == mc.lastExt {
		return
	}
	if equalNodes(mc.avail, a.Nodes) {
		mc.lastExt = a.Version
		return
	}
	mc.avail = append(mc.avail[:0], a.Nodes...)
	mc.lastExt = a.Version
	mc.seq++
}

// CostAvg returns C_avg over the avail set, bit-identical to
// CostModel.MapCostAvg: on a classed network both funnel through
// CostModel.classMapSum, otherwise the sum accumulates B_j·dist[k] in
// avail order exactly as the naive loop does.
func (mc *MapCoster) CostAvg(m *job.MapTask, a Avail) float64 {
	if len(a.Nodes) == 0 {
		return 0
	}
	mc.syncAvail(a)
	r := mc.row(m)
	if !mc.cacheable || r.sumVersion != mc.seq {
		if mc.cm.classes != nil {
			counts := a.Counts
			if counts == nil {
				counts = mc.cm.scanClassCounts(mc.avail)
			}
			replicas := mc.cm.store.Replicas(m.Block)
			r.costSum = m.Size * mc.cm.classMapSum(replicas, mc.avail, counts, r.classMinD)
		} else {
			var sum float64
			for _, k := range mc.avail {
				sum += m.Size * r.dist[k]
			}
			r.costSum = sum
		}
		r.sumVersion = mc.seq
	}
	return r.costSum / float64(len(a.Nodes))
}

// Prunable implements SelectOptimizer: saving bounds exist only when the
// network collapses into distance classes (then MaxDist caps any
// per-node distance).
func (mc *MapCoster) Prunable() bool { return mc.cm.classes != nil }

// SavingBound implements SelectOptimizer: C_avg ≤ B_j·MaxDist (the class
// sum weights at most N_m nodes at distance ≤ MaxDist) and the saving
// C_avg − C never exceeds C_avg, so no placement of m can save more.
func (mc *MapCoster) SavingBound(m *job.MapTask) float64 {
	return m.Size * mc.cm.classes.MaxDist()
}

// ZeroCost implements SelectOptimizer: whether C_m(i, j) is exactly 0 —
// node i holds a replica, or the task reads zero bytes (a no-replica
// block stays +Inf even at size 0).
func (mc *MapCoster) ZeroCost(m *job.MapTask, i topology.NodeID) bool {
	if m.Size == 0 {
		return len(mc.cm.store.Replicas(m.Block)) > 0
	}
	return mc.cm.store.HasReplica(m.Block, i)
}

// SizeOrder implements SelectOptimizer: candidate indices by descending
// task size, original position breaking ties. Since SavingBound is
// monotone in size, a scan in this order can stop at the first bound
// below the incumbent saving.
func (mc *MapCoster) SizeOrder(tasks []*job.MapTask) []int {
	idx := mc.orderBuf[:0]
	for k := range tasks {
		idx = append(idx, k)
	}
	sort.Slice(idx, func(a, b int) bool {
		if tasks[idx[a]].Size != tasks[idx[b]].Size {
			return tasks[idx[a]].Size > tasks[idx[b]].Size
		}
		return idx[a] < idx[b]
	})
	mc.orderBuf = idx
	return idx
}

// Forget drops the cached rows of a job's blocks. Blocks belong to
// exactly one job's input file, so this cannot evict another job's state.
func (mc *MapCoster) Forget(j *job.Job) {
	for _, m := range j.Maps {
		delete(mc.rows, m.Block)
	}
}

// Len returns the number of cached block rows (exposed for leak tests).
func (mc *MapCoster) Len() int { return len(mc.rows) }
