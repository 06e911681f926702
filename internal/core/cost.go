// Package core implements the paper's contribution: the fine-grained data
// transmission cost model (Formulas 1–3), the progress-based estimator of
// intermediate data size (Section II-B-2), and the probabilistic placement
// rule P = 1 − exp(−C_avg/C) with its threshold P_min (Formulas 4–5,
// Algorithms 1–2). It is deliberately independent of the simulation engine:
// everything here operates on the scheduler-visible state of jobs and the
// network, so the same code could back a real JobTracker plug-in.
package core

import (
	"fmt"
	"math"
	"sort"

	"mapsched/internal/hdfs"
	"mapsched/internal/job"
	"mapsched/internal/topology"
)

// Mode selects how the distance matrix H is interpreted.
type Mode int

const (
	// ModeHops uses the hop-count distance matrix H directly (Formula 1–3).
	ModeHops Mode = iota
	// ModeNetworkCondition replaces each h_ab with the inverse of the
	// currently observed transmission rate of the path a→b
	// (Section II-B-3), so congested paths look "farther".
	ModeNetworkCondition
)

// String names the mode for experiment output.
func (m Mode) String() string {
	switch m {
	case ModeHops:
		return "hops"
	case ModeNetworkCondition:
		return "network-condition"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// CostModel evaluates the transmission cost of candidate task placements.
type CostModel struct {
	net   topology.Network
	store *hdfs.Store
	rate  topology.RateObserver // required for ModeNetworkCondition
	mode  Mode

	// classes is the distance-class view of the network in hop mode (nil
	// otherwise, and nil when the network has no class structure): hop
	// distances depend only on the (class(a), class(b)) pair, so sums over
	// the avail set collapse to per-class terms. Network-condition mode
	// keeps per-pair dynamic distances and never collapses.
	classes *topology.Classes

	// Scratch buffers for the class-collapsed sums, sized to classes.Num().
	clCounts []int     // per-class avail counts when the caller has none
	clReps   []int     // per-class replicas-in-avail counts
	clMinD   []float64 // per-class nearest-replica distance (uncached path)
}

// NewCostModel builds a cost model. rate may be nil when mode is ModeHops.
func NewCostModel(net topology.Network, store *hdfs.Store, rate topology.RateObserver, mode Mode) (*CostModel, error) {
	if net == nil || store == nil {
		return nil, fmt.Errorf("core: nil network or store")
	}
	if mode == ModeNetworkCondition && rate == nil {
		return nil, fmt.Errorf("core: network-condition mode requires a rate observer")
	}
	c := &CostModel{net: net, store: store, rate: rate, mode: mode}
	if mode == ModeHops {
		if cn, ok := net.(topology.ClassedNetwork); ok {
			if cl := cn.Classes(); cl != nil {
				c.classes = cl
				c.clCounts = make([]int, cl.Num())
				c.clReps = make([]int, cl.Num())
				c.clMinD = make([]float64, cl.Num())
			}
		}
	}
	return c, nil
}

// Mode returns the distance interpretation in use.
func (c *CostModel) Mode() Mode { return c.mode }

// Classes returns the distance-class structure the model collapses sums
// over, or nil when costs are evaluated per node.
func (c *CostModel) Classes() *topology.Classes { return c.classes }

// Distance returns the effective H entry for the pair (a, b): hop count in
// ModeHops, or 1/rate in ModeNetworkCondition. The diagonal of H is 0 in
// hop mode; in network-condition mode a local transfer costs 1/diskRate,
// which is negligible next to any network path, preserving the paper's
// "local task has (almost) zero cost" property.
func (c *CostModel) Distance(a, b topology.NodeID) float64 {
	switch c.mode {
	case ModeNetworkCondition:
		return rateDist(c.rate.PathRate(a, b))
	default:
		return c.net.Distance(a, b)
	}
}

// rateDist maps a path rate to its network-condition distance: 1/r, or
// +Inf for a severed path (r ≤ 0). It never increases as r grows (IEEE
// division rounds monotonically), so the nearest-replica distance
// min_l rateDist(r_l) is rateDist(max_l r_l) bit for bit.
func rateDist(r float64) float64 {
	if r <= 0 {
		return math.Inf(1)
	}
	return 1 / r
}

// epochObserver is implemented by rate observers whose PathRate output is
// constant between advances of a counter (topology.Cluster exposes its
// flow network's recompute epoch; topology.Matrix rates never change).
type epochObserver interface {
	Epoch() uint64
}

// DistanceEpoch returns a counter that advances whenever a cost derived
// from Distance and the block store may change; ok reports whether such a
// signal exists. The counter is the sum of two monotone components: the
// store's replica-mutation epoch (replica loss moves a block's nearest
// replica even when distances are static) and, in network-condition mode,
// the rate observer's recompute epoch. Since both only grow, equal sums
// imply both are unchanged. In hop mode with an immutable store the value
// is constantly 0, preserving pre-fault cache behaviour. When the rate
// observer exposes no epoch, ok is false and callers must treat every
// distance as volatile (caching would change scheduling decisions).
func (c *CostModel) DistanceEpoch() (uint64, bool) {
	if c.mode != ModeNetworkCondition {
		return c.store.Epoch(), true
	}
	if eo, ok := c.rate.(epochObserver); ok {
		return eo.Epoch() + c.store.Epoch(), true
	}
	return 0, false
}

// MapCost returns C_m(i,j) = B_j · min_{l: L_lj=1} h_il (Formula 1): the
// cost of running map task m on node i, reading from the nearest replica.
func (c *CostModel) MapCost(m *job.MapTask, i topology.NodeID) float64 {
	best := math.Inf(1)
	for _, l := range c.store.Replicas(m.Block) {
		if d := c.Distance(i, l); d < best {
			best = d
			if best == 0 {
				break
			}
		}
	}
	if math.IsInf(best, 1) {
		return math.Inf(1) // no replicas: unschedulable
	}
	return m.Size * best
}

// MapCostAvg returns C_avg = Σ_k C_m(k,j) / N_m over the nodes that
// currently have free map slots (Algorithm 1 line 6). With a class
// structure the per-node sum collapses to Σ_c n'_c · minD_c where n'_c
// counts the class's free non-replica nodes (replica members cost 0) and
// minD_c is the class's nearest-replica distance; the MapCoster computes
// the identical expression, so the two stay bit-exact.
func (c *CostModel) MapCostAvg(m *job.MapTask, avail []topology.NodeID) float64 {
	if len(avail) == 0 {
		return 0
	}
	if c.classes != nil {
		replicas := c.store.Replicas(m.Block)
		c.classMinD(replicas, c.clMinD)
		return m.Size * c.classMapSum(replicas, avail, c.scanClassCounts(avail), c.clMinD) / float64(len(avail))
	}
	var sum float64
	for _, k := range avail {
		sum += c.MapCost(m, k)
	}
	return sum / float64(len(avail))
}

// scanClassCounts fills the scratch per-class counts by scanning avail —
// the reference path; the engine maintains the same counts incrementally.
func (c *CostModel) scanClassCounts(avail []topology.NodeID) []int {
	counts := c.clCounts
	for i := range counts {
		counts[i] = 0
	}
	for _, k := range avail {
		counts[c.classes.Of(k)]++
	}
	return counts
}

// classMinD fills minD[ci] with the class's nearest-replica distance
// min_{l: L_lj=1} D(ci, class(l)) — the class-collapsed form of Formula
// 1's inner minimum (all-Inf when the block has no replicas).
func (c *CostModel) classMinD(replicas []topology.NodeID, minD []float64) {
	cl := c.classes
	for ci := range minD {
		best := math.Inf(1)
		for _, l := range replicas {
			if d := cl.D(ci, cl.Of(l)); d < best {
				best = d
			}
		}
		minD[ci] = best
	}
}

// classMapSum returns Σ_c n'_c · minD_c with n'_c = free nodes of class c
// minus the block's replicas among them (a replica node reads locally at
// distance 0, and skipping n' <= 0 keeps a singleton class's +Inf intra
// distance away from a zero multiplier). Both MapCostAvg and the
// MapCoster funnel through this function so their float operation order —
// and hence every selection decision — is identical.
func (c *CostModel) classMapSum(replicas, avail []topology.NodeID, counts []int, minD []float64) float64 {
	reps := c.clReps
	for _, l := range replicas {
		if containsNode(avail, l) {
			reps[c.classes.Of(l)]++
		}
	}
	var sum float64
	for ci, n := range counts {
		if n -= reps[ci]; n > 0 {
			sum += float64(n) * minD[ci]
		}
	}
	for _, l := range replicas {
		reps[c.classes.Of(l)] = 0
	}
	return sum
}

// classHSum returns Σ_{k in avail} h(p, k) collapsed to per-class terms:
// each class contributes count·D(class(p), class(k)), with p itself
// excluded from its own class (h(p,p) = 0). Skipping zero counts keeps a
// singleton class's +Inf intra distance out of the sum.
func (c *CostModel) classHSum(p topology.NodeID, counts []int, avail []topology.NodeID) float64 {
	cl := c.classes
	cp := cl.Of(p)
	self := 0
	if containsNode(avail, p) {
		self = 1
	}
	var sum float64
	for ci, n := range counts {
		if ci == cp {
			n -= self
		}
		if n > 0 {
			sum += float64(n) * cl.D(cp, ci)
		}
	}
	return sum
}

// Locality classifies a map placement for the Table III metrics: on a
// replica node, in a replica's rack, or remote.
func (c *CostModel) Locality(m *job.MapTask, i topology.NodeID) job.Locality {
	rack := c.net.Rack(i)
	sameRack := false
	for _, l := range c.store.Replicas(m.Block) {
		if l == i {
			return job.LocalNode
		}
		if c.net.Rack(l) == rack {
			sameRack = true
		}
	}
	if sameRack {
		return job.LocalRack
	}
	return job.Remote
}

// ReduceCoster evaluates Formula 3 for one job. It aggregates the
// estimated intermediate volume by map-hosting node (S_pf = Σ_{maps j on
// p} Î_jf), so evaluating a candidate node costs O(#map-nodes) rather
// than O(#maps). Nodes are kept in ascending NodeID order so that a fresh
// build and an incrementally Refreshed coster are bit-identical.
type ReduceCoster struct {
	cm   *CostModel
	j    *job.Job
	est  Estimator
	scal ScalarEstimator // non-nil when est factors into Out[f]·Scale(m)

	nodes   []topology.NodeID       // nodes hosting ≥1 launched map, ascending
	idx     map[topology.NodeID]int // node → index into nodes/s/members
	s       [][]float64             // s[pi][f] = S_pf
	members [][]int                 // members[pi] = map indices on node pi, ascending

	// Per-map snapshot consumed by Refresh to detect which rows changed.
	lastNode  []topology.NodeID // node at last snapshot; -1 when excluded
	lastScale []float64         // Scale(m) at last snapshot (scal only)
	dirtyBuf  []topology.NodeID

	// CostAvg cache: hSum[pi] = Σ_{k in avail} h(p_i, k) for the avail set
	// last seen, so the average over candidate nodes is O(#map-nodes) per
	// partition instead of O(#avail × #map-nodes). availEpoch records the
	// distance epoch the sums were computed at; availVersion the identity
	// of the avail snapshot (an O(1) stand-in for comparing the node list);
	// hValid is cleared whenever the map-node set changes structurally.
	availCache   []topology.NodeID
	availEpoch   uint64
	availVersion uint64
	hValid       bool
	hSum         []float64

	// sweep scratch: the pending tasks' partitions and positions, and
	// their cost / C_avg numerator accumulators.
	sweepF, sweepPos    []int
	sweepCost, sweepAvg []float64
}

// NewReduceCoster snapshots the launched maps of j under the estimator.
// Only maps that have been assigned to a node (x_jp defined) contribute,
// matching Formula 2's use of the placement matrix X.
func (c *CostModel) NewReduceCoster(j *job.Job, est Estimator) *ReduceCoster {
	rc := &ReduceCoster{cm: c, j: j, est: est}
	rc.scal, _ = est.(ScalarEstimator)
	rc.idx = make(map[topology.NodeID]int)
	rc.lastNode = make([]topology.NodeID, len(j.Maps))
	rc.lastScale = make([]float64, len(j.Maps))
	rc.rebuild()
	return rc
}

// Job returns the job this coster snapshots.
func (rc *ReduceCoster) Job() *job.Job { return rc.j }

// rebuild recomputes the whole snapshot from the job's current state.
func (rc *ReduceCoster) rebuild() {
	for p := range rc.idx {
		delete(rc.idx, p)
	}
	rc.nodes = rc.nodes[:0]
	rc.members = rc.members[:0]
	for i, m := range rc.j.Maps {
		if m.State == job.TaskPending || m.Node < 0 {
			rc.lastNode[i] = -1
			continue
		}
		rc.lastNode[i] = m.Node
		if rc.scal != nil {
			rc.lastScale[i] = rc.scal.Scale(m)
		}
		pi, ok := rc.idx[m.Node]
		if !ok {
			pi = len(rc.nodes)
			rc.idx[m.Node] = pi
			rc.nodes = append(rc.nodes, m.Node)
			rc.members = append(rc.members, nil)
		}
		rc.members[pi] = append(rc.members[pi], i)
	}
	sort.Sort(byNode{rc})
	rc.s = make([][]float64, len(rc.nodes))
	nf := rc.j.NumReduces()
	for pi, p := range rc.nodes {
		rc.idx[p] = pi
		rc.s[pi] = make([]float64, nf)
		rc.computeRow(pi)
	}
	rc.hValid = false
}

// byNode sorts the node list and the parallel member lists together.
type byNode struct{ rc *ReduceCoster }

func (b byNode) Len() int           { return len(b.rc.nodes) }
func (b byNode) Less(i, j int) bool { return b.rc.nodes[i] < b.rc.nodes[j] }
func (b byNode) Swap(i, j int) {
	b.rc.nodes[i], b.rc.nodes[j] = b.rc.nodes[j], b.rc.nodes[i]
	b.rc.members[i], b.rc.members[j] = b.rc.members[j], b.rc.members[i]
}

// computeRow re-aggregates S_pf for one node from its member maps in task
// order. Both the full rebuild and the incremental Refresh funnel through
// this function, so their float accumulation order — and hence every
// derived cost — is identical.
func (rc *ReduceCoster) computeRow(pi int) {
	nf := rc.j.NumReduces()
	row := rc.s[pi]
	for f := range row {
		row[f] = 0
	}
	if rc.scal != nil {
		for _, mi := range rc.members[pi] {
			m := rc.j.Maps[mi]
			sc := rc.lastScale[mi]
			for f := 0; f < nf; f++ {
				row[f] += m.Out[f] * sc
			}
		}
		return
	}
	for _, mi := range rc.members[pi] {
		m := rc.j.Maps[mi]
		for f := 0; f < nf; f++ {
			row[f] += rc.est.EstimateOutput(m, f)
		}
	}
}

// Refresh brings the snapshot up to date with the job's current task
// state. With a ScalarEstimator only the rows whose contributing maps
// changed (progress advanced, launched, finished, moved by speculation or
// failure) are re-aggregated; other estimators fall back to a full
// rebuild. The refreshed coster is bit-identical to a fresh
// NewReduceCoster of the same job state.
func (rc *ReduceCoster) Refresh() {
	if rc.scal == nil || len(rc.lastNode) != len(rc.j.Maps) {
		rc.rebuild()
		return
	}
	dirty := rc.dirtyBuf[:0]
	structural := false
	for i, m := range rc.j.Maps {
		cur := topology.NodeID(-1)
		if m.State != job.TaskPending && m.Node >= 0 {
			cur = m.Node
		}
		if cur == rc.lastNode[i] {
			if cur < 0 {
				continue
			}
			if sc := rc.scal.Scale(m); sc != rc.lastScale[i] {
				rc.lastScale[i] = sc
				dirty = append(dirty, cur)
			}
			continue
		}
		if old := rc.lastNode[i]; old >= 0 {
			pi := rc.idx[old]
			rc.members[pi] = removeInt(rc.members[pi], i)
			dirty = append(dirty, old)
		}
		if cur >= 0 {
			pi, ok := rc.idx[cur]
			if !ok {
				pi = rc.insertNode(cur)
				structural = true
			}
			rc.members[pi] = insertInt(rc.members[pi], i)
			rc.lastScale[i] = rc.scal.Scale(m)
			dirty = append(dirty, cur)
		}
		rc.lastNode[i] = cur
	}
	rc.dirtyBuf = dirty
	if len(dirty) == 0 {
		return
	}
	for _, p := range dirty {
		if pi, ok := rc.idx[p]; ok && len(rc.members[pi]) == 0 {
			rc.removeNode(pi)
			structural = true
		}
	}
	for _, p := range dirty {
		if pi, ok := rc.idx[p]; ok {
			rc.computeRow(pi)
		}
	}
	if structural {
		rc.hValid = false // node set changed: hSum rows are stale
	}
}

// insertNode splices a new node into the sorted node list and returns its
// index.
func (rc *ReduceCoster) insertNode(p topology.NodeID) int {
	pi := sort.Search(len(rc.nodes), func(k int) bool { return rc.nodes[k] >= p })
	rc.nodes = append(rc.nodes, 0)
	copy(rc.nodes[pi+1:], rc.nodes[pi:])
	rc.nodes[pi] = p
	rc.members = append(rc.members, nil)
	copy(rc.members[pi+1:], rc.members[pi:])
	rc.members[pi] = nil
	rc.s = append(rc.s, nil)
	copy(rc.s[pi+1:], rc.s[pi:])
	rc.s[pi] = make([]float64, rc.j.NumReduces())
	for k := pi; k < len(rc.nodes); k++ {
		rc.idx[rc.nodes[k]] = k
	}
	return pi
}

// removeNode drops the node at index pi, keeping the lists sorted.
func (rc *ReduceCoster) removeNode(pi int) {
	delete(rc.idx, rc.nodes[pi])
	copy(rc.nodes[pi:], rc.nodes[pi+1:])
	rc.nodes = rc.nodes[:len(rc.nodes)-1]
	copy(rc.members[pi:], rc.members[pi+1:])
	rc.members = rc.members[:len(rc.members)-1]
	copy(rc.s[pi:], rc.s[pi+1:])
	rc.s = rc.s[:len(rc.s)-1]
	for k := pi; k < len(rc.nodes); k++ {
		rc.idx[rc.nodes[k]] = k
	}
}

// insertInt inserts v into sorted slice a.
func insertInt(a []int, v int) []int {
	k := sort.SearchInts(a, v)
	a = append(a, 0)
	copy(a[k+1:], a[k:])
	a[k] = v
	return a
}

// removeInt removes v from sorted slice a if present.
func removeInt(a []int, v int) []int {
	k := sort.SearchInts(a, v)
	if k < len(a) && a[k] == v {
		copy(a[k:], a[k+1:])
		a = a[:len(a)-1]
	}
	return a
}

// Cost returns C_r(i,f) = Σ_p h_pi · S_pf (Formula 3) for reduce index f
// placed on node i.
func (rc *ReduceCoster) Cost(i topology.NodeID, f int) float64 {
	var sum float64
	for pi, p := range rc.nodes {
		if s := rc.s[pi][f]; s > 0 {
			sum += rc.cm.Distance(p, i) * s
		}
	}
	return sum
}

// CostAvg returns C_avg = Σ_k C_r(k,f) / N_r over nodes with free reduce
// slots (Algorithm 2 line 7). Summation is reordered as
// Σ_p S_pf · (Σ_k h_pk), with the inner distance sums cached by hSums;
// the result is identical to averaging Cost over avail.
func (rc *ReduceCoster) CostAvg(f int, a Avail) float64 {
	if len(a.Nodes) == 0 {
		return 0
	}
	h := rc.hSums(a)
	var sum float64
	for pi := range rc.nodes {
		if v := rc.s[pi][f]; v > 0 {
			sum += v * h[pi]
		}
	}
	return sum / float64(len(a.Nodes))
}

// hSums returns hSum[pi] = Σ_{k in avail} h(p_i, k) for every map node,
// cached per (avail set, distance epoch). A matching non-zero a.Version
// revalidates the cache in O(1); the node-list comparison is the
// fallback for ad-hoc snapshots. With a class structure each sum is the
// O(classes) classHSum; when distances are volatile with no epoch signal
// the sums are recomputed on every call. a.Nodes must be non-empty.
func (rc *ReduceCoster) hSums(a Avail) []float64 {
	avail := a.Nodes
	ep, epOK := rc.cm.DistanceEpoch()
	sameAvail := (a.Version != 0 && a.Version == rc.availVersion) || equalNodes(rc.availCache, avail)
	if !epOK || ep != rc.availEpoch || !rc.hValid || !sameAvail {
		rc.availEpoch = ep
		rc.availCache = append(rc.availCache[:0], avail...)
		if cap(rc.hSum) < len(rc.nodes) {
			rc.hSum = make([]float64, len(rc.nodes))
		}
		rc.hSum = rc.hSum[:len(rc.nodes)]
		if rc.cm.classes != nil {
			counts := a.Counts
			if counts == nil {
				counts = rc.cm.scanClassCounts(avail)
			}
			for pi, p := range rc.nodes {
				rc.hSum[pi] = rc.cm.classHSum(p, counts, avail)
			}
		} else {
			for pi, p := range rc.nodes {
				var h float64
				for _, k := range avail {
					h += rc.cm.Distance(p, k)
				}
				rc.hSum[pi] = h
			}
		}
		rc.hValid = true
	}
	rc.availVersion = a.Version
	return rc.hSum
}

// sweep evaluates Formula 3 and the C_avg numerator for the pending
// tasks among tasks on node i in one row-major pass over the map-node
// rows. For the k-th pending task, tasks[pos[k]] with partition f,
// cost[k] = C_r(i, f) and asum[k] = Σ_p S_pf · hSum_p (meaningless when
// avail is empty, where C_avg is 0 by definition). Each entry sees
// exactly the additions Cost and CostAvg make — same rows in the same
// order, same operands — so the results are bit-identical to theirs,
// while h(p, i) and hSum_p are read once per row instead of once per
// (row, partition). The returned slices are coster scratch, valid until
// the next call.
func (rc *ReduceCoster) sweep(i topology.NodeID, tasks []*job.ReduceTask, a Avail) (pos []int, cost, asum []float64) {
	fs, pos := rc.sweepF[:0], rc.sweepPos[:0]
	for k, r := range tasks {
		if r.State == job.TaskPending {
			fs = append(fs, r.Index)
			pos = append(pos, k)
		}
	}
	rc.sweepF, rc.sweepPos = fs, pos
	cost = zeroed(rc.sweepCost, len(fs))
	asum = zeroed(rc.sweepAvg, len(fs))
	rc.sweepCost, rc.sweepAvg = cost, asum
	var h []float64
	if len(a.Nodes) > 0 {
		h = rc.hSums(a)
	}
	for pi, p := range rc.nodes {
		row := rc.s[pi]
		d := rc.cm.Distance(p, i)
		var hp float64
		if h != nil {
			hp = h[pi]
		}
		for k, f := range fs {
			if v := row[f]; v > 0 {
				cost[k] += d * v
				asum[k] += v * hp
			}
		}
	}
	return pos, cost, asum
}

// zeroed returns buf resized to n with every entry zero, reallocating
// only when it is too small.
func zeroed(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// equalNodes reports whether two node lists are identical.
func equalNodes(a, b []topology.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// OnNode returns S_if: the estimated bytes of partition f already resident
// on node i (produced by maps that ran there).
func (rc *ReduceCoster) OnNode(i topology.NodeID, f int) float64 {
	if pi, ok := rc.idx[i]; ok {
		return rc.s[pi][f]
	}
	return 0
}

// TotalEstimated returns Σ_p S_pf: the estimated total shuffle input of
// reduce f from maps launched so far.
func (rc *ReduceCoster) TotalEstimated(f int) float64 {
	var sum float64
	for pi := range rc.nodes {
		sum += rc.s[pi][f]
	}
	return sum
}

// Centrality returns the node among candidates minimizing Cost(i, f) — the
// data-"centrality" node used by the Coupling scheduler baseline. Returns
// false if candidates is empty.
func (rc *ReduceCoster) Centrality(f int, candidates []topology.NodeID) (topology.NodeID, bool) {
	if len(candidates) == 0 {
		return 0, false
	}
	best := candidates[0]
	bestC := rc.Cost(best, f)
	for _, k := range candidates[1:] {
		if c := rc.Cost(k, f); c < bestC {
			bestC = c
			best = k
		}
	}
	return best, true
}
