package core

import (
	"math"

	"mapsched/internal/job"
	"mapsched/internal/topology"
)

// AssignProb computes the paper's placement probability (Formulas 4–5):
//
//	P = 1 − exp(−C_avg / C)
//
// where C is the cost of the candidate placement and C_avg the expected
// cost of assigning the task uniformly over currently available nodes.
// A zero-cost placement (data-local) has probability 1; an infinitely
// expensive one probability 0. When both C_avg and C are zero — every
// available node is equally free — the placement is also certain.
func AssignProb(avg, cost float64) float64 {
	if cost <= 0 {
		return 1
	}
	if math.IsInf(cost, 1) {
		return 0
	}
	if avg <= 0 {
		return 0
	}
	return 1 - math.Exp(-avg/cost)
}

// CostCeiling returns the largest placement cost (as a multiple of C_avg)
// that still clears the threshold pmin: from P ≥ P_min follows
// C ≤ C_avg / (−ln(1−P_min)). Exposed for analysis and the P_min sweep
// experiment. pmin outside (0,1) returns +Inf (no ceiling).
func CostCeiling(pmin float64) float64 {
	if pmin <= 0 || pmin >= 1 {
		return math.Inf(1)
	}
	return 1 / (-math.Log(1 - pmin))
}

// Choice is the outcome of the candidate-selection step of Algorithms 1–2.
type Choice struct {
	MapTask    *job.MapTask    // set for map selection
	ReduceTask *job.ReduceTask // set for reduce selection
	Prob       float64         // P_mj or P_rf under the configured model
	Cost       float64         // C on the offered node
	AvgCost    float64         // C_avg over available nodes
}

// Saving is the absolute transmission-cost saving of placing the task here
// rather than uniformly at random: C_avg − C. Section II-C selects "the
// map task that leads to the maximum transmission cost saving by assigning
// it instantly to D_i than assigning it to other nodes"; unlike the
// probability (whose C_avg/C ratio is scale-invariant in the data volume),
// the saving weights large tasks more, so heavy partitions launch early
// instead of straggling at the tail.
func (c Choice) Saving() float64 { return c.AvgCost - c.Cost }

// MapSelection is the result of scanning one job's pending maps for a
// slot offer: the maximum-saving candidate overall, plus the
// maximum-saving candidate among the zero-cost (data-local) ones. The two
// differ whenever a large remote task out-saves a small local one
// (C_avg − C ranks by absolute bytes moved); Algorithm 1's P = 1 rule
// still applies to the local candidate, so the scheduler falls back to it
// when Best is gated away.
type MapSelection struct {
	Best  Choice
	Local Choice
}

// HasLocal reports whether a zero-cost candidate was found.
func (s MapSelection) HasLocal() bool { return s.Local.MapTask != nil }

// MapCostEvaluator abstracts Formula 1 so Algorithm 1 can run against
// either the direct CostModel computation or a MapCoster cache. The two
// implementations produce bit-identical costs, so selection decisions do
// not depend on which one is plugged in.
type MapCostEvaluator interface {
	Cost(m *job.MapTask, i topology.NodeID) float64
	CostAvg(m *job.MapTask, avail Avail) float64
}

// SelectOptimizer is implemented by evaluators that can prune the
// candidate scan: SavingBound caps the saving any placement of a task can
// reach, SizeOrder yields candidate indices with bounds non-increasing,
// and ZeroCost identifies data-local placements without evaluating costs.
// Pruning never changes the selected candidates — the bound-ordered scan
// stops only once no remaining task can beat (or tie) the incumbent.
type SelectOptimizer interface {
	Prunable() bool
	SavingBound(m *job.MapTask) float64
	SizeOrder(tasks []*job.MapTask) []int
	ZeroCost(m *job.MapTask, i topology.NodeID) bool
}

// pruneMinTasks is the scan length below which the bound-ordered scan is
// not worth its sorting overhead.
const pruneMinTasks = 16

// directMapCost is the uncached reference evaluator.
type directMapCost struct{ cm *CostModel }

func (d directMapCost) Cost(m *job.MapTask, i topology.NodeID) float64 {
	return d.cm.MapCost(m, i)
}

func (d directMapCost) CostAvg(m *job.MapTask, avail Avail) float64 {
	return d.cm.MapCostAvg(m, avail.Nodes)
}

// Evaluator returns the uncached MapCostEvaluator view of the model.
func (c *CostModel) Evaluator() MapCostEvaluator { return directMapCost{c} }

// SelectMapTask runs lines 2–9 of Algorithm 1 against the uncached cost
// model; see SelectMapTaskWith.
func SelectMapTask(cm *CostModel, model ProbabilityModel, tasks []*job.MapTask, i topology.NodeID, avail Avail) (MapSelection, bool) {
	return SelectMapTaskWith(directMapCost{cm}, model, tasks, i, avail)
}

// SelectMapTaskWith runs lines 2–9 of Algorithm 1: for every candidate map
// task it computes the placement cost on node i (Formula 1) and the
// average cost over nodes with free map slots, returning the candidate
// with the largest transmission-cost saving plus the best data-local
// candidate (which Best need not subsume: a large remote task can
// out-save a small local one). Ties on saving go to the earlier task, for
// determinism. The probability under the configured model (Formula 4
// when model is nil) is computed once for each returned candidate. ok is
// false when tasks is empty or no candidate is schedulable.
//
// When the evaluator is a SelectOptimizer, candidates are scanned in
// non-increasing SavingBound order and the scan stops at the first bound
// strictly below the incumbent's saving — no pruned task can beat or tie
// Best. The pruned tail is swept once more for zero-cost placements only
// (their savings sit below the cut too, so Best is final, but the
// data-local rule needs them): decisions are bit-identical to the full
// scan.
func SelectMapTaskWith(ev MapCostEvaluator, model ProbabilityModel, tasks []*job.MapTask, i topology.NodeID, avail Avail) (MapSelection, bool) {
	if model == nil {
		model = Exponential{}
	}
	var sel MapSelection
	ok := false
	bestPos, localPos := -1, -1
	consider := func(pos int, m *job.MapTask) {
		cost := ev.Cost(m, i)
		if math.IsInf(cost, 1) {
			return
		}
		avg := ev.CostAvg(m, avail)
		c := Choice{MapTask: m, Cost: cost, AvgCost: avg}
		s := c.Saving()
		if bestPos < 0 || s > sel.Best.Saving() || (s == sel.Best.Saving() && pos < bestPos) {
			sel.Best, bestPos, ok = c, pos, true
		}
		if cost == 0 {
			if localPos < 0 || s > sel.Local.Saving() || (s == sel.Local.Saving() && pos < localPos) {
				sel.Local, localPos = c, pos
			}
		}
	}
	so, prune := ev.(SelectOptimizer)
	if prune {
		prune = so.Prunable() && len(tasks) > pruneMinTasks
	}
	if !prune {
		for pos, m := range tasks {
			consider(pos, m)
		}
	} else {
		order := so.SizeOrder(tasks)
		cut := len(order)
		for oi, pos := range order {
			m := tasks[pos]
			if ok && so.SavingBound(m) < sel.Best.Saving() {
				cut = oi
				break
			}
			consider(pos, m)
		}
		for _, pos := range order[cut:] {
			if m := tasks[pos]; so.ZeroCost(m, i) {
				consider(pos, m)
			}
		}
	}
	if ok {
		sel.Best.Prob = model.Prob(sel.Best.AvgCost, sel.Best.Cost)
	}
	if sel.HasLocal() {
		sel.Local.Prob = model.Prob(sel.Local.AvgCost, sel.Local.Cost)
	}
	return sel, ok
}

// SelectReduceTask runs lines 2–10 of Algorithm 2: for every pending
// reduce task among tasks (others are skipped, so callers pass j.Reduces
// as is) it computes the shuffle cost on node i (Formula 3 with the
// estimator's Î_jf) and the average over nodes with free reduce slots,
// returning the candidate with the largest transmission-cost saving;
// ties go to the earlier task. Costs come from one row-major sweep over
// the coster's map-node rows, bit-identical to per-task Cost / CostAvg
// calls. The probability under the configured model (Formula 5 when
// model is nil) is computed for the winner only. Unreachable placements
// (infinite cost, e.g. after a link sever) are skipped, exactly as in map
// selection — a −Inf saving must not become a job's "best" and mask
// schedulable candidates. ok is false when no task is pending or every
// placement is unreachable.
func SelectReduceTask(rc *ReduceCoster, model ProbabilityModel, tasks []*job.ReduceTask, i topology.NodeID, avail Avail) (best Choice, ok bool) {
	if model == nil {
		model = Exponential{}
	}
	pos, cost, asum := rc.sweep(i, tasks, avail)
	n := float64(len(avail.Nodes))
	for k, c := range cost {
		if math.IsInf(c, 1) {
			continue
		}
		var avg float64
		if n > 0 {
			avg = asum[k] / n
		}
		if !ok || avg-c > best.Saving() {
			best = Choice{ReduceTask: tasks[pos[k]], Cost: c, AvgCost: avg}
			ok = true
		}
	}
	if ok {
		best.Prob = model.Prob(best.AvgCost, best.Cost)
	}
	return best, ok
}
