package topology

import (
	"fmt"
	"math"
	"testing"

	"mapsched/internal/sim"
)

// referenceShares computes the max-min fair share of every flow attached
// to n from scratch: effective capacities from the current occupancy and
// alpha, then rounds that freeze the unfrozen flows of the link with the
// smallest remaining-capacity-per-unfrozen-flow (lowest link id on ties),
// subtracting the share once per crossing. It shares no state or helper
// with the solver, recounting unfrozen flows every round, but performs
// the same float operations in the same order, so agreement is exact.
func referenceShares(n *FlowNet) map[*Flow]float64 {
	attached := 0
	seen := make(map[*Flow]bool)
	rem := make([]float64, len(n.links))
	for l := range n.links {
		k := len(n.links[l].flows)
		rem[l] = n.links[l].capacity
		if n.alpha != 0 && k > 1 {
			rem[l] /= 1 + n.alpha*float64(k-1)
		}
		for _, f := range n.links[l].flows {
			if !seen[f] {
				seen[f] = true
				attached++
			}
		}
	}
	share := make(map[*Flow]float64, attached)
	for len(share) < attached {
		best, bestShare := -1, math.Inf(1)
		for l := range n.links {
			k := 0
			for _, f := range n.links[l].flows {
				if _, frozen := share[f]; !frozen {
					k++
				}
			}
			if k > 0 && rem[l]/float64(k) < bestShare {
				best, bestShare = l, rem[l]/float64(k)
			}
		}
		for _, f := range n.links[best].flows {
			if _, frozen := share[f]; frozen {
				continue
			}
			share[f] = bestShare
			for _, l := range f.links {
				rem[l] = math.Max(rem[l]-bestShare, 0)
			}
		}
	}
	return share
}

// checkAgainstReference fails unless every attached flow's share (as
// Rate reports it) equals the reference bit for bit, the link loads are
// feasible, and every flow has a saturated link on which no flow gets
// more than it does — the max-min bottleneck condition (both up to float
// rounding).
func checkAgainstReference(t *testing.T, n *FlowNet, when string) {
	t.Helper()
	ref := referenceShares(n)
	if len(ref) != n.ActiveFlows() {
		t.Fatalf("%s: %d flows attached, %d active", when, len(ref), n.ActiveFlows())
	}
	for f, want := range ref {
		if got := f.Rate(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: flow %d rate %v, reference %v", when, f.id, got, want)
		}
	}
	if err := n.CheckFeasible(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	for f, r := range ref {
		bottleneck := false
		for _, l := range f.links {
			var sum, top float64
			for _, g := range n.links[l].flows {
				sum += ref[g]
				top = math.Max(top, ref[g])
			}
			eff := n.effCapacity(int(l), len(n.links[l].flows))
			// Shares frozen in different rounds may differ by an ulp.
			if sum >= eff*(1-1e-9) && r >= top*(1-1e-9) {
				bottleneck = true
				break
			}
		}
		if !bottleneck {
			t.Fatalf("%s: flow %d (rate %v) has no saturated link where it is maximal", when, f.id, r)
		}
	}
}

// oracleRun drives a randomized event stream through a two-rack cluster:
// each event starts transfers (some zero-byte, local or persistent),
// cancels tracked flows, rescales host links (down to severed and back)
// and changes alpha, and half the events are chained at the same instant.
// After every dispatched event a commit hook checks the applied shares
// against referenceShares. With probe set, every event also reads Rate
// and CheckFeasible mid-event and checks them the same way. It returns
// the completion/cancel trace, the solve count and the events fired.
func oracleRun(t *testing.T, seed int64, probe bool) ([]string, int64, uint64) {
	t.Helper()
	eng := sim.NewEngine()
	spec := DefaultSpec()
	spec.Racks = 2
	spec.NodesPerRack = 3
	c := mustCluster(t, eng, spec)
	n := c.Net()
	eng.AddCommitHook(func() {
		if n.dirty || n.unapplied {
			t.Fatalf("t=%v: commit left shares unsolved or unapplied", eng.Now())
		}
		for _, f := range n.liveList {
			if f.rate != f.next {
				t.Fatalf("t=%v: flow %d applied rate %v, solved %v", eng.Now(), f.id, f.rate, f.next)
			}
		}
		checkAgainstReference(t, n, fmt.Sprintf("commit t=%v", eng.Now()))
	})

	rng := sim.NewRNG(seed)
	size := c.Size()
	var trace []string
	var live []*Flow
	const ops = 150
	var op func(id int)
	op = func(id int) {
		for k := 1 + rng.Intn(4); k > 0; k-- {
			switch rng.Intn(10) {
			case 0, 1, 2, 3: // transfer: mostly remote, sometimes zero-byte or local
				src, dst := NodeID(rng.Intn(size)), NodeID(rng.Intn(size))
				bytes := 1e6 + 2e8*rng.Float64()
				if rng.Intn(10) == 0 {
					bytes = 0
				}
				tag := fmt.Sprintf("%d.%d", id, k)
				live = append(live, c.Transfer(src, dst, bytes, func() {
					trace = append(trace, fmt.Sprintf("done %s@%v", tag, eng.Now()))
				}))
			case 4:
				if f := c.InjectCrossTraffic(NodeID(rng.Intn(size)), NodeID(rng.Intn(size))); f != nil {
					live = append(live, f)
				}
			case 5, 6:
				if len(live) > 0 {
					i := rng.Intn(len(live))
					if f := live[i]; !f.Finished() {
						trace = append(trace, fmt.Sprintf("cancel flow %d@%v", f.id, eng.Now()))
						n.Cancel(f)
					}
					live = append(live[:i], live[i+1:]...)
				}
			case 7, 8:
				factors := [...]float64{0, 0.25, 0.5, 1, 1}
				c.SetHostLinkFactor(NodeID(rng.Intn(size)), factors[rng.Intn(len(factors))])
			case 9:
				alphas := [...]float64{0, 0.05, 0.2}
				n.SetCongestionAlpha(alphas[rng.Intn(len(alphas))])
			}
		}
		if probe {
			checkAgainstReference(t, n, fmt.Sprintf("mid-event op %d", id))
		}
		if id == ops {
			// Restore every link and stop the cross traffic so the rest
			// of the transfers drain.
			for a := 0; a < size; a++ {
				c.SetHostLinkFactor(NodeID(a), 1)
			}
			for _, f := range live {
				if f.persistent {
					n.Cancel(f)
				}
			}
			return
		}
		d := 0.0
		if rng.Intn(2) == 0 {
			d = 2 * rng.Float64()
		}
		eng.After(d, func() { op(id + 1) })
	}
	eng.Schedule(0, func() { op(0) })
	if _, err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if n.ActiveFlows() != 0 {
		t.Fatalf("%d flows still active after drain", n.ActiveFlows())
	}
	return trace, n.FullRecomputes(), eng.Fired()
}

// TestFlowNetMatchesReferenceOracle checks the solve-per-event design
// against referenceShares over randomized churn: applied shares after
// every event and on-demand shares mid-event must match bit for bit and
// satisfy feasibility and the bottleneck condition. Without mid-event
// reads the net solves at most once per dispatched event (plus the
// pre-run flush), and the reads themselves must leave the completion
// trace untouched.
func TestFlowNetMatchesReferenceOracle(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		plain, solves, fired := oracleRun(t, seed, false)
		probed, probedSolves, _ := oracleRun(t, seed, true)
		if solves == 0 || solves > int64(fired)+1 {
			t.Fatalf("seed %d: %d solves over %d events, want 1..%d", seed, solves, fired, fired+1)
		}
		if probedSolves <= solves {
			t.Fatalf("seed %d: mid-event reads solved %d times, plain run %d", seed, probedSolves, solves)
		}
		if len(plain) != len(probed) {
			t.Fatalf("seed %d: trace length %d, with mid-event reads %d", seed, len(plain), len(probed))
		}
		for i := range plain {
			if plain[i] != probed[i] {
				t.Fatalf("seed %d: trace %d: %s, with mid-event reads %s", seed, i, plain[i], probed[i])
			}
		}
	}
}

// TestRateMidEventReturnsSolvedShare pins the on-demand solve: shares read
// inside the event that churned reflect that churn at once, and the commit
// applies the last on-demand solve instead of solving again.
func TestRateMidEventReturnsSolvedShare(t *testing.T) {
	eng := sim.NewEngine()
	n := NewFlowNet(eng)
	l := n.AddLink(100)
	var doneAt sim.Time
	eng.Schedule(0, func() {
		a := n.StartFlow([]LinkID{l}, 1e3, func() { doneAt = eng.Now() })
		b := n.StartFlow([]LinkID{l}, 1e3, nil)
		if a.Rate() != 50 || b.Rate() != 50 {
			t.Errorf("two flows on one link: rates %v, %v, want 50 each", a.Rate(), b.Rate())
		}
		n.Cancel(b)
		if a.Rate() != 100 {
			t.Errorf("after cancel: rate %v, want 100", a.Rate())
		}
		n.SetLinkCapacity(l, 40)
		if a.Rate() != 40 {
			t.Errorf("after capacity change: rate %v, want 40", a.Rate())
		}
	})
	if _, err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	// The lone flow ran at 40 B/s from t=0; the commit re-solved nothing,
	// and the solve after its finish found no live flow.
	if doneAt != 25 {
		t.Fatalf("flow finished at %v, want 25", doneAt)
	}
	if got := n.FullRecomputes(); got != 3 {
		t.Fatalf("%d solves, want 3 (one per mid-event read)", got)
	}
}

// TestNonFiniteLinkCapacityPanics pins the capacity domain: NaN and
// infinite capacities would never win a bottleneck round, silently
// stalling every flow on the link, so both entry points reject them.
func TestNonFiniteLinkCapacityPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	n := NewFlowNet(sim.NewEngine())
	l := n.AddLink(1)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		mustPanic(fmt.Sprintf("AddLink(%v)", v), func() { n.AddLink(v) })
		mustPanic(fmt.Sprintf("SetLinkCapacity(%v)", v), func() { n.SetLinkCapacity(l, v) })
	}
	n.SetLinkCapacity(l, -1) // negative still clamps to a severed link
	if n.LinkCapacity(l) != 0 {
		t.Fatalf("negative capacity stored as %v, want 0", n.LinkCapacity(l))
	}
}

// TestEpochAdvancesOnChurnOnly pins the cache-invalidation contract: the
// epoch moves exactly when flows start, finish or are cancelled, and
// stands still otherwise.
func TestEpochAdvancesOnChurnOnly(t *testing.T) {
	eng := sim.NewEngine()
	c, err := NewCluster(eng, DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	if c.Epoch() != 0 {
		t.Fatalf("fresh epoch = %d", c.Epoch())
	}
	f := c.Transfer(0, 1, 1e6, nil)
	e1 := c.Epoch()
	if e1 == 0 {
		t.Fatal("epoch did not advance on flow start")
	}
	// Observations without churn must not move the epoch.
	_ = c.PathRate(2, 3)
	_ = c.Net().ProspectiveRate([]LinkID{0})
	if c.Epoch() != e1 {
		t.Fatal("epoch advanced without churn")
	}
	// Local transfers bypass the network entirely.
	c.Transfer(5, 5, 1e6, nil)
	if c.Epoch() != e1 {
		t.Fatal("epoch advanced on local transfer")
	}
	c.Net().Cancel(f)
	if c.Epoch() == e1 {
		t.Fatal("epoch did not advance on cancel")
	}
}

// mirrorNets builds two identical multi-rack clusters. Callers leave the
// first alone between events, so it solves once per commit, and read
// rates on the second after every churn, forcing an on-demand full solve
// per start.
func mirrorNets(t *testing.T) (*sim.Engine, *Cluster, *sim.Engine, *Cluster) {
	t.Helper()
	spec := DefaultSpec()
	spec.Racks = 4
	spec.NodesPerRack = 15
	engA := sim.NewEngine()
	engB := sim.NewEngine()
	return engA, mustCluster(t, engA, spec), engB, mustCluster(t, engB, spec)
}

// TestIncrementalRecomputeMatchesFull drives an identical random churn of
// transfers through a network left to its coalesced per-commit solve and
// one forced to a full solve after every flow start, and checks that
// completion instants, counts and delivered bytes agree exactly, and that
// coalescing actually saved solves.
func TestIncrementalRecomputeMatchesFull(t *testing.T) {
	engA, a, engB, b := mirrorNets(t)

	type op struct {
		src, dst NodeID
		bytes    float64
	}
	rng := sim.NewRNG(7)
	var ops []op
	for i := 0; i < 400; i++ {
		src := NodeID(rng.Intn(a.Size()))
		dst := NodeID(rng.Intn(a.Size()))
		if src == dst {
			dst = NodeID((int(dst) + 1) % a.Size())
		}
		// Irregular sizes so no two flows finish at exactly the same time.
		ops = append(ops, op{src, dst, 1e5 + rng.Float64()*5e6})
	}

	// Starts arrive in batches of four per event, spread over the run so
	// the live-flow population churns.
	const batch = 4
	run := func(eng *sim.Engine, c *Cluster, perChurn bool) ([]float64, int64, float64) {
		var finishes []float64
		for i := 0; i < len(ops); i += batch {
			chunk := ops[i : i+batch]
			eng.Schedule(sim.Time(float64(i)*0.01), func() {
				for _, o := range chunk {
					f := c.Transfer(o.src, o.dst, o.bytes, func() {
						finishes = append(finishes, float64(eng.Now()))
					})
					if perChurn {
						_ = f.Rate()
					}
				}
			})
		}
		if _, err := eng.RunAll(); err != nil {
			t.Fatal(err)
		}
		if err := c.Net().CheckFeasible(); err != nil {
			t.Fatal(err)
		}
		return finishes, c.Net().Completed(), c.Net().BytesDelivered()
	}

	finA, cmplA, bytesA := run(engA, a, false)
	finB, cmplB, bytesB := run(engB, b, true)

	if cmplA != cmplB {
		t.Fatalf("completed flows: coalesced %d, per-churn %d", cmplA, cmplB)
	}
	if bytesA != bytesB {
		t.Fatalf("delivered bytes: coalesced %v, per-churn %v", bytesA, bytesB)
	}
	if len(finA) != len(finB) {
		t.Fatalf("callback counts differ: %d vs %d", len(finA), len(finB))
	}
	for i := range finA {
		// On-demand solves apply nothing, so finish instants are identical.
		if finA[i] != finB[i] {
			t.Fatalf("finish %d: coalesced %v, per-churn %v", i, finA[i], finB[i])
		}
	}
	sa, sb := a.Net().FullRecomputes(), b.Net().FullRecomputes()
	if sb < int64(len(ops)) {
		t.Fatalf("per-churn network solved %d times over %d starts", sb, len(ops))
	}
	if sa > int64(engA.Fired())+1 || sa >= sb {
		t.Fatalf("coalesced network solved %d times over %d events, per-churn %d", sa, engA.Fired(), sb)
	}
	t.Logf("solves: coalesced %d, per-churn %d", sa, sb)
}

// TestIncrementalRatesMatchFullAfterEachChurn compares the share of every
// flow between the coalesced and per-churn networks after every start and
// after every batch of finishes, and checks both against referenceShares
// — the shares themselves must be bit-identical, not just the outcomes.
func TestIncrementalRatesMatchFullAfterEachChurn(t *testing.T) {
	engA, a, engB, b := mirrorNets(t)

	rng := sim.NewRNG(11)
	var flowsA, flowsB []*Flow
	check := func(step int) {
		t.Helper()
		for i := range flowsA {
			fa, fb := flowsA[i], flowsB[i]
			if fa.Finished() != fb.Finished() {
				t.Fatalf("step %d flow %d: finished %v vs %v", step, i, fa.Finished(), fb.Finished())
			}
			if fa.Rate() != fb.Rate() {
				t.Fatalf("step %d flow %d: rate %v vs %v", step, i, fa.Rate(), fb.Rate())
			}
		}
		checkAgainstReference(t, a.Net(), fmt.Sprintf("coalesced step %d", step))
	}
	for i := 0; i < 200; i++ {
		src := NodeID(rng.Intn(a.Size()))
		dst := NodeID(rng.Intn(a.Size()))
		if src == dst {
			dst = NodeID((int(dst) + 1) % a.Size())
		}
		bytes := 1e5 + rng.Float64()*2e6
		flowsA = append(flowsA, a.Transfer(src, dst, bytes, nil))
		flowsB = append(flowsB, b.Transfer(src, dst, bytes, nil))
		checkAgainstReference(t, b.Net(), fmt.Sprintf("per-churn start %d", i))
		if engA.Pending() > 48 {
			for j := 0; j < 16; j++ {
				engA.Step()
				engB.Step()
			}
			check(i)
		}
		if pa, pb := a.PathRate(src, dst), b.PathRate(src, dst); pa != pb {
			t.Fatalf("step %d: PathRate %v vs %v", i, pa, pb)
		}
	}
	for engA.Step() {
		engB.Step()
	}
	check(-1)
}
