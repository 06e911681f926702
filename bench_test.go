package mapsched

// Benchmark harness regenerating every table and figure of the paper's
// evaluation (Section III), plus the ablations in DESIGN.md and
// microbenchmarks of the core primitives.
//
//	go test -bench=. -benchmem
//
// The figure benches share one cached three-scheduler comparison (built
// once outside the timed region) and report the headline numbers via
// b.ReportMetric; the rendered tables are printed once. Full tables at
// canonical scale are produced by cmd/experiments.

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"

	"mapsched/internal/analysis"
	"mapsched/internal/core"
	"mapsched/internal/engine"
	"mapsched/internal/experiments"
	"mapsched/internal/faults"
	"mapsched/internal/hdfs"
	"mapsched/internal/job"
	"mapsched/internal/metrics"
	"mapsched/internal/obs"
	"mapsched/internal/sched"
	"mapsched/internal/sim"
	"mapsched/internal/topology"
	"mapsched/internal/workload"
)

// benchSetup is the experiment environment at benchmark scale: the full
// 60-node testbed with jobs scaled down so a batch run takes seconds.
func benchSetup() experiments.Setup {
	s := experiments.DefaultSetup()
	s.Workload.Scale = 12
	return s
}

var (
	benchCmp     *experiments.Comparison
	benchCmpErr  error
	benchCmpOnce sync.Once
	printOnce    sync.Once
)

func benchComparison(b *testing.B) *experiments.Comparison {
	b.Helper()
	benchCmpOnce.Do(func() {
		benchCmp, benchCmpErr = benchSetup().RunComparison()
	})
	if benchCmpErr != nil {
		b.Fatal(benchCmpErr)
	}
	return benchCmp
}

func printReports(c *experiments.Comparison) {
	printOnce.Do(func() {
		fmt.Fprintln(os.Stderr, experiments.TableIIReport())
		fmt.Fprintln(os.Stderr, experiments.Fig3().Report())
		fmt.Fprintln(os.Stderr, experiments.Fig4Report(c))
		fmt.Fprintln(os.Stderr, experiments.Fig5(c).Report())
		fmt.Fprintln(os.Stderr, experiments.Fig6Report(c))
		fmt.Fprintln(os.Stderr, experiments.TableIII(c).Report())
		fmt.Fprintln(os.Stderr, experiments.Fig7(c).Report())
		fmt.Fprintln(os.Stderr, experiments.Utilization(c).Report())
	})
}

// BenchmarkTableII_Workload regenerates Table II (the 30-job workload with
// its published task counts).
func BenchmarkTableII_Workload(b *testing.B) {
	var r experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.TableIIReport()
	}
	if len(r.Body) == 0 {
		b.Fatal("empty Table II")
	}
	b.ReportMetric(30, "jobs")
}

// BenchmarkFig3_DataSizeCDF regenerates the input/shuffle size CDFs.
func BenchmarkFig3_DataSizeCDF(b *testing.B) {
	var f experiments.Fig3Data
	for i := 0; i < b.N; i++ {
		f = experiments.Fig3()
	}
	b.ReportMetric(100*f.Shuffle.At(50e9), "pct_jobs_le_50GB_shuffle")
	b.ReportMetric(100*(1-f.Shuffle.At(100e9)), "pct_jobs_gt_100GB_shuffle")
}

// BenchmarkFig4_JobCompletionCDF regenerates the job-completion-time CDFs
// of the three schedulers over the three batches.
func BenchmarkFig4_JobCompletionCDF(b *testing.B) {
	c := benchComparison(b)
	printReports(c)
	b.ResetTimer()
	var rep experiments.Report
	for i := 0; i < b.N; i++ {
		rep = experiments.Fig4Report(c)
	}
	_ = rep
	for _, k := range experiments.SchedulerKinds() {
		b.ReportMetric(c.Results[k].JobCompletionCDF().Mean(), "meanJCT_"+k.String())
	}
}

// BenchmarkFig5_Reduction regenerates the per-job completion-time
// reduction CDFs (probabilistic vs coupling / fair).
func BenchmarkFig5_Reduction(b *testing.B) {
	c := benchComparison(b)
	b.ResetTimer()
	var f experiments.Fig5Data
	for i := 0; i < b.N; i++ {
		f = experiments.Fig5(c)
	}
	b.ReportMetric(100*f.AvgVsCoupling(), "avg_reduction_vs_coupling_pct")
	b.ReportMetric(100*f.AvgVsFair(), "avg_reduction_vs_fair_pct")
}

// BenchmarkFig6_TaskTimeCDF regenerates the map/reduce task running-time
// CDFs.
func BenchmarkFig6_TaskTimeCDF(b *testing.B) {
	c := benchComparison(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig6Report(c)
	}
	for _, k := range experiments.SchedulerKinds() {
		b.ReportMetric(metrics.NewCDF(c.Results[k].MapTimes).Quantile(0.95), "p95_mapT_"+k.String())
	}
}

// BenchmarkTableIII_Locality regenerates the locality mix table.
func BenchmarkTableIII_Locality(b *testing.B) {
	c := benchComparison(b)
	b.ResetTimer()
	var d experiments.TableIIIData
	for i := 0; i < b.N; i++ {
		d = experiments.TableIII(c)
	}
	for _, k := range experiments.SchedulerKinds() {
		l := d.Locality[k]
		b.ReportMetric(l.PercentNode(), "pct_local_node_"+k.String())
	}
}

// BenchmarkFig7_LocalityVsSize regenerates map locality vs input size.
func BenchmarkFig7_LocalityVsSize(b *testing.B) {
	c := benchComparison(b)
	b.ResetTimer()
	var d experiments.Fig7Data
	for i := 0; i < b.N; i++ {
		d = experiments.Fig7(c)
	}
	if len(d.Sizes) == 0 {
		b.Fatal("no sizes")
	}
	k := experiments.Probabilistic
	b.ReportMetric(d.Percent[k][d.Sizes[0]], "pct_local_smallest_input")
	b.ReportMetric(d.Percent[k][d.Sizes[len(d.Sizes)-1]], "pct_local_largest_input")
}

// BenchmarkUtilization regenerates the slot-utilization comparison.
func BenchmarkUtilization(b *testing.B) {
	c := benchComparison(b)
	b.ResetTimer()
	var u experiments.UtilizationData
	for i := 0; i < b.N; i++ {
		u = experiments.Utilization(c)
	}
	for _, k := range experiments.SchedulerKinds() {
		b.ReportMetric(u.Reduce[k], "reduce_util_"+k.String())
	}
}

// BenchmarkPminSweep regenerates the P_min tuning experiment (10 Wordcount
// jobs per threshold).
func BenchmarkPminSweep(b *testing.B) {
	s := benchSetup()
	values := []float64{0.2, 0.4, 0.6}
	var pts []experiments.PminPoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = experiments.PminSweep(s, values)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		b.ReportMetric(float64(p.Unfinished), fmt.Sprintf("unfinished_pmin_%.1f", p.Pmin))
	}
}

// Full-simulation benches: one timed batch run per scheduler.

func benchBatchRun(b *testing.B, k experiments.SchedulerKind) {
	s := benchSetup()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := s.RunBatch(workload.Wordcount, s.BuilderFor(k))
		if err != nil {
			b.Fatal(err)
		}
		if res.Unfinished != 0 {
			b.Fatalf("unfinished jobs under %v", k)
		}
		if i == 0 {
			b.ReportMetric(res.JobCompletionCDF().Mean(), "meanJCT_s")
			b.ReportMetric(float64(res.Events), "sim_events")
		}
	}
}

func BenchmarkSimulation_Probabilistic(b *testing.B) {
	benchBatchRun(b, experiments.Probabilistic)
}

// BenchmarkSimulation_ProbabilisticObserved is the same batch with an
// observer attached consuming every event. The gap to
// BenchmarkSimulation_Probabilistic is the cost of the observability
// layer when it is actually on; with no observer the layer must be free
// (the <2% budget the BENCH.json ledger tracks).
func BenchmarkSimulation_ProbabilisticObserved(b *testing.B) {
	s := benchSetup()
	specs, err := workload.Specs(workload.Batch(workload.Wordcount), s.Workload)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim, err := engine.New(s.Engine, specs, s.BuilderFor(experiments.Probabilistic))
		if err != nil {
			b.Fatal(err)
		}
		var seen uint64
		if err := sim.Attach(obs.Func(func(obs.Event) { seen++ })); err != nil {
			b.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			b.Fatal(err)
		}
		if res.Unfinished != 0 {
			b.Fatal("unfinished jobs under observed probabilistic")
		}
		if seen == 0 {
			b.Fatal("observer saw no events")
		}
		if i == 0 {
			b.ReportMetric(float64(seen), "obs_events")
		}
	}
}

// BenchmarkSimulation_ProbabilisticNaive is the reference path: same
// batch, same decisions, but with every cost recomputed from scratch on
// each scheduling round (ProbabilisticConfig.Naive). The gap to
// BenchmarkSimulation_Probabilistic is the end-to-end win of the
// incremental cost caches.
func BenchmarkSimulation_ProbabilisticNaive(b *testing.B) {
	s := benchSetup()
	cfg := sched.DefaultProbabilisticConfig()
	cfg.Pmin = s.Pmin
	cfg.Naive = true
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := s.RunBatch(workload.Wordcount, sched.NewProbabilistic(cfg))
		if err != nil {
			b.Fatal(err)
		}
		if res.Unfinished != 0 {
			b.Fatal("unfinished jobs under naive probabilistic")
		}
	}
}

// BenchmarkSimulation_FaultChurn is the same batch under a hostile fault
// plan — crashes, a slowdown, a degraded link, transient attempt
// failures — so it prices the whole recovery machinery: detection sweeps,
// task reversion, shuffle re-fetch, retries and blacklisting. The gap to
// BenchmarkSimulation_Probabilistic is the cost of fault churn; the
// fault-free bench itself must stay within the <2% budget vs the seed
// baseline, since a nil plan compiles the subsystem out of the hot path.
func BenchmarkSimulation_FaultChurn(b *testing.B) {
	s := benchSetup()
	s.Workload.Replication = 3
	s.Engine.Faults = faults.Plan{
		Crashes:      []faults.NodeCrash{{Node: 20, At: 20}, {Node: 40, At: 60}},
		Slowdowns:    []faults.NodeSlowdown{{Node: 10, At: 10, Duration: 120, Factor: 3}},
		Links:        []faults.LinkDegrade{{Node: 30, At: 15, Duration: 90, Factor: 0.2}},
		TaskFailProb: 0.05,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := s.RunBatch(workload.Wordcount, s.BuilderFor(experiments.Probabilistic))
		if err != nil {
			b.Fatal(err)
		}
		if res.Unfinished != 0 {
			b.Fatal("unfinished jobs under fault churn")
		}
		if i == 0 {
			b.ReportMetric(res.JobCompletionCDF().Mean(), "meanJCT_s")
			b.ReportMetric(float64(res.AttemptFailures), "attempt_fails")
			b.ReportMetric(float64(res.RelaunchedMaps+res.RelaunchedReduces), "relaunches")
		}
	}
}

// BenchmarkSimulation_OpenSystem runs one open-system sweep cell: the
// three-tenant continuous-arrival workload at load factor 0.9 under the
// probabilistic scheduler, with weighted admission and preemption on.
// Beyond wall-clock cost it reports the steady-state p99 job completion
// time — a deterministic function of the seed, so the BENCH.json ledger
// can hold it to a budget and catch scheduling-policy regressions that a
// pure latency bench would miss.
func BenchmarkSimulation_OpenSystem(b *testing.B) {
	s := benchSetup()
	nodes := s.Engine.Topology.Racks * s.Engine.Topology.NodesPerRack
	plan := experiments.OpenPlan(nodes)
	tenants := experiments.CalibrateRates(experiments.OpenTenants(), 0.9, s)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := s.RunOpen(plan, tenants, s.BuilderFor(experiments.Probabilistic))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			jct := metrics.NewCDF(res.SteadyJCTs())
			if jct.N() == 0 {
				b.Fatal("open-system bench produced no steady-state completions")
			}
			b.ReportMetric(jct.Quantile(0.99), "p99_jct_s")
			b.ReportMetric(float64(res.Preemptions), "preemptions")
			b.ReportMetric(float64(res.RejectedJobs), "rejected")
		}
	}
}

func BenchmarkSimulation_Coupling(b *testing.B) { benchBatchRun(b, experiments.Coupling) }

func BenchmarkSimulation_Fair(b *testing.B) { benchBatchRun(b, experiments.Fair) }

// Macro benches of the parallel experiment harness: the full
// three-scheduler x three-batch comparison, once with the worker pool at
// GOMAXPROCS and once pinned to a single worker (the old sequential
// behaviour). The ratio is the harness speedup on this machine — but
// only when GOMAXPROCS > 1. The comparison fans out 9 leaf simulations
// (3 schedulers x 3 workload batches), so the pool saturates at
// min(9, GOMAXPROCS); on a single-core machine both variants execute one
// simulation at a time and any Parallel-vs-Serial delta is noise. Each
// run reports gomaxprocs so the output is self-describing.

func benchComparisonRun(b *testing.B, workers int) {
	s := benchSetup()
	if workers > 0 {
		experiments.SetMaxWorkers(workers)
		defer experiments.SetMaxWorkers(runtime.GOMAXPROCS(0))
	}
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
	for i := 0; i < b.N; i++ {
		c, err := s.RunComparison()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(c.Results[experiments.Probabilistic].JobCompletionCDF().Mean(), "meanJCT_prob")
		}
	}
}

func BenchmarkSimulation_ComparisonParallel(b *testing.B) { benchComparisonRun(b, 0) }

func BenchmarkSimulation_ComparisonSerial(b *testing.B) { benchComparisonRun(b, 1) }

// BenchmarkSimulation_ComparisonWorkers sweeps the worker-pool size over
// the useful range (the comparison has 9 leaf simulations). On a
// multi-core machine the curve rises until min(9, GOMAXPROCS) and then
// flattens; on a single-core machine it is flat by construction, which is
// the honest shape rather than a parallelism win.
func BenchmarkSimulation_ComparisonWorkers(b *testing.B) {
	for _, w := range []int{1, 2, 4, 9} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) { benchComparisonRun(b, w) })
	}
}

// Ablation benches (design choices called out in DESIGN.md).

func benchAblation(b *testing.B, run func(experiments.Setup) ([]experiments.AblationPoint, error)) {
	s := benchSetup()
	var pts []experiments.AblationPoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = run(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		b.ReportMetric(p.MeanJCT, "meanJCT_"+p.Variant)
	}
}

func BenchmarkAblation_Estimator(b *testing.B) {
	benchAblation(b, experiments.AblationEstimator)
}

func BenchmarkAblation_NetworkCondition(b *testing.B) {
	benchAblation(b, experiments.AblationNetworkCondition)
}

func BenchmarkAblation_Deterministic(b *testing.B) {
	benchAblation(b, experiments.AblationDeterministic)
}

func BenchmarkAblation_ReduceSpread(b *testing.B) {
	benchAblation(b, experiments.AblationReduceSpread)
}

func BenchmarkMultiRack(b *testing.B) {
	benchAblation(b, experiments.MultiRack)
}

// Microbenchmarks of the core primitives.

func microFixture(b *testing.B) (*core.CostModel, *job.Job) {
	b.Helper()
	spec := topology.DefaultSpec()
	net, err := topology.NewCluster(sim.NewEngine(), spec)
	if err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(1)
	store := hdfs.NewStore(net, rng)
	cm, err := core.NewCostModel(net, store, net, core.ModeHops)
	if err != nil {
		b.Fatal(err)
	}
	j, err := job.New(1, job.Spec{
		Name:       "bench",
		Profile:    workload.ProfileFor(workload.Wordcount),
		InputBytes: 100 * 128e6,
		BlockSize:  128e6,
		NumReduces: 30,
	}, store, rng)
	if err != nil {
		b.Fatal(err)
	}
	for i, m := range j.Maps {
		m.State = job.TaskDone
		m.Node = topology.NodeID(i % net.Size())
		m.Progress = 1
	}
	j.DoneMaps = len(j.Maps)
	return cm, j
}

func BenchmarkCore_MapCost(b *testing.B) {
	cm, j := microFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cm.MapCost(j.Maps[i%len(j.Maps)], topology.NodeID(i%60))
	}
}

func BenchmarkCore_ReduceCosterBuild(b *testing.B) {
	cm, j := microFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cm.NewReduceCoster(j, core.ProgressScaled{})
	}
}

// BenchmarkCore_ReduceCosterRefresh measures the incremental update after
// one map's progress changed — the per-heartbeat cost of keeping the
// shuffle matrix current, vs rebuilding it (BenchmarkCore_ReduceCosterBuild).
func BenchmarkCore_ReduceCosterRefresh(b *testing.B) {
	cm, j := microFixture(b)
	rc := cm.NewReduceCoster(j, core.ProgressScaled{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := j.Maps[i%len(j.Maps)]
		m.State = job.TaskRunning
		m.Progress = 0.5 + 0.4*float64(i%2)
		rc.Refresh()
	}
}

func BenchmarkCore_ReduceCostEval(b *testing.B) {
	cm, j := microFixture(b)
	rc := cm.NewReduceCoster(j, core.ProgressScaled{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rc.Cost(topology.NodeID(i%60), i%30)
	}
}

func benchSelectMapTask(b *testing.B, cached bool) {
	cm, j := microFixture(b)
	for _, m := range j.Maps {
		m.State = job.TaskPending
		m.Node = -1
	}
	j.DoneMaps = 0
	avail := make([]topology.NodeID, 60)
	for i := range avail {
		avail[i] = topology.NodeID(i)
	}
	var ev core.MapCostEvaluator = cm.Evaluator()
	if cached {
		ev = cm.NewMapCoster()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := core.SelectMapTaskWith(ev, nil, j.Maps, topology.NodeID(i%60), core.NewAvail(avail)); !ok {
			b.Fatal("no candidate")
		}
	}
}

// BenchmarkCore_SelectMapTask runs Algorithm 1 through the MapCoster (the
// production path); the Naive variant recomputes every replica distance
// and cluster average per offer, as the seed implementation did.
func BenchmarkCore_SelectMapTask(b *testing.B) { benchSelectMapTask(b, true) }

func BenchmarkCore_SelectMapTaskNaive(b *testing.B) { benchSelectMapTask(b, false) }

func BenchmarkCore_AssignProb(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = core.AssignProb(float64(i%1000)+1, float64(i%700)+1)
	}
}

// BenchmarkTopology_FlowChurn exercises max-min share solving under flow
// start/finish churn: one transfer per iteration, with the engine drained
// whenever more than 256 events are pending.
func BenchmarkTopology_FlowChurn(b *testing.B) {
	eng := sim.NewEngine()
	net, err := topology.NewCluster(eng, topology.DefaultSpec())
	if err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Transfer(topology.NodeID(rng.Intn(60)), topology.NodeID(rng.Intn(60)), 1e6, nil)
		if eng.Pending() > 256 {
			for eng.Pending() > 0 {
				eng.Step()
			}
		}
	}
	if _, err := eng.RunAll(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkSim_ScheduleStep(b *testing.B) {
	eng := sim.NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Schedule(eng.Now()+1, func() {})
		eng.Step()
	}
}

func BenchmarkMetrics_CDFQuantile(b *testing.B) {
	vals := make([]float64, 10000)
	rng := sim.NewRNG(9)
	for i := range vals {
		vals[i] = rng.Float64()
	}
	cdf := metrics.NewCDF(vals)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cdf.Quantile(float64(i%100) / 100)
	}
}

func BenchmarkHDFS_Placement(b *testing.B) {
	net, err := topology.NewCluster(sim.NewEngine(), topology.DefaultSpec())
	if err != nil {
		b.Fatal(err)
	}
	store := hdfs.NewStore(net, sim.NewRNG(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.AddBlock(128e6, 2, hdfs.RackAware{}); err != nil {
			b.Fatal(err)
		}
	}
}

var _ = sched.FairJobs  // document the sched dependency of this harness
var _ = engine.Config{} // and the engine one

// Extension benches: the paper's future-work explorations and the
// related-work baselines.

func BenchmarkExtension_ProbabilityModels(b *testing.B) {
	s := benchSetup()
	var pts []experiments.AblationPoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = experiments.ModelComparison(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		b.ReportMetric(p.MeanJCT, "meanJCT_"+p.Variant)
	}
}

func BenchmarkExtension_AllSchedulers(b *testing.B) {
	s := benchSetup()
	var pts []experiments.AblationPoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = experiments.ExtendedComparison(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		b.ReportMetric(p.MeanJCT, "meanJCT_"+p.Variant)
	}
}

func BenchmarkExtension_FaultTolerance(b *testing.B) {
	s := benchSetup()
	var pts []experiments.FaultPoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = experiments.FaultTolerance(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		b.ReportMetric(p.FaultyJCT, "faultyJCT_"+p.Scheduler)
	}
}

func BenchmarkAnalysis_TradeoffCurve(b *testing.B) {
	costs := make([]float64, 60)
	for i := 1; i < 60; i++ {
		costs[i] = 2
	}
	pmins := []float64{0, 0.2, 0.4, 0.6, 0.8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.TradeoffCurve(costs, core.Exponential{}, pmins); err != nil {
			b.Fatal(err)
		}
	}
}

// flatView hides a Cluster's ClassedNetwork interface so a hop-mode cost
// model over it takes the per-node path — the pre-class-collapse code,
// kept measurable as the baseline BenchmarkSelect_ClusterScale compares
// against. Distances are bit-identical to the classed view.
type flatView struct{ c *topology.Cluster }

func (f flatView) Size() int                             { return f.c.Size() }
func (f flatView) Distance(a, b topology.NodeID) float64 { return f.c.Distance(a, b) }
func (f flatView) Rack(a topology.NodeID) int            { return f.c.Rack(a) }

// scaleSelectFixture builds an idle cluster of the given size with one
// job of pending maps, returning the avail-set pair the benchmark
// toggles between (full set, and full set minus one node) with
// incrementally maintained per-class counts — the same churn-per-offer
// regime the engine produces when slots fill and free on every event.
func scaleSelectFixture(b *testing.B, nodes int) (*topology.Cluster, *hdfs.Store, *job.Job, [2]core.Avail) {
	b.Helper()
	spec := topology.DefaultSpec()
	spec.NodesPerRack = 20
	spec.Racks = nodes / 20
	cl, err := topology.NewCluster(sim.NewEngine(), spec)
	if err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(1)
	store := hdfs.NewStore(cl, rng)
	j, err := job.New(1, job.Spec{
		Name:        "scalebench",
		Profile:     workload.ProfileFor(workload.Wordcount),
		InputBytes:  100 * 128e6,
		BlockSize:   128e6,
		NumReduces:  30,
		Replication: 3,
	}, store, rng)
	if err != nil {
		b.Fatal(err)
	}
	full := make([]topology.NodeID, nodes)
	for i := range full {
		full[i] = topology.NodeID(i)
	}
	classes := cl.Classes()
	counts := make([]int, classes.Num())
	for _, n := range full {
		counts[classes.Of(n)]++
	}
	// Variant B: node 7 lost its free slot.
	partial := append(append([]topology.NodeID(nil), full[:7]...), full[8:]...)
	countsB := append([]int(nil), counts...)
	countsB[classes.Of(7)]--
	return cl, store, j, [2]core.Avail{
		{Nodes: full, Counts: counts, Version: 1},
		{Nodes: partial, Counts: countsB, Version: 2},
	}
}

// BenchmarkSelect_ClusterScale measures one Algorithm 1 slot offer (the
// per-heartbeat hot path) across cluster sizes, with the avail set
// churning on every offer as it does under live slot traffic:
//
//	classed - production path: class-collapsed C_avg + pruning (this PR)
//	pernode - the pre-PR cached path: per-node distance rows, O(nodes)
//	          re-summation per avail change
//	naive   - the seed path: direct Formula 1 over every (task, node)
//
// Per-offer time for classed grows with the number of distance classes
// (racks), not nodes; BENCH.json records the trajectory.
func BenchmarkSelect_ClusterScale(b *testing.B) {
	for _, nodes := range []int{100, 500, 1000, 2000, 5000} {
		cl, store, j, avails := scaleSelectFixture(b, nodes)
		for _, variant := range []string{"classed", "pernode", "naive"} {
			var ev core.MapCostEvaluator
			switch variant {
			case "classed":
				cm, err := core.NewCostModel(cl, store, nil, core.ModeHops)
				if err != nil {
					b.Fatal(err)
				}
				if cm.Classes() == nil {
					b.Fatal("cluster did not collapse into classes")
				}
				ev = cm.NewMapCoster()
			case "pernode":
				cm, err := core.NewCostModel(flatView{cl}, store, nil, core.ModeHops)
				if err != nil {
					b.Fatal(err)
				}
				if cm.Classes() != nil {
					b.Fatal("flat view unexpectedly classed")
				}
				ev = cm.NewMapCoster()
			case "naive":
				cm, err := core.NewCostModel(flatView{cl}, store, nil, core.ModeHops)
				if err != nil {
					b.Fatal(err)
				}
				ev = cm.Evaluator()
			}
			b.Run(fmt.Sprintf("n%d/%s", nodes, variant), func(b *testing.B) {
				version := uint64(3)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					a := avails[i%2]
					a.Version = version // distinct identity per offer: the churn regime
					version++
					if _, ok := core.SelectMapTaskWith(ev, nil, j.Maps, topology.NodeID(i%nodes), a); !ok {
						b.Fatal("no candidate")
					}
				}
			})
		}
	}
}
