// Package engine is the simulation driver: it wires the topology, block
// store, slot model and a task-level scheduler into a JobTracker that
// reacts to TaskTracker heartbeats, executes map/shuffle/reduce phases
// over the flow-level network, and collects the metrics the paper's
// evaluation reports. It also models the Hadoop mechanisms the paper's
// testbed had enabled: speculative execution of straggling map and reduce
// tasks, and recovery from TaskTracker (node) failures with realistic
// detection semantics — a crashed node dies physically at the fault time
// (its tasks stop, its heartbeats cease) but the JobTracker reacts only
// after a heartbeat-expiry lag, then re-executes lost work, retries
// failed attempts up to a cap and blacklists repeat-offender nodes. The
// fault script itself lives in internal/faults.
package engine

import (
	"fmt"
	"math"

	"mapsched/internal/cluster"
	"mapsched/internal/core"
	"mapsched/internal/faults"
	"mapsched/internal/hdfs"
	"mapsched/internal/job"
	"mapsched/internal/metrics"
	"mapsched/internal/obs"
	"mapsched/internal/placement"
	"mapsched/internal/sched"
	"mapsched/internal/sim"
	"mapsched/internal/topology"
)

// NodeFailure schedules the permanent failure of a node at a simulated
// time: its tasks are killed, its stored map outputs become unavailable,
// and it stops heartbeating. It is the legacy spelling of
// faults.NodeCrash and follows the same detection-lag semantics.
type NodeFailure struct {
	Node int
	At   float64
}

// Config describes one simulated cluster run.
type Config struct {
	// Topology is the physical cluster shape. The default mirrors the
	// paper's testbed: 60 nodes in one rack.
	Topology topology.Spec
	// MapSlotsPerNode and ReduceSlotsPerNode follow the paper's setup
	// ("4 map slots and 2 reduce slots per node").
	MapSlotsPerNode    int
	ReduceSlotsPerNode int
	// HeartbeatInterval is the TaskTracker heartbeat period in seconds
	// (Hadoop 1.x default: 3 s).
	HeartbeatInterval float64
	// Slowstart is the map-progress fraction gating reduce launches.
	Slowstart float64
	// ShuffleParallelism bounds concurrent fetch flows per reduce task
	// (Hadoop's parallel copiers).
	ShuffleParallelism int
	// TaskOverhead is fixed per-task startup cost in seconds (JVM spawn,
	// task setup).
	TaskOverhead float64
	// Seed makes the whole run reproducible.
	Seed int64
	// CostMode selects hop-count or network-condition distances for the
	// cost model handed to the scheduler.
	CostMode core.Mode
	// CrossTraffic injects this many persistent background flows between
	// random node pairs, exercising the network-condition experiments.
	CrossTraffic int
	// MaxSimTime aborts the run at this simulated horizon (seconds); jobs
	// still unfinished are reported in Result.Unfinished. Zero means the
	// default of 24 simulated hours.
	MaxSimTime float64

	// Speculation enables backup execution of straggling map tasks: when
	// a map's attempt has been running longer than SpecSlowdown times the
	// job's mean completed-map duration (with at least SpecMinCompleted
	// completed maps for the estimate) and a slot has no other work, a
	// second attempt launches there; the first to finish wins.
	Speculation      bool
	SpecSlowdown     float64 // default 1.8
	SpecMinCompleted int     // default 3

	// Failures permanently kills nodes at the given times. Equivalent to
	// listing the nodes in Faults.Crashes.
	Failures []NodeFailure

	// Faults is the deterministic fault-injection plan: scripted crashes,
	// slowdowns, link degradations and replica losses plus the transient
	// attempt-failure process and retry/blacklist policy. The zero plan
	// disables injection entirely and the run is bit-identical to one
	// without the fault layer.
	Faults faults.Plan

	// HeartbeatExpiry is how long after a node stops heartbeating the
	// JobTracker declares it dead and starts recovery (slot reclamation,
	// task re-execution, replica pruning). Zero means the Hadoop-style
	// default of 10 × HeartbeatInterval.
	HeartbeatExpiry float64

	// SlowNodeFraction marks this share of nodes (chosen deterministically
	// from the seed) as stragglers whose compute rates are divided by
	// SlowFactor — the hardware heterogeneity that motivates speculative
	// execution. Zero disables heterogeneity.
	SlowNodeFraction float64
	SlowFactor       float64 // default 2.5 when heterogeneity is on

	// Open configures the open-system mode: a continuous arrival stream
	// feeding per-tenant queues with weighted admission control and
	// optional kill-and-requeue preemption (DESIGN.md §18). The zero
	// value keeps the classic closed-system (fixed-batch) behavior and
	// the run is bit-identical to one before the layer existed.
	Open OpenSystem

	// ResourceMode replaces the Hadoop 1.x fixed slots with a YARN-style
	// container model (the paper's Section V future work): every node has
	// a resource capacity and each map/reduce task requests a container,
	// so the map/reduce split of a node's capacity is no longer static.
	ResourceMode    bool
	NodeResources   cluster.Resources // default 16384 MB / 16 vcores
	MapContainer    cluster.Resources // default 2048 MB / 2 vcores
	ReduceContainer cluster.Resources // default 4096 MB / 4 vcores
}

// DefaultConfig returns the paper's experimental setup.
func DefaultConfig() Config {
	return Config{
		Topology:           topology.DefaultSpec(),
		MapSlotsPerNode:    4,
		ReduceSlotsPerNode: 2,
		HeartbeatInterval:  3,
		Slowstart:          0.05,
		ShuffleParallelism: 3,
		TaskOverhead:       1,
		Seed:               1,
		CostMode:           core.ModeHops,
		MaxSimTime:         86400,
		SpecSlowdown:       1.8,
		SpecMinCompleted:   3,
		NodeResources:      cluster.Resources{MemMB: 16384, VCores: 16},
		MapContainer:       cluster.Resources{MemMB: 2048, VCores: 2},
		ReduceContainer:    cluster.Resources{MemMB: 4096, VCores: 4},
	}
}

// Validate reports whether the configuration is usable, including its
// topology. Every float field must be finite: NaN slips through range
// comparisons (a NaN heartbeat never advances the clock, a NaN slowstart
// never releases a reduce), and no field has a meaningful infinite
// value. In particular an infinite MaxSimTime or HeartbeatExpiry is not
// read as "never": zero already selects the defaults, and a crashed node
// that is never detected would leave its tasks stranded.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"HeartbeatInterval", c.HeartbeatInterval},
		{"Slowstart", c.Slowstart},
		{"TaskOverhead", c.TaskOverhead},
		{"MaxSimTime", c.MaxSimTime},
		{"SpecSlowdown", c.SpecSlowdown},
		{"HeartbeatExpiry", c.HeartbeatExpiry},
		{"SlowNodeFraction", c.SlowNodeFraction},
		{"SlowFactor", c.SlowFactor},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("engine: %s = %v, must be finite", f.name, f.v)
		}
	}
	if err := c.Topology.Validate(); err != nil {
		return err
	}
	if c.MapSlotsPerNode < 1 || c.ReduceSlotsPerNode < 1 {
		return fmt.Errorf("engine: slots per node must be >= 1")
	}
	if c.HeartbeatInterval <= 0 {
		return fmt.Errorf("engine: heartbeat interval must be positive")
	}
	if c.Slowstart < 0 || c.Slowstart > 1 {
		return fmt.Errorf("engine: slowstart %v outside [0,1]", c.Slowstart)
	}
	if c.ShuffleParallelism < 1 {
		return fmt.Errorf("engine: shuffle parallelism must be >= 1")
	}
	if c.TaskOverhead < 0 {
		return fmt.Errorf("engine: negative task overhead")
	}
	if c.CrossTraffic < 0 {
		return fmt.Errorf("engine: negative cross traffic")
	}
	if c.MaxSimTime < 0 {
		return fmt.Errorf("engine: negative horizon")
	}
	if c.SlowNodeFraction < 0 || c.SlowNodeFraction > 1 {
		return fmt.Errorf("engine: SlowNodeFraction %v outside [0,1]", c.SlowNodeFraction)
	}
	if c.SlowNodeFraction > 0 && c.SlowFactor != 0 && c.SlowFactor <= 1 {
		return fmt.Errorf("engine: SlowFactor %v must exceed 1", c.SlowFactor)
	}
	if c.Speculation {
		if c.SpecSlowdown <= 1 {
			return fmt.Errorf("engine: SpecSlowdown %v must exceed 1", c.SpecSlowdown)
		}
		if c.SpecMinCompleted < 1 {
			return fmt.Errorf("engine: SpecMinCompleted %d must be >= 1", c.SpecMinCompleted)
		}
	}
	if c.HeartbeatExpiry < 0 {
		return fmt.Errorf("engine: negative heartbeat expiry")
	}
	n := c.Topology.Racks * c.Topology.NodesPerRack
	failed := make(map[int]bool, len(c.Failures))
	for _, f := range c.Failures {
		if f.Node < 0 || f.Node >= n {
			return fmt.Errorf("engine: failure of node %d outside cluster of %d", f.Node, n)
		}
		if !(f.At >= 0) || math.IsInf(f.At, 1) {
			return fmt.Errorf("engine: failure at negative or non-finite time %v", f.At)
		}
		if failed[f.Node] {
			return fmt.Errorf("engine: duplicate failure of node %d", f.Node)
		}
		failed[f.Node] = true
	}
	if err := c.Faults.Validate(n); err != nil {
		return err
	}
	if err := c.Open.Validate(); err != nil {
		return err
	}
	return nil
}

// mapAttempt is one execution attempt of a map task (there can be two
// when speculation fires). Attempts are pooled (see pool.go): the bound
// callbacks persist across lives, everything else is per-life state.
type mapAttempt struct {
	m            *job.MapTask
	run          *mapRun
	node         topology.NodeID
	locality     job.Locality
	launch       sim.Time
	fetch        *topology.Flow
	fetchSrc     topology.NodeID // replica the input streams from
	fetchDone    bool
	computeStart sim.Time
	computeDur   float64
	computeEv    *sim.Event
	failEv       *sim.Event // scripted transient failure, if drawn
	computeDone  bool
	dead         bool

	fetchFn   func() //lint:pooled-keep bound once: input stream completion
	computeFn func() //lint:pooled-keep bound once: compute phase completion
	failFn    func() //lint:pooled-keep bound once: transient-failure timer
}

// progress returns the attempt's compute progress in [0, 1).
func (a *mapAttempt) progress(now sim.Time) float64 {
	if a.dead || a.computeDur <= 0 {
		return 0
	}
	p := float64(now-a.computeStart) / a.computeDur
	if p < 0 {
		p = 0
	}
	if p > 0.999999 {
		p = 0.999999
	}
	return p
}

// mapRun is the engine-side execution state of a running map task.
type mapRun struct {
	attempts []*mapAttempt
}

// liveAttempts counts attempts that have not been killed.
func (r *mapRun) liveAttempts() int {
	n := 0
	for _, a := range r.attempts {
		if !a.dead {
			n++
		}
	}
	return n
}

// srcBucket aggregates queued shuffle bytes by source node, remembering
// which maps contributed (for failure recovery).
type srcBucket struct {
	bytes float64
	maps  []*job.MapTask
}

// flight is an in-progress shuffle fetch. Flights are pooled (see
// pool.go): doneFn persists across lives.
type flight struct {
	att    *redAttempt
	src    topology.NodeID
	bytes  float64
	maps   []*job.MapTask
	flow   *topology.Flow
	doneFn func() //lint:pooled-keep bound once: fetch flow completion
}

// redAttempt is one execution attempt of a reduce task: its own shuffle
// state (sources, in-flight fetches, received bytes) and compute phase.
// There can be two attempts when reduce speculation fires. Attempts are
// pooled (see pool.go): the bound callbacks and the shuffle-state maps
// persist across lives.
type redAttempt struct {
	r            *job.ReduceTask
	run          *reduceRun
	node         topology.NodeID
	locality     job.Locality
	launch       sim.Time
	pendingSrc   map[topology.NodeID]*srcBucket
	queue        []topology.NodeID // FIFO of sources with pending bytes
	flights      map[*topology.Flow]*flight
	got          map[*job.MapTask]bool // output enqueued, fetched or in flight
	shuffled     float64               // intermediate bytes received so far
	computing    bool
	computeStart sim.Time
	computeDur   float64
	computeEv    *sim.Event
	failFrac     float64 // > 0: scripted transient failure at this compute fraction
	dead         bool

	finishFn func() //lint:pooled-keep bound once: compute phase completion
	failCFn  func() //lint:pooled-keep bound once: scripted mid-compute failure
}

// reduceRun is the engine-side execution state of a running reduce task.
type reduceRun struct {
	attempts []*redAttempt
}

// liveAttempts counts attempts that have not been killed.
func (r *reduceRun) liveAttempts() int {
	n := 0
	for _, a := range r.attempts {
		if !a.dead {
			n++
		}
	}
	return n
}

// jobStats accumulates completed-task durations for speculation.
type jobStats struct {
	completed    int
	totalDur     float64
	redCompleted int
	redTotalDur  float64
}

// Simulation is one configured run.
type Simulation struct {
	cfg   Config
	eng   *sim.Engine
	topo  *topology.Cluster
	store *hdfs.Store
	state *cluster.State
	cost  *core.CostModel
	place *placement.Service
	sch   sched.Scheduler
	obs   *obs.Stream

	rngEngine *sim.RNG
	rngJobs   *sim.RNG
	rngFaults *sim.RNG

	specs  []job.Spec
	jobs   []*job.Job
	active []*job.Job

	runningMaps map[*job.MapTask]*mapRun
	runningReds map[*job.ReduceTask]*reduceRun
	stats       map[job.ID]*jobStats
	speedOf     []float64 // per-node compute-speed multiplier (1 = nominal)
	baseSpeed   []float64 // speedOf before transient slowdowns (heterogeneity only)

	// Free lists for the pooled hot-path records (pool.go) and the
	// per-node heartbeat closures, allocated once instead of per beat.
	freeMapRuns []*mapRun
	freeMapAtts []*mapAttempt
	freeRedRuns []*reduceRun
	freeRedAtts []*redAttempt
	freeBuckets []*srcBucket
	freeFlights []*flight
	hbFns       []func()

	// ctx is the scheduler context reused across every offer; buildCtx
	// refreshes its fields in place so the per-offer snapshot allocates
	// nothing and the context's internal scratch buffers persist.
	ctx sched.Context

	// Failure state. crashed marks nodes physically dead at the fault
	// instant: their attempts stop and heartbeats cease, but the
	// JobTracker's bookkeeping is untouched. dead marks nodes whose
	// heartbeat-expiry lapsed: slots reclaimed, work re-queued, offline.
	crashed   map[topology.NodeID]bool
	dead      map[topology.NodeID]bool
	hbExpiry  float64
	heldMap   map[topology.NodeID]int // slots of crash-killed attempts awaiting detection
	heldRed   map[topology.NodeID]int
	mapFails  map[*job.MapTask]int // transient failures per task (attempt cap)
	redFails  map[*job.ReduceTask]int
	nodeFails map[failKey]int // per-(job, node) attempt failures (blacklist)
	blacklist map[topology.NodeID]bool
	// blacklistHolds counts, per blacklisted node, the active jobs whose
	// failure tally crossed the threshold; the last holder's teardown
	// releases the node back into the candidate sets (DESIGN.md §18).
	blacklistHolds  map[topology.NodeID]int
	everBlacklisted int // cumulative blacklist entries over the run

	// Open-system state (opensys.go). Zero/nil in closed-system runs.
	openOn         bool
	tenants        []*tenantState
	tenantOf       map[string]*tenantState
	openJobs       map[*job.Job]*openJob
	specsSubmitted int // fixed-path submissions fired so far
	openSubmitted  int // arrival-stream jobs instantiated so far
	arrivalsFired  int
	openActiveN    int // admitted open-system jobs currently in the system
	admitSeq       int
	preemptions    int
	rejectedJobs   int

	// Steady-state slot-utilization averages, tracked from the warm-up
	// instant on (open-system mode only).
	ssStarted            bool
	lastUtilM, lastUtilR float64
	utilMapSS            metrics.TimeAvg
	utilRedSS            metrics.TimeAvg

	utilMap    metrics.TimeAvg
	utilReduce metrics.TimeAvg

	mapTimes    []float64
	reduceTimes []float64
	ran         bool

	mapRemoteBytes     float64 // map input fetched across the network
	shuffleRemoteBytes float64 // intermediate data moved across the network
	shuffleLocalBytes  float64 // intermediate data served from local disk

	speculated        int // backup map attempts launched
	specWins          int // map backups that finished first
	speculatedReds    int // backup reduce attempts launched
	specRedWins       int // reduce backups that finished first
	relaunchedMaps    int // done maps re-executed after node failure
	relaunchedReduces int // running reduces restarted after node failure
	attemptFailures   int // transient attempt failures injected
}

// failKey indexes the per-(job, node) attempt-failure tallies.
type failKey struct {
	job  job.ID
	node topology.NodeID
}

// New builds a simulation over the given job specs and scheduler builder.
func New(cfg Config, specs []job.Spec, builder sched.Builder) (*Simulation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(specs) == 0 && !cfg.Open.Enabled() {
		return nil, fmt.Errorf("engine: no job specs")
	}
	if builder == nil {
		return nil, fmt.Errorf("engine: nil scheduler builder")
	}
	if cfg.MaxSimTime == 0 {
		cfg.MaxSimTime = 86400
	}
	eng := sim.NewEngine()
	eng.SetEventLimit(200_000_000)
	topo, err := topology.NewCluster(eng, cfg.Topology)
	if err != nil {
		return nil, err
	}
	root := sim.NewRNG(cfg.Seed)
	store := hdfs.NewStore(topo, root.Fork("hdfs"))
	state, err := cluster.New(topo.Size(), cfg.MapSlotsPerNode, cfg.ReduceSlotsPerNode)
	if err != nil {
		return nil, err
	}
	if cfg.ResourceMode {
		if err := state.EnableResources(cfg.NodeResources, cfg.MapContainer, cfg.ReduceContainer); err != nil {
			return nil, err
		}
	}
	cost, err := core.NewCostModel(topo, store, topo, cfg.CostMode)
	if err != nil {
		return nil, err
	}
	// The placement decision service wraps the simulation's live state;
	// the schedulers route every decision through Decider sessions
	// against it. It also installs the distance-class structure on the
	// cluster state (hop-mode costs collapse into rack classes, and the
	// state maintains per-class free-slot counts incrementally so the
	// schedulers' C_avg sums are O(classes) per offer). The engine keeps
	// its own cost model for locality tagging at task launch.
	place, err := placement.NewService(placement.Deps{
		Net:   topo,
		Store: store,
		Rate:  topo,
		Slots: state,
		Mode:  cfg.CostMode,
	})
	if err != nil {
		return nil, err
	}
	s := &Simulation{
		cfg:         cfg,
		eng:         eng,
		topo:        topo,
		store:       store,
		state:       state,
		cost:        cost,
		place:       place,
		rngEngine:   root.Fork("engine"),
		rngJobs:     root.Fork("jobs"),
		specs:       specs,
		runningMaps: make(map[*job.MapTask]*mapRun),
		runningReds: make(map[*job.ReduceTask]*reduceRun),
		stats:       make(map[job.ID]*jobStats),
		crashed:     make(map[topology.NodeID]bool),
		dead:        make(map[topology.NodeID]bool),
		heldMap:     make(map[topology.NodeID]int),
		heldRed:     make(map[topology.NodeID]int),
		mapFails:    make(map[*job.MapTask]int),
		redFails:    make(map[*job.ReduceTask]int),
		nodeFails:   make(map[failKey]int),
		blacklist:   make(map[topology.NodeID]bool),
		obs:         obs.NewStream(),
	}
	s.blacklistHolds = make(map[topology.NodeID]int)
	s.initOpen()
	s.hbExpiry = cfg.HeartbeatExpiry
	if s.hbExpiry == 0 {
		s.hbExpiry = 10 * cfg.HeartbeatInterval
	}
	topo.Net().SetStream(s.obs)
	s.sch = builder(sched.Env{Place: place, RNG: root.Fork("sched"), Obs: s.obs})
	if s.sch == nil {
		return nil, fmt.Errorf("engine: builder returned nil scheduler")
	}
	// Heterogeneous node speeds: a deterministic subset of nodes computes
	// slower by SlowFactor.
	s.speedOf = make([]float64, topo.Size())
	for i := range s.speedOf {
		s.speedOf[i] = 1
	}
	if cfg.SlowNodeFraction > 0 {
		factor := cfg.SlowFactor
		if factor == 0 {
			factor = 2.5
		}
		hetRNG := root.Fork("heterogeneity")
		slow := int(cfg.SlowNodeFraction*float64(topo.Size()) + 0.5)
		for _, idx := range hetRNG.Perm(topo.Size())[:slow] {
			s.speedOf[idx] = 1 / factor
		}
	}
	s.baseSpeed = append([]float64(nil), s.speedOf...)
	// Forked last so the earlier streams (hdfs, engine, jobs, sched,
	// heterogeneity) see the exact seeds they saw before the fault layer
	// existed — the empty-plan bit-identity guarantee depends on it.
	s.rngFaults = root.Fork("faults")
	// One heartbeat closure per node for the lifetime of the run; the
	// heartbeat chain reschedules these instead of allocating a closure
	// per beat.
	s.hbFns = make([]func(), topo.Size())
	for i := range s.hbFns {
		n := topology.NodeID(i)
		s.hbFns[i] = func() { s.heartbeat(n) }
	}
	return s, nil
}

// Cost exposes the cost model (for tests).
func (s *Simulation) Cost() *core.CostModel { return s.cost }

// Placement exposes the placement decision service the schedulers decide
// against (for tests and tools).
func (s *Simulation) Placement() *placement.Service { return s.place }

// Attach subscribes an observer to the simulation's event stream. It must
// be called before Run: attaching mid-run would see a stream missing its
// prefix, which defeats the reproducibility guarantee.
func (s *Simulation) Attach(o obs.Observer) error {
	if s.ran {
		return fmt.Errorf("engine: Attach after Run")
	}
	if o == nil {
		return fmt.Errorf("engine: Attach of nil observer")
	}
	s.obs.Attach(o)
	return nil
}

// taskEvent seeds a task-lifecycle observation.
func (s *Simulation) taskEvent(t obs.Type, node topology.NodeID, j *job.Job, kind string, index int) obs.Event {
	return obs.Event{
		T:    float64(s.eng.Now()),
		Type: t,
		Node: int(node),
		Job:  j.Spec.Name,
		Task: &obs.TaskRef{Kind: kind, Index: index},
	}
}

// Jobs exposes the instantiated jobs after Run, for invariant checks.
func (s *Simulation) Jobs() []*job.Job { return s.jobs }

// Run executes the simulation to completion (or the horizon) and returns
// the collected metrics. Run may be called once.
func (s *Simulation) Run() (*Result, error) {
	if s.ran {
		return nil, fmt.Errorf("engine: Run called twice")
	}
	s.ran = true

	// Background cross-traffic between distinct random pairs.
	for i := 0; i < s.cfg.CrossTraffic; i++ {
		src := topology.NodeID(s.rngEngine.Intn(s.topo.Size()))
		dst := topology.NodeID(s.rngEngine.Intn(s.topo.Size()))
		if src == dst {
			dst = topology.NodeID((int(dst) + 1) % s.topo.Size())
		}
		s.topo.InjectCrossTraffic(src, dst)
	}

	// Job submissions. Open-system arrivals are scheduled from the same
	// loop position, so a pure-arrival run assigns its events the exact
	// sequence numbers a fixed-batch run would — the t=0 equivalence
	// guarantee depends on this.
	for i := range s.specs {
		spec := s.specs[i]
		id := job.ID(i + 1)
		s.eng.Schedule(spec.Submit, func() {
			s.specsSubmitted++
			s.submit(id, spec)
		})
	}
	for i := range s.cfg.Open.Arrivals {
		a := s.cfg.Open.Arrivals[i]
		s.eng.Schedule(a.At, func() { s.arrive(a) })
	}

	// Scheduled faults: legacy Failures and the fault plan both route
	// through crashNode, which kills the node physically and arms the
	// heartbeat-expiry timer for JobTracker-side recovery.
	for _, f := range s.cfg.Failures {
		n := topology.NodeID(f.Node)
		s.eng.Schedule(sim.Time(f.At), func() { s.crashNode(n) })
	}
	s.scheduleFaults()

	// Heartbeat chains, phase-offset per node so offers do not synchronize.
	interval := s.cfg.HeartbeatInterval
	for i := 0; i < s.topo.Size(); i++ {
		offset := interval * float64(i) / float64(s.topo.Size())
		s.eng.Schedule(sim.Time(offset), s.hbFns[i])
	}

	s.utilMap.Update(0, 0)
	s.utilReduce.Update(0, 0)

	if _, err := s.eng.Run(sim.Time(s.cfg.MaxSimTime)); err != nil {
		return nil, err
	}
	return s.collect(), nil
}

// submit instantiates a job (placing its input blocks) and activates it.
func (s *Simulation) submit(id job.ID, spec job.Spec) {
	j, err := job.New(id, spec, s.store, s.rngJobs)
	if err != nil {
		// Specs are validated by the builders; a failure here is a
		// programming error worth stopping the simulation for.
		panic(fmt.Sprintf("engine: submit %s: %v", spec.Name, err))
	}
	j.Submitted = s.eng.Now()
	s.jobs = append(s.jobs, j)
	s.active = append(s.active, j)
	s.stats[j.ID] = &jobStats{}
	if s.obs.Enabled() {
		s.obs.Emit(obs.Event{T: float64(j.Submitted), Type: obs.JobSubmit, Node: -1, Job: j.Spec.Name})
	}
}

// allDone reports whether every submitted job finished and no
// submissions, arrivals or queued work remain.
func (s *Simulation) allDone() bool {
	if len(s.active) > 0 || s.specsSubmitted < len(s.specs) {
		return false
	}
	if !s.openOn {
		return true
	}
	if s.arrivalsFired < len(s.cfg.Open.Arrivals) {
		return false
	}
	for _, t := range s.tenants {
		if len(t.queue) > 0 {
			return false
		}
	}
	return true
}

// heartbeat is one TaskTracker report: refresh progress, offer free slots
// to the scheduler, and reschedule.
func (s *Simulation) heartbeat(n topology.NodeID) {
	if s.allDone() || s.crashed[n] {
		return // stop the chain
	}
	s.refreshProgress()
	node := s.state.Node(n)
	for node.FreeMapSlots() > 0 {
		ctx := s.buildCtx()
		m := s.sch.AssignMap(ctx, n)
		if m == nil {
			break
		}
		if !s.launchMap(m, n) {
			break // unschedulable right now (e.g. all replicas dead)
		}
	}
	// Speculative execution fills slots that have no pending work left.
	if s.cfg.Speculation {
		for node.FreeMapSlots() > 0 {
			if !s.trySpeculate(n) {
				break
			}
		}
	}
	for node.FreeReduceSlots() > 0 {
		ctx := s.buildCtx()
		r := s.sch.AssignReduce(ctx, n)
		if r == nil {
			break
		}
		s.launchReduce(r, n)
	}
	if s.cfg.Speculation {
		for node.FreeReduceSlots() > 0 {
			if !s.trySpeculateReduce(n) {
				break
			}
		}
	}
	s.eng.After(s.cfg.HeartbeatInterval, s.hbFns[n])
}

// buildCtx snapshots the scheduler-visible cluster state into the
// simulation's single reused Context. Schedulers never retain the
// context beyond the Assign call, so in-place refresh is safe.
func (s *Simulation) buildCtx() *sched.Context {
	am, amCounts, amVer := s.state.AvailMap()
	ar, arCounts, arVer := s.state.AvailReduce()
	s.ctx.Now = s.eng.Now()
	s.ctx.Jobs = s.active
	s.ctx.AvailMap = core.Avail{Nodes: am, Counts: amCounts, Version: amVer}
	s.ctx.AvailReduce = core.Avail{Nodes: ar, Counts: arCounts, Version: arVer}
	s.ctx.Slowstart = s.cfg.Slowstart
	return &s.ctx
}

// refreshProgress updates the Progress field of every running map task to
// the current instant, so the scheduler's estimator sees fresh d_read and
// A_jf values, exactly as heartbeat-reported counters would provide.
// With speculation a task's progress is that of its fastest attempt.
func (s *Simulation) refreshProgress() {
	now := s.eng.Now()
	for m, run := range s.runningMaps {
		best := 0.0
		for _, a := range run.attempts {
			if p := a.progress(now); p > best {
				best = p
			}
		}
		m.Progress = best
	}
}

// aliveNearest returns the closest live replica of the block, or ok=false
// when every replica's node has crashed (replicas on crashed nodes are
// physically unreadable even before the JobTracker detects the failure).
func (s *Simulation) aliveNearest(b hdfs.BlockID, from topology.NodeID) (topology.NodeID, bool) {
	best := topology.NodeID(-1)
	bestD := 0.0
	found := false
	for _, r := range s.store.Replicas(b) {
		if s.crashed[r] {
			continue
		}
		d := s.topo.Distance(from, r)
		if !found || d < bestD {
			found = true
			bestD = d
			best = r
		}
	}
	return best, found
}

// launchMap starts map task m on node n. It reports false when the task
// cannot run (all replicas lost), leaving the task pending.
func (s *Simulation) launchMap(m *job.MapTask, n topology.NodeID) bool {
	if m.State != job.TaskPending {
		panic(fmt.Sprintf("engine: launching map %s/%d in state %v", m.Job.Spec.Name, m.Index, m.State))
	}
	if _, ok := s.aliveNearest(m.Block, n); !ok {
		return false
	}
	if err := s.state.Node(n).AcquireMap(); err != nil {
		panic(fmt.Sprintf("engine: %v", err))
	}
	s.sampleUtil()
	m.State = job.TaskRunning
	m.Node = n
	m.Locality = s.cost.Locality(m, n)
	m.Launch = s.eng.Now()
	if s.obs.Enabled() {
		e := s.taskEvent(obs.TaskStart, n, m.Job, "map", m.Index)
		e.Locality = m.Locality.String()
		e.Wait = float64(m.Launch - m.Job.Submitted)
		s.obs.Emit(e)
	}
	run := s.newMapRun()
	s.runningMaps[m] = run
	s.startAttempt(m, run, n)
	return true
}

// startAttempt begins one execution attempt of m on node n: an input
// stream from the nearest live replica overlapped with the compute work.
func (s *Simulation) startAttempt(m *job.MapTask, run *mapRun, n topology.NodeID) {
	prof := m.Job.Spec.Profile
	att := s.newMapAttempt(m, run)
	att.node = n
	att.locality = s.cost.Locality(m, n)
	att.launch = s.eng.Now()
	run.attempts = append(run.attempts, att)

	src, _ := s.aliveNearest(m.Block, n) // caller checked ok
	if src != n {
		s.mapRemoteBytes += m.Size
	}
	att.fetchSrc = src
	att.fetch = s.topo.Transfer(src, n, m.Size, att.fetchFn)
	att.computeStart = s.eng.Now()
	att.computeDur = s.cfg.TaskOverhead +
		s.rngEngine.Jitter(m.Size/(prof.MapRate*s.speedOf[n]), prof.ComputeJitter)
	att.computeEv = s.eng.After(att.computeDur, att.computeFn)
	// Transient attempt failure: a Bernoulli draw per attempt, failing at
	// a uniform point of the compute phase (always before the completion
	// event, so a selected attempt cannot win the task).
	if p := s.cfg.Faults.TaskFailProb; p > 0 && s.rngFaults.Bernoulli(p) {
		failAt := s.rngFaults.Float64() * att.computeDur
		att.failEv = s.eng.After(failAt, att.failFn)
	}
}

// checkAttempt completes the map when an attempt has both streamed its
// input and finished computing.
func (s *Simulation) checkAttempt(m *job.MapTask, run *mapRun, att *mapAttempt) {
	if att.fetchDone && att.computeDone && m.State == job.TaskRunning {
		s.winMap(m, run, att)
	}
}

// killAttempt cancels an attempt and releases its slot (when its node is
// still alive; crashed nodes release bookkeeping at failure detection).
func (s *Simulation) killAttempt(att *mapAttempt, releaseSlot bool) {
	if att.dead {
		return
	}
	att.dead = true
	if att.fetch != nil {
		if !att.fetch.Finished() {
			s.topo.Net().Cancel(att.fetch)
		}
		s.topo.Net().Release(att.fetch)
		att.fetch = nil
	}
	if att.computeEv != nil {
		att.computeEv.Cancel()
		s.eng.Remove(att.computeEv)
		att.computeEv = nil
	}
	if att.failEv != nil {
		s.eng.Remove(att.failEv)
		att.failEv = nil
	}
	if releaseSlot {
		s.state.Node(att.node).ReleaseMap()
	}
}

// winMap completes a map task via the winning attempt: kills any backup,
// feeds the output to the running reduces and updates job state.
func (s *Simulation) winMap(m *job.MapTask, run *mapRun, winner *mapAttempt) {
	for _, a := range run.attempts {
		if a != winner {
			s.killAttempt(a, !s.crashed[a.node])
			s.sampleUtil()
		}
	}
	if winner != run.attempts[0] {
		s.specWins++
		if s.obs.Enabled() {
			s.obs.Emit(s.taskEvent(obs.SpecWin, winner.node, m.Job, "map", m.Index))
		}
	}
	winner.dead = true // no further callbacks
	m.State = job.TaskDone
	m.Progress = 1
	m.Finish = s.eng.Now()
	m.Node = winner.node
	m.Locality = winner.locality
	delete(s.runningMaps, m)
	s.state.Node(winner.node).ReleaseMap()
	s.sampleUtil()
	s.mapTimes = append(s.mapTimes, float64(m.Finish-winner.launch))
	if s.obs.Enabled() {
		e := s.taskEvent(obs.TaskFinish, winner.node, m.Job, "map", m.Index)
		e.Locality = m.Locality.String()
		e.Dur = float64(m.Finish - winner.launch)
		s.obs.Emit(e)
	}

	j := m.Job
	j.DoneMaps++
	if st := s.stats[j.ID]; st != nil {
		st.completed++
		st.totalDur += float64(m.Finish - winner.launch)
	}
	// Feed this map's partitions to every live attempt of the job's
	// running reduces.
	for _, r := range j.Reduces {
		if r.State != job.TaskRunning {
			continue
		}
		rrun := s.runningReds[r]
		if rrun == nil {
			continue
		}
		for _, att := range rrun.attempts {
			if att.dead || att.computing {
				continue
			}
			if bytes := m.Out[r.Index]; bytes > 0 && !att.got[m] {
				s.enqueueFetch(att, m.Node, bytes, m)
			}
			s.pumpShuffle(r, rrun, att)
			s.maybeStartReduceCompute(r, rrun, att)
		}
	}
	// Every attempt is dead (winner included) and detached; recycle the
	// run and its attempts.
	s.releaseMapRun(run)
}

// trySpeculate launches a backup attempt of the worst straggling map on
// node n; it reports whether one launched.
func (s *Simulation) trySpeculate(n topology.NodeID) bool {
	now := s.eng.Now()
	var worst *job.MapTask
	var worstRun *mapRun
	worstScore := s.cfg.SpecSlowdown
	for m, run := range s.runningMaps {
		if len(run.attempts) != 1 || run.attempts[0].dead {
			continue // already backed up
		}
		if run.attempts[0].node == n {
			continue // a backup on the same node cannot help
		}
		st := s.stats[m.Job.ID]
		if st == nil || st.completed < s.cfg.SpecMinCompleted {
			continue
		}
		avg := st.totalDur / float64(st.completed)
		if avg <= 0 {
			continue
		}
		score := float64(now-run.attempts[0].launch) / avg
		// Strict ordering with a deterministic tie-break (job, index) so
		// map-iteration order cannot influence the simulation.
		if score > worstScore ||
			(score == worstScore && worst != nil &&
				(m.Job.ID < worst.Job.ID || (m.Job.ID == worst.Job.ID && m.Index < worst.Index))) {
			worstScore = score
			worst = m
			worstRun = run
		}
	}
	if worst == nil {
		return false
	}
	if _, ok := s.aliveNearest(worst.Block, n); !ok {
		return false
	}
	if err := s.state.Node(n).AcquireMap(); err != nil {
		panic(fmt.Sprintf("engine: %v", err))
	}
	s.sampleUtil()
	s.speculated++
	if s.obs.Enabled() {
		s.obs.Emit(s.taskEvent(obs.SpecStart, n, worst.Job, "map", worst.Index))
	}
	s.startAttempt(worst, worstRun, n)
	return true
}

// trySpeculateReduce launches a backup attempt of the worst straggling
// reduce on node n, reusing the map-speculation slowdown threshold
// against the job's mean completed-reduce duration; it reports whether
// one launched.
func (s *Simulation) trySpeculateReduce(n topology.NodeID) bool {
	now := s.eng.Now()
	var worst *job.ReduceTask
	var worstRun *reduceRun
	worstScore := s.cfg.SpecSlowdown
	for r, run := range s.runningReds {
		if len(run.attempts) != 1 || run.attempts[0].dead {
			continue // already backed up, or awaiting failure detection
		}
		if run.attempts[0].node == n {
			continue // a backup on the same node cannot help
		}
		st := s.stats[r.Job.ID]
		if st == nil || st.redCompleted < s.cfg.SpecMinCompleted {
			continue
		}
		avg := st.redTotalDur / float64(st.redCompleted)
		if avg <= 0 {
			continue
		}
		score := float64(now-run.attempts[0].launch) / avg
		// Strict ordering with a deterministic tie-break (job, index) so
		// map-iteration order cannot influence the simulation.
		if score > worstScore ||
			(score == worstScore && worst != nil &&
				(r.Job.ID < worst.Job.ID || (r.Job.ID == worst.Job.ID && r.Index < worst.Index))) {
			worstScore = score
			worst = r
			worstRun = run
		}
	}
	if worst == nil {
		return false
	}
	if err := s.state.Node(n).AcquireReduce(); err != nil {
		panic(fmt.Sprintf("engine: %v", err))
	}
	s.sampleUtil()
	s.speculatedReds++
	if s.obs.Enabled() {
		s.obs.Emit(s.taskEvent(obs.SpecStart, n, worst.Job, "reduce", worst.Index))
	}
	// The backup re-fetches every finished map's output independently.
	att := s.newRedAttempt(worst, worstRun, n)
	worstRun.attempts = append(worstRun.attempts, att)
	s.enqueueDoneMaps(worst, att)
	s.pumpShuffle(worst, worstRun, att)
	s.maybeStartReduceCompute(worst, worstRun, att)
	return true
}

// launchReduce starts reduce task r on node n and queues fetches for all
// already-finished maps.
func (s *Simulation) launchReduce(r *job.ReduceTask, n topology.NodeID) {
	if r.State != job.TaskPending {
		panic(fmt.Sprintf("engine: launching reduce %s/%d in state %v", r.Job.Spec.Name, r.Index, r.State))
	}
	if err := s.state.Node(n).AcquireReduce(); err != nil {
		panic(fmt.Sprintf("engine: %v", err))
	}
	s.sampleUtil()
	r.State = job.TaskRunning
	r.Node = n
	r.Launch = s.eng.Now()
	r.Locality = s.reduceLocality(r.Job, n)
	if s.obs.Enabled() {
		e := s.taskEvent(obs.TaskStart, n, r.Job, "reduce", r.Index)
		e.Locality = r.Locality.String()
		e.Wait = float64(r.Launch - r.Job.Submitted)
		s.obs.Emit(e)
	}
	run := s.newReduceRun()
	s.runningReds[r] = run
	att := s.newRedAttempt(r, run, n)
	run.attempts = append(run.attempts, att)
	s.enqueueDoneMaps(r, att)
	s.pumpShuffle(r, run, att)
	s.maybeStartReduceCompute(r, run, att)
}

// newRedAttempt builds one reduce execution attempt on node n, drawing
// its transient-failure fate when the fault plan has one.
func (s *Simulation) newRedAttempt(r *job.ReduceTask, run *reduceRun, n topology.NodeID) *redAttempt {
	att := s.newRedAttemptRecord(r, run)
	att.node = n
	att.locality = s.reduceLocality(r.Job, n)
	att.launch = s.eng.Now()
	if p := s.cfg.Faults.TaskFailProb; p > 0 && s.rngFaults.Bernoulli(p) {
		// Reduce compute duration is unknown until the shuffle drains, so
		// remember the failure point as a fraction of the eventual compute
		// phase. Strictly positive so the failure event fires mid-phase.
		att.failFrac = 0.05 + 0.9*s.rngFaults.Float64()
	}
	return att
}

// reduceLocality classifies a reduce placement: local node if the node
// already hosted a launched map of the job (it holds intermediate data),
// local rack if a launched map ran in the same rack, remote otherwise.
func (s *Simulation) reduceLocality(j *job.Job, n topology.NodeID) job.Locality {
	sameRack := false
	anyMap := false
	for _, m := range j.Maps {
		if m.State == job.TaskPending || m.Node < 0 {
			continue
		}
		anyMap = true
		if m.Node == n {
			return job.LocalNode
		}
		if s.topo.Rack(m.Node) == s.topo.Rack(n) {
			sameRack = true
		}
	}
	if sameRack {
		return job.LocalRack
	}
	if !anyMap {
		// No map launched yet: there is no data anywhere, so the placement
		// cannot be penalized; count it as local rack in a single-rack
		// cluster and remote otherwise only if multiple racks exist.
		if s.cfg.Topology.Racks == 1 {
			return job.LocalRack
		}
	}
	return job.Remote
}

// enqueueDoneMaps queues every finished map's output for a fresh reduce
// attempt. A finished map whose output node was already declared dead can
// never serve a fetch again — and no future detection sweep would clean a
// bucket queued under it — so its output counts as lost here: the map
// reverts to pending and its re-execution feeds this attempt on finish.
// Outputs on crashed-but-undetected nodes are queued normally; the
// JobTracker does not know yet, and the detection sweep reclaims them.
func (s *Simulation) enqueueDoneMaps(r *job.ReduceTask, att *redAttempt) {
	for _, m := range r.Job.Maps {
		if m.State != job.TaskDone {
			continue
		}
		bytes := m.Out[r.Index]
		if bytes <= 0 {
			continue
		}
		if s.dead[m.Node] {
			lostAt := m.Node
			m.State = job.TaskPending
			m.Progress = 0
			m.Node = -1
			r.Job.DoneMaps--
			s.relaunchedMaps++
			if s.obs.Enabled() {
				e := s.taskEvent(obs.TaskRelaunch, lostAt, m.Job, "map", m.Index)
				e.Reason = "output_lost"
				s.obs.Emit(e)
			}
			continue
		}
		s.enqueueFetch(att, m.Node, bytes, m)
	}
}

// enqueueFetch adds a map's bytes from src to a reduce attempt's shuffle
// queue, coalescing with bytes already queued from the same source.
func (s *Simulation) enqueueFetch(att *redAttempt, src topology.NodeID, bytes float64, m *job.MapTask) {
	b, ok := att.pendingSrc[src]
	if !ok {
		b = s.newBucket()
		att.pendingSrc[src] = b
		att.queue = append(att.queue, src)
	}
	b.bytes += bytes
	b.maps = append(b.maps, m)
	att.got[m] = true
}

// pumpShuffle starts fetch flows up to the parallelism bound for one
// reduce attempt.
func (s *Simulation) pumpShuffle(r *job.ReduceTask, run *reduceRun, att *redAttempt) {
	for len(att.flights) < s.cfg.ShuffleParallelism && len(att.queue) > 0 {
		// Sources whose TaskTracker crashed cannot serve a fetch, but the
		// JobTracker has not noticed yet: leave their entries queued
		// (blocking the compute phase) until failure detection drops them
		// and re-queues the contributing maps. Fetch from the first live
		// source instead.
		pick := -1
		for i, src := range att.queue {
			if !s.crashed[src] {
				pick = i
				break
			}
		}
		if pick < 0 {
			break
		}
		src := att.queue[pick]
		att.queue = append(att.queue[:pick], att.queue[pick+1:]...)
		b, ok := att.pendingSrc[src]
		if !ok {
			continue // bucket was dropped by failure recovery
		}
		delete(att.pendingSrc, src)
		fl := s.newFlight(att)
		fl.src = src
		fl.bytes = b.bytes
		// The maps slice moves to the flight; the bucket must not keep an
		// alias or a recycled bucket would append into the flight's array.
		fl.maps = b.maps
		b.maps = nil
		s.releaseBucket(b)
		if src == att.node {
			s.shuffleLocalBytes += fl.bytes
		} else {
			s.shuffleRemoteBytes += fl.bytes
		}
		fl.flow = s.topo.Transfer(src, att.node, fl.bytes, fl.doneFn)
		att.flights[fl.flow] = fl
	}
}

// maybeStartReduceCompute begins an attempt's sort/reduce phase once every
// map of the job finished and its fetches drained.
func (s *Simulation) maybeStartReduceCompute(r *job.ReduceTask, run *reduceRun, att *redAttempt) {
	if att.dead || att.computing || !r.Job.MapsDone() ||
		len(att.flights) > 0 || len(att.queue) > 0 || len(att.pendingSrc) > 0 {
		return
	}
	att.computing = true
	prof := r.Job.Spec.Profile
	dur := s.cfg.TaskOverhead +
		s.rngEngine.Jitter(att.shuffled/(prof.ReduceRate*s.speedOf[att.node]), prof.ComputeJitter)
	att.computeStart = s.eng.Now()
	att.computeDur = dur
	if att.failFrac > 0 {
		// A transiently failing attempt never reaches completion; its
		// scripted failure fires partway through the compute phase.
		att.computeEv = s.eng.After(att.failFrac*dur, att.failCFn)
		return
	}
	att.computeEv = s.eng.After(dur, att.finishFn)
}

// finishReduce completes a reduce task via the winning attempt (killing
// any backup) and possibly finishes its job.
func (s *Simulation) finishReduce(r *job.ReduceTask, run *reduceRun, winner *redAttempt) {
	for _, a := range run.attempts {
		if a != winner && !a.dead {
			s.killRedAttempt(a, !s.crashed[a.node])
			s.sampleUtil()
		}
	}
	if winner != run.attempts[0] {
		s.specRedWins++
		if s.obs.Enabled() {
			s.obs.Emit(s.taskEvent(obs.SpecWin, winner.node, r.Job, "reduce", r.Index))
		}
	}
	winner.dead = true // no further callbacks
	r.State = job.TaskDone
	r.Finish = s.eng.Now()
	r.Node = winner.node
	r.Locality = winner.locality
	r.ShuffledBytes = winner.shuffled
	delete(s.runningReds, r)
	s.state.Node(winner.node).ReleaseReduce()
	s.sampleUtil()
	s.reduceTimes = append(s.reduceTimes, r.RunTime())
	if s.obs.Enabled() {
		e := s.taskEvent(obs.TaskFinish, r.Node, r.Job, "reduce", r.Index)
		e.Locality = r.Locality.String()
		e.Dur = r.RunTime()
		s.obs.Emit(e)
	}

	j := r.Job
	j.DoneReds++
	if st := s.stats[j.ID]; st != nil {
		st.redCompleted++
		st.redTotalDur += r.RunTime()
	}
	if j.Done() {
		j.Finished = s.eng.Now()
		for i, a := range s.active {
			if a == j {
				s.active = append(s.active[:i], s.active[i+1:]...)
				break
			}
		}
		if s.obs.Enabled() {
			e := obs.Event{T: float64(j.Finished), Type: obs.JobFinish, Node: -1, Job: j.Spec.Name}
			e.Dur = float64(j.Finished - j.Submitted)
			s.obs.Emit(e)
		}
		s.onJobEnd(j)
	}
	// Every attempt is dead (winner included) and detached; recycle the
	// run and its attempts.
	s.releaseReduceRun(run)
}

// outputStillNeeded reports whether any unfinished reduce of j still needs
// map m's output (i.e. produces bytes for it and some attempt has not
// already fetched them).
func (s *Simulation) outputStillNeeded(j *job.Job, m *job.MapTask) bool {
	for _, r := range j.Reduces {
		if m.Out[r.Index] <= 0 {
			continue
		}
		switch r.State {
		case job.TaskDone:
			continue
		case job.TaskPending:
			return true
		case job.TaskRunning:
			run := s.runningReds[r]
			if run == nil || run.liveAttempts() == 0 {
				return true
			}
			for _, att := range run.attempts {
				if !att.dead && !att.got[m] {
					return true
				}
			}
		}
	}
	return false
}

// sampleUtil records slot occupancy for the utilization time-averages.
// In open-system mode a second pair of averages starts at the warm-up
// instant, so steady-state utilization excludes the fill-up transient.
func (s *Simulation) sampleUtil() {
	um, ur := s.state.UsedSlots()
	tm, tr := s.state.TotalSlots()
	now := float64(s.eng.Now())
	vm := float64(um) / float64(tm)
	vr := float64(ur) / float64(tr)
	s.utilMap.Update(now, vm)
	s.utilReduce.Update(now, vr)
	if s.openOn {
		if !s.ssStarted && now >= s.cfg.Open.Warmup {
			s.ssStarted = true
			s.utilMapSS.Update(s.cfg.Open.Warmup, s.lastUtilM)
			s.utilRedSS.Update(s.cfg.Open.Warmup, s.lastUtilR)
		}
		if s.ssStarted {
			s.utilMapSS.Update(now, vm)
			s.utilRedSS.Update(now, vr)
		}
		s.lastUtilM, s.lastUtilR = vm, vr
	}
}
