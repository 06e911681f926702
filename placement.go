package mapsched

import (
	"fmt"
	"io"

	"mapsched/internal/cluster"
	"mapsched/internal/hdfs"
	"mapsched/internal/job"
	"mapsched/internal/obs"
	"mapsched/internal/placement"
	"mapsched/internal/sim"
	"mapsched/internal/topology"
	"mapsched/internal/workload"
)

// PlacementDecision is the full breakdown of one placement decision:
// the Formula 1–5 quantities (transmission cost C, expected cost C_avg,
// acceptance probability P against the P_min threshold), the draw
// outcome, and the delta epoch the decision observed. When Assigned is
// false the slot stays idle and Job/Task identify nothing.
type PlacementDecision struct {
	// Assigned reports whether a task was placed.
	Assigned bool
	// Job and Task identify the placed task; Kind is "map" or "reduce".
	Job  string
	Task int
	Kind string
	// Node is the node the slot was offered on.
	Node int

	// C, CAvg, P, PMin are the decision quantities of Formulas 1–5.
	C, CAvg, P, PMin float64
	// Draw names the outcome: "local", "local_fallback", "accept",
	// "deterministic", "below_pmin" or "decline".
	Draw string
	// Epoch is the service delta epoch the decision was computed at.
	Epoch uint64
}

// PlacementService is the paper's placement rule served standalone —
// no discrete-event engine, no simulated clock. It owns a synthetic
// cluster (topology, replicated block store, slot state) built from
// the public configuration and answers placement questions about the
// configured jobs while the caller drives cluster state through
// explicit deltas.
//
// Concurrency: the delta methods (Commit, Complete, SetNodeOffline,
// SetNodeBlacklisted, SetLinkFactor, LoseNodeReplicas) are safe for
// concurrent use. The decision methods form one session and must not
// be called concurrently with each other; concurrent decision sessions
// over one shared state are an internal-API feature (see
// internal/placement and DESIGN.md §15).
type PlacementService struct {
	svc       *placement.Service
	dec       *placement.Decider
	jobs      []*job.Job
	byName    map[string]*job.Job
	slowstart float64
	req       placement.Request
}

// placementParts is the deterministic base state both
// NewPlacementService and RecoverPlacementService build from: identical
// configuration and seed produce an identical base, which is what makes
// a checkpoint+journal recovery land on the same state as the original
// construction. The RNG forks are drawn in a fixed order (hdfs, sched,
// jobs) so every consumer sees the same streams either way.
type placementParts struct {
	deps   placement.Deps
	pc     placement.Config
	sched  *sim.RNG
	jobs   *sim.RNG
	stream *obs.Stream
	specs  []job.Spec
}

// buildPlacementParts validates the configuration and constructs the
// synthetic cluster, block store, slot state and RNG forks.
func buildPlacementParts(cfg ClusterConfig, defs []JobDef, o options) (*placementParts, error) {
	if len(defs) == 0 {
		return nil, fmt.Errorf("mapsched: no jobs to place")
	}
	if o.costModeSet {
		cfg.CostMode = o.costMode
	}
	specs, err := workload.Specs(defs, o.workloadOptions())
	if err != nil {
		return nil, err
	}
	if !(cfg.Slowstart >= 0 && cfg.Slowstart <= 1) {
		// A NaN slowstart would pass a plain range check and then hold
		// back every reduce forever.
		return nil, fmt.Errorf("mapsched: %w: slowstart %v outside [0,1]", ErrInvalidOption, cfg.Slowstart)
	}
	topo, err := topology.NewCluster(sim.NewEngine(), cfg.Topology)
	if err != nil {
		return nil, fmt.Errorf("mapsched: %w: %w", ErrInvalidOption, err)
	}
	root := sim.NewRNG(o.seed)
	store := hdfs.NewStore(topo, root.Fork("hdfs"))
	slots, err := cluster.New(topo.Size(), cfg.MapSlotsPerNode, cfg.ReduceSlotsPerNode)
	if err != nil {
		return nil, err
	}
	stream := obs.NewStream()
	for _, ob := range o.observers {
		stream.Attach(ob)
	}
	pc := placement.DefaultConfig()
	pc.Pmin = o.pmin
	pc.Deterministic = o.deterministic
	if o.estimator != nil {
		pc.Estimator = o.estimator
	}
	return &placementParts{
		deps: placement.Deps{
			Net: topo, Store: store, Rate: topo, Slots: slots, Mode: cfg.CostMode,
		},
		pc:     pc,
		sched:  root.Fork("sched"),
		jobs:   root.Fork("jobs"),
		stream: stream,
		specs:  specs,
	}, nil
}

// buildJobs creates the job set, populating the block store — part of
// the deterministic base, so recovery must run it before restoring a
// checkpoint (the checkpoint's replica sets apply over these blocks).
func (parts *placementParts) buildJobs() ([]*job.Job, map[string]*job.Job, error) {
	jobs := make([]*job.Job, 0, len(parts.specs))
	byName := make(map[string]*job.Job, len(parts.specs))
	for i, spec := range parts.specs {
		j, err := job.New(job.ID(i+1), spec, parts.deps.Store, parts.jobs)
		if err != nil {
			return nil, nil, err
		}
		jobs = append(jobs, j)
		byName[spec.Name] = j
	}
	return jobs, byName, nil
}

// wire finishes a PlacementService around a constructed (or recovered)
// service and an already-built job set.
func (parts *placementParts) wire(svc *placement.Service, slowstart float64, jobs []*job.Job, byName map[string]*job.Job) *PlacementService {
	return &PlacementService{
		svc:       svc,
		dec:       placement.NewDecider(svc, parts.pc, parts.sched, parts.stream),
		jobs:      jobs,
		byName:    byName,
		slowstart: slowstart,
	}
}

// NewPlacementService builds a standalone decision service for the
// given jobs on a synthetic cluster. The workload options (WithSeed,
// WithScale, WithReplication, WithStorageSubset) shape the cluster and
// its block placements exactly as New does; the scheduler options
// (WithPmin, WithEstimator, WithDeterministic, WithCostMode) configure
// the decision rule. Observers attached with WithObserver receive the
// decision events with their C / C_avg / P breakdown. WithJournal
// attaches a crash-safe delta journal; see RecoverPlacementService.
func NewPlacementService(cfg ClusterConfig, defs []JobDef, opts ...Option) (*PlacementService, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	parts, err := buildPlacementParts(cfg, defs, o)
	if err != nil {
		return nil, err
	}
	svc, err := placement.NewService(parts.deps)
	if err != nil {
		return nil, err
	}
	jobs, byName, err := parts.buildJobs()
	if err != nil {
		return nil, err
	}
	p := parts.wire(svc, cfg.Slowstart, jobs, byName)
	// Jobs are created before the journal attaches: initial block
	// placement is part of the deterministic base a recovery rebuilds,
	// not a journaled delta.
	if o.journal != nil {
		if err := svc.StartJournal(o.journal); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Epoch returns the number of state deltas applied so far.
func (p *PlacementService) Epoch() uint64 { return p.svc.Epoch() }

// requestAt refreshes the service's decision request for a new offer.
func (p *PlacementService) requestAt(now float64) *placement.Request {
	v := p.svc.Snapshot()
	p.req.Now = sim.Time(now)
	p.req.Jobs = p.jobs
	p.req.AvailMap, p.req.AvailReduce = v.AvailMap, v.AvailReduce
	p.req.Slowstart = p.slowstart
	return &p.req
}

// DecideMap runs Algorithm 1 for a free map slot on node at time now
// and returns the decision with its full breakdown. The decision does
// not change any state: call Commit to take it.
func (p *PlacementService) DecideMap(now float64, node int) PlacementDecision {
	m, out := p.dec.PlaceMap(p.requestAt(now), topology.NodeID(node))
	d := decisionOf(out, node, "map")
	if m != nil {
		d.Assigned, d.Job, d.Task = true, m.Job.Spec.Name, m.Index
	}
	return d
}

// DecideReduce runs Algorithm 2 for a free reduce slot on node at time
// now. Reduce decisions consume the jobs' current map progress, which
// advances through Complete.
func (p *PlacementService) DecideReduce(now float64, node int) PlacementDecision {
	r, out := p.dec.PlaceReduce(p.requestAt(now), topology.NodeID(node))
	d := decisionOf(out, node, "reduce")
	if r != nil {
		d.Assigned, d.Job, d.Task = true, r.Job.Spec.Name, r.Index
	}
	return d
}

// decisionOf copies an internal outcome into the public breakdown.
func decisionOf(out placement.Outcome, node int, kind string) PlacementDecision {
	return PlacementDecision{
		Kind: kind, Node: node,
		C: out.C, CAvg: out.CAvg, P: out.P, PMin: out.PMin,
		Draw: out.Draw, Epoch: out.Epoch,
	}
}

// task resolves a decision back to its task.
func (p *PlacementService) task(d PlacementDecision) (*job.Job, *job.MapTask, *job.ReduceTask, error) {
	if !d.Assigned {
		return nil, nil, nil, fmt.Errorf("mapsched: decision placed no task")
	}
	j := p.byName[d.Job]
	if j == nil {
		return nil, nil, nil, fmt.Errorf("mapsched: unknown job %q", d.Job)
	}
	if d.Kind == "map" {
		if d.Task < 0 || d.Task >= len(j.Maps) {
			return nil, nil, nil, fmt.Errorf("mapsched: job %q has no map %d", d.Job, d.Task)
		}
		return j, j.Maps[d.Task], nil, nil
	}
	if d.Task < 0 || d.Task >= len(j.Reduces) {
		return nil, nil, nil, fmt.Errorf("mapsched: job %q has no reduce %d", d.Job, d.Task)
	}
	return j, nil, j.Reduces[d.Task], nil
}

// taskNote encodes the client half of a committed or completed
// decision into the journal annotation RecoverPlacementService parses
// back.
func taskNote(d PlacementDecision) string {
	return fmt.Sprintf("%q %d", d.Job, d.Task)
}

// slotKindOf maps a decision's kind to the slot it occupies.
func slotKindOf(m *job.MapTask) placement.SlotKind {
	if m == nil {
		return placement.ReduceSlot
	}
	return placement.MapSlot
}

// Commit takes an assigned decision: the task starts running on the
// decision's node and the slot is acquired, as one journaled delta.
// Committing a task that is not pending, or onto a node with no free
// slot (or offline/blacklisted), is rejected with a typed error and no
// state change.
func (p *PlacementService) Commit(d PlacementDecision) error {
	_, m, r, err := p.task(d)
	if err != nil {
		return err
	}
	n := topology.NodeID(d.Node)
	pre := func() error {
		st := job.TaskState(0)
		if m != nil {
			st = m.State
		} else {
			st = r.State
		}
		if st != job.TaskPending {
			return fmt.Errorf("mapsched: %s %d of %q is not pending", d.Kind, d.Task, d.Job)
		}
		return nil
	}
	fn := func() {
		if m != nil {
			m.State, m.Node = job.TaskRunning, n
		} else {
			r.State, r.Node = job.TaskRunning, n
		}
	}
	return p.svc.ApplySlotAcquireNoted(slotKindOf(m), n, taskNote(d), pre, fn)
}

// Complete finishes a committed task: it is marked done and its slot
// released, as one journaled delta. Completing a task that is not
// running is rejected with no state change.
func (p *PlacementService) Complete(d PlacementDecision) error {
	j, m, r, err := p.task(d)
	if err != nil {
		return err
	}
	n := topology.NodeID(d.Node)
	pre := func() error {
		if m != nil && m.State != job.TaskRunning {
			return fmt.Errorf("mapsched: map %d of %q is not running", d.Task, d.Job)
		}
		if m == nil && r.State != job.TaskRunning {
			return fmt.Errorf("mapsched: reduce %d of %q is not running", d.Task, d.Job)
		}
		return nil
	}
	fn := func() {
		if m != nil {
			m.State, m.Progress = job.TaskDone, 1
			j.DoneMaps++
		} else {
			r.State = job.TaskDone
			j.DoneReds++
		}
	}
	return p.svc.ApplySlotReleaseNoted(slotKindOf(m), n, taskNote(d), pre, fn)
}

// checkNode bounds-checks a public node index.
func (p *PlacementService) checkNode(node int) error {
	if node < 0 || node >= p.svc.Slots().Size() {
		return fmt.Errorf("mapsched: node %d out of range", node)
	}
	return nil
}

// SetNodeOffline marks a node dead (offline=true) or revived: an
// offline node offers no slots and drops out of every candidate set.
func (p *PlacementService) SetNodeOffline(node int, offline bool) error {
	if err := p.checkNode(node); err != nil {
		return err
	}
	return p.svc.ApplyNodeOffline(topology.NodeID(node), offline)
}

// SetNodeBlacklisted marks a node as taking no new tasks (running ones
// keep their slots), or clears the mark.
func (p *PlacementService) SetNodeBlacklisted(node int, blacklisted bool) error {
	if err := p.checkNode(node); err != nil {
		return err
	}
	return p.svc.ApplyNodeBlacklist(topology.NodeID(node), blacklisted)
}

// SetLinkFactor rescales a node's host access link capacity (1 restores
// nominal); network-condition costs see the change immediately.
func (p *PlacementService) SetLinkFactor(node int, factor float64) error {
	if err := p.checkNode(node); err != nil {
		return err
	}
	if factor <= 0 {
		return fmt.Errorf("mapsched: link factor %v must be positive", factor)
	}
	return p.svc.ApplyLinkFactor(topology.NodeID(node), factor)
}

// LoseNodeReplicas drops every block replica hosted on a node (it died
// with its disks) and returns how many were lost. Map costs reroute to
// the surviving replicas on the next decision.
func (p *PlacementService) LoseNodeReplicas(node int) (int, error) {
	if err := p.checkNode(node); err != nil {
		return 0, err
	}
	return p.svc.ApplyNodeReplicaLoss(topology.NodeID(node))
}

// WriteCheckpoint writes a CRC-protected full-state snapshot of the
// service (slot usage, node health, link factors, replica sets, delta
// epoch) as one line to w. A checkpoint plus the journal records past
// its epoch is a complete RecoverPlacementService input; callers
// typically checkpoint periodically and rotate the journal at the same
// cut.
func (p *PlacementService) WriteCheckpoint(w io.Writer) error {
	return p.svc.WriteCheckpoint(w)
}

// PlacementRecovery reports how a RecoverPlacementService call rebuilt
// the service.
type PlacementRecovery struct {
	// Epoch is the recovered delta epoch; CheckpointEpoch the epoch the
	// checkpoint captured (0 without one).
	Epoch, CheckpointEpoch uint64
	// Applied and Skipped count journal records re-applied and records
	// already covered by the checkpoint.
	Applied, Skipped int
	// Tail is nil when the journal decoded cleanly; otherwise a typed
	// error (a truncated tail is the normal crash shape) and the state
	// recovered to the last valid record.
	Tail error
}

// RecoverPlacementService rebuilds a crashed placement service from the
// checkpoint and/or delta journal it wrote, given the same cfg, defs
// and options the original was built with (the deterministic base the
// durable state applies over). Task and job progress is restored from
// the journaled Commit/Complete annotations. Either reader may be nil.
//
// Pass WithJournal to resume journaling — appending to the original
// journal file is safe: the fresh begin marker logically truncates any
// damaged tail.
//
// The recovered service's cluster state and decision inputs are
// bit-identical to the crashed one's. The decision session itself
// restarts, which re-seeds the Bernoulli draw stream — so the
// post-recovery decision stream is guaranteed bit-identical to the
// uninterrupted run under WithDeterministic (no draws); with draws the
// decisions are identically distributed but may resolve differently.
func RecoverPlacementService(cfg ClusterConfig, defs []JobDef, checkpoint, journal io.Reader, opts ...Option) (*PlacementService, *PlacementRecovery, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, nil, err
	}
	parts, err := buildPlacementParts(cfg, defs, o)
	if err != nil {
		return nil, nil, err
	}
	// The jobs (and their blocks) are the deterministic base the durable
	// state applies over: build them before restoring the checkpoint.
	jobs, byName, err := parts.buildJobs()
	if err != nil {
		return nil, nil, err
	}
	rec, err := placement.Recover(parts.deps, checkpoint, journal)
	if err != nil {
		return nil, nil, err
	}
	p := parts.wire(rec.Service, cfg.Slowstart, jobs, byName)
	// Replay the client half of the journaled deltas: the notes written
	// by Commit (acquire) and Complete (release) rebuild task states and
	// job progress in order. The slot half was already re-applied by
	// Recover.
	for _, note := range rec.Notes {
		var name string
		var idx int
		if _, err := fmt.Sscanf(note.Note, "%q %d", &name, &idx); err != nil {
			return nil, nil, fmt.Errorf("mapsched: seq %d: bad task note %q: %v", note.Seq, note.Note, err)
		}
		j := p.byName[name]
		if j == nil {
			return nil, nil, fmt.Errorf("mapsched: seq %d: note names unknown job %q", note.Seq, name)
		}
		var m *job.MapTask
		var r *job.ReduceTask
		switch {
		case note.Kind != "reduce" && idx >= 0 && idx < len(j.Maps):
			m = j.Maps[idx]
		case note.Kind == "reduce" && idx >= 0 && idx < len(j.Reduces):
			r = j.Reduces[idx]
		default:
			return nil, nil, fmt.Errorf("mapsched: seq %d: note names unknown %s task %d of %q", note.Seq, note.Kind, idx, name)
		}
		switch note.Op {
		case placement.OpAcquire:
			if m != nil {
				m.State, m.Node = job.TaskRunning, topology.NodeID(note.Node)
			} else {
				r.State, r.Node = job.TaskRunning, topology.NodeID(note.Node)
			}
		case placement.OpRelease:
			if m != nil {
				m.State, m.Progress = job.TaskDone, 1
				j.DoneMaps++
			} else {
				r.State = job.TaskDone
				j.DoneReds++
			}
		}
	}
	if o.journal != nil {
		if err := rec.Service.StartJournal(o.journal); err != nil {
			return nil, nil, err
		}
	}
	return p, &PlacementRecovery{
		Epoch:           rec.Epoch,
		CheckpointEpoch: rec.CheckpointEpoch,
		Applied:         rec.Applied,
		Skipped:         rec.Skipped,
		Tail:            rec.Tail,
	}, nil
}

// ErrNotReplayable marks recordings outside the replayable envelope
// (fault, speculation or network-condition streams): match with
// errors.Is to distinguish "this stream cannot be verified" from a
// malformed input.
var ErrNotReplayable = placement.ErrNotReplayable

// ReplayReport summarizes a Replay: how many recorded decisions were
// re-derived engine-free and which, if any, disagreed.
type ReplayReport = placement.ReplayReport

// Replay re-derives the map placement decisions of a recorded event
// log (a JSONLSink stream read back with ReadEventLog) without running
// the simulation: the cluster and jobs are rebuilt from the same
// configuration, defs and options the recording ran with, the recorded
// task lifecycle is fed back in as state deltas, and every recorded
// map decision's task and C / C_avg / P breakdown is recomputed and
// checked bit-for-bit.
//
// Supported recordings are hop-cost, fault-free, speculation-free runs
// (see internal/placement.Replay for why); others return an error.
func Replay(cfg ClusterConfig, defs []JobDef, events []Event, opts ...Option) (*ReplayReport, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	if o.costModeSet {
		cfg.CostMode = o.costMode
	}
	if cfg.CostMode != ModeHops {
		return nil, fmt.Errorf("mapsched: %w: only hop-cost recordings are replayable", ErrNotReplayable)
	}
	specs, err := workload.Specs(defs, o.workloadOptions())
	if err != nil {
		return nil, err
	}
	pc := placement.DefaultConfig()
	pc.Pmin = o.pmin
	pc.Deterministic = o.deterministic
	if o.estimator != nil {
		pc.Estimator = o.estimator
	}
	return placement.Replay(placement.ReplayConfig{
		Topology:           cfg.Topology,
		MapSlotsPerNode:    cfg.MapSlotsPerNode,
		ReduceSlotsPerNode: cfg.ReduceSlotsPerNode,
		Seed:               o.seed,
		Specs:              specs,
		Sched:              pc,
	}, events)
}
