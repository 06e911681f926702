// Open-system mode: continuous job arrivals feeding per-tenant queues,
// weighted admission control, kill-and-requeue preemption and
// steady-state (warm-up-truncated) SLO metrics. The closed-system path
// is untouched when Config.Open is zero: no extra events are scheduled,
// no extra RNG streams are forked, and runs are bit-identical to those
// before the layer existed. Conversely a single-tenant arrival stream
// with no cap reproduces the fixed-batch path decision for decision —
// the equivalence tests pin both properties.
package engine

import (
	"fmt"
	"math"

	"mapsched/internal/job"
	"mapsched/internal/metrics"
	"mapsched/internal/obs"
	"mapsched/internal/sim"
)

// Arrival is one job entering the open system. Streams are built by
// workload.BuildArrivals and converted by the façade; the engine only
// requires them sorted by At.
type Arrival struct {
	At     sim.Time
	Tenant string
	Spec   job.Spec
}

// TenantPolicy is the engine-side admission policy of one tenant.
type TenantPolicy struct {
	Name string
	// Weight is the admission share (0 means 1): the scheduler admits
	// the queued tenant with the smallest active/weight ratio, and
	// preemption enforces weighted floors of MaxActive.
	Weight float64
	// QueueCap bounds the pending queue; 0 means unbounded.
	QueueCap int
}

// weight returns the effective admission weight.
func (p TenantPolicy) weight() float64 {
	if p.Weight <= 0 {
		return 1
	}
	return p.Weight
}

// OpenSystem configures the open-system (continuous-arrival,
// multi-tenant) mode. The zero value disables it entirely.
type OpenSystem struct {
	// Arrivals is the time-sorted stream of jobs entering the system.
	Arrivals []Arrival
	// Tenants declares the admission policies. Tenants referenced by an
	// arrival but not declared here are auto-registered with weight 1
	// and an unbounded queue, in first-appearance order.
	Tenants []TenantPolicy
	// MaxActive caps concurrently admitted jobs; 0 means unbounded.
	MaxActive int
	// Preempt enables kill-and-requeue when a tenant with queued work
	// sits below its weighted floor share of MaxActive while another
	// runs above its ceiling. Requires MaxActive > 0.
	Preempt bool
	// Warmup truncates steady-state metrics: jobs arriving before this
	// instant are excluded from JCT, queue-delay and fairness samples.
	Warmup float64
}

// Enabled reports whether the open-system mode is on.
func (o OpenSystem) Enabled() bool { return len(o.Arrivals) > 0 }

// Validate reports whether the open-system configuration is usable.
func (o OpenSystem) Validate() error {
	if !o.Enabled() {
		if len(o.Tenants) > 0 {
			return fmt.Errorf("engine: open-system tenants without arrivals")
		}
		return nil
	}
	if o.MaxActive < 0 {
		return fmt.Errorf("engine: negative MaxActive %d", o.MaxActive)
	}
	if !(o.Warmup >= 0) || math.IsInf(o.Warmup, 1) {
		return fmt.Errorf("engine: negative or non-finite warmup %v", o.Warmup)
	}
	if o.Preempt && o.MaxActive == 0 {
		return fmt.Errorf("engine: preemption requires MaxActive > 0")
	}
	seen := make(map[string]bool, len(o.Tenants))
	for _, t := range o.Tenants {
		if t.Name == "" {
			return fmt.Errorf("engine: tenant with empty name")
		}
		if seen[t.Name] {
			return fmt.Errorf("engine: duplicate tenant %q", t.Name)
		}
		seen[t.Name] = true
		if !(t.Weight >= 0) || math.IsInf(t.Weight, 1) {
			return fmt.Errorf("engine: tenant %s: negative or non-finite weight %v", t.Name, t.Weight)
		}
		if t.QueueCap < 0 {
			return fmt.Errorf("engine: tenant %s: negative queue cap %d", t.Name, t.QueueCap)
		}
	}
	for i, a := range o.Arrivals {
		if !(a.At >= 0) || math.IsInf(float64(a.At), 1) {
			return fmt.Errorf("engine: arrival %d at negative or non-finite time %v", i, a.At)
		}
		if i > 0 && a.At < o.Arrivals[i-1].At {
			return fmt.Errorf("engine: arrivals not sorted at %d", i)
		}
		if a.Tenant == "" {
			return fmt.Errorf("engine: arrival %d without tenant", i)
		}
		if a.Spec.Name == "" {
			return fmt.Errorf("engine: arrival %d without job name", i)
		}
	}
	return nil
}

// queuedJob is one pending entry of a tenant queue: a fresh spec, or a
// preempted job awaiting re-admission (j non-nil; its instantiated
// state — input blocks, task graph — survives the requeue).
type queuedJob struct {
	spec   job.Spec
	arrive sim.Time
	j      *job.Job
}

// tenantState is the engine-side runtime state of one tenant.
type tenantState struct {
	policy TenantPolicy
	queue  []queuedJob
	active int // admitted jobs currently in the system

	arrived   int
	admitted  int
	rejected  int
	preempted int
	completed int
	failed    int

	// Steady-state (post-warm-up) samples. JCT is the sojourn time
	// arrival→finish, queue delay is arrival→first admission.
	ssCompleted int
	jcts        []float64
	delays      []float64
}

// openJob tracks the tenancy of one admitted job.
type openJob struct {
	tenant *tenantState
	arrive sim.Time
	admit  sim.Time // first admission (preserved across requeues)
	seq    int      // admission sequence; preemption evicts the newest
}

// initOpen builds the open-system runtime state from the config.
// Tenants referenced only by arrivals are auto-registered in
// first-appearance order, so the tenant iteration order — which
// admission ties break on — is deterministic.
func (s *Simulation) initOpen() {
	if !s.cfg.Open.Enabled() {
		return
	}
	s.openOn = true
	s.openJobs = make(map[*job.Job]*openJob)
	s.tenantOf = make(map[string]*tenantState)
	for _, p := range s.cfg.Open.Tenants {
		t := &tenantState{policy: p}
		s.tenants = append(s.tenants, t)
		s.tenantOf[p.Name] = t
	}
	for _, a := range s.cfg.Open.Arrivals {
		if _, ok := s.tenantOf[a.Tenant]; !ok {
			t := &tenantState{policy: TenantPolicy{Name: a.Tenant}}
			s.tenants = append(s.tenants, t)
			s.tenantOf[a.Tenant] = t
		}
	}
}

// arrive handles one arrival instant: queue (or reject) the job, then
// let admission and, when enabled, the share rebalancer react.
func (s *Simulation) arrive(a Arrival) {
	s.arrivalsFired++
	t := s.tenantOf[a.Tenant]
	t.arrived++
	now := s.eng.Now()
	if s.obs.Enabled() {
		s.obs.Emit(obs.Event{T: float64(now), Type: obs.JobArrival, Node: -1, Job: a.Spec.Name, Reason: t.policy.Name})
	}
	if cap := t.policy.QueueCap; cap > 0 && len(t.queue) >= cap {
		t.rejected++
		s.rejectedJobs++
		if s.obs.Enabled() {
			s.obs.Emit(obs.Event{T: float64(now), Type: obs.JobReject, Node: -1, Job: a.Spec.Name, Reason: "queue_full"})
		}
		return
	}
	t.queue = append(t.queue, queuedJob{spec: a.Spec, arrive: now})
	s.admitPending()
	if s.cfg.Open.Preempt {
		s.rebalanceShares()
	}
}

// admitPending drains tenant queues into the engine while admission
// capacity remains, always picking the queued tenant with the smallest
// active/weight ratio (ties break on declaration order).
func (s *Simulation) admitPending() {
	for {
		if max := s.cfg.Open.MaxActive; max > 0 && s.openActiveN >= max {
			return
		}
		t := s.pickTenant()
		if t == nil {
			return
		}
		q := t.queue[0]
		copy(t.queue, t.queue[1:])
		t.queue[len(t.queue)-1] = queuedJob{}
		t.queue = t.queue[:len(t.queue)-1]
		t.active++
		s.openActiveN++
		s.admitSeq++
		if q.j != nil {
			s.readmit(q, t)
		} else {
			s.admitNew(q, t)
		}
	}
}

// pickTenant returns the tenant with queued work and the smallest
// active/weight ratio, nil when every queue is empty. The comparison is
// cross-multiplied so no division is involved.
func (s *Simulation) pickTenant() *tenantState {
	var best *tenantState
	for _, t := range s.tenants {
		if len(t.queue) == 0 {
			continue
		}
		if best == nil ||
			float64(t.active)*best.policy.weight() < float64(best.active)*t.policy.weight() {
			best = t
		}
	}
	return best
}

// admitNew submits a queued spec to the engine. Job IDs continue past
// the fixed-spec range in admission order, so mixed closed+open runs
// never collide and a pure-open run numbers jobs exactly like the
// fixed-batch path would.
func (s *Simulation) admitNew(q queuedJob, t *tenantState) {
	s.openSubmitted++
	id := job.ID(len(s.specs) + s.openSubmitted)
	s.submit(id, q.spec)
	j := s.jobs[len(s.jobs)-1]
	now := s.eng.Now()
	t.admitted++
	delay := float64(now - q.arrive)
	if float64(q.arrive) >= s.cfg.Open.Warmup {
		t.delays = append(t.delays, delay)
	}
	s.openJobs[j] = &openJob{tenant: t, arrive: q.arrive, admit: now, seq: s.admitSeq}
	if s.obs.Enabled() {
		e := obs.Event{T: float64(now), Type: obs.JobAdmit, Node: -1, Job: j.Spec.Name, Reason: t.policy.Name}
		e.Wait = delay
		s.obs.Emit(e)
	}
}

// readmit reactivates a preempted job: its tasks are already reset to
// pending, so rejoining the active set is enough for the heartbeat
// offers to pick it back up. No RNG is consumed — the job keeps its
// instantiated input placement.
func (s *Simulation) readmit(q queuedJob, t *tenantState) {
	j := q.j
	s.active = append(s.active, j)
	s.stats[j.ID] = &jobStats{}
	info := s.openJobs[j]
	info.seq = s.admitSeq
	if s.obs.Enabled() {
		s.obs.Emit(obs.Event{T: float64(s.eng.Now()), Type: obs.JobAdmit, Node: -1, Job: j.Spec.Name, Reason: "requeued"})
	}
	// A job whose pending input lost its last replica while it sat
	// requeued can never run again; fail it now rather than idling to
	// the horizon (the active-set viability sweep cannot see parked jobs).
	for _, m := range j.Maps {
		if m.State == job.TaskPending && len(s.store.Replicas(m.Block)) == 0 {
			s.failJob(j, "input_lost")
			return
		}
	}
}

// rebalanceShares enforces weighted shares of the MaxActive admission
// slots by kill-and-requeue: while some tenant with queued work sits
// strictly below its floor share and another runs strictly above its
// ceiling, the newest admitted job of the worst offender is preempted
// and requeued at the front of its own queue. The floor/ceiling pair
// leaves the fair allocation itself untouched, so the loop cannot
// oscillate; the iteration guard bounds it at MaxActive evictions.
func (s *Simulation) rebalanceShares() {
	total := s.cfg.Open.MaxActive
	if total <= 0 {
		return
	}
	var sumW float64
	for _, t := range s.tenants {
		sumW += t.policy.weight()
	}
	for iter := 0; iter < total; iter++ {
		var starved *tenantState
		for _, t := range s.tenants {
			if len(t.queue) == 0 {
				continue
			}
			floor := math.Floor(float64(total) * t.policy.weight() / sumW)
			if float64(t.active) < floor {
				starved = t
				break
			}
		}
		if starved == nil {
			return
		}
		var offender *tenantState
		var worstOver float64
		for _, t := range s.tenants {
			ceil := math.Ceil(float64(total) * t.policy.weight() / sumW)
			if over := float64(t.active) - ceil; over > worstOver {
				worstOver = over
				offender = t
			}
		}
		if offender == nil {
			return
		}
		victim := s.newestActiveJob(offender)
		if victim == nil {
			return
		}
		s.preempt(victim, offender)
		s.admitPending()
	}
}

// newestActiveJob returns the offender's most recently admitted active
// job (the cheapest to lose: least sunk work on average).
func (s *Simulation) newestActiveJob(t *tenantState) *job.Job {
	var best *job.Job
	bestSeq := -1
	for _, j := range s.active {
		info := s.openJobs[j]
		if info == nil || info.tenant != t {
			continue
		}
		if info.seq > bestSeq {
			bestSeq = info.seq
			best = j
		}
	}
	return best
}

// preempt kills and requeues an admitted job: every running attempt is
// torn down exactly as failJob does, all task state (completed work
// included) resets to pending, and the job parks at the front of its
// tenant's queue for re-admission.
func (s *Simulation) preempt(j *job.Job, t *tenantState) {
	s.preemptions++
	t.preempted++
	for _, m := range j.Maps {
		if run := s.runningMaps[m]; run != nil {
			for _, a := range run.attempts {
				if !a.dead {
					s.killAttempt(a, !s.crashed[a.node])
				}
			}
			delete(s.runningMaps, m)
			s.releaseMapRun(run)
		}
		m.State = job.TaskPending
		m.Progress = 0
		m.Node = -1
	}
	j.DoneMaps = 0
	for _, r := range j.Reduces {
		if run := s.runningReds[r]; run != nil {
			for _, a := range run.attempts {
				if !a.dead {
					s.killRedAttempt(a, !s.crashed[a.node])
				}
			}
			delete(s.runningReds, r)
			s.releaseReduceRun(run)
		}
		r.State = job.TaskPending
		r.Node = -1
		r.ShuffledBytes = 0
		r.Locality = job.LocalityUnknown
	}
	j.DoneReds = 0
	delete(s.stats, j.ID)
	s.sampleUtil()
	for i, a := range s.active {
		if a == j {
			s.active = append(s.active[:i], s.active[i+1:]...)
			break
		}
	}
	t.active--
	s.openActiveN--
	info := s.openJobs[j]
	t.queue = append(t.queue, queuedJob{})
	copy(t.queue[1:], t.queue)
	t.queue[0] = queuedJob{spec: j.Spec, arrive: info.arrive, j: j}
	if s.obs.Enabled() {
		s.obs.Emit(obs.Event{T: float64(s.eng.Now()), Type: obs.JobPreempt, Node: -1, Job: j.Spec.Name, Reason: "over_share"})
	}
}

// onJobEnd runs once when a job leaves the system for good (success or
// permanent failure): per-job fault bookkeeping is released, tenant
// accounting advances, and a freed admission slot pulls queued work in.
func (s *Simulation) onJobEnd(j *job.Job) {
	s.releaseJobFaultState(j)
	if !s.openOn {
		return
	}
	info := s.openJobs[j]
	if info == nil {
		return // a fixed-spec job of a mixed closed+open run
	}
	delete(s.openJobs, j)
	t := info.tenant
	t.active--
	s.openActiveN--
	if j.Failed {
		t.failed++
	} else {
		t.completed++
		if float64(info.arrive) >= s.cfg.Open.Warmup {
			t.ssCompleted++
			t.jcts = append(t.jcts, float64(j.Finished-info.arrive))
		}
	}
	s.admitPending()
}

// TenantResult summarizes one tenant of an open-system run. Quantiles
// are exact (nearest-rank over the retained steady-state samples), and
// JCT is the sojourn time arrival→finish, queueing included.
type TenantResult struct {
	Name   string
	Weight float64

	Arrived     int
	Admitted    int
	Rejected    int // turned away by a full queue
	Preempted   int // kill-and-requeue evictions
	Completed   int
	Failed      int
	QueuedAtEnd int // still pending when the run stopped

	// Steady-state SLO metrics over jobs arriving after the warm-up.
	SteadyCompleted int
	JCTMean         float64
	JCTP50          float64
	JCTP95          float64
	JCTP99          float64
	QueueDelayMean  float64
	QueueDelayP95   float64
	Throughput      float64 // steady-state completions per second

	steadyJCTs []float64 // retained samples backing Result.SteadyJCTs
}

// SteadyJCTs returns every tenant's steady-state sojourn times merged,
// in tenant declaration order (the aggregate p99 the bench guard holds).
func (r *Result) SteadyJCTs() []float64 {
	var out []float64
	for _, t := range r.Tenants {
		out = append(out, t.steadyJCTs...)
	}
	return out
}

// collectOpen folds the open-system state into the Result.
func (s *Simulation) collectOpen(res *Result, now float64) {
	res.OpenSystem = true
	res.Preemptions = s.preemptions
	res.RejectedJobs = s.rejectedJobs
	window := now - s.cfg.Open.Warmup
	shares := make([]float64, 0, len(s.tenants))
	for _, t := range s.tenants {
		tr := TenantResult{
			Name:            t.policy.Name,
			Weight:          t.policy.weight(),
			Arrived:         t.arrived,
			Admitted:        t.admitted,
			Rejected:        t.rejected,
			Preempted:       t.preempted,
			Completed:       t.completed,
			Failed:          t.failed,
			QueuedAtEnd:     len(t.queue),
			SteadyCompleted: t.ssCompleted,
			steadyJCTs:      append([]float64(nil), t.jcts...),
		}
		if len(t.jcts) > 0 {
			jct := metrics.NewCDF(t.jcts)
			tr.JCTMean = jct.Mean()
			tr.JCTP50 = jct.Quantile(0.5)
			tr.JCTP95 = jct.Quantile(0.95)
			tr.JCTP99 = jct.Quantile(0.99)
		}
		if len(t.delays) > 0 {
			delay := metrics.NewCDF(t.delays)
			tr.QueueDelayMean = delay.Mean()
			tr.QueueDelayP95 = delay.Quantile(0.95)
		}
		if window > 0 {
			tr.Throughput = float64(t.ssCompleted) / window
		}
		shares = append(shares, float64(t.ssCompleted)/t.policy.weight())
		res.Tenants = append(res.Tenants, tr)
	}
	res.JainFairness = metrics.JainIndex(shares)
	res.SteadyMapUtilization = s.utilMapSS.Average(now)
	res.SteadyReduceUtilization = s.utilRedSS.Average(now)
}
