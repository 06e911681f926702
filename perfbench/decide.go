package main

import (
	"math"
	"math/rand"
	"runtime"
	"time"

	"mapsched"
	"mapsched/internal/obs"
	"mapsched/internal/workload"
)

const (
	decideRacks        = 250
	decideNodesPerRack = 20
	// decideScale sizes the job set: the 30 Table II jobs at 1/decideScale
	// of their task counts, ~4.9k assignments per drain. A drain then takes
	// ~1.8 s, so a run drains ~15 instances, while
	// decisions still scan enough pending work to cost ~0.2 ms at the
	// median. At scale 6 decisions turn trivial; at scale 2 one drain takes
	// ~7 s.
	decideScale = 4
	// decideInFlight is how many assignments may run before the client
	// completes the oldest.
	decideInFlight = 512
	// decideToggleEvery is the number of offers between node-health
	// toggles (one node goes offline, and back online at the next toggle).
	decideToggleEvery = 97
	// decideStep advances the client's clock per offer, in seconds.
	decideStep = 0.01
)

// decide drives mapsched.NewPlacementService with one closed-loop client:
// no engine, no flow solver, only the placement rule and its deltas.
func runDecide(o runOpts, traced bool) (*report, error) {
	if traced {
		return runDecideTraced(o)
	}
	return measureUntraced(buildDecide, o)
}

// buildDecide sets up one instance; each call of the returned function
// drains it.
func buildDecide(seed int64) (func(*checks) (pass, error), error) {
	inst, err := setupDecide(seed, nil)
	if err != nil {
		return nil, err
	}
	return func(c *checks) (pass, error) {
		d := inst.drain(c)
		return pass{
			wall:      d.wall,
			jobs:      inst.jobs,
			decisions: d.decisions(),
			mapNs:     d.mapNs,
			redNs:     d.redNs,
			mem:       d.mem,
			attempted: d.commits + d.completes,
			failed:    d.rejected,
		}, nil
	}, nil
}

// runDecideTraced reports the placement layer's own figures from timed
// facade calls, and the observer's cost from a second drain of the same
// instance with an observer attached. The flow solver, the event kernel
// and the scheduler layer are not on this path: their figures are zero.
func runDecideTraced(o runOpts) (*report, error) {
	var (
		c                                       checks
		first                                   drainStats
		firstRec                                recorder
		walls, mapBusy, redBusy, deltaBusy, ovh []float64
	)
	seed := instanceSeed(o.seed, 0)
	rounds, err := passLoop(o.budget, 1, func(i int) error {
		inst, err := setupDecide(seed, nil)
		if err != nil {
			return err
		}
		a := inst.drain(&c)
		rec := &recorder{}
		inst, err = setupDecide(seed, rec)
		if err != nil {
			return err
		}
		b := inst.drain(&c)
		c.expect(b.epoch == a.epoch && b.placed == a.placed, "observed drain: epoch %d placed %d, unobserved: epoch %d placed %d", b.epoch, b.placed, a.epoch, a.placed)
		if i == 0 {
			first, firstRec = a, *rec
		} else {
			c.expect(a.epoch == first.epoch && a.decisions() == first.decisions(), "round %d: epoch %d / %d decisions differ from round 0 (%d / %d)",
				i, a.epoch, a.decisions(), first.epoch, first.decisions())
		}
		walls = append(walls, a.wall)
		mapBusy = append(mapBusy, a.mapNs.busy())
		redBusy = append(redBusy, a.redNs.busy())
		deltaBusy = append(deltaBusy, a.deltaNs.busy())
		ovh = append(ovh, 100*(b.wall-a.wall)/a.wall)
		return nil
	})
	if err != nil {
		return nil, err
	}
	m := layerMetrics()
	set := func(name string, v float64) { m[name] = metric{v, m[name].Unit} }
	set("placement.map_busy_s", median(mapBusy))
	set("placement.reduce_busy_s", median(redBusy))
	set("placement.delta_busy_s", median(deltaBusy))
	set("placement.assign_ratio", float64(first.placed)/float64(first.decisions()))
	set("placement.epoch", float64(first.epoch))
	set("placement.journal_bytes", float64(first.journalBytes))
	delta := map[string]metric{}
	percentiles(delta, "delta", first.deltaNs)
	set("placement.delta_p50_us", delta["delta_p50_us"].Value)
	set("placement.delta_p99_us", delta["delta_p99_us"].Value)
	set("obs.events", float64(firstRec.events))
	set("obs.flow_events", float64(firstRec.flowEvents))
	set("obs.decision_events", float64(firstRec.decisionEvents))
	set("obs.overhead_pct", median(ovh))
	set("gc.cycles", float64(first.mem.gcCycles))
	set("gc.pause_ms", float64(first.mem.pauseNs)/1e6)
	logf("%d traced rounds; drain wall %.3fs, placement busy %.1f%%", rounds, median(walls),
		100*(median(mapBusy)+median(redBusy)+median(deltaBusy))/median(walls))
	return &report{Correct: c.finish(), Attempted: int64(first.commits + first.completes), Failed: int64(first.rejected), Metrics: m}, nil
}

// decideInstance is a fresh placement service and the client's inputs.
type decideInstance struct {
	svc                  *mapsched.PlacementService
	journal              *byteCounter
	order                []int // the client's node visiting order
	jobs                 int
	totalMaps, totalReds int
	mapSlots, redSlots   int
}

// byteCounter is the journal's destination: it discards the records and
// counts their bytes.
type byteCounter struct{ n int64 }

func (b *byteCounter) Write(p []byte) (int, error) {
	b.n += int64(len(p))
	return len(p), nil
}

func setupDecide(seed int64, observer obs.Observer) (*decideInstance, error) {
	cfg := mapsched.DefaultClusterConfig()
	cfg.Topology.Racks, cfg.Topology.NodesPerRack = decideRacks, decideNodesPerRack
	defs := mapsched.TableII()
	inst := &decideInstance{
		journal:  &byteCounter{},
		jobs:     len(defs),
		mapSlots: cfg.MapSlotsPerNode,
		redSlots: cfg.ReduceSlotsPerNode,
	}
	opts := []mapsched.Option{mapsched.WithSeed(seed), mapsched.WithScale(decideScale), mapsched.WithJournal(inst.journal)}
	if observer != nil {
		opts = append(opts, mapsched.WithObserver(observer))
	}
	svc, err := mapsched.NewPlacementService(cfg, defs, opts...)
	if err != nil {
		return nil, err
	}
	inst.svc = svc
	// The task totals the drain must reach: one map per input block.
	specs, err := workload.Specs(defs, workload.Options{Scale: decideScale, Replication: 2, SubmitStagger: 1})
	if err != nil {
		return nil, err
	}
	for _, s := range specs {
		inst.totalMaps += max(1, int(math.Ceil(s.InputBytes/s.BlockSize-1e-9)))
		inst.totalReds += s.NumReduces
	}
	inst.order = rand.New(rand.NewSource(seed)).Perm(decideRacks * decideNodesPerRack)
	return inst, nil
}

// drainStats is the measured outcome of draining one instance.
type drainStats struct {
	mapNs, redNs, deltaNs       latencies
	placed                      int
	commits, completes, toggles int
	rejected                    int
	epoch                       uint64
	journalBytes                int64
	wall                        float64
	mem                         memDelta
}

func (d *drainStats) decisions() int { return len(d.mapNs) + len(d.redNs) }

// drain runs the client until every task of the job set has been
// committed and completed. Nodes are offered in the fixed visiting
// order; an offer asks for a map and a reduce decision where the node
// has a free slot of that kind, and commits what is assigned. The oldest
// assignment completes once more than decideInFlight are running, or
// when an offer places nothing. Every decideToggleEvery offers an idle
// node goes offline, and comes back at the next toggle.
func (inst *decideInstance) drain(c *checks) drainStats {
	var d drainStats
	nodes := len(inst.order)
	usedMap := make([]int, nodes)
	usedRed := make([]int, nodes)
	offline := make([]bool, nodes)
	var inflight []mapsched.PlacementDecision
	head := 0
	down := -1
	committedMaps, committedReds := 0, 0
	epoch0 := inst.svc.Epoch()
	idle := 0
	delta := func(what string, err error) bool {
		if err != nil {
			d.rejected++
			c.expect(false, "%s rejected: %v", what, err)
			return false
		}
		return true
	}
	commit := func(dec mapsched.PlacementDecision) {
		t := time.Now()
		err := inst.svc.Commit(dec)
		d.deltaNs.record(t)
		d.commits++
		if !delta("commit", err) {
			return
		}
		d.placed++
		inflight = append(inflight, dec)
		if dec.Kind == "map" {
			usedMap[dec.Node]++
			committedMaps++
		} else {
			usedRed[dec.Node]++
			committedReds++
		}
	}

	runtime.GC()
	before := memSnap()
	t0 := time.Now()
	now := 0.0
	for i := 0; committedMaps < inst.totalMaps || committedReds < inst.totalReds || head < len(inflight); i++ {
		ref.tick()
		node := inst.order[i%nodes]
		now += decideStep
		if i%decideToggleEvery == decideToggleEvery-1 {
			if down >= 0 {
				t := time.Now()
				err := inst.svc.SetNodeOffline(down, false)
				d.deltaNs.record(t)
				if delta("online", err) {
					offline[down] = false
					d.toggles++
				}
				down = -1
			} else if n := inst.order[(i+nodes/2)%nodes]; usedMap[n] == 0 && usedRed[n] == 0 {
				t := time.Now()
				err := inst.svc.SetNodeOffline(n, true)
				d.deltaNs.record(t)
				if delta("offline", err) {
					offline[n] = true
					down = n
					d.toggles++
				}
			}
		}
		placed := false
		if !offline[node] {
			if committedMaps < inst.totalMaps && usedMap[node] < inst.mapSlots {
				t := time.Now()
				dec := inst.svc.DecideMap(now, node)
				d.mapNs.record(t)
				if dec.Assigned {
					commit(dec)
					placed = true
				}
			}
			if committedReds < inst.totalReds && usedRed[node] < inst.redSlots {
				t := time.Now()
				dec := inst.svc.DecideReduce(now, node)
				d.redNs.record(t)
				if dec.Assigned {
					commit(dec)
					placed = true
				}
			}
		}
		if head < len(inflight) && (!placed || len(inflight)-head > decideInFlight) {
			dec := inflight[head]
			head++
			t := time.Now()
			err := inst.svc.Complete(dec)
			d.deltaNs.record(t)
			d.completes++
			if delta("complete", err) {
				if dec.Kind == "map" {
					usedMap[dec.Node]--
				} else {
					usedRed[dec.Node]--
				}
			}
		}
		if placed || head < len(inflight) {
			idle = 0
		} else if idle++; idle > 2*nodes {
			c.expect(false, "job set did not drain: %d/%d maps and %d/%d reduces committed with nothing in flight",
				committedMaps, inst.totalMaps, committedReds, inst.totalReds)
			break
		}
	}
	d.wall = time.Since(t0).Seconds()
	d.mem = memSince(before)
	d.epoch = inst.svc.Epoch()
	d.journalBytes = inst.journal.n
	deltas := uint64(d.commits + d.completes + d.toggles - d.rejected)
	c.expect(d.epoch-epoch0 == deltas, "epoch advanced by %d over %d applied deltas", d.epoch-epoch0, deltas)
	c.expect(committedMaps == inst.totalMaps && committedReds == inst.totalReds && d.completes == d.commits,
		"drain ended with %d/%d maps, %d/%d reduces, %d completes for %d commits",
		committedMaps, inst.totalMaps, committedReds, inst.totalReds, d.completes, d.commits)
	return d
}
