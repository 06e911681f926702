// Package faults defines deterministic fault-injection plans for the
// simulation engine. A Plan scripts node crashes, transient node
// slowdowns, link degradations and block-replica losses at fixed
// simulated times, and configures the stochastic per-attempt task
// failure process together with the retry and blacklist policy the
// engine applies during recovery. Plans carry no randomness themselves:
// every stochastic decision (which attempts fail, when within the
// attempt) is drawn from the run's seeded RNG inside the engine, so a
// fixed (plan, seed) pair reproduces the run bit-for-bit, and the zero
// Plan injects nothing at all.
package faults

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// NodeCrash permanently kills a node at time At: its tasks die, its
// stored map outputs and block replicas become unavailable, and it stops
// heartbeating. The JobTracker reacts only after the heartbeat-expiry
// lag, exactly like a real TaskTracker loss.
type NodeCrash struct {
	Node int
	At   float64
}

// NodeSlowdown divides a node's compute rate by Factor during
// [At, At+Duration); Duration 0 makes the slowdown permanent. Running
// tasks on the node are stretched mid-flight, and restored on expiry.
// Factors are absolute against the node's base speed, not cumulative.
type NodeSlowdown struct {
	Node     int
	At       float64
	Duration float64
	Factor   float64 // > 1: compute rate divided by this
}

// LinkDegrade scales a node's access-link capacity (both directions) to
// Factor × nominal during [At, At+Duration). Factor 0 severs the link:
// flows across it stall at rate zero until the capacity is restored, so
// a severed link must carry a positive Duration or jobs could never
// terminate.
type LinkDegrade struct {
	Node     int
	At       float64
	Duration float64
	Factor   float64 // in [0, 1]
}

// ReplicaLoss removes every block replica stored on a node at time At —
// a disk loss without a crash. Map placement falls back to the surviving
// replicas; jobs whose unread blocks lose their last replica fail
// cleanly.
type ReplicaLoss struct {
	Node int
	At   float64
}

// Defaults for the retry and blacklist policy, mirroring Hadoop 1.x
// (mapred.map.max.attempts / mapred.max.tracker.failures).
const (
	DefaultMaxTaskAttempts = 4
	DefaultBlacklistAfter  = 3
)

// Plan is one run's complete fault script. The zero value is the empty
// plan: the engine guarantees a run under it is bit-identical to a run
// of an engine without the fault layer at the same seed.
type Plan struct {
	Crashes       []NodeCrash
	Slowdowns     []NodeSlowdown
	Links         []LinkDegrade
	ReplicaLosses []ReplicaLoss

	// TaskFailProb is the probability that any single task attempt fails
	// partway through, drawn per attempt from the run's seeded RNG.
	TaskFailProb float64

	// MaxTaskAttempts caps execution attempts per task; when a task
	// exhausts it, its job fails. Zero means DefaultMaxTaskAttempts.
	MaxTaskAttempts int

	// BlacklistAfter is the per-(job, node) attempt-failure count at
	// which the node is blacklisted out of the scheduler's candidate
	// sets. Zero means DefaultBlacklistAfter. At most half the cluster
	// is ever blacklisted.
	BlacklistAfter int
}

// Empty reports whether the plan injects nothing: no scripted faults and
// a zero task-failure probability. Retry/blacklist settings alone do not
// make a plan non-empty — with no failure source they are unreachable.
func (p Plan) Empty() bool {
	return len(p.Crashes) == 0 && len(p.Slowdowns) == 0 && len(p.Links) == 0 &&
		len(p.ReplicaLosses) == 0 && p.TaskFailProb == 0
}

// MaxAttempts returns the effective per-task attempt cap.
func (p Plan) MaxAttempts() int {
	if p.MaxTaskAttempts <= 0 {
		return DefaultMaxTaskAttempts
	}
	return p.MaxTaskAttempts
}

// BlacklistThreshold returns the effective per-(job, node) failure count
// that blacklists a node.
func (p Plan) BlacklistThreshold() int {
	if p.BlacklistAfter <= 0 {
		return DefaultBlacklistAfter
	}
	return p.BlacklistAfter
}

// Validate reports whether the plan is usable on a cluster of n nodes.
// Every time, duration, factor and probability must be finite: NaN slips
// past plain range comparisons and would poison the simulation clock or
// the link capacities.
func (p Plan) Validate(nodes int) error {
	checkNode := func(kind string, node int) error {
		if node < 0 || node >= nodes {
			return fmt.Errorf("faults: %s of node %d outside cluster of %d", kind, node, nodes)
		}
		return nil
	}
	checkTimes := func(kind string, node int, times ...float64) error {
		for _, t := range times {
			if !(t >= 0) || math.IsInf(t, 1) {
				return fmt.Errorf("faults: %s of node %d with negative or non-finite time %v", kind, node, t)
			}
		}
		return nil
	}
	crashed := make(map[int]bool)
	for _, c := range p.Crashes {
		if err := checkNode("crash", c.Node); err != nil {
			return err
		}
		if err := checkTimes("crash", c.Node, c.At); err != nil {
			return err
		}
		if crashed[c.Node] {
			return fmt.Errorf("faults: duplicate crash of node %d", c.Node)
		}
		crashed[c.Node] = true
	}
	for _, sl := range p.Slowdowns {
		if err := checkNode("slowdown", sl.Node); err != nil {
			return err
		}
		if err := checkTimes("slowdown", sl.Node, sl.At, sl.Duration); err != nil {
			return err
		}
		if !(sl.Factor > 1) || math.IsInf(sl.Factor, 1) {
			return fmt.Errorf("faults: slowdown factor %v of node %d must be finite and exceed 1", sl.Factor, sl.Node)
		}
	}
	for _, l := range p.Links {
		if err := checkNode("link degrade", l.Node); err != nil {
			return err
		}
		if err := checkTimes("link degrade", l.Node, l.At, l.Duration); err != nil {
			return err
		}
		if !(l.Factor >= 0 && l.Factor <= 1) {
			return fmt.Errorf("faults: link factor %v of node %d outside [0,1]", l.Factor, l.Node)
		}
		if l.Factor == 0 && l.Duration == 0 {
			return fmt.Errorf("faults: permanent severed link on node %d would stall flows forever; give it a duration", l.Node)
		}
	}
	for _, r := range p.ReplicaLosses {
		if err := checkNode("replica loss", r.Node); err != nil {
			return err
		}
		if err := checkTimes("replica loss", r.Node, r.At); err != nil {
			return err
		}
	}
	if !(p.TaskFailProb >= 0 && p.TaskFailProb <= 1) {
		return fmt.Errorf("faults: task failure probability %v outside [0,1]", p.TaskFailProb)
	}
	if p.MaxTaskAttempts < 0 {
		return fmt.Errorf("faults: negative MaxTaskAttempts")
	}
	if p.BlacklistAfter < 0 {
		return fmt.Errorf("faults: negative BlacklistAfter")
	}
	return nil
}

// ParseSpec parses the command-line fault DSL: semicolon-separated
// entries of the forms
//
//	crash:NODE@AT
//	slow:NODE@AT[+DURATION]*FACTOR
//	link:NODE@AT[+DURATION]*FACTOR
//	replica:NODE@AT
//	taskfail:PROB
//	attempts:N
//	blacklist:N
//
// e.g. "crash:3@60;slow:7@30+120*2.5;link:4@10+40*0.1;taskfail:0.02".
// The returned plan is not yet validated against a cluster size; call
// Validate once the topology is known.
func ParseSpec(spec string) (Plan, error) {
	var p Plan
	for _, raw := range strings.Split(spec, ";") {
		entry := strings.TrimSpace(raw)
		if entry == "" {
			continue
		}
		kind, rest, ok := strings.Cut(entry, ":")
		if !ok {
			return Plan{}, fmt.Errorf("faults: entry %q missing ':'", entry)
		}
		switch strings.ToLower(strings.TrimSpace(kind)) {
		case "crash":
			node, at, _, hasF, _, err := parseEvent(rest)
			if err != nil {
				return Plan{}, fmt.Errorf("faults: crash %q: %w", rest, err)
			}
			if hasF {
				return Plan{}, fmt.Errorf("faults: crash %q takes no factor", rest)
			}
			p.Crashes = append(p.Crashes, NodeCrash{Node: node, At: at})
		case "slow":
			node, at, dur, hasF, factor, err := parseEvent(rest)
			if err != nil {
				return Plan{}, fmt.Errorf("faults: slow %q: %w", rest, err)
			}
			if !hasF {
				return Plan{}, fmt.Errorf("faults: slow %q missing '*FACTOR'", rest)
			}
			p.Slowdowns = append(p.Slowdowns, NodeSlowdown{Node: node, At: at, Duration: dur, Factor: factor})
		case "link":
			node, at, dur, hasF, factor, err := parseEvent(rest)
			if err != nil {
				return Plan{}, fmt.Errorf("faults: link %q: %w", rest, err)
			}
			if !hasF {
				return Plan{}, fmt.Errorf("faults: link %q missing '*FACTOR'", rest)
			}
			p.Links = append(p.Links, LinkDegrade{Node: node, At: at, Duration: dur, Factor: factor})
		case "replica":
			node, at, _, hasF, _, err := parseEvent(rest)
			if err != nil {
				return Plan{}, fmt.Errorf("faults: replica %q: %w", rest, err)
			}
			if hasF {
				return Plan{}, fmt.Errorf("faults: replica %q takes no factor", rest)
			}
			p.ReplicaLosses = append(p.ReplicaLosses, ReplicaLoss{Node: node, At: at})
		case "taskfail":
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				return Plan{}, fmt.Errorf("faults: taskfail %q: %w", rest, err)
			}
			p.TaskFailProb = v
		case "attempts":
			v, err := strconv.Atoi(strings.TrimSpace(rest))
			if err != nil {
				return Plan{}, fmt.Errorf("faults: attempts %q: %w", rest, err)
			}
			p.MaxTaskAttempts = v
		case "blacklist":
			v, err := strconv.Atoi(strings.TrimSpace(rest))
			if err != nil {
				return Plan{}, fmt.Errorf("faults: blacklist %q: %w", rest, err)
			}
			p.BlacklistAfter = v
		default:
			return Plan{}, fmt.Errorf("faults: unknown entry kind %q", kind)
		}
	}
	return p, nil
}

// parseEvent parses "NODE@AT", "NODE@AT+DURATION", "NODE@AT*FACTOR" or
// "NODE@AT+DURATION*FACTOR".
func parseEvent(s string) (node int, at, dur float64, hasFactor bool, factor float64, err error) {
	s = strings.TrimSpace(s)
	nodeStr, timing, ok := strings.Cut(s, "@")
	if !ok {
		return 0, 0, 0, false, 0, fmt.Errorf("missing '@TIME'")
	}
	node, err = strconv.Atoi(strings.TrimSpace(nodeStr))
	if err != nil {
		return 0, 0, 0, false, 0, fmt.Errorf("node %q: %w", nodeStr, err)
	}
	if left, factorStr, found := strings.Cut(timing, "*"); found {
		hasFactor = true
		factor, err = strconv.ParseFloat(strings.TrimSpace(factorStr), 64)
		if err != nil {
			return 0, 0, 0, false, 0, fmt.Errorf("factor %q: %w", factorStr, err)
		}
		timing = left
	}
	atStr, durStr, hasDur := strings.Cut(timing, "+")
	at, err = strconv.ParseFloat(strings.TrimSpace(atStr), 64)
	if err != nil {
		return 0, 0, 0, false, 0, fmt.Errorf("time %q: %w", atStr, err)
	}
	if hasDur {
		dur, err = strconv.ParseFloat(strings.TrimSpace(durStr), 64)
		if err != nil {
			return 0, 0, 0, false, 0, fmt.Errorf("duration %q: %w", durStr, err)
		}
	}
	return node, at, dur, hasFactor, factor, nil
}
