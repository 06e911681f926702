// Package topology models the cluster network: node/rack structure, the
// hop-distance matrix H consumed by the paper's cost formulas, and a
// flow-level network simulator that assigns max-min fair bandwidth shares
// to concurrent transfers.
//
// Two concrete topologies are provided:
//
//   - Cluster: a hierarchical rack/core topology (hosts → top-of-rack →
//     core) matching the Palmetto testbed layout in Section III of the
//     paper. Transfers become flows across directed links with capacity
//     sharing, so the "network condition" (path transmission rate) emerges
//     from contention.
//   - Matrix: an arbitrary distance matrix, used for unit tests and for
//     reproducing the worked example of Fig. 2 exactly.
package topology

import (
	"fmt"
	"math"

	"mapsched/internal/sim"
)

// NodeID identifies a data node (0-based, dense).
type NodeID int

// Network is the read-only view the scheduler's cost model needs: the
// distance matrix H and rack membership for locality classification.
type Network interface {
	// Size returns the number of data nodes.
	Size() int
	// Distance returns the entry h_ab of the distance matrix: 0 for a==b,
	// and a positive path length otherwise. Units are "hops" for the
	// default mode, or any consistent cost unit.
	Distance(a, b NodeID) float64
	// Rack returns the rack index of node a.
	Rack(a NodeID) int
}

// RateObserver reports the transmission rate (bytes/second) a new transfer
// from a to b would currently obtain. Section II-B-3 of the paper replaces
// h_ab with the inverse of this rate to make the cost bandwidth-aware.
type RateObserver interface {
	PathRate(a, b NodeID) float64
	// MaxPathRates fills out[k] with max_{l ∈ replicas} PathRate(k, l)
	// for every node k (len(out) is the network size), bit for bit; an
	// empty replica set gives 0 everywhere. It is the nearest-replica
	// rate of Formula 1 in network-condition mode, one row per block.
	MaxPathRates(replicas []NodeID, out []float64)
}

// Transferer starts data movements in simulated time.
type Transferer interface {
	// Transfer moves bytes from src to dst and invokes done on completion.
	// A transfer with src == dst is a local disk read. Zero-byte transfers
	// complete on the next event cycle.
	Transfer(src, dst NodeID, bytes float64, done func()) *Flow
}

// Spec configures a hierarchical Cluster topology.
type Spec struct {
	Racks         int     // number of racks (>= 1)
	NodesPerRack  int     // hosts per rack (>= 1)
	HostLinkBps   float64 // host <-> ToR capacity, bytes/second each direction
	TorUplinkBps  float64 // ToR <-> core capacity, bytes/second each direction
	DiskBps       float64 // local read bandwidth, bytes/second
	SameRackDist  float64 // H entry for two distinct hosts in one rack (default 2)
	CrossRackDist float64 // H entry for hosts in different racks (default 4)

	// CongestionAlpha models goodput degradation under flow concurrency
	// (TCP incast, interrupt and disk-seek overheads): a link carrying n
	// flows delivers capacity/(1 + alpha·(n−1)) in aggregate. Zero (the
	// default) gives ideal lossless sharing.
	CongestionAlpha float64
}

// DefaultSpec mirrors the paper's testbed shape: 60 nodes in a single rack
// with gigabit-class host links and a 10 GbE uplink.
func DefaultSpec() Spec {
	return Spec{
		Racks:         1,
		NodesPerRack:  60,
		HostLinkBps:   125e6,  // 1 Gb/s
		TorUplinkBps:  1250e6, // 10 Gb/s
		DiskBps:       400e6,  // local disk read
		SameRackDist:  2,
		CrossRackDist: 4,
	}
}

// Validate reports whether the spec is usable, without changing it.
func (s Spec) Validate() error { return s.normalize() }

// normalize fills in the default distances and rejects unusable values.
// Every float field must be finite: a NaN passes any range comparison,
// and an infinite bandwidth or distance has no meaning here.
func (s *Spec) normalize() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"HostLinkBps", s.HostLinkBps},
		{"TorUplinkBps", s.TorUplinkBps},
		{"DiskBps", s.DiskBps},
		{"SameRackDist", s.SameRackDist},
		{"CrossRackDist", s.CrossRackDist},
		{"CongestionAlpha", s.CongestionAlpha},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("topology: %s = %v, must be finite", f.name, f.v)
		}
	}
	if s.Racks < 1 {
		return fmt.Errorf("topology: Racks = %d, need >= 1", s.Racks)
	}
	if s.NodesPerRack < 1 {
		return fmt.Errorf("topology: NodesPerRack = %d, need >= 1", s.NodesPerRack)
	}
	if s.HostLinkBps <= 0 {
		return fmt.Errorf("topology: HostLinkBps = %v, need > 0", s.HostLinkBps)
	}
	if s.TorUplinkBps <= 0 {
		return fmt.Errorf("topology: TorUplinkBps = %v, need > 0", s.TorUplinkBps)
	}
	if s.DiskBps <= 0 {
		return fmt.Errorf("topology: DiskBps = %v, need > 0", s.DiskBps)
	}
	if s.SameRackDist == 0 {
		s.SameRackDist = 2
	}
	if s.CrossRackDist == 0 {
		s.CrossRackDist = 4
	}
	if s.SameRackDist < 0 || s.CrossRackDist < 0 {
		return fmt.Errorf("topology: negative distances")
	}
	if s.CrossRackDist < s.SameRackDist {
		return fmt.Errorf("topology: CrossRackDist %v < SameRackDist %v",
			s.CrossRackDist, s.SameRackDist)
	}
	if s.CongestionAlpha < 0 {
		return fmt.Errorf("topology: negative CongestionAlpha")
	}
	return nil
}

// Cluster is a hierarchical host/ToR/core topology with a flow-level
// bandwidth-sharing network.
type Cluster struct {
	spec Spec
	n    int
	net  *FlowNet

	hostUp   []LinkID // host i -> its ToR
	hostDown []LinkID // ToR -> host i
	torUp    []LinkID // rack r ToR -> core
	torDown  []LinkID // core -> rack r ToR

	// pathBuf backs the slice path() returns. Every consumer either reads
	// it transiently (ProspectiveRate) or copies it (StartFlowBetween), so
	// one scratch array replaces a per-transfer allocation.
	pathBuf [4]LinkID

	rackDown []float64 // MaxPathRates' per-rack scratch

	classes *Classes // memoized rack-level class view, built on first use
}

var (
	_ Network        = (*Cluster)(nil)
	_ RateObserver   = (*Cluster)(nil)
	_ Transferer     = (*Cluster)(nil)
	_ ClassedNetwork = (*Cluster)(nil)
)

// NewCluster builds the topology and its flow network on eng.
func NewCluster(eng *sim.Engine, spec Spec) (*Cluster, error) {
	if err := spec.normalize(); err != nil {
		return nil, err
	}
	c := &Cluster{
		spec: spec,
		n:    spec.Racks * spec.NodesPerRack,
		net:  NewFlowNet(eng),
	}
	c.net.SetCongestionAlpha(spec.CongestionAlpha)
	c.hostUp = make([]LinkID, c.n)
	c.hostDown = make([]LinkID, c.n)
	for i := 0; i < c.n; i++ {
		c.hostUp[i] = c.net.AddLink(spec.HostLinkBps)
		c.hostDown[i] = c.net.AddLink(spec.HostLinkBps)
	}
	c.torUp = make([]LinkID, spec.Racks)
	c.torDown = make([]LinkID, spec.Racks)
	c.rackDown = make([]float64, spec.Racks)
	for r := 0; r < spec.Racks; r++ {
		c.torUp[r] = c.net.AddLink(spec.TorUplinkBps)
		c.torDown[r] = c.net.AddLink(spec.TorUplinkBps)
	}
	return c, nil
}

// Size returns the number of hosts.
func (c *Cluster) Size() int { return c.n }

// Rack returns the rack index of node a.
func (c *Cluster) Rack(a NodeID) int { return int(a) / c.spec.NodesPerRack }

// Spec returns the configuration the cluster was built with.
func (c *Cluster) Spec() Spec { return c.spec }

// Distance returns the H-matrix entry between two hosts: 0 (same node),
// SameRackDist, or CrossRackDist.
func (c *Cluster) Distance(a, b NodeID) float64 {
	switch {
	case a == b:
		return 0
	case c.Rack(a) == c.Rack(b):
		return c.spec.SameRackDist
	default:
		return c.spec.CrossRackDist
	}
}

// path returns the directed links a transfer from a to b traverses.
// Same-node transfers have no network path. The returned slice is backed
// by a shared scratch buffer, valid until the next path() call; the flow
// network copies it into flow-owned storage.
func (c *Cluster) path(a, b NodeID) []LinkID {
	if a == b {
		return nil
	}
	if c.Rack(a) == c.Rack(b) {
		c.pathBuf[0], c.pathBuf[1] = c.hostUp[a], c.hostDown[b]
		return c.pathBuf[:2]
	}
	c.pathBuf[0], c.pathBuf[1] = c.hostUp[a], c.torUp[c.Rack(a)]
	c.pathBuf[2], c.pathBuf[3] = c.torDown[c.Rack(b)], c.hostDown[b]
	return c.pathBuf[:4]
}

// PathRate returns the max-min share a new flow from a to b would obtain
// right now, in bytes/second. For a == b it returns the disk bandwidth.
func (c *Cluster) PathRate(a, b NodeID) float64 {
	if a == b {
		return c.spec.DiskBps
	}
	return c.net.ProspectiveRate(c.path(a, b))
}

// MaxPathRates implements RateObserver from per-link and per-rack terms
// instead of one PathRate per (node, replica) pair. With U_k, D_l, TU_r
// and TD_r the prospective shares of hostUp[k], hostDown[l], torUp[r] and
// torDown[r], a node k outside the replica set L in rack R gets
//
//	max_l PathRate(k, l) = min(U_k, max(S_R, min(TU_R, X)))
//
// where S_r = max_{l ∈ L∩r} D_l covers the same-rack paths and
// X = max_r min(TD_r, S_r) the cross-rack ones: min distributes over max,
// and both only ever select one of their operands, so the result is the
// per-pair maximum bit for bit. X may include R's own term, since
// min(TU_R, TD_R, S_R) never exceeds S_R. A replica node also reads from
// its own disk, so it is evaluated pair by pair. Shares are never
// negative or -0, which lets 0 stand for "no replica" in S_r.
func (c *Cluster) MaxPathRates(replicas []NodeID, out []float64) {
	out = out[:c.n]
	down := c.rackDown
	for r := range down {
		down[r] = 0
	}
	for _, l := range replicas {
		if d := c.net.prospectiveShare(c.hostDown[l]); d > down[c.Rack(l)] {
			down[c.Rack(l)] = d
		}
	}
	var cross float64
	for r, s := range down {
		if s > cross {
			cross = max(cross, min(c.net.prospectiveShare(c.torDown[r]), s))
		}
	}
	npr := c.spec.NodesPerRack
	for r, h := range down {
		if cross > h {
			h = max(h, min(c.net.prospectiveShare(c.torUp[r]), cross))
		}
		row := out[r*npr : (r+1)*npr]
		if h == 0 {
			for k := range row {
				row[k] = 0
			}
			continue
		}
		for k := range row {
			row[k] = min(c.net.prospectiveShare(c.hostUp[r*npr+k]), h)
		}
	}
	for _, k := range replicas {
		best := c.spec.DiskBps
		for _, l := range replicas {
			if l != k {
				if r := c.PathRate(k, l); r > best {
					best = r
				}
			}
		}
		out[k] = best
	}
}

// Transfer moves bytes from src to dst. Remote transfers become flows in
// the shared network; local transfers are limited by disk bandwidth.
func (c *Cluster) Transfer(src, dst NodeID, bytes float64, done func()) *Flow {
	if src == dst {
		return c.net.LocalTransferAt(src, bytes, c.spec.DiskBps, done)
	}
	return c.net.StartFlowBetween(src, dst, c.path(src, dst), bytes, done)
}

// InjectCrossTraffic starts a permanent background flow between two hosts
// consuming bandwidth on their path; used by the network-condition
// experiments. It returns the flow so callers can cancel it.
func (c *Cluster) InjectCrossTraffic(src, dst NodeID) *Flow {
	if src == dst {
		return nil
	}
	return c.net.StartPersistentFlowBetween(src, dst, c.path(src, dst))
}

// SetHostLinkFactor scales node a's access-link capacity (both directions)
// to factor × the spec's nominal HostLinkBps. Factors are absolute, not
// cumulative: passing 1 restores the nominal capacity, 0 severs the link
// (flows across it stall until restored). Used by fault injection to model
// degraded host links; each call re-shares flows and bumps the epoch.
func (c *Cluster) SetHostLinkFactor(a NodeID, factor float64) {
	if factor < 0 {
		factor = 0
	}
	bps := c.spec.HostLinkBps * factor
	c.net.SetLinkCapacity(c.hostUp[a], bps)
	c.net.SetLinkCapacity(c.hostDown[a], bps)
}

// Net exposes the underlying flow network (for tests and metrics).
func (c *Cluster) Net() *FlowNet { return c.net }

// Epoch returns the flow network's rate-recomputation counter: PathRate
// observations are guaranteed unchanged between equal epochs, so derived
// cost caches can invalidate exactly.
func (c *Cluster) Epoch() uint64 { return c.net.Epoch() }
