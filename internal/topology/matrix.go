package topology

import (
	"fmt"

	"mapsched/internal/sim"
)

// Matrix is a topology defined directly by a distance matrix H, as in the
// worked example of Fig. 2 of the paper. It supports transfers at a flat
// per-pair bandwidth without contention, so it is suitable for unit tests
// and cost-model validation rather than full contention studies.
type Matrix struct {
	h     [][]float64
	racks []int
	eng   *sim.Engine
	bps   float64
	disk  float64

	classes    *Classes // memoized class derivation (nil when none exists)
	classTried bool
}

var (
	_ Network        = (*Matrix)(nil)
	_ RateObserver   = (*Matrix)(nil)
	_ Transferer     = (*Matrix)(nil)
	_ ClassedNetwork = (*Matrix)(nil)
)

// NewMatrix builds a Matrix topology. h must be square with a zero
// diagonal and non-negative entries. racks assigns each node to a rack;
// pass nil to place every node in rack 0. bps is the point-to-point
// transfer bandwidth (bytes/second) and diskBps the local read bandwidth.
func NewMatrix(eng *sim.Engine, h [][]float64, racks []int, bps, diskBps float64) (*Matrix, error) {
	n := len(h)
	if n == 0 {
		return nil, fmt.Errorf("topology: empty distance matrix")
	}
	for i, row := range h {
		if len(row) != n {
			return nil, fmt.Errorf("topology: row %d has %d entries, want %d", i, len(row), n)
		}
		if row[i] != 0 {
			return nil, fmt.Errorf("topology: diagonal entry h[%d][%d] = %v, want 0", i, i, row[i])
		}
		for j, v := range row {
			if v < 0 {
				return nil, fmt.Errorf("topology: h[%d][%d] = %v is negative", i, j, v)
			}
		}
	}
	if racks == nil {
		racks = make([]int, n)
	}
	if len(racks) != n {
		return nil, fmt.Errorf("topology: %d rack labels for %d nodes", len(racks), n)
	}
	if bps <= 0 || diskBps <= 0 {
		return nil, fmt.Errorf("topology: bandwidths must be positive (bps=%v disk=%v)", bps, diskBps)
	}
	return &Matrix{h: h, racks: racks, eng: eng, bps: bps, disk: diskBps}, nil
}

// Size returns the number of nodes.
func (m *Matrix) Size() int { return len(m.h) }

// Distance returns h[a][b].
func (m *Matrix) Distance(a, b NodeID) float64 { return m.h[a][b] }

// Rack returns the rack label of node a.
func (m *Matrix) Rack(a NodeID) int { return m.racks[a] }

// PathRate returns the flat transfer bandwidth (disk bandwidth for a==b).
func (m *Matrix) PathRate(a, b NodeID) float64 {
	if a == b {
		return m.disk
	}
	return m.bps
}

// MaxPathRates implements RateObserver pair by pair: Matrix rates are
// flat, so there is nothing to collapse.
func (m *Matrix) MaxPathRates(replicas []NodeID, out []float64) {
	for k := range m.h {
		best := 0.0
		for _, l := range replicas {
			if r := m.PathRate(NodeID(k), l); r > best {
				best = r
			}
		}
		out[k] = best
	}
}

// Epoch implements the epoch-observer contract for rate caching: Matrix
// path rates are flat constants, so the epoch never advances.
func (m *Matrix) Epoch() uint64 { return 0 }

// Transfer completes after bytes/rate seconds with no contention model.
func (m *Matrix) Transfer(src, dst NodeID, bytes float64, done func()) *Flow {
	rate := m.PathRate(src, dst)
	if bytes < 0 {
		bytes = 0
	}
	f := &Flow{remaining: bytes, rate: rate, lastUpdate: m.eng.Now()}
	m.eng.After(bytes/rate, func() {
		f.finished = true
		f.remaining = 0
		if done != nil {
			done()
		}
	})
	return f
}
