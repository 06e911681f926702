package topology

import (
	"math"
	"testing"

	"mapsched/internal/sim"
)

// TestMaxPathRatesMatchesPerPair checks the per-rack MaxPathRates against
// max_l PathRate(k, l) bit for bit under random churn: 1–4 racks, replica sets
// with replica nodes, duplicates and the empty set, host links severed
// (by +0 and -0 factors) and degraded, congestion alpha and persistent
// cross traffic.
func TestMaxPathRatesMatchesPerPair(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := sim.NewRNG(seed)
		eng := sim.NewEngine()
		spec := DefaultSpec()
		spec.Racks = 1 + int(seed-1)%4
		spec.NodesPerRack = 2 + rng.Intn(5)
		spec.TorUplinkBps = 80e6 + rng.Float64()*400e6
		if seed%3 != 0 {
			spec.CongestionAlpha = 0.05 * float64(seed%4)
		}
		c := mustCluster(t, eng, spec)
		n := c.Size()
		out := make([]float64, n)
		var cross []*Flow
		for round := 0; round < 60; round++ {
			switch rng.Intn(6) {
			case 0, 1:
				if a, b := NodeID(rng.Intn(n)), NodeID(rng.Intn(n)); a != b {
					c.Transfer(a, b, 1e6+rng.Float64()*5e7, nil)
				}
			case 2:
				if a, b := NodeID(rng.Intn(n)), NodeID(rng.Intn(n)); a != b {
					cross = append(cross, c.InjectCrossTraffic(a, b))
				}
			case 3:
				if len(cross) > 0 {
					k := rng.Intn(len(cross))
					c.net.Cancel(cross[k])
					cross = append(cross[:k], cross[k+1:]...)
				}
			case 4:
				factors := []float64{0, math.Copysign(0, -1), 0.3, 1}
				c.SetHostLinkFactor(NodeID(rng.Intn(n)), factors[rng.Intn(len(factors))])
			case 5:
				for i := 0; i < 3 && eng.Pending() > 0; i++ {
					eng.Step()
				}
			}
			for q := 0; q < 4; q++ {
				replicas := make([]NodeID, rng.Intn(5)) // 0..4, may repeat
				for i := range replicas {
					replicas[i] = NodeID(rng.Intn(n))
				}
				c.MaxPathRates(replicas, out)
				for k := 0; k < n; k++ {
					want := 0.0
					for _, l := range replicas {
						if r := c.PathRate(NodeID(k), l); r > want {
							want = r
						}
					}
					if math.Float64bits(out[k]) != math.Float64bits(want) {
						t.Fatalf("seed %d round %d: replicas %v node %d: MaxPathRates %v, per-pair max %v",
							seed, round, replicas, k, out[k], want)
					}
				}
			}
		}
	}
}

// TestMatrixMaxPathRates checks the flat-rate observer: disk bandwidth on
// a replica node, the link rate elsewhere, 0 for no replicas.
func TestMatrixMaxPathRates(t *testing.T) {
	h := [][]float64{{0, 1, 2}, {1, 0, 1}, {2, 1, 0}}
	m, err := NewMatrix(sim.NewEngine(), h, nil, 100, 400)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 3)
	m.MaxPathRates([]NodeID{1, 1}, out)
	if out[0] != 100 || out[1] != 400 || out[2] != 100 {
		t.Fatalf("MaxPathRates({1,1}) = %v", out)
	}
	m.MaxPathRates(nil, out)
	if out[0] != 0 || out[1] != 0 || out[2] != 0 {
		t.Fatalf("MaxPathRates(nil) = %v", out)
	}
}
