package engine

import (
	"math"
	"testing"

	"mapsched/internal/sched"
	"mapsched/internal/workload"
)

// FuzzConfigValidate fuzzes every float field of Config and its topology
// spec. Validate and New must reject the configuration or accept only
// finite values, and New must never accept what Validate rejects. Nothing
// is run: a bad value that slips through shows up as a hang or a silently
// wrong result only much later, so the check is at construction.
func FuzzConfigValidate(f *testing.F) {
	d := DefaultConfig()
	f.Add(d.HeartbeatInterval, d.Slowstart, d.TaskOverhead, d.MaxSimTime, d.SpecSlowdown,
		d.HeartbeatExpiry, d.SlowNodeFraction, d.SlowFactor,
		d.Topology.HostLinkBps, d.Topology.TorUplinkBps, d.Topology.DiskBps,
		d.Topology.SameRackDist, d.Topology.CrossRackDist, d.Topology.CongestionAlpha)
	nan, inf := math.NaN(), math.Inf(1)
	f.Add(nan, 0.05, 1.0, 0.0, 1.8, 0.0, 0.0, 0.0, 125e6, 1250e6, 400e6, 2.0, 4.0, 0.0)
	f.Add(inf, 0.05, 1.0, 0.0, 1.8, 0.0, 0.0, 0.0, 125e6, 1250e6, 400e6, 2.0, 4.0, 0.0)
	f.Add(3.0, nan, nan, nan, 1.8, nan, 0.0, 0.0, 125e6, 1250e6, 400e6, 2.0, 4.0, nan)
	f.Add(3.0, 0.05, 1.0, inf, inf, inf, 0.5, inf, inf, 1250e6, inf, 2.0, inf, inf)
	f.Add(3.0, 0.05, 1.0, 0.0, 1.8, 0.0, 0.0, 0.0, nan, -inf, nan, nan, nan, -1.0)

	specs, err := workload.Specs([]workload.JobDef{
		{JobID: "21", Kind: workload.Grep, InputGB: 10, Maps: 87, Reduces: 148},
	}, workload.Options{Scale: 40, Replication: 2, SubmitStagger: 1})
	if err != nil {
		f.Fatal(err)
	}
	builder := sched.NewProbabilistic(sched.DefaultProbabilisticConfig())
	f.Fuzz(func(t *testing.T, hb, slowstart, overhead, horizon, specSlow, expiry, slowFrac, slowFactor,
		host, tor, disk, same, cross, alpha float64) {
		cfg := tinyConfig()
		cfg.HeartbeatInterval, cfg.Slowstart, cfg.TaskOverhead, cfg.MaxSimTime = hb, slowstart, overhead, horizon
		cfg.SpecSlowdown, cfg.HeartbeatExpiry, cfg.SlowNodeFraction, cfg.SlowFactor = specSlow, expiry, slowFrac, slowFactor
		cfg.Topology.HostLinkBps, cfg.Topology.TorUplinkBps, cfg.Topology.DiskBps = host, tor, disk
		cfg.Topology.SameRackDist, cfg.Topology.CrossRackDist, cfg.Topology.CongestionAlpha = same, cross, alpha
		verr := cfg.Validate()
		_, nerr := New(cfg, specs, builder)
		if verr != nil && nerr == nil {
			t.Fatalf("New accepted a config Validate rejects: %v", verr)
		}
		if verr != nil && nerr != nil {
			return
		}
		for _, v := range []float64{hb, slowstart, overhead, horizon, specSlow, expiry, slowFrac, slowFactor,
			host, tor, disk, same, cross, alpha} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite value %v accepted (Validate: %v, New: %v)", v, verr, nerr)
			}
		}
	})
}
