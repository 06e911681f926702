package mapsched

import (
	"errors"
	"math"
	"testing"
)

// TestOptionDomains walks every With* option's rejection domain: out-of-
// domain values make New fail with an error wrapping ErrInvalidOption,
// and the domain boundaries stay accepted.
func TestOptionDomains(t *testing.T) {
	cases := []struct {
		name string
		opt  Option
		ok   bool
	}{
		{"pmin_negative", WithPmin(-0.01), false},
		{"pmin_above_one", WithPmin(1.01), false},
		{"pmin_zero", WithPmin(0), true},
		{"pmin_one", WithPmin(1), true},
		{"scale_zero", WithScale(0), false},
		{"scale_negative", WithScale(-3), false},
		{"scale_one", WithScale(1), true},
		{"replication_zero", WithReplication(0), false},
		{"replication_negative", WithReplication(-1), false},
		{"replication_one", WithReplication(1), true},
		{"cross_traffic_negative", WithCrossTraffic(-1), false},
		{"cross_traffic_zero", WithCrossTraffic(0), true},
		{"storage_subset_negative", WithStorageSubset(-1), false},
		{"storage_subset_zero", WithStorageSubset(0), true},
		{"heartbeat_expiry_negative", WithHeartbeatExpiry(-1), false},
		{"heartbeat_expiry_zero", WithHeartbeatExpiry(0), true},
		{"heartbeat_expiry_inf", WithHeartbeatExpiry(math.Inf(1)), false},
		{"pmin_nan", WithPmin(math.NaN()), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := buildOptions([]Option{tc.opt})
			if tc.ok {
				if err != nil {
					t.Fatalf("boundary value rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("out-of-domain value accepted")
			}
			if !errors.Is(err, ErrInvalidOption) {
				t.Fatalf("error %v does not wrap ErrInvalidOption", err)
			}
		})
	}
}

// TestNewRejectsInvalidOptions checks the typed error surfaces through
// the public constructors, not just the option builder.
func TestNewRejectsInvalidOptions(t *testing.T) {
	if _, err := New(smallConfig(), Batch(Grep), SchedulerFair, WithPmin(2)); !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("New error = %v, want ErrInvalidOption", err)
	}
	if _, err := NewPlacementService(smallConfig(), Batch(Grep), WithScale(0)); !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("NewPlacementService error = %v, want ErrInvalidOption", err)
	}
	if _, err := Replay(smallConfig(), Batch(Grep), nil, WithReplication(0)); !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("Replay error = %v, want ErrInvalidOption", err)
	}
}

// TestNewRejectsNonFiniteConfig checks that NaN and infinite values in the
// cluster config and the float options fail New with ErrInvalidOption.
// Each of them used to be accepted: a NaN or +Inf heartbeat hung Run, a
// NaN slowstart or congestion alpha left every job unfinished, a NaN task
// overhead gave makespan 0 and a NaN host link panicked in the flow
// network.
func TestNewRejectsNonFiniteConfig(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		cfg  func(*ClusterConfig)
		opt  Option
	}{
		{name: "heartbeat_nan", cfg: func(c *ClusterConfig) { c.HeartbeatInterval = nan }},
		{name: "heartbeat_inf", cfg: func(c *ClusterConfig) { c.HeartbeatInterval = inf }},
		{name: "slowstart_nan", cfg: func(c *ClusterConfig) { c.Slowstart = nan }},
		{name: "congestion_alpha_nan", cfg: func(c *ClusterConfig) { c.Topology.CongestionAlpha = nan }},
		{name: "task_overhead_nan", cfg: func(c *ClusterConfig) { c.TaskOverhead = nan }},
		{name: "host_link_nan", cfg: func(c *ClusterConfig) { c.Topology.HostLinkBps = nan }},
		{name: "disk_nan", cfg: func(c *ClusterConfig) { c.Topology.DiskBps = nan }},
		{name: "max_sim_time_nan", cfg: func(c *ClusterConfig) { c.MaxSimTime = nan }},
		{name: "pmin_nan", opt: WithPmin(nan)},
		{name: "heartbeat_expiry_nan", opt: WithHeartbeatExpiry(nan)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultClusterConfig()
			var opts []Option
			if tc.cfg != nil {
				tc.cfg(&cfg)
			}
			if tc.opt != nil {
				opts = append(opts, tc.opt)
			}
			_, err := New(cfg, Batch(Wordcount), SchedulerProbabilistic, opts...)
			if !errors.Is(err, ErrInvalidOption) {
				t.Fatalf("New error = %v, want ErrInvalidOption", err)
			}
		})
	}
	// The placement service reads the topology and slowstart of the
	// same config.
	for _, set := range []func(*ClusterConfig){
		func(c *ClusterConfig) { c.Slowstart = nan },
		func(c *ClusterConfig) { c.Topology.HostLinkBps = nan },
	} {
		cfg := smallConfig()
		set(&cfg)
		if _, err := NewPlacementService(cfg, Batch(Grep)); !errors.Is(err, ErrInvalidOption) {
			t.Fatalf("NewPlacementService error = %v, want ErrInvalidOption", err)
		}
	}
}
