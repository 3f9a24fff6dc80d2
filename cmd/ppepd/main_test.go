package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"ppep/internal/arch"
	"ppep/internal/fleet"
	"ppep/internal/workload"
)

// goodFlags is a baseline that must validate.
func goodFlags() flags {
	return flags{vf: 5, seconds: 10, policy: "none", scale: 0.05, capW: 70,
		ring: 512, pace: 200 * time.Millisecond}
}

func TestFlagValidation(t *testing.T) {
	if err := goodFlags().validate(arch.FX8320VFTable); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}

	cases := []struct {
		name string
		mut  func(*flags)
		want string // substring of the usage error
	}{
		{"vf too low", func(f *flags) { f.vf = 0 }, "-vf"},
		{"vf too high", func(f *flags) { f.vf = 6 }, "1..5"},
		{"vf negative", func(f *flags) { f.vf = -3 }, "-vf"},
		{"zero seconds", func(f *flags) { f.seconds = 0 }, "-seconds"},
		{"negative seconds", func(f *flags) { f.seconds = -1 }, "-seconds"},
		{"unknown policy", func(f *flags) { f.policy = "bogus" }, "-policy"},
		{"zero scale", func(f *flags) { f.scale = 0 }, "-scale"},
		{"negative scale", func(f *flags) { f.scale = -0.1 }, "-scale"},
		{"zero cap", func(f *flags) { f.capW = 0 }, "-cap"},
		{"negative ring", func(f *flags) { f.ring = -1 }, "-ring"},
		{"negative pace", func(f *flags) { f.pace = -time.Second }, "-pace"},
		{"msr rate 1", func(f *flags) { f.faultMSR = 1 }, "-fault-msr"},
		{"msr rate negative", func(f *flags) { f.faultMSR = -0.1 }, "-fault-msr"},
		{"hwmon rate 1.5", func(f *flags) { f.faultHwmon = 1.5 }, "-fault-hwmon"},
		{"NaN seconds", func(f *flags) { f.seconds = math.NaN() }, "-seconds"},
		{"infinite seconds", func(f *flags) { f.seconds = math.Inf(1) }, "-seconds"},
		{"seconds overflow the interval count", func(f *flags) { f.seconds = 1e300 }, "-seconds"},
		{"NaN scale", func(f *flags) { f.scale = math.NaN() }, "-scale"},
		{"infinite scale", func(f *flags) { f.scale = math.Inf(1) }, "-scale"},
		{"NaN cap", func(f *flags) { f.capW = math.NaN() }, "-cap"},
		{"infinite cap", func(f *flags) { f.capW = math.Inf(1) }, "-cap"},
		{"negative infinite cap", func(f *flags) { f.capW = math.Inf(-1) }, "-cap"},
		{"NaN msr rate", func(f *flags) { f.faultMSR = math.NaN() }, "-fault-msr"},
		{"infinite msr rate", func(f *flags) { f.faultMSR = math.Inf(1) }, "-fault-msr"},
		{"NaN hwmon rate", func(f *flags) { f.faultHwmon = math.NaN() }, "-fault-hwmon"},
		{"negative infinite hwmon rate", func(f *flags) { f.faultHwmon = math.Inf(-1) }, "-fault-hwmon"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := goodFlags()
			tc.mut(&f)
			err := f.validate(arch.FX8320VFTable)
			if err == nil {
				t.Fatal("invalid flags accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name the offending flag %q", err, tc.want)
			}
		})
	}

	// Boundary values that must be accepted.
	f := goodFlags()
	f.vf, f.ring, f.pace = 1, 0, 0
	f.faultMSR, f.faultHwmon = 0.99, 0
	if err := f.validate(arch.FX8320VFTable); err != nil {
		t.Errorf("boundary values rejected: %v", err)
	}
}

// TestBatchRunsDaemon drives the batch path — the same daemon assembly
// -serve runs — for 2 simulated seconds under the cap policy, and pins
// that the capper keeps no per-interval trajectory: an always-on ppepd
// would otherwise grow it without bound.
func TestBatchRunsDaemon(t *testing.T) {
	models, err := fleet.SlimModels()
	if err != nil {
		t.Fatal(err)
	}
	run, err := workload.ParseRunSpec("433x2")
	if err != nil {
		t.Fatal(err)
	}
	fl := goodFlags()
	fl.policy, fl.seconds = "cap", 2
	d, err := attach(models, run, fl)
	if err != nil {
		t.Fatal(err)
	}
	if err := runBatch(d, fl.seconds); err != nil {
		t.Fatal(err)
	}

	if s := d.Counters().Snapshot(); s.Intervals != 10 || s.AnalyzeErrors != 0 {
		t.Errorf("%d intervals, %d analyze errors; want 10 and 0", s.Intervals, s.AnalyzeErrors)
	}
	if h := d.Policy.(*capPolicy).History; len(h) > 1 {
		t.Errorf("capper retained %d steps after 10 intervals, want at most 1", len(h))
	}
}

// TestAttachRejectsForeignModels pins that a models file for another VF
// table (here 3 states against the FX-8320's 5) fails the daemon
// assembly both modes share, so ppepd exits at startup instead of
// serving analysis errors with a healthy /healthz.
func TestAttachRejectsForeignModels(t *testing.T) {
	models, err := fleet.SlimModels()
	if err != nil {
		t.Fatal(err)
	}
	m := *models
	m.Table = m.Table[:3]
	run, err := workload.ParseRunSpec("433x2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := attach(&m, run, goodFlags()); err == nil || !strings.Contains(err.Error(), "VF states") {
		t.Errorf("attach with 3-state models: err = %v, want a VF-table mismatch", err)
	}
}
