package core

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"ppep/internal/arch"
	"ppep/internal/core/pgidle"
	"ppep/internal/trace"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	m, ts := miniCampaign(t)
	// Attach a PG decomposition so that branch round-trips too.
	m2 := *m
	m2.PG = map[arch.VFState]pgidle.Decomposition{
		arch.VF5: {PidleCU: 6.5, PidleNB: 7.1, PidleBase: 2.2},
		arch.VF1: {PidleCU: 1.5, PidleNB: 6.0, PidleBase: 1.4},
	}
	m2.PGEnabled = true
	m2.Thermal = &ThermalFeedback{AmbientK: 301, RthKPerW: 0.12}

	var buf bytes.Buffer
	if err := m2.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadModels(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dyn.Alpha != m2.Dyn.Alpha || got.Dyn.VRef != m2.Dyn.VRef {
		t.Error("dynamic scalars differ")
	}
	if got.Dyn.W != m2.Dyn.W {
		t.Error("weights differ")
	}
	if len(got.Table) != len(m2.Table) || got.Table.Point(arch.VF5) != m2.Table.Point(arch.VF5) {
		t.Error("platform table differs")
	}
	if got.PG[arch.VF5] != m2.PG[arch.VF5] || got.PG[arch.VF1] != m2.PG[arch.VF1] {
		t.Error("PG decomposition differs")
	}
	if !got.PGEnabled {
		t.Error("PGEnabled lost")
	}
	if got.Thermal == nil || *got.Thermal != *m2.Thermal {
		t.Error("thermal feedback lost")
	}
	// The loaded models must produce identical analyses.
	iv := ts.Runs[0].Trace.Intervals[1]
	a, err := m2.Analyze(iv)
	if err != nil {
		t.Fatal(err)
	}
	b, err := got.Analyze(iv)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.PerVF {
		if math.Abs(float64(a.PerVF[i].ChipW-b.PerVF[i].ChipW)) > 1e-9 {
			t.Errorf("%v: loaded models predict %v, original %v",
				a.PerVF[i].VF, b.PerVF[i].ChipW, a.PerVF[i].ChipW)
		}
	}
}

func TestSaveUntrained(t *testing.T) {
	var m Models
	if err := m.Save(&bytes.Buffer{}); err == nil {
		t.Error("untrained save accepted")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	// Each case must fail on the rule its name describes, so a later
	// check cannot mask a missing earlier one.
	cases := map[string]struct{ body, want string }{
		"not json":         {"{", "decode models"},
		"bad version":      {`{"version": 99}`, "unsupported models version"},
		"no platform":      {`{"version": 1, "platform": {"voltages": [], "freqs_ghz": []}, "dynamic": {"weights": [1,2,3,4,5,6,7,8,9]}}`, "malformed platform table"},
		"ragged platform":  {`{"version": 1, "platform": {"voltages": [1.0], "freqs_ghz": []}, "dynamic": {"weights": [1,2,3,4,5,6,7,8,9]}}`, "malformed platform table"},
		"bad weights":      {`{"version": 1, "platform": {"voltages": [1.0], "freqs_ghz": [2.0]}, "dynamic": {"weights": [1,2], "vref": 1.0}}`, "has 2 weights"},
		"too many weights": {`{"version": 1, "platform": {"voltages": [1.0], "freqs_ghz": [2.0]}, "dynamic": {"weights": [1,2,3,4,5,6,7,8,9,10], "vref": 1.0}}`, "has 10 weights"},
		"bad pg state":     {`{"version": 1, "platform": {"voltages": [1.0], "freqs_ghz": [2.0]}, "dynamic": {"weights": [1,2,3,4,5,6,7,8,9], "vref": 1.0}, "power_gating": [{"state": 7}]}`, "unknown state"},
		"zero vref":        {`{"version": 1, "platform": {"voltages": [1.0], "freqs_ghz": [2.0]}, "dynamic": {"weights": [1,2,3,4,5,6,7,8,9], "vref": 0}}`, "reference voltage"},
		"negative vref":    {`{"version": 1, "platform": {"voltages": [1.0], "freqs_ghz": [2.0]}, "dynamic": {"weights": [1,2,3,4,5,6,7,8,9], "vref": -1.0}}`, "reference voltage"},
		"zero voltage":     {`{"version": 1, "platform": {"voltages": [0, 1.0], "freqs_ghz": [1.0, 2.0]}, "dynamic": {"weights": [1,2,3,4,5,6,7,8,9], "vref": 1.0}}`, "want both positive"},
		"zero frequency":   {`{"version": 1, "platform": {"voltages": [0.9, 1.0], "freqs_ghz": [0, 2.0]}, "dynamic": {"weights": [1,2,3,4,5,6,7,8,9], "vref": 1.0}}`, "want both positive"},
		"negative freq":    {`{"version": 1, "platform": {"voltages": [0.9, 1.0], "freqs_ghz": [-1.0, 2.0]}, "dynamic": {"weights": [1,2,3,4,5,6,7,8,9], "vref": 1.0}}`, "want both positive"},
		"falling voltage":  {`{"version": 1, "platform": {"voltages": [1.0, 0.9], "freqs_ghz": [1.0, 2.0]}, "dynamic": {"weights": [1,2,3,4,5,6,7,8,9], "vref": 1.0}}`, "does not rise"},
		"repeated freq":    {`{"version": 1, "platform": {"voltages": [0.9, 1.0], "freqs_ghz": [2.0, 2.0]}, "dynamic": {"weights": [1,2,3,4,5,6,7,8,9], "vref": 1.0}}`, "does not rise"},
	}
	for name, c := range cases {
		_, err := LoadModels(strings.NewReader(c.body))
		if err == nil {
			t.Errorf("%s accepted", name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s rejected with %q, want it to mention %q", name, err, c.want)
		}
	}
}

func TestSteadyIntervals(t *testing.T) {
	tr := &trace.Trace{Intervals: []trace.Interval{
		{DurS: 0.2}, {DurS: 0.2}, {DurS: 0.2},
	}}
	if got := len(SteadyIntervals(tr)); got != 2 {
		t.Errorf("steady intervals = %d, want 2", got)
	}
	one := &trace.Trace{Intervals: []trace.Interval{{DurS: 0.2}}}
	if got := len(SteadyIntervals(one)); got != 1 {
		t.Errorf("single interval trimmed to %d", got)
	}
	if got := len(SteadyIntervals(&trace.Trace{})); got != 0 {
		t.Errorf("empty trace gave %d", got)
	}
}
