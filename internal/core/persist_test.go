package core

import (
	"bytes"
	"math"
	"os"
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
	a := new(Report)
	if err := m2.AnalyzeInto(iv, a); err != nil {
		t.Fatal(err)
	}
	b := new(Report)
	if err := got.AnalyzeInto(iv, b); err != nil {
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

// garbageModels are model files LoadModels must refuse, each with the
// error text its rule produces. Each case must fail on the rule its name
// describes, so a later check cannot mask a missing earlier one.
var garbageModels = map[string]struct{ body, want string }{
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

func TestLoadRejectsGarbage(t *testing.T) {
	for name, c := range garbageModels {
		_, err := LoadModels(strings.NewReader(c.body))
		if err == nil {
			t.Errorf("%s accepted", name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s rejected with %q, want it to mention %q", name, err, c.want)
		}
	}
}

// FuzzLoadModels: LoadModels never panics, and a model set it accepts
// has finite coefficients and a strictly rising, positive VF table. The
// corpus is the shipped perfbench model file and every garbageModels
// case.
func FuzzLoadModels(f *testing.F) {
	shipped, err := os.ReadFile("../../perfbench/models.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(shipped)
	for _, c := range garbageModels {
		f.Add([]byte(c.body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := LoadModels(bytes.NewReader(data))
		if err != nil {
			return
		}
		coeffs := append(append([]float64{m.Dyn.Alpha, float64(m.Dyn.VRef)}, m.Idle.W1...), m.Idle.W0...)
		for _, w := range m.Dyn.W {
			coeffs = append(coeffs, float64(w))
		}
		for _, d := range m.PG {
			coeffs = append(coeffs, float64(d.PidleCU), float64(d.PidleNB), float64(d.PidleBase))
		}
		if m.Thermal != nil {
			coeffs = append(coeffs, float64(m.Thermal.AmbientK), float64(m.Thermal.RthKPerW))
		}
		for i, c := range coeffs {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				t.Fatalf("accepted model has non-finite coefficient %d: %v", i, c)
			}
		}
		for i, p := range m.Table {
			if !(p.Voltage > 0) || !(p.Freq > 0) || i > 0 && (p.Voltage <= m.Table[i-1].Voltage || p.Freq <= m.Table[i-1].Freq) {
				t.Fatalf("accepted VF table %v", m.Table)
			}
		}
	})
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
