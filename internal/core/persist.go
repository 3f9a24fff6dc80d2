package core

import (
	"encoding/json"
	"fmt"
	"io"

	"ppep/internal/arch"
	"ppep/internal/core/dynpower"
	"ppep/internal/core/idlepower"
	"ppep/internal/core/pgidle"
	"ppep/internal/stats"
	"ppep/internal/units"
)

// modelsJSON is the serialized form of a trained model set. Training is a
// one-time offline effort (Section IV-B1); persisting the coefficients
// lets deployments ship them the way firmware would.
type modelsJSON struct {
	Version  int          `json:"version"`
	Platform platformJSON `json:"platform"`
	Idle     idleJSON     `json:"idle"`
	Dyn      dynJSON      `json:"dynamic"`
	PG       []pgJSON     `json:"power_gating,omitempty"`
	PGOn     bool         `json:"pg_enabled"`
	Thermal  *thermalJSON `json:"thermal,omitempty"`
}

type thermalJSON struct {
	AmbientK float64 `json:"ambient_k"`
	RthKPerW float64 `json:"rth_k_per_w"`
}

type platformJSON struct {
	Voltages []float64 `json:"voltages"`
	Freqs    []float64 `json:"freqs_ghz"`
}

type idleJSON struct {
	W1 []float64 `json:"w1"`
	W0 []float64 `json:"w0"`
}

type dynJSON struct {
	W     []float64 `json:"weights"`
	Alpha float64   `json:"alpha"`
	VRef  float64   `json:"vref"`
}

type pgJSON struct {
	State int     `json:"state"`
	CU    float64 `json:"pidle_cu"`
	NB    float64 `json:"pidle_nb"`
	Base  float64 `json:"pidle_base"`
}

const modelsVersion = 1

// Save serializes the trained models as JSON.
func (m *Models) Save(w io.Writer) error {
	if m.Idle == nil || m.Dyn == nil {
		return fmt.Errorf("core: cannot save untrained models")
	}
	ws := make([]float64, len(m.Dyn.W))
	for i, w := range m.Dyn.W {
		ws[i] = float64(w)
	}
	out := modelsJSON{
		Version: modelsVersion,
		Idle:    idleJSON{W1: m.Idle.W1, W0: m.Idle.W0},
		Dyn:     dynJSON{W: ws, Alpha: m.Dyn.Alpha, VRef: float64(m.Dyn.VRef)},
		PGOn:    m.PGEnabled,
	}
	if m.Thermal != nil {
		out.Thermal = &thermalJSON{AmbientK: float64(m.Thermal.AmbientK), RthKPerW: float64(m.Thermal.RthKPerW)}
	}
	for _, p := range m.Table {
		out.Platform.Voltages = append(out.Platform.Voltages, float64(p.Voltage))
		out.Platform.Freqs = append(out.Platform.Freqs, float64(p.Freq))
	}
	for _, s := range m.Table.States() {
		if d, ok := m.PG[s]; ok {
			out.PG = append(out.PG, pgJSON{State: int(s), CU: float64(d.PidleCU), NB: float64(d.PidleNB), Base: float64(d.PidleBase)})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// LoadModels deserializes a model set saved with Save.
func LoadModels(r io.Reader) (*Models, error) {
	var in modelsJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("core: decode models: %w", err)
	}
	if in.Version != modelsVersion {
		return nil, fmt.Errorf("core: unsupported models version %d", in.Version)
	}
	if len(in.Platform.Voltages) == 0 || len(in.Platform.Voltages) != len(in.Platform.Freqs) {
		return nil, fmt.Errorf("core: malformed platform table")
	}
	// VF1 is the lowest state: every voltage and frequency is positive
	// and both columns rise strictly, or the V/Vref power scaling and
	// the cross-VF frequency ratios turn every prediction into ±Inf.
	for i, v := range in.Platform.Voltages {
		f := in.Platform.Freqs[i]
		if !(v > 0) || !(f > 0) {
			return nil, fmt.Errorf("core: VF%d is %g V at %g GHz, want both positive", i+1, v, f)
		}
		if i > 0 && (v <= in.Platform.Voltages[i-1] || f <= in.Platform.Freqs[i-1]) {
			return nil, fmt.Errorf("core: VF%d does not rise above VF%d in voltage and frequency", i+1, i)
		}
	}
	if !(in.Dyn.VRef > 0) {
		return nil, fmt.Errorf("core: dynamic model reference voltage %g V, want positive", in.Dyn.VRef)
	}
	if len(in.Dyn.W) != arch.NumPowerEvents {
		return nil, fmt.Errorf("core: dynamic model has %d weights, want %d", len(in.Dyn.W), arch.NumPowerEvents)
	}
	m := &Models{
		Idle:      &idlepower.Model{W1: stats.Poly(in.Idle.W1), W0: stats.Poly(in.Idle.W0)},
		Dyn:       &dynpower.Model{Alpha: in.Dyn.Alpha, VRef: units.Volts(in.Dyn.VRef)},
		PGEnabled: in.PGOn,
	}
	if in.Thermal != nil {
		m.Thermal = &ThermalFeedback{AmbientK: units.Kelvin(in.Thermal.AmbientK), RthKPerW: units.KelvinPerWatt(in.Thermal.RthKPerW)}
	}
	for i, w := range in.Dyn.W {
		m.Dyn.W[i] = units.JoulesPerEvent(w)
	}
	for i := range in.Platform.Voltages {
		m.Table = append(m.Table, arch.VFPoint{
			Voltage: units.Volts(in.Platform.Voltages[i]), Freq: units.GigaHertz(in.Platform.Freqs[i]),
		})
	}
	if len(in.PG) > 0 {
		m.PG = map[arch.VFState]pgidle.Decomposition{}
		for _, p := range in.PG {
			s := arch.VFState(p.State)
			if !m.Table.Contains(s) {
				return nil, fmt.Errorf("core: PG entry for unknown state %d", p.State)
			}
			m.PG[s] = pgidle.Decomposition{PidleCU: units.Watts(p.CU), PidleNB: units.Watts(p.NB), PidleBase: units.Watts(p.Base)}
		}
	}
	return m, nil
}
