package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"ppep/internal/arch"
	"ppep/internal/fxsim"
	"ppep/internal/trace"
	"ppep/internal/workload"
)

var (
	phenomOnce   sync.Once
	phenomModels *Models
	phenomErr    error
)

// miniPhenom trains models on a small Phenom II campaign: one idle
// transient per VF state and four single-threaded programs per state.
func miniPhenom(t *testing.T) *Models {
	t.Helper()
	phenomOnce.Do(func() {
		table := arch.PhenomIIVFTable
		ts := TrainingSet{IdleTraces: map[arch.VFState]*trace.Trace{}}
		for _, vf := range table.States() {
			tr, err := fxsim.New(fxsim.DefaultPhenomIIConfig()).HeatCool(vf, 40, 80)
			if err != nil {
				phenomErr = err
				return
			}
			ts.IdleTraces[vf] = tr
		}
		for _, num := range []string{"429", "433", "458", "416"} {
			b := *workload.SPECByNumber(num)
			b.Instructions = 8e9
			for _, vf := range table.States() {
				r := workload.Run{Name: num, Suite: "SPE",
					Members: []workload.Member{{Bench: &b, Threads: 1}}}
				tr, err := fxsim.New(fxsim.DefaultPhenomIIConfig()).Collect(r, fxsim.RunOpts{VF: vf, WarmTempK: 315})
				if err != nil {
					phenomErr = err
					return
				}
				ts.Runs = append(ts.Runs, RunTrace{Name: num, Suite: "SPE", VF: vf, Trace: tr})
			}
		}
		phenomModels, phenomErr = Train(ts, table)
	})
	if phenomErr != nil {
		t.Fatal(phenomErr)
	}
	return phenomModels
}

// randomCounts draws one core's counter vector: each event is zero, a
// count of up to 10^10 (a busy core's 200 ms at most), or, less often,
// any finite magnitude from 10^-300 to 10^300. Exponents are uniform,
// so every order of magnitude is as likely as any other.
func randomCounts(rng *rand.Rand) arch.EventVec {
	var ev arch.EventVec
	for i := range ev {
		switch r := rng.Float64(); {
		case r < 0.15:
			ev[i] = 0
		case r < 0.85:
			ev[i] = math.Pow(10, 10*rng.Float64())
		default:
			ev[i] = math.Pow(10, 600*rng.Float64()-300)
		}
	}
	return ev
}

// TestPublishInvariant is the property behind the daemon's publish
// gate: an interval of random finite, non-negative counts, at every VF
// state and with 1..NumCores cores on the FX-8320 and Phenom II tables,
// either makes AnalyzeInto fail or yields a prediction table that passes
// Validate.
func TestPublishInvariant(t *testing.T) {
	fx, _ := miniCampaign(t)
	platforms := []struct {
		name   string
		models *Models
		topo   arch.Topology
	}{
		{"FX-8320", fx, arch.FX8320},
		{"Phenom II", miniPhenom(t), arch.PhenomII},
	}
	const trials = 50
	rng := rand.New(rand.NewSource(1))
	for _, p := range platforms {
		refused, published := 0, 0
		for _, vf := range p.models.Table.States() {
			for n := 1; n <= p.topo.NumCores(); n++ {
				for trial := 0; trial < trials; trial++ {
					iv := trace.Interval{
						TimeS:      1,
						DurS:       0.2,
						TempK:      290 + 80*rng.Float64(),
						MeasPowerW: 150 * rng.Float64(),
					}
					for c := 0; c < n; c++ {
						iv.Counters = append(iv.Counters, randomCounts(rng))
						iv.PerCoreVF = append(iv.PerCoreVF, vf)
						iv.Busy = append(iv.Busy, iv.Counters[c].Get(arch.RetiredInstructions) > 0)
					}
					rep := new(Report)
					if err := p.models.AnalyzeInto(iv, rep); err != nil {
						refused++
						continue
					}
					if err := p.models.PredictionTable(1, iv, rep).Validate(); err != nil {
						t.Fatalf("%s VF%d, %d cores: AnalyzeInto accepted %v, and its table fails: %v",
							p.name, vf, n, iv.Counters, err)
					}
					published++
				}
			}
		}
		t.Logf("%s: %d intervals published, %d refused", p.name, published, refused)
		if published == 0 {
			t.Errorf("%s: no interval was published: the property was not exercised", p.name)
		}
	}
}
