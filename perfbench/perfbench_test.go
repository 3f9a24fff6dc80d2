package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestMetricNames keeps BENCHMARK.json and the names this program
// prints in step, units included.
func TestMetricNames(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var b struct {
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, set := range []struct {
		listed []metric
		names  []string
	}{{b.EndToEnd, endToEndNames}, {b.PerLayer, perLayerNames}} {
		if len(set.listed) != len(set.names) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program prints %d", len(set.listed), len(set.names))
			continue
		}
		for i, m := range set.listed {
			if m.Name != set.names[i] || m.Unit != units[m.Name] {
				t.Errorf("metric %d: BENCHMARK.json has %s [%s], the program prints %s [%s]",
					i, m.Name, m.Unit, set.names[i], units[set.names[i]])
			}
		}
	}
}

// traced runs one short traced workload.
func traced(t *testing.T, run func(config) (*report, error), seed int64) *report {
	t.Helper()
	rep, err := run(config{seed: seed, seconds: 0.01, trace: true, models: "models.json", work: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed != 0 {
		t.Fatalf("%d of %d operations failed: %v", rep.failed, rep.attempted, rep.problems)
	}
	return rep
}

// TestDeterminism runs every workload twice with one seed: the accuracy
// metrics and the counts must repeat exactly. The fleet must also change
// when the seed does.
func TestDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	exact := map[string][]string{
		"campaign": {"power_pred_aae", "energy_pred_aae", "simcache.hits", "simcache.misses",
			"simcache.bytes_written", "simcache.bytes_read", "fxsim.fast_tick_share"},
		"ppepd": {"power_pred_aae", "energy_pred_aae", "fxsim.fast_tick_share",
			"serve.batch_bytes", "daemon.retries", "daemon.failures"},
		"fleet": {"power_pred_aae", "energy_pred_aae", "fleet.allocs_per_interval"},
	}
	for _, name := range sortedKeys(exact) {
		t.Run(name, func(t *testing.T) {
			a, b := traced(t, workloads[name], 5), traced(t, workloads[name], 5)
			for _, m := range exact[name] {
				if a.metrics[m] != b.metrics[m] {
					t.Errorf("%s: %v then %v with the same seed", m, a.metrics[m], b.metrics[m])
				}
			}
			if a.metrics["power_pred_aae"] <= 0 {
				t.Errorf("power_pred_aae = %v, want > 0", a.metrics["power_pred_aae"])
			}
			if name != "fleet" {
				return
			}
			c := traced(t, workloads[name], 6)
			if c.metrics["power_pred_aae"] == a.metrics["power_pred_aae"] {
				t.Errorf("fleet power_pred_aae %v did not change with the seed", a.metrics["power_pred_aae"])
			}
		})
	}
}
