// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each BenchmarkFigN wraps the corresponding experiment
// harness; the expensive measurement campaign is built once and shared.
//
// Run with:
//
//	go test -bench=. -benchmem
//
// Headline metrics are reported via b.ReportMetric, so each bench's
// output carries the reproduced number next to its runtime.
package main

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"ppep/internal/core"
	"ppep/internal/core/eventpred"
	"ppep/internal/experiments"
	"ppep/internal/serve"
	"ppep/internal/workload"
)

var (
	benchOnce sync.Once
	benchCamp *experiments.Campaign
	benchErr  error
)

// benchCampaign builds the shared reduced campaign (8 runs per suite at
// 1/12 length — enough to exercise every code path at benchmark speed).
func benchCampaign(b *testing.B) *experiments.Campaign {
	b.Helper()
	benchOnce.Do(func() {
		benchCamp, benchErr = experiments.NewFXCampaign(experiments.Options{
			Scale: 0.08, MaxRunsPerSuite: 8,
		})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchCamp
}

// report copies an experiment's headline metrics onto the benchmark.
func report(b *testing.B, results []*experiments.Result, keys ...string) {
	for _, r := range results {
		for _, k := range keys {
			if v, ok := r.Metrics[k]; ok {
				b.ReportMetric(v, r.ID+"_"+k)
			}
		}
	}
}

// run executes one registered experiment b.N times.
func runExperiment(b *testing.B, id string, keys ...string) {
	c := benchCampaign(b)
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var last []*experiments.Result
	for i := 0; i < b.N; i++ {
		last, err = e.Run(c)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	report(b, last, keys...)
}

// BenchmarkCampaign measures the full measurement-and-training pipeline —
// the one-time offline effort of Section IV.
func BenchmarkCampaign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := experiments.NewFXCampaign(experiments.Options{
			Scale: 0.02, MaxRunsPerSuite: 3,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(c.Models.Dyn.Alpha, "alpha")
	}
}

// BenchmarkSec3CPIPrediction regenerates the Section III result: LL-MAB
// CPI prediction error between VF5 and VF2 (paper: 3.4% / 3.0%).
func BenchmarkSec3CPIPrediction(b *testing.B) {
	runExperiment(b, "sec3-cpi", "down_aae", "up_aae")
}

// BenchmarkFig1IdleTransient regenerates Figure 1: the idle power and
// temperature heat/cool transient.
func BenchmarkFig1IdleTransient(b *testing.B) {
	runExperiment(b, "fig1", "start_temp_k", "end_temp_k")
}

// BenchmarkSec4aIdleModel regenerates the Section IV-A idle power model
// validation (paper: 2–4% AAE per VF state).
func BenchmarkSec4aIdleModel(b *testing.B) {
	runExperiment(b, "sec4a-idle", "avg_aae")
}

// BenchmarkFig2PowerValidation regenerates Figure 2: 4-fold
// cross-validated dynamic (paper: 10.6%) and chip (paper: 4.6%) power
// model errors.
func BenchmarkFig2PowerValidation(b *testing.B) {
	runExperiment(b, "fig2", "avg_aae", "avg_sd")
}

// BenchmarkSec4cObservations regenerates the Observation 1/2 checks
// (paper: 0.6–5.0% per-event, 1.7% gap).
func BenchmarkSec4cObservations(b *testing.B) {
	runExperiment(b, "sec4c-obs", "obs2_gap")
}

// BenchmarkFig3CrossVFPrediction regenerates Figure 3: power prediction
// across all 25 VF-state pairs (paper: 8.3% dynamic, 4.2% chip).
func BenchmarkFig3CrossVFPrediction(b *testing.B) {
	runExperiment(b, "fig3", "avg_aae")
}

// BenchmarkFig4PowerGating regenerates Figure 4: the busy-CU sweep and
// the idle power decomposition.
func BenchmarkFig4PowerGating(b *testing.B) {
	runExperiment(b, "fig4", "pidle_cu_VF5", "pidle_nb_VF5", "pidle_base_VF5")
}

// BenchmarkFig6EnergyPrediction regenerates Figure 6: next-interval
// energy prediction, PPEP vs Green Governors (paper: 3.6% vs ≈7%).
func BenchmarkFig6EnergyPrediction(b *testing.B) {
	runExperiment(b, "fig6", "ppep_avg", "gg_avg")
}

// BenchmarkFig7PowerCapping regenerates Figure 7: one-step capping vs the
// iterative baseline (paper: 14× faster settling, 94% vs 81% adherence).
func BenchmarkFig7PowerCapping(b *testing.B) {
	runExperiment(b, "fig7", "speedup", "ppep_adherence", "iter_adherence")
}

// BenchmarkFig8EnergyExploration regenerates Figure 8: per-thread energy
// across VF states and instance counts.
func BenchmarkFig8EnergyExploration(b *testing.B) {
	runExperiment(b, "fig8")
}

// BenchmarkFig9EDPExploration regenerates Figure 9: per-thread EDP across
// VF states and instance counts.
func BenchmarkFig9EDPExploration(b *testing.B) {
	runExperiment(b, "fig9")
}

// BenchmarkFig10NBShare regenerates Figure 10: the NB's share of
// per-thread energy (paper: ≈60% memory-bound, ≈25% CPU-bound).
func BenchmarkFig10NBShare(b *testing.B) {
	runExperiment(b, "fig10", "avg_share_433", "avg_share_458")
}

// BenchmarkFig11NBDVFS regenerates Figure 11: the NB DVFS what-if
// (paper: up to 20.4% saving or 1.37× speedup).
func BenchmarkFig11NBDVFS(b *testing.B) {
	runExperiment(b, "fig11", "avg_saving", "avg_speedup")
}

// ---- microbenchmarks of the hot paths ----

// BenchmarkAnalyzeInterval measures one PPEP pipeline pass: the per-200ms
// cost of projecting PPE at all five VF states (the paper reports
// negligible daemon overhead).
func BenchmarkAnalyzeInterval(b *testing.B) {
	c := benchCampaign(b)
	iv := c.Runs[0].Trace.Intervals[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Models.Analyze(iv); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChipTick measures the simulator's 1 ms tick with eight busy
// cores — the substrate's unit of work.
func BenchmarkChipTick(b *testing.B) {
	benchmarkTick(b)
}

// BenchmarkTickN measures one full 200-tick decision interval through
// TickN plus the interval read — the campaign's unit of work — on a
// phase-stable workload.
func BenchmarkTickN(b *testing.B) {
	benchmarkTickNWith(b, workload.BenchSteady())
}

// BenchmarkTickNJittered measures the same interval on a jittered
// workload.
func BenchmarkTickNJittered(b *testing.B) {
	benchmarkTickNWith(b, workload.BenchA())
}

// BenchmarkEventPrediction measures one core's cross-VF event-rate
// prediction — the inner loop of step ② of the PPEP pipeline.
func BenchmarkEventPrediction(b *testing.B) {
	ev := benchmarkRates()
	pred := ev
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !eventpred.PredictRates(&ev, 3.5, 1.4, &pred) {
			b.Fatal("prediction rejected")
		}
	}
}

// BenchmarkServeInterval measures one service-mode decision interval
// end to end — MSR window sampling, diode read, PPEP analysis, history
// push, and the HTTP observer callback — the per-200 ms cost of
// `ppepd -serve` excluding wall-clock pacing.
func BenchmarkServeInterval(b *testing.B) {
	c := benchCampaign(b)
	d, _ := benchmarkServeDaemon(b, c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.RunIntervals(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictServe measures the in-process cost of one
// /predict/batch request through the full mux — the
// pointer-load-plus-byte-write the published table buys (ns/op, B/op).
// End-to-end throughput and tail latency over a real socket are the
// ppepd workload's serve.* metrics in perfbench/.
func BenchmarkPredictServe(b *testing.B) {
	c := benchCampaign(b)
	d, srv := benchmarkServeDaemon(b, c)
	if err := d.RunIntervals(2); err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	req := httptest.NewRequest(http.MethodGet, "/predict/batch", nil)
	req.Header.Set("Accept", serve.BatchContentType)
	w := nullBenchWriter{h: make(http.Header)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, req)
	}
}

// nullBenchWriter mirrors the serve package's alloc-test writer: body
// discarded, header map reused, so the timed loop sees only the
// handler's own work.
type nullBenchWriter struct{ h http.Header }

func (w nullBenchWriter) Header() http.Header         { return w.h }
func (w nullBenchWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w nullBenchWriter) WriteHeader(int)             {}

// BenchmarkDynEstimate measures one Equation 3 evaluation.
func BenchmarkDynEstimate(b *testing.B) {
	c := benchCampaign(b)
	ev := benchmarkRates()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += float64(c.Models.Dyn.EstimateCore(&ev, 1.008))
	}
	_ = sink
}

// BenchmarkIdleEstimate measures one Equation 2 evaluation.
func BenchmarkIdleEstimate(b *testing.B) {
	c := benchCampaign(b)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += float64(c.Models.Idle.Estimate(1.128, 320))
	}
	_ = sink
}

// BenchmarkModelTraining measures the regression step alone (idle + dyn
// fits) on the shared campaign's samples.
func BenchmarkModelTraining(b *testing.B) {
	c := benchCampaign(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts := core.TrainingSet{IdleTraces: c.Idle, Runs: c.Runs, PGSweeps: c.PGSweeps}
		if _, err := core.Train(ts, c.Table); err != nil {
			b.Fatal(err)
		}
	}
}
