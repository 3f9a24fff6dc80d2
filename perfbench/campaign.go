package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"ppep/internal/core"
	"ppep/internal/experiments"
	"ppep/internal/fxsim"
	"ppep/internal/simcache"
	"ppep/internal/workload"
)

// Campaign workload sizing: about a second per operation on a 2-core
// host. Scale 0.01 with 3 runs per suite is too small to train (fold
// training runs out of reference-voltage samples).
const (
	campaignScale = 0.02
	campaignRuns  = 6
	// campaignRefRounds is how many normal/reference-tick cold builds
	// the traced run alternates to measure the fast path's saving.
	campaignRefRounds = 2
)

func campaignOptions(cacheDir string, referenceTick bool) experiments.Options {
	return experiments.Options{Scale: campaignScale, MaxRunsPerSuite: campaignRuns,
		CacheDir: cacheDir, ReferenceTick: referenceTick}
}

// campaignOp is one measured campaign operation's outputs.
type campaignOp struct {
	coldS, warmS, trainS, fig2S, fig3S, fig6S float64
	power, energy                             float64
	coldStats, warmStats                      simcache.Stats
	// sameModels reports whether the warm rebuild's models equal the
	// cold build's.
	sameModels bool
	// warm is the warm campaign, kept by the caller only when needed.
	warm *experiments.Campaign
}

// campaignOnce runs one operation: a cold campaign into a fresh cache
// directory, a warm rebuild from it, and the fig2, fig3 and fig6
// harnesses on the warm campaign. Training is timed separately only in
// traced runs.
func campaignOnce(dir string, traced bool) (*campaignOp, error) {
	op := &campaignOp{}
	t0 := time.Now()
	cold, err := experiments.NewFXCampaign(campaignOptions(dir, false))
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	warm, err := experiments.NewFXCampaign(campaignOptions(dir, false))
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	if traced {
		ts := core.TrainingSet{IdleTraces: warm.Idle, Runs: warm.Runs, PGSweeps: warm.PGSweeps}
		if _, err := core.Train(ts, warm.Table); err != nil {
			return nil, err
		}
	}
	t3 := time.Now()
	if _, _, err := warm.Fig2(); err != nil {
		return nil, err
	}
	t4 := time.Now()
	_, fig3b, err := warm.Fig3()
	if err != nil {
		return nil, err
	}
	t5 := time.Now()
	fig6, err := warm.Fig6()
	if err != nil {
		return nil, err
	}
	t6 := time.Now()
	op.coldS, op.warmS, op.trainS = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds()
	op.fig2S, op.fig3S, op.fig6S = t4.Sub(t3).Seconds(), t5.Sub(t4).Seconds(), t6.Sub(t5).Seconds()
	op.power, op.energy = fig3b.Metrics["avg_aae"], fig6.Metrics["ppep_avg"]
	op.coldStats, _ = cold.CacheStats()
	op.warmStats, _ = warm.CacheStats()
	op.sameModels = reflect.DeepEqual(cold.Models, warm.Models)
	op.warm = warm
	return op, nil
}

// checkCampaign verifies one operation: the warm rebuild decoded every
// cell (no misses) into models identical to the cold build's, and the
// accuracy figures are finite and equal to the first operation's.
func checkCampaign(op, first *campaignOp) error {
	cs, ws := op.coldStats, op.warmStats
	switch {
	case cs.Misses == 0 || ws.Misses != 0 || ws.Hits != cs.Misses || cs.Hits != 0:
		return fmt.Errorf("cache: cold %d hits/%d misses, warm %d hits/%d misses", cs.Hits, cs.Misses, ws.Hits, ws.Misses)
	case !op.sameModels:
		return fmt.Errorf("warm rebuild trained different models than the cold build")
	case math.IsNaN(op.power) || math.IsNaN(op.energy) || op.power <= 0 || op.energy <= 0:
		return fmt.Errorf("accuracy figures %v, %v", op.power, op.energy)
	case first != nil && (op.power != first.power || op.energy != first.energy):
		return fmt.Errorf("accuracy figures %v, %v differ from the first operation's %v, %v",
			op.power, op.energy, first.power, first.energy)
	}
	return nil
}

func runCampaign(cfg config) (*report, error) {
	rep := newReport()
	seq := 0
	nextDir := func() string {
		seq++
		return filepath.Join(cfg.work, fmt.Sprintf("cache-%d", seq))
	}
	// Set-up is one untimed warm-up operation: it grows the heap and
	// faults in the simulator's code and data once, before any timing.
	first, setupS, err := repeatSetup(func() (*campaignOp, error) {
		dir := nextDir()
		defer os.RemoveAll(dir)
		return campaignOnce(dir, false)
	}, func(*campaignOp) {})
	if err != nil {
		return nil, err
	}
	rep.metrics["setup_s"] = setupS
	first.warm = nil
	if err := checkCampaign(first, nil); err != nil {
		return nil, fmt.Errorf("warm-up operation: %w", err)
	}

	var ops []*campaignOp
	times := newSamples()
	deadline := time.Duration(cfg.seconds * float64(time.Second))
	gc0 := readGC()
	start := time.Now()
	for time.Since(start) < deadline {
		rep.attempted++
		dir := nextDir()
		t0 := time.Now()
		op, err := campaignOnce(dir, cfg.trace)
		dt := time.Since(t0)
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		if !rep.check(err == nil, "operation %d: %v", rep.attempted, err) {
			continue
		}
		times.add(dt)
		err = checkCampaign(op, first)
		rep.check(err == nil, "operation %d: %v", rep.attempted, err)
		if len(ops) > 0 {
			op.warm = nil // only the first measured campaign is kept
		}
		ops = append(ops, op)
	}
	gc1 := readGC()
	if len(ops) == 0 {
		return nil, fmt.Errorf("no campaign operation succeeded")
	}
	rep.metrics["op_ms"] = times.median() * 1e3
	rep.metrics["ops_per_s"] = times.perSecond()
	rep.metrics["power_pred_aae"] = first.power
	rep.metrics["energy_pred_aae"] = first.energy

	if cfg.trace {
		recordGC(rep, gc0, gc1, len(ops))
		recordTail(rep, "op_tail_ms", times, 1e3)
		pick := func(f func(*campaignOp) float64) float64 {
			xs := make([]float64, len(ops))
			for i, op := range ops {
				xs[i] = f(op)
			}
			return median(xs)
		}
		rep.metrics["simcache.cold_s"] = pick(func(o *campaignOp) float64 { return o.coldS })
		rep.metrics["simcache.warm_s"] = pick(func(o *campaignOp) float64 { return o.warmS })
		rep.metrics["core.train_s"] = pick(func(o *campaignOp) float64 { return o.trainS })
		rep.metrics["experiments.fig2_s"] = pick(func(o *campaignOp) float64 { return o.fig2S })
		rep.metrics["experiments.fig3_s"] = pick(func(o *campaignOp) float64 { return o.fig3S })
		rep.metrics["experiments.fig6_s"] = pick(func(o *campaignOp) float64 { return o.fig6S })
		cs, ws := ops[0].coldStats, ops[0].warmStats
		rep.metrics["simcache.misses"] = float64(cs.Misses)
		rep.metrics["simcache.bytes_written"] = float64(cs.BytesWritten)
		rep.metrics["simcache.hits"] = float64(ws.Hits)
		rep.metrics["simcache.bytes_read"] = float64(ws.BytesRead)
		if err := campaignLayers(rep, ops[0].warm); err != nil {
			return nil, err
		}
	}
	rep.metrics["max_rss_mb"] = maxRSSMB()
	return rep, nil
}

// campaignLayers measures the traced-run campaign breakdown: the tick
// engine's fast-path share and saving, and the analysis and table cost
// over the campaign's own intervals.
func campaignLayers(rep *report, c *experiments.Campaign) error {
	// Fast path saving: cold builds without a cache, alternating the
	// batched engine and Options.ReferenceTick.
	var normal, ref []float64
	for r := 0; r < campaignRefRounds; r++ {
		for _, refTick := range []bool{false, true} {
			t0 := time.Now()
			if _, err := experiments.NewFXCampaign(campaignOptions("", refTick)); err != nil {
				return err
			}
			if refTick {
				ref = append(ref, time.Since(t0).Seconds())
			} else {
				normal = append(normal, time.Since(t0).Seconds())
			}
		}
	}
	rep.metrics["fxsim.fast_path_saving"] = 1 - median(normal)/median(ref)

	// Fast-tick share and tick cost: the campaign's idle transients and
	// benchmark-collection cells, replayed on chips this benchmark owns
	// so EngineStats is readable. (The power-gating sweep cells are not
	// reachable through a public API and are left out.)
	var fast, total uint64
	t0 := time.Now()
	for _, vf := range c.Table.States() {
		chip := fxsim.New(c.ChipConfig())
		if _, err := chip.HeatCool(vf, 40, 90); err != nil {
			return err
		}
		es := chip.EngineStats()
		fast += es.FastTicks
		total += es.FastTicks + es.ReferenceTicks
	}
	for _, runs := range [][]workload.Run{workload.SPECRuns(), workload.PARSECRuns(), workload.NPBRuns()} {
		if len(runs) > campaignRuns {
			runs = runs[:campaignRuns]
		}
		for _, r := range runs {
			scaled := workload.Run{Name: r.Name, Suite: r.Suite}
			for _, m := range r.Members {
				b := *m.Bench
				b.Instructions *= campaignScale
				scaled.Members = append(scaled.Members, workload.Member{Bench: &b, Threads: m.Threads})
			}
			for _, vf := range c.Table.States() {
				chip := fxsim.New(c.ChipConfig())
				if _, err := chip.Collect(scaled, fxsim.RunOpts{VF: vf, WarmTempK: 315,
					Placement: fxsim.PlaceScatter, MaxTimeS: 600}); err != nil {
					return err
				}
				es := chip.EngineStats()
				fast += es.FastTicks
				total += es.FastTicks + es.ReferenceTicks
			}
		}
	}
	rep.metrics["fxsim.tick_us"] = time.Since(t0).Seconds() * 1e6 / (float64(total) / 200)
	rep.metrics["fxsim.fast_tick_share"] = float64(fast) / float64(total)

	// Analysis and table build over every steady interval of the
	// campaign's runs, with the full-campaign models.
	var analyze, table []float64
	var r core.Report
	for _, rt := range c.Runs {
		for _, iv := range core.SteadyIntervals(rt.Trace) {
			t0 := time.Now()
			if err := c.Models.AnalyzeInto(iv, &r); err != nil {
				return err
			}
			t1 := time.Now()
			c.Models.PredictionTable(0, iv, &r)
			analyze = append(analyze, float64(t1.Sub(t0))/1e3)
			table = append(table, float64(time.Since(t1))/1e3)
		}
	}
	rep.metrics["core.analyze_us"] = median(analyze)
	rep.metrics["core.table_us"] = median(table)
	return nil
}
