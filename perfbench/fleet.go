package main

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ppep/internal/arch"
	"ppep/internal/core"
	"ppep/internal/fleet"
)

// Fleet workload sizing.
const (
	// fleetNodes is the timed fleet. Its node state stays within the
	// host's per-core L2; larger fleets spill into the shared L3, where
	// neighbouring tenants make step times swing by a third.
	fleetNodes = 32
	// fleetScoreNodes and fleetScored size the accuracy check: the
	// first fleetScored advances of a fleetScoreNodes fleet with the
	// same seed. Node identity depends only on (mix, seed, index), so
	// its first fleetNodes nodes are the timed fleet's; the extra nodes
	// average out which workloads a seed happens to draw. The prefix is
	// fixed, so accuracy does not depend on host speed.
	fleetScoreNodes = 128
	fleetScored     = 40
	// fleetInvariance is the prefix over which per-node fingerprints at
	// Workers = nproc must equal a Workers = 1 rerun.
	fleetInvariance = 4
	// fleetBlock and fleetRounds size the traced run's interleaved
	// comparison blocks (models on/off, 1 or nproc workers, reftick).
	fleetBlock  = 8
	fleetRounds = 3
)

// loadModels reads saved model coefficients, as ppepd -load does.
func loadModels(path string) (*core.Models, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.LoadModels(f)
}

// newFleet builds a mixed fleet and runs its first advance.
func newFleet(nodes int, seed int64, workers int, models *core.Models) (*fleet.Engine, error) {
	e, err := fleet.New(fleet.Config{Nodes: nodes, Workers: workers, Seed: seed,
		Mix: fleet.MixMixed, Models: models})
	if err != nil {
		return nil, err
	}
	e.Advance()
	return e, nil
}

// scoreFleet adds the next-interval check for every node: its predicted
// chip power at its VF state in prev against the power measured over
// the interval that followed. Predicted interval energy is predicted
// power over the interval's length, as core defines IntervalEnergyJ.
func scoreFleet(acc *accuracy, prev, cur *fleet.Snapshot) {
	durS := float64(arch.DecisionIntervalMS) / 1000
	for i := range cur.Nodes {
		p, c := &prev.Nodes[i], &cur.Nodes[i]
		if !p.Analyzed || c.MeasPowerW <= 0 {
			continue
		}
		pred := float64(p.PredChipW[int(c.VF)-1])
		acc.add(pred, c.MeasPowerW, pred*durS, c.MeasPowerW*durS)
	}
}

// checkSnapshot verifies one published snapshot: no analysis errors and
// every node's predicted power finite and positive at every VF state.
func checkSnapshot(s *fleet.Snapshot) error {
	for i := range s.Nodes {
		row := &s.Nodes[i]
		if row.AnalyzeErrs != 0 || !row.Analyzed {
			return fmt.Errorf("node %d: %d analyze errors", i, row.AnalyzeErrs)
		}
		for v := 0; v < s.NVF; v++ {
			w := float64(row.PredChipW[v])
			if math.IsNaN(w) || math.IsInf(w, 0) || w <= 0 {
				return fmt.Errorf("node %d: predicted power %v at VF%d", i, w, v+1)
			}
		}
	}
	return nil
}

// fingerprints returns the first n nodes' running fingerprints.
func fingerprints(s *fleet.Snapshot, n int) []uint64 {
	fp := make([]uint64, n)
	for i := range fp {
		fp[i] = s.Nodes[i].Fingerprint
	}
	return fp
}

func sameFingerprints(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func runFleet(cfg config) (*report, error) {
	rep := newReport()
	nproc := runtime.NumCPU()
	var models *core.Models
	eng, setupS, err := repeatSetup(func() (*fleet.Engine, error) {
		m, err := loadModels(cfg.models)
		if err != nil {
			return nil, err
		}
		models = m
		return newFleet(fleetNodes, cfg.seed, nproc, m)
	}, func(*fleet.Engine) {})
	if err != nil {
		return nil, err
	}
	rep.metrics["setup_s"] = setupS

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var (
		advances = newSamples()
		invFP    []uint64
		deadline = time.Duration(cfg.seconds * float64(time.Second))
		gc0      = readGC()
		start    = time.Now()
	)
	for n := 1; time.Since(start) < deadline || n < fleetInvariance; n++ {
		rep.attempted++
		sp := tr.begin("fleet.advance", -1)
		t0 := time.Now()
		eng.Advance()
		advances.add(time.Since(t0))
		tr.end(sp)

		sp = tr.begin("fleet.snapshot_read", -1)
		cur := eng.Snapshot()
		err := checkSnapshot(cur)
		tr.end(sp)
		rep.check(err == nil, "advance %d: %v", n, err)
		if int(cur.Seq) == fleetInvariance {
			invFP = fingerprints(cur, fleetNodes)
		}
	}
	gc1 := readGC()
	rep.metrics["op_ms"] = advances.median() * 1e3
	rep.metrics["ops_per_s"] = advances.perSecond()

	// Determinism: the same prefix at Workers = 1 must reproduce every
	// node's fingerprint bit for bit.
	rep.attempted++
	serial, err := fleet.New(fleet.Config{Nodes: fleetNodes, Workers: 1, Seed: cfg.seed,
		Mix: fleet.MixMixed, Models: models})
	if err != nil {
		return nil, err
	}
	serial.AdvanceN(fleetInvariance)
	rep.check(sameFingerprints(invFP, fingerprints(serial.Snapshot(), fleetNodes)),
		"fingerprints at Workers=%d differ from Workers=1 after %d advances", nproc, fleetInvariance)

	// Accuracy, on the larger fleet whose first nodes are the timed ones.
	rep.attempted++
	scoring, err := newFleet(fleetScoreNodes, cfg.seed, nproc, models)
	if err != nil {
		return nil, err
	}
	var acc accuracy
	prev := scoring.Snapshot()
	for i := 0; i < fleetScored; i++ {
		scoring.Advance()
		cur := scoring.Snapshot()
		if err := checkSnapshot(cur); !rep.check(err == nil, "scoring fleet: %v", err) {
			break
		}
		scoreFleet(&acc, prev, cur)
		if int(cur.Seq) == fleetInvariance {
			rep.check(sameFingerprints(invFP, fingerprints(cur, fleetNodes)),
				"the %d-node fleet's first %d nodes differ from the timed fleet", fleetScoreNodes, fleetNodes)
		}
		prev = cur
	}
	acc.record(rep)

	if cfg.trace {
		recordGC(rep, gc0, gc1, advances.n)
		rep.metrics["fleet.snapshot_read_ns"] = tr.medianUS("fleet.snapshot_read") * 1e3
		recordTail(rep, "op_tail_ms", advances, 1e3)
		if err := fleetLayers(cfg, rep, models, eng); err != nil {
			return nil, err
		}
		tr.summary()
	}
	rep.metrics["max_rss_mb"] = maxRSSMB()
	return rep, nil
}

// fleetLayers measures the traced-run fleet breakdown in interleaved
// blocks, so host speed drift hits every variant alike: the timed engine
// (models, nproc workers), the same fleet without models, both at one
// worker, and the same work in a ppep_reftick build of this benchmark.
func fleetLayers(cfg config, rep *report, models *core.Models, timed *fleet.Engine) error {
	nproc := runtime.NumCPU()
	noModels, err := newFleet(fleetNodes, cfg.seed, nproc, nil)
	if err != nil {
		return err
	}
	serial, err := newFleet(fleetNodes, cfg.seed, 1, models)
	if err != nil {
		return err
	}
	serialNoModels, err := newFleet(fleetNodes, cfg.seed, 1, nil)
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var full, bare, one, oneBare, normal, ref []float64
	block := func(e *fleet.Engine, into *[]float64) {
		for i := 0; i < fleetBlock; i++ {
			t0 := time.Now()
			e.Advance()
			*into = append(*into, float64(time.Since(t0))/1e6)
		}
	}
	for r := 0; r < fleetRounds; r++ {
		block(timed, &full)
		block(noModels, &bare)
		block(serial, &one)
		block(serialNoModels, &oneBare)
		if cfg.refBin != "" {
			ms, err := probeChild(self, cfg.seed, cfg.models)
			if err != nil {
				return err
			}
			normal = append(normal, ms...)
			if ms, err = probeChild(cfg.refBin, cfg.seed, cfg.models); err != nil {
				return err
			}
			ref = append(ref, ms...)
		}
	}
	// Counted at one worker: at nproc, whether the pool's goroutines
	// reuse a free descriptor or allocate one depends on scheduling. The
	// fewest over a few blocks leaves out the runtime's own occasional
	// allocations.
	allocs := uint64(math.MaxUint64)
	for r := 0; r < fleetRounds; r++ {
		gc0 := readGC()
		serial.AdvanceN(fleetBlock)
		allocs = min(allocs, readGC().mallocs-gc0.mallocs)
	}
	rep.metrics["fleet.allocs_per_interval"] = float64(allocs) / fleetBlock

	mFull, mBare, mOne, mOneBare := median(full), median(bare), median(one), median(oneBare)
	rep.metrics["fleet.node_step_us"] = mOne * 1e3 / fleetNodes
	rep.metrics["fleet.analyze_share"] = 1 - mBare/mFull
	rep.metrics["fleet.parallel_efficiency"] = mOne / (float64(nproc) * mFull)
	// Without models a node step is tick, interval read and fingerprint
	// fold; the read and fold are under 1% of it.
	rep.metrics["fxsim.tick_us"] = mOneBare * 1e3 / fleetNodes
	if len(ref) > 0 {
		rep.metrics["fxsim.fast_path_saving"] = 1 - median(normal)/median(ref)
	}
	return nil
}

// probeChild runs one fleet probe block in a child process of the given
// build and returns its per-advance times in ms. Both tick-path builds
// run as children, so process shape and warm-up are the same for each.
func probeChild(bin string, seed int64, models string) ([]float64, error) {
	out, err := exec.Command(bin, "--fleet-probe", "--seed", strconv.FormatInt(seed, 10),
		"--models", models).Output()
	if err != nil {
		return nil, fmt.Errorf("probe %s: %w", bin, err)
	}
	var ms []float64
	for _, f := range strings.Fields(string(out)) {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("probe output %q: %w", f, err)
		}
		ms = append(ms, v)
	}
	return ms, nil
}

// fleetProbe is the child side of probeChild: build the timed fleet,
// warm it up for one block, then print the time of each advance of the
// next block in ms.
func fleetProbe(seed int64, modelsPath string) error {
	models, err := loadModels(modelsPath)
	if err != nil {
		return err
	}
	e, err := newFleet(fleetNodes, seed, runtime.NumCPU(), models)
	if err != nil {
		return err
	}
	e.AdvanceN(fleetBlock)
	for i := 0; i < fleetBlock; i++ {
		t0 := time.Now()
		e.Advance()
		fmt.Printf("%.6f\n", float64(time.Since(t0))/1e6)
	}
	return nil
}
