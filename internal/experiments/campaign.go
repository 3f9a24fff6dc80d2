// Package experiments reproduces every table and figure of the paper's
// evaluation on the simulated platform: the measurement campaign
// (152 benchmark combinations × 5 VF states, idle transients, power-gating
// sweeps), model training with 4-fold cross-validation, and one harness
// per figure producing the same rows/series the paper reports.
package experiments

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"

	"ppep/internal/arch"
	"ppep/internal/core"
	"ppep/internal/core/energy"
	"ppep/internal/core/pgidle"
	"ppep/internal/fingerprint"
	"ppep/internal/fxsim"
	"ppep/internal/pool"
	"ppep/internal/simcache"
	"ppep/internal/trace"
	"ppep/internal/units"
	"ppep/internal/workload"
)

// Options scales the campaign. The full campaign (Scale=1) runs every
// benchmark at its native length; smaller scales shrink instruction
// counts proportionally, preserving phase structure, for quick runs and
// benchmarks.
type Options struct {
	// Scale multiplies every benchmark's instruction count (default 1).
	Scale float64
	// MaxRunsPerSuite caps each suite's run list (0 = all). Useful for
	// smoke tests.
	MaxRunsPerSuite int
	// Workers bounds the parallel simulation fan-out (0 = GOMAXPROCS).
	Workers int
	// SkipPhenom omits the secondary-platform validation campaign.
	SkipPhenom bool
	// CacheDir, when non-empty, enables the persistent simulation-trace
	// cache: every deterministic cell (benchmark collection, idle
	// transients, PG sweep cells, exploration runs) is keyed by its full
	// identity and decoded from disk on repeat runs instead of being
	// re-simulated. Decoded traces are bit-identical to fresh simulation
	// (docs/CACHE.md). Empty keeps today's always-simulate behavior.
	CacheDir string
	// CacheMaxBytes caps the cache directory's total size; oldest
	// entries are evicted past it (0 = unbounded).
	CacheMaxBytes int64
	// ReferenceTick is accepted and ignored.
	//
	// Deprecated: the simulator has a single tick path; the field
	// remains for benchmark code that still sets it.
	ReferenceTick bool
}

// validate rejects option values that would otherwise be silently
// coerced (a negative Scale used to be treated as 1 by scaleBench).
func (o Options) validate() error {
	if o.Scale < 0 {
		return fmt.Errorf("experiments: Options.Scale %v is negative (use 0 for the default full scale)", o.Scale)
	}
	if o.MaxRunsPerSuite < 0 {
		return fmt.Errorf("experiments: Options.MaxRunsPerSuite %d is negative (use 0 for all runs)", o.MaxRunsPerSuite)
	}
	if o.Workers < 0 {
		return fmt.Errorf("experiments: Options.Workers %d is negative (use 0 for GOMAXPROCS)", o.Workers)
	}
	return nil
}

// Campaign holds a full measurement + training run for one platform.
type Campaign struct {
	Platform string
	Table    arch.VFTable
	Runs     []core.RunTrace
	ByName   map[string]map[arch.VFState]*trace.Trace
	Idle     map[arch.VFState]*trace.Trace
	PGSweeps map[arch.VFState]pgidle.Sweep
	// Models are trained on the complete campaign (cross-validated
	// figures re-train per fold on subsets).
	Models *core.Models
	// GG is the Green Governors baseline trained on the same data.
	GG *energy.GreenGovernors

	opts Options

	// cache is the persistent trace store (nil without Options.CacheDir).
	cache *simcache.Store

	// Lazily-collected Section V exploration traces (PG enabled).
	exploreOnce sync.Once
	exploreTr   map[string]*trace.Trace
	exploreErr  error
}

// ChipConfig returns the campaign platform's chip config. Every harness
// that builds a chip goes through it.
func (c *Campaign) ChipConfig() fxsim.Config {
	if c.Platform == arch.PhenomII.Name {
		return fxsim.DefaultPhenomIIConfig()
	}
	return fxsim.DefaultFX8320Config()
}

// scaleBench returns a copy of b with its length scaled.
func scaleBench(b *workload.Benchmark, scale float64) *workload.Benchmark {
	if scale == 1 || scale <= 0 {
		return b
	}
	c := *b
	c.Instructions = b.Instructions * scale
	return &c
}

// scaleRun scales every member benchmark of a run.
func scaleRun(r workload.Run, scale float64) workload.Run {
	out := workload.Run{Name: r.Name, Suite: r.Suite}
	for _, m := range r.Members {
		out.Members = append(out.Members, workload.Member{
			Bench: scaleBench(m.Bench, scale), Threads: m.Threads,
		})
	}
	return out
}

// seedOf derives a stable sensor seed from a run identity: the FNV-1a
// hash of the byte string "<name>@<decimal vf>". Folding the pieces
// directly keeps the campaign's fan-out loops allocation-free
// (strconv.Itoa of a VF state below 100 is a static string); the seeds,
// and therefore every golden fingerprint, are pinned by
// TestSeedOfGolden.
func seedOf(name string, vf arch.VFState) int64 {
	h := fingerprint.New().Raw(name).Byte('@').Raw(strconv.Itoa(int(vf)))
	return int64(h.Sum() & 0x7fffffffffffffff)
}

// workers resolves the configured fan-out bound.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// truncate keeps at most n runs (n == 0 keeps all).
func truncate(runs []workload.Run, n int) []workload.Run {
	if n <= 0 || n >= len(runs) {
		return runs
	}
	return runs[:n]
}

// NewFXCampaign executes the primary-platform campaign: idle transients
// at every VF state, all benchmark combinations at all five states, the
// power-gating sweeps, and model training.
func NewFXCampaign(opts Options) (*Campaign, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if opts.Scale == 0 {
		opts.Scale = 1
	}
	c := &Campaign{
		Platform: arch.FX8320.Name,
		Table:    arch.FX8320VFTable,
		ByName:   map[string]map[arch.VFState]*trace.Trace{},
		Idle:     map[arch.VFState]*trace.Trace{},
		PGSweeps: map[arch.VFState]pgidle.Sweep{},
		opts:     opts,
	}
	if err := c.openCache(); err != nil {
		return nil, err
	}
	// Idle heat/cool transients at every VF state, in parallel: each
	// transient simulates an independent chip seeded from its (name, VF)
	// identity, so results are schedule-independent.
	if err := c.collectIdle("idle", c.ChipConfig); err != nil {
		return nil, err
	}

	// Benchmark combinations at every VF state, in parallel.
	var runs []workload.Run
	runs = append(runs, truncate(workload.SPECRuns(), opts.MaxRunsPerSuite)...)
	runs = append(runs, truncate(workload.PARSECRuns(), opts.MaxRunsPerSuite)...)
	runs = append(runs, truncate(workload.NPBRuns(), opts.MaxRunsPerSuite)...)
	if err := c.collect(runs, c.ChipConfig); err != nil {
		return nil, err
	}

	// Power-gating CU sweeps (Figure 4): the whole (VF, PG, busy-CU)
	// grid is one flat job list over the shared worker pool.
	sweeps, err := c.pgSweepAll(c.Table.States())
	if err != nil {
		return nil, err
	}
	c.PGSweeps = sweeps

	if err := c.train(); err != nil {
		return nil, err
	}
	return c, nil
}

// NewPhenomCampaign executes the secondary-platform validation: PARSEC
// and NPB runs at the Phenom II's four states (Section IV-B2 validates
// "using PARSEC and NPB from VF4 to VF2").
func NewPhenomCampaign(opts Options) (*Campaign, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if opts.Scale == 0 {
		opts.Scale = 1
	}
	c := &Campaign{
		Platform: arch.PhenomII.Name,
		Table:    arch.PhenomIIVFTable,
		ByName:   map[string]map[arch.VFState]*trace.Trace{},
		Idle:     map[arch.VFState]*trace.Trace{},
		opts:     opts,
	}
	if err := c.openCache(); err != nil {
		return nil, err
	}
	if err := c.collectIdle("phenom-idle", c.ChipConfig); err != nil {
		return nil, err
	}
	var runs []workload.Run
	for _, r := range truncate(workload.PARSECRuns(), opts.MaxRunsPerSuite) {
		if r.TotalThreads() <= arch.PhenomII.NumCores() {
			runs = append(runs, r)
		}
	}
	for _, r := range truncate(workload.NPBRuns(), opts.MaxRunsPerSuite) {
		if r.TotalThreads() <= arch.PhenomII.NumCores() {
			runs = append(runs, r)
		}
	}
	if err := c.collect(runs, c.ChipConfig); err != nil {
		return nil, err
	}
	return c, c.train()
}

// collectIdle simulates (or decodes from cache) the idle heat/cool
// transient at every VF state on the shared worker pool and fills
// c.Idle.
func (c *Campaign) collectIdle(seedName string, mkCfg func() fxsim.Config) error {
	const heatS, coolS = 40, 90
	states := c.Table.States()
	trs := make([]*trace.Trace, len(states))
	errs := make([]error, len(states))
	pool.ForEachJob(len(states), c.opts.workers(), func(i int) {
		vf := states[i]
		cfg := mkCfg()
		cfg.SensorSeed = seedOf(seedName, vf)
		tr, err := c.simulate("idle", cfg, idleDef{VF: vf, HeatS: heatS, CoolS: coolS},
			func() (*trace.Trace, error) {
				return fxsim.New(cfg).HeatCool(vf, heatS, coolS)
			})
		if err != nil {
			errs[i] = fmt.Errorf("experiments: %s transient at %v: %w", seedName, vf, err)
			return
		}
		trs[i] = tr
	})
	for i, err := range errs {
		if err != nil {
			return err
		}
		c.Idle[states[i]] = trs[i]
	}
	return nil
}

// collect simulates every (run, VF) pair with a bounded worker pool.
func (c *Campaign) collect(runs []workload.Run, mkCfg func() fxsim.Config) error {
	type job struct {
		run workload.Run
		vf  arch.VFState
	}
	var jobs []job
	for _, r := range runs {
		for _, vf := range c.Table.States() {
			jobs = append(jobs, job{r, vf})
		}
	}
	results := make([]core.RunTrace, len(jobs))
	errs := make([]error, len(jobs))
	pool.ForEachJob(len(jobs), c.opts.workers(), func(i int) {
		j := jobs[i]
		cfg := mkCfg()
		cfg.SensorSeed = seedOf(j.run.Name, j.vf)
		scaled := scaleRun(j.run, c.opts.Scale)
		ro := fxsim.RunOpts{
			VF: j.vf, WarmTempK: 315, Placement: fxsim.PlaceScatter,
			MaxTimeS: 600,
		}
		tr, err := c.simulate("collect", cfg, collectDef{Run: scaled, Opts: ro},
			func() (*trace.Trace, error) {
				return fxsim.New(cfg).Collect(scaled, ro)
			})
		if err != nil {
			errs[i] = fmt.Errorf("experiments: %s at %v: %w", j.run.Name, j.vf, err)
			return
		}
		results[i] = core.RunTrace{Name: j.run.Name, Suite: j.run.Suite, VF: j.vf, Trace: tr}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for _, rt := range results {
		c.Runs = append(c.Runs, rt)
		if c.ByName[rt.Name] == nil {
			c.ByName[rt.Name] = map[arch.VFState]*trace.Trace{}
		}
		c.ByName[rt.Name][rt.VF] = rt.Trace
	}
	return nil
}

// pgCell measures one Figure 4 sweep cell — `busy` loaded CUs with power
// gating on or off at one VF state — returning the mean measured power
// over four settled intervals. The five raw intervals (one settle + four
// measured) are what the cache stores; the mean is recomputed from them
// in interval order, so a decoded cell reproduces the bit-identical mean.
func (c *Campaign) pgCell(vf arch.VFState, pg bool, busy int) (float64, error) {
	cfg := c.ChipConfig()
	cfg.PowerGating = pg
	cfg.SensorSeed = seedOf(fmt.Sprintf("pg%v-%d", pg, busy), vf)
	tr, err := c.simulate("pg", cfg, pgDef{VF: vf, PG: pg, Busy: busy},
		func() (*trace.Trace, error) {
			return pgCellTrace(cfg, vf, busy)
		})
	if err != nil {
		return 0, err
	}
	// Interval 0 is the settle; average the four measured ones.
	var sum float64
	for _, iv := range tr.Intervals[1:] {
		sum += iv.MeasPowerW
	}
	return sum / float64(len(tr.Intervals)-1), nil
}

// pgCellTrace simulates one sweep cell, returning the settle interval
// followed by the four measurement intervals.
func pgCellTrace(cfg fxsim.Config, vf arch.VFState, busy int) (*trace.Trace, error) {
	chip := fxsim.New(cfg)
	if err := chip.SetAllPStates(vf); err != nil {
		return nil, err
	}
	chip.SetTempK(318)
	for cu := 0; cu < busy; cu++ {
		if err := chip.Bind(cu*arch.FX8320.CoresPerCU, workload.BenchA(), true); err != nil {
			return nil, err
		}
	}
	tr := &trace.Trace{Run: "pgsweep", Suite: "PG", Platform: cfg.Topology.Name}
	const intervals = 1 + 4
	for k := 0; k < intervals; k++ {
		chip.TickN(arch.DecisionIntervalMS)
		tr.Intervals = append(tr.Intervals, chip.ReadInterval())
	}
	return tr, nil
}

// pgSweepAll measures the Figure 4 power-gating sweeps for every VF
// state. Each of the 2×(NumCUs+1)×len(states) cells simulates an
// independent chip seeded from the cell's identity, so the full grid is
// one flat job list over the worker pool; cells are generated in the
// serial implementation's iteration order and reassembled by index, which
// keeps every Sweep slice bit-identical to the serial result.
func (c *Campaign) pgSweepAll(states []arch.VFState) (map[arch.VFState]pgidle.Sweep, error) {
	type cell struct {
		vf   arch.VFState
		pg   bool
		busy int
	}
	var cells []cell
	for _, vf := range states {
		for _, pg := range []bool{false, true} {
			for busy := 0; busy <= arch.FX8320.NumCUs; busy++ {
				cells = append(cells, cell{vf, pg, busy})
			}
		}
	}
	powers := make([]units.Watts, len(cells))
	errs := make([]error, len(cells))
	pool.ForEachJob(len(cells), c.opts.workers(), func(i int) {
		var w float64
		w, errs[i] = c.pgCell(cells[i].vf, cells[i].pg, cells[i].busy)
		powers[i] = units.Watts(w)
	})
	out := make(map[arch.VFState]pgidle.Sweep, len(states))
	for i, cl := range cells {
		if errs[i] != nil {
			return nil, errs[i]
		}
		s := out[cl.vf]
		if cl.pg {
			s.PGOn = append(s.PGOn, powers[i])
		} else {
			s.PGOff = append(s.PGOff, powers[i])
		}
		out[cl.vf] = s
	}
	return out, nil
}

// train fits the full-campaign models and the Green Governors baseline.
func (c *Campaign) train() error {
	ts := core.TrainingSet{
		IdleTraces: c.Idle,
		Runs:       c.Runs,
		PGSweeps:   c.PGSweeps,
	}
	m, err := core.Train(ts, c.Table)
	if err != nil {
		return fmt.Errorf("experiments: training: %w", err)
	}
	c.Models = m

	// Green Governors static table: mean idle power per VF state.
	static := map[arch.VFState]units.Watts{}
	for vf, tr := range c.Idle {
		static[vf] = units.Watts(tr.AvgMeasPowerW())
	}
	var traces []*trace.Trace
	for _, rt := range c.Runs {
		traces = append(traces, rt.Trace)
	}
	if len(traces) > 0 {
		gg, err := energy.TrainGG(static, traces, c.Table)
		if err != nil {
			return fmt.Errorf("experiments: Green Governors baseline: %w", err)
		}
		c.GG = gg
	}
	return nil
}

// SingleThreadedNames returns the 52 single-threaded run names (29 SPEC
// singles, 13 PARSEC x1, 10 NPB x1) present in the campaign — the
// Section III evaluation set.
func (c *Campaign) SingleThreadedNames() []string {
	var names []string
	for _, rt := range c.Runs {
		if rt.VF != c.Table.Top() {
			continue
		}
		tr, ok := c.ByName[rt.Name]
		if !ok || tr == nil {
			continue
		}
		if isSingleThreaded(rt.Name) {
			names = append(names, rt.Name)
		}
	}
	return names
}

func isSingleThreaded(name string) bool {
	// Single-threaded runs are SPEC singles ("429") and "x1" suffixed
	// multi-threaded runs.
	if len(name) == 3 {
		return true
	}
	n := len(name)
	return n > 3 && name[n-3:] == " x1"
}
