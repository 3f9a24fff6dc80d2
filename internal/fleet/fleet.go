// Package fleet advances many independent simulated PPEP nodes — one
// fxsim.Chip plus per-node PPEP analysis each — in lockstep decision
// intervals over a bounded worker pool, and publishes the fleet's state
// after every interval as an immutable snapshot behind an atomic
// pointer. It is the engine and snapshot layer of the ROADMAP's
// fleet-scale story; the cluster power-capping controller that will
// consume the snapshots is future work.
//
// Determinism contract: a node's entire identity (workload, jitter,
// thread placement, VF state, sensor seed, thermal environment) is a
// pure function of (mix, fleet seed, node index), and every node owns
// disjoint state, so per-node interval streams — and therefore the
// per-node fingerprints — are bit-identical at any worker or shard
// count. TestFleetShardInvariance pins this the same way the campaign
// and engine golden tests pin theirs.
//
// Concurrency contract: one goroutine calls Advance; any number of
// goroutines call Snapshot concurrently with it. Snapshots are
// immutable once published — readers may retain them indefinitely.
package fleet

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"ppep/internal/arch"
	"ppep/internal/core"
	"ppep/internal/fxsim"
	"ppep/internal/pool"
	"ppep/internal/trace"
	"ppep/internal/units"
)

// DefaultShardNodes is the shard granularity when Config.ShardNodes is
// zero: small enough to load-balance heterogeneous mixes across
// workers, large enough that the per-shard dispatch cost is noise
// against ~8 node-intervals of simulation.
const DefaultShardNodes = 8

// Config sizes and seeds a fleet.
type Config struct {
	// Nodes is the fleet size (required, ≥ 1).
	Nodes int
	// Workers bounds the pool advancing the fleet; 0 means GOMAXPROCS.
	// Workers=1 advances inline on the calling goroutine.
	Workers int
	// ShardNodes is the number of consecutive nodes one pool job
	// advances; 0 means DefaultShardNodes. Shard size never affects
	// results, only load balance.
	ShardNodes int
	// Seed is the fleet identity seed; 0 means 42. Every per-node seed
	// and jitter derives from (Seed, node index).
	Seed int64
	// Mix selects the workload-mix preset; empty means MixJittered.
	Mix Mix
	// Models, when non-nil, runs the PPEP analysis on every node's
	// interval and publishes per-VF predicted chip power in the
	// snapshot. Models are read-only at analysis time, so one trained
	// set is safely shared by all workers.
	Models *core.Models
	// IdealSensor replaces each node's noisy power sensor with a
	// perfect one.
	IdealSensor bool
}

// node is one simulated machine plus the scratch its worker reuses
// every interval. Each node is written only by the pool job that owns
// its index (the pool.ForEachJob owned-slot discipline), so nodes need
// no locks.
type node struct {
	chip *fxsim.Chip
	// iv and rep are reused across intervals (ReadIntervalInto /
	// AnalyzeInto), which is what makes the steady-state advance
	// allocation-free.
	iv  trace.Interval
	rep core.Report
	// fp is the node's running interval fingerprint (trace.Fold): the
	// bit-exactness witness the invariance tests compare.
	fp         uint64
	intervals  uint64
	analyzeErr uint64
}

// Engine owns the fleet. Construct with New; see the package comment
// for the concurrency contract.
type Engine struct {
	cfg        Config
	workers    int
	shardNodes int
	nShards    int
	nVF        int
	nodes      []node
	// rows is the publish staging buffer: shard jobs write disjoint
	// index ranges, publish copies it into the immutable snapshot.
	rows []NodeStat
	seq  uint64
	snap atomic.Pointer[Snapshot]
}

// New builds a fleet at simulation time zero and publishes an initial
// (interval-zero) snapshot. Construction is sequential: node identity
// derivation is cheap next to simulating even one interval.
func New(cfg Config) (*Engine, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("fleet: Nodes must be ≥ 1, got %d", cfg.Nodes)
	}
	if cfg.Workers < 0 || cfg.ShardNodes < 0 {
		return nil, fmt.Errorf("fleet: negative Workers or ShardNodes")
	}
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	if cfg.Mix == "" {
		cfg.Mix = MixJittered
	}
	e := &Engine{
		cfg:        cfg,
		workers:    cfg.Workers,
		shardNodes: cfg.ShardNodes,
		nodes:      make([]node, cfg.Nodes),
		rows:       make([]NodeStat, cfg.Nodes),
	}
	if e.workers == 0 {
		e.workers = runtime.GOMAXPROCS(0)
	}
	if e.shardNodes == 0 {
		e.shardNodes = DefaultShardNodes
	}
	e.nShards = (cfg.Nodes + e.shardNodes - 1) / e.shardNodes

	chipCfg := fxsim.DefaultFX8320Config()
	chipCfg.IdealSensor = cfg.IdealSensor
	e.nVF = len(chipCfg.Topology.VF)
	if e.nVF > MaxVFStates {
		return nil, fmt.Errorf("fleet: VF table has %d states, snapshot rows hold %d", e.nVF, MaxVFStates)
	}
	if cfg.Models != nil && len(cfg.Models.Table) != e.nVF {
		return nil, fmt.Errorf("fleet: models trained on %d VF states, platform has %d", len(cfg.Models.Table), e.nVF)
	}
	for i := range e.nodes {
		plan, err := planNode(cfg.Mix, cfg.Seed, i)
		if err != nil {
			return nil, err
		}
		nodeCfg := chipCfg
		nodeCfg.SensorSeed = plan.sensorSeed
		chip := fxsim.New(nodeCfg)
		if err := chip.SetAllPStates(plan.vf); err != nil {
			return nil, fmt.Errorf("fleet: node %d: %w", i, err)
		}
		if plan.warmTempK > 0 {
			chip.SetTempK(units.Kelvin(plan.warmTempK))
		}
		for t := 0; t < plan.threads; t++ {
			if err := chip.Bind(t, plan.bench, true); err != nil {
				return nil, fmt.Errorf("fleet: node %d core %d: %w", i, t, err)
			}
		}
		e.nodes[i] = node{chip: chip, fp: trace.FingerprintSeed}
		e.fillRow(i)
	}
	e.publish()
	return e, nil
}

// Nodes returns the fleet size.
func (e *Engine) Nodes() int { return len(e.nodes) }

// Workers returns the effective pool width.
func (e *Engine) Workers() int { return e.workers }

// Advance steps every node by one DVFS decision interval
// (arch.DecisionIntervalMS of 1 ms ticks), closes each node's
// measurement interval, folds it into the node's running fingerprint,
// optionally runs the PPEP analysis, and publishes a new snapshot.
// Steady-state cost is zero allocations per node (per-node scratch is
// reused; TestAdvanceSteadyAllocs pins the budget) — deliberately not a
// //ppep:hotpath zero-alloc root, because the publish allocates the new
// immutable snapshot, which readers may retain. See Snapshot.
func (e *Engine) Advance() {
	pool.ForEachJob(e.nShards, e.workers, func(shard int) {
		lo := shard * e.shardNodes
		hi := lo + e.shardNodes
		if hi > len(e.nodes) {
			hi = len(e.nodes)
		}
		for i := lo; i < hi; i++ {
			e.stepNode(i)
		}
	})
	e.seq++
	e.publish()
}

// AdvanceN runs n decision intervals back-to-back.
func (e *Engine) AdvanceN(n int) {
	for i := 0; i < n; i++ {
		e.Advance()
	}
}

// stepNode advances one node by one decision interval and refreshes its
// staging row. It touches only state owned by node i. An analysis whose
// projected chip power is unusable counts as an analysis error, so it
// never reaches the snapshot.
func (e *Engine) stepNode(i int) {
	n := &e.nodes[i]
	n.chip.TickN(arch.DecisionIntervalMS)
	n.chip.ReadIntervalInto(&n.iv)
	n.fp = n.iv.Fold(n.fp)
	n.intervals++
	if e.cfg.Models != nil {
		if err := e.cfg.Models.AnalyzeInto(n.iv, &n.rep); err != nil || !e.usable(&n.rep) {
			n.analyzeErr++
		}
	}
	e.fillRow(i)
}

// usable reports whether every projected chip power in rep is finite and
// non-negative: the rule core.PredictionTable.Validate applies to the
// daemon's published table, here applied to the snapshot's PredChipW.
func (e *Engine) usable(rep *core.Report) bool {
	for s := 0; s < e.nVF; s++ {
		w := float64(rep.PerVF[s].ChipW)
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			return false
		}
	}
	return true
}

// fillRow refreshes node i's staging row from its current state.
func (e *Engine) fillRow(i int) {
	n := &e.nodes[i]
	row := &e.rows[i]
	row.Node = i
	row.TimeS = n.iv.TimeS
	row.VF = n.iv.VF()
	row.BusyCores = 0
	for _, b := range n.iv.Busy {
		if b {
			row.BusyCores++
		}
	}
	row.MeasPowerW = n.iv.MeasPowerW
	row.TruePowerW = n.iv.TruePowerW
	row.TempK = n.iv.TempK
	row.Intervals = n.intervals
	row.Fingerprint = n.fp
	row.AnalyzeErrs = n.analyzeErr
	row.Analyzed = e.cfg.Models != nil && n.intervals > 0 && n.analyzeErr == 0
	for s := 0; s < MaxVFStates; s++ {
		row.PredChipW[s] = 0
	}
	if row.Analyzed {
		for s := 0; s < e.nVF; s++ {
			row.PredChipW[s] = n.rep.PerVF[s].ChipW
		}
	}
}

// Fingerprint returns node i's running interval fingerprint — the
// bit-exactness witness of its whole simulated history. Callers must
// not race it with Advance; tests and the smoke CLI read it between
// intervals (concurrent readers use Snapshot).
func (e *Engine) Fingerprint(i int) uint64 { return e.nodes[i].fp }
