package fleet

import (
	"ppep/internal/arch"
	"ppep/internal/units"
)

// MaxVFStates bounds the per-row predicted-power array. Keeping the
// per-VF predictions inline (rather than a slice per row) makes
// NodeStat plain data: the publish path copies the whole staging
// buffer with one memcpy and rows share nothing with engine scratch.
// Both simulated platforms have 5 states; 8 leaves headroom.
const MaxVFStates = 8

// NodeStat is one node's published state as of a snapshot. It is plain
// data — copying the struct copies everything.
type NodeStat struct {
	// Node is the node index (stable fleet-wide identity).
	Node int
	// TimeS is the node's simulation time at the end of its last
	// closed interval (0 until the first Advance).
	TimeS float64
	// VF is the chip-wide VF state of the last interval.
	VF arch.VFState
	// BusyCores counts cores with live threads in the last interval.
	BusyCores int
	// MeasPowerW and TruePowerW are the last interval's sensor mean
	// and oracle mean chip power.
	MeasPowerW float64
	TruePowerW float64
	// TempK is the thermal diode reading at the end of the interval.
	TempK float64
	// Intervals counts closed decision intervals.
	Intervals uint64
	// Fingerprint is the node's running interval fingerprint (an
	// incremental trace.Trace.Fingerprint over its whole history); the
	// shard-invariance tests compare these across worker counts.
	Fingerprint uint64
	// Analyzed reports whether PredChipW is populated (models
	// configured and the latest interval's analysis accepted).
	Analyzed bool
	// AnalyzeErrs counts failed per-interval analyses over the whole
	// run.
	AnalyzeErrs uint64
	// PredChipW is the PPEP-predicted chip power at each VF state
	// (index 0 = VF1), from the node's last interval. Only the first
	// NVF (see Snapshot) entries are meaningful.
	PredChipW [MaxVFStates]units.Watts
}

// Snapshot is an immutable view of the whole fleet after one decision
// interval. Readers obtain it lock-free from Engine.Snapshot and may
// retain it indefinitely; the engine never mutates a published
// snapshot.
type Snapshot struct {
	// Seq increments by one per Advance; the initial (pre-advance)
	// snapshot is Seq 0.
	Seq uint64
	// TimeS is the fleet-lockstep simulation time (Seq × 0.2 s).
	TimeS float64
	// NVF is the number of meaningful entries in each PredChipW.
	NVF int
	// Nodes holds one row per node, indexed by node id.
	Nodes []NodeStat

	// Fleet aggregates, accumulated in node order (deterministic
	// float64 sums).
	TotalMeasW float64
	TotalTrueW float64
	BusyCores  int
	// TotalPredW is the fleet-total PPEP-predicted power if every node
	// moved to the given VF state — the curve the future capping
	// controller searches. Only the first NVF entries are meaningful,
	// and only nodes with Analyzed=true contribute.
	TotalPredW [MaxVFStates]units.Watts
	// AnalyzedNodes counts the nodes contributing to TotalPredW.
	AnalyzedNodes int
}

// TotalPredAt returns the fleet-total predicted power at a VF state.
func (s *Snapshot) TotalPredAt(vf arch.VFState) units.Watts {
	return s.TotalPredW[int(vf)-1]
}

// Snapshot returns the most recently published fleet snapshot. It is
// safe to call from any goroutine at any time and never blocks
// Advance.
func (e *Engine) Snapshot() *Snapshot {
	return e.snap.Load()
}

// publish assembles an immutable snapshot from the staging rows and
// swaps it in. Runs single-threaded after the shard barrier, so the
// aggregate sums are in node order — worker count cannot perturb
// float64 accumulation. This is the only steady-state allocation site
// of the engine: a published snapshot must outlive the next interval
// in readers' hands, so its row slice cannot be pooled.
func (e *Engine) publish() {
	s := &Snapshot{
		Seq:   e.seq,
		TimeS: float64(e.seq) * float64(arch.DecisionIntervalMS) / 1000,
		NVF:   e.nVF,
		Nodes: make([]NodeStat, len(e.rows)),
	}
	copy(s.Nodes, e.rows)
	for i := range s.Nodes {
		row := &s.Nodes[i]
		s.TotalMeasW += row.MeasPowerW
		s.TotalTrueW += row.TruePowerW
		s.BusyCores += row.BusyCores
		if row.Analyzed {
			s.AnalyzedNodes++
			for v := 0; v < e.nVF; v++ {
				s.TotalPredW[v] += row.PredChipW[v]
			}
		}
	}
	e.snap.Store(s)
}
