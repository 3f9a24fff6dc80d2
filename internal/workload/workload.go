// Package workload defines the synthetic benchmark profiles standing in
// for SPEC CPU2006, PARSEC, and the NAS Parallel Benchmarks (NPB), and the
// exact 152 benchmark combinations of the paper's evaluation (Section II).
//
// The paper's models never see instructions or data — they see hardware
// event signatures: per-instruction rates for the Table I events, CPI
// decomposition, memory-boundedness, and phase behaviour. A profile
// therefore describes a program as a sequence of phases, each with
// per-instruction event rates and a mechanistic CPI breakdown. The
// simulator (internal/fxsim, internal/uarch) turns profiles into counter
// and power traces.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"ppep/internal/fingerprint"
)

// Class is the coarse memory-boundedness class of a program, used to draw
// its per-instruction rates from a plausible band.
type Class int

const (
	// CPUBound programs fit in cache and are limited by the pipeline
	// (e.g. 458.sjeng, 416.gamess, swaptions, NPB EP).
	CPUBound Class = iota
	// Balanced programs mix compute with moderate cache misses.
	Balanced
	// MemBound programs are dominated by off-core memory time
	// (e.g. 429.mcf, 433.milc, 470.lbm, NPB CG).
	MemBound
)

// String names the class.
func (c Class) String() string {
	switch c {
	case CPUBound:
		return "cpu-bound"
	case Balanced:
		return "balanced"
	case MemBound:
		return "mem-bound"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Rates holds per-instruction rates for the core-private activity the
// Table I events observe, plus activity invisible to any counter (used
// only by the ground-truth power model, as on real silicon).
type Rates struct {
	Uops     float64 // E1: micro-ops per instruction (≥1)
	FPU      float64 // E2: FPU pipe assignments per instruction
	ICFetch  float64 // E3: instruction cache fetches per instruction
	DCAccess float64 // E4: data cache accesses per instruction
	L2Req    float64 // E5: L1 misses / requests to L2 per instruction
	Branch   float64 // E6: branches per instruction
	Mispred  float64 // E7: mispredicted branches per instruction
	L2Miss   float64 // E8: L2 misses per instruction (go to the NB)

	// Unobservable activity: counted by no PMC but it burns power.
	// These are a deliberate gap between the ground truth and PPEP's
	// nine-event model.
	Prefetch float64 // hardware prefetches per instruction
	TLBWalk  float64 // table walks per instruction
}

// Phase is one program phase: a stable region of behaviour covering a
// fraction of the program's instructions.
type Phase struct {
	Name   string
	Weight float64 // fraction of the program's instructions, Σ=1
	// BaseCPI is the core-only CPI excluding branch mispredict penalties
	// and off-core memory stalls: issue constraints plus core-local
	// stalls (dependencies, L2-latency shadows). Must be ≥ 1/IssueWidth.
	BaseCPI float64
	PerInst Rates
	// L3MissRatio is the fraction of L2 misses that also miss L3 and go
	// to DRAM.
	L3MissRatio float64
	// MLP is the memory-level parallelism: how many leading-load
	// latencies overlap, dividing exposed memory time. ≥ 1.
	MLP float64
	// Noise is the σ of the phase's position-locked jitter: each rate
	// and BaseCPI is scaled by exp(σ·g) at the knots of fixed-length
	// instruction segments (g a hashed ≈N(0,1) draw per benchmark,
	// dimension and knot), interpolated linearly in between
	// (internal/uarch). Zero makes the phase steady.
	Noise float64
}

// Benchmark is one program profile.
type Benchmark struct {
	Name  string
	Suite string // "SPEC", "PARSEC", "NPB", or "micro"
	Class Class
	FP    bool // floating-point heavy
	// Instructions is the per-thread instruction count of a full run.
	Instructions float64
	// Loops repeats the phase sequence, creating phase alternation.
	// A value ≤ 1 means the phases run once, in order.
	Loops int
	// Phases in execution order; weights sum to 1 (per loop).
	Phases []Phase
	// FreqSens holds small per-event sensitivities ε such that a rate is
	// multiplied by (1 + ε·(f/fTop − 1)). Real programs violate the
	// paper's Observation 1 by 0.6–5% between VF5 and VF2; this is how
	// the violation enters the simulation. Index order matches Rates
	// field order (Uops..L2Miss).
	FreqSens [8]float64
}

// maxPerInst bounds BaseCPI and every per-instruction rate: far above any
// program, far enough below overflow that every tick's counts are finite.
const maxPerInst = 1000

// Validate checks structural invariants of the profile.
func (b *Benchmark) Validate() error {
	if b.Name == "" {
		return fmt.Errorf("workload: benchmark with empty name")
	}
	if b.Instructions <= 0 {
		return fmt.Errorf("workload %s: non-positive instruction count", b.Name)
	}
	if len(b.Phases) == 0 {
		return fmt.Errorf("workload %s: no phases", b.Name)
	}
	// |ε| < 1 keeps every rate factor 1 + ε·(f/fTop − 1) positive at
	// every clock from 0 up to 2·fTop.
	for i, e := range b.FreqSens {
		if !(math.Abs(e) < 1) {
			return fmt.Errorf("workload %s: freq_sens[%d] %.3f outside (-1,1)", b.Name, i, e)
		}
	}
	total := 0.0
	for i, p := range b.Phases {
		if p.Weight <= 0 {
			return fmt.Errorf("workload %s: phase %d non-positive weight", b.Name, i)
		}
		if !(p.BaseCPI >= 0.25 && p.BaseCPI <= maxPerInst) {
			return fmt.Errorf("workload %s: phase %d BaseCPI %.3g outside [1/IssueWidth,%d]", b.Name, i, p.BaseCPI, maxPerInst)
		}
		if p.MLP < 1 {
			return fmt.Errorf("workload %s: phase %d MLP %.3f < 1", b.Name, i, p.MLP)
		}
		if p.L3MissRatio < 0 || p.L3MissRatio > 1 {
			return fmt.Errorf("workload %s: phase %d L3MissRatio %.3f outside [0,1]", b.Name, i, p.L3MissRatio)
		}
		// The jitter multiplier exp(σ·g), g ∈ [−3, 3], stays within
		// [e⁻³, e³] for σ ≤ 1; a σ in the hundreds overflows it.
		if !(p.Noise >= 0 && p.Noise <= 1) {
			return fmt.Errorf("workload %s: phase %d noise %.3f outside [0,1]", b.Name, i, p.Noise)
		}
		r := p.PerInst
		if r.Uops < 1 {
			return fmt.Errorf("workload %s: phase %d uops/inst %.3f < 1", b.Name, i, r.Uops)
		}
		if r.Mispred > r.Branch {
			return fmt.Errorf("workload %s: phase %d more mispredicts than branches", b.Name, i)
		}
		if r.L2Miss > r.L2Req {
			return fmt.Errorf("workload %s: phase %d more L2 misses than L2 requests", b.Name, i)
		}
		for _, v := range []float64{r.Uops, r.FPU, r.ICFetch, r.DCAccess, r.L2Req, r.Branch, r.Mispred, r.L2Miss, r.Prefetch, r.TLBWalk} {
			if !(v >= 0 && v <= maxPerInst) {
				return fmt.Errorf("workload %s: phase %d rate %.3g outside [0,%d]", b.Name, i, v, maxPerInst)
			}
		}
		total += p.Weight
	}
	if total < 0.999 || total > 1.001 {
		return fmt.Errorf("workload %s: phase weights sum to %.4f", b.Name, total)
	}
	return nil
}

// loops returns the effective loop count (≥1).
func (b *Benchmark) loops() int {
	if b.Loops < 1 {
		return 1
	}
	return b.Loops
}

// PhaseAt returns the phase in effect after `done` retired instructions
// (of the b.Instructions total), honouring the loop structure. Past the
// end it returns the final phase.
func (b *Benchmark) PhaseAt(done float64) *Phase {
	if done < 0 {
		done = 0
	}
	loops := float64(b.loops())
	perLoop := b.Instructions / loops
	frac := 0.0
	if perLoop > 0 {
		if done >= b.Instructions {
			// Past the end: stay in the final loop iteration.
			frac = 1
		} else {
			frac = math.Mod(done, perLoop) / perLoop
		}
	}
	acc := 0.0
	for i := range b.Phases {
		acc += b.Phases[i].Weight
		if frac < acc {
			return &b.Phases[i]
		}
	}
	return &b.Phases[len(b.Phases)-1]
}

// seedFor derives a stable RNG seed from a benchmark name, so profile
// generation is deterministic across runs and platforms.
func seedFor(name string) int64 {
	return int64(fingerprint.New().Raw(name).Sum() & 0x7fffffffffffffff)
}

// rngFor returns a deterministic RNG for the named benchmark.
func rngFor(name string) *rand.Rand { return rand.New(rand.NewSource(seedFor(name))) }
