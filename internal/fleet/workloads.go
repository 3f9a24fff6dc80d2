package fleet

import (
	"fmt"

	"ppep/internal/arch"
	"ppep/internal/workload"
)

// Mix names a fleet workload-mix preset. Presets are deterministic
// functions of (fleet seed, node index): the same preset on the same
// seed always hands node i the same workload, regardless of worker or
// shard count — the invariance the golden fingerprint tests pin.
type Mix string

const (
	// MixSteady runs the canonical zero-noise phase-stable workload on
	// every node — all eight cores busy, every tick identical. It is a
	// synthetic reference that deliberately phase-locks the whole
	// fleet.
	MixSteady Mix = "steady"
	// MixJittered runs a per-node perturbation of the Section IV-D
	// microbenchmark: per-node rate/CPI scaling plus a per-node AR(1)
	// noise level, so no two nodes run in lockstep. This is the
	// benchmark default.
	MixJittered Mix = "jittered"
	// MixMixed models a heterogeneous fleet: nodes rotate through
	// CPU-bound, balanced, and memory-bound SPEC profiles with per-node
	// rate jitter, thread counts between 4 and 8, per-node initial VF
	// states, and per-node thermal environments.
	MixMixed Mix = "mixed"
)

// Mixes lists the presets in stable order.
func Mixes() []Mix { return []Mix{MixSteady, MixJittered, MixMixed} }

// ParseMix validates a preset name from a flag.
func ParseMix(s string) (Mix, error) {
	for _, m := range Mixes() {
		if s == string(m) {
			return m, nil
		}
	}
	return "", fmt.Errorf("fleet: unknown mix %q (have %v)", s, Mixes())
}

// nodePlan is everything node construction derives from (seed, index):
// the node-owned benchmark, how many threads to bind, the initial VF
// state, the sensor-noise seed, and an optional starting temperature.
type nodePlan struct {
	bench      *workload.Benchmark
	threads    int
	vf         arch.VFState
	sensorSeed int64
	warmTempK  float64 // 0 = thermal model default
}

// prng is a splitmix64 stream. The fleet derives all per-node identity
// from it rather than math/rand so the derivation is a pure function of
// the seed material with no global state (the determinism analyzer's
// contract for simulation packages).
type prng uint64

// next advances the stream (splitmix64 finalizer).
func (p *prng) next() uint64 {
	*p += 0x9e3779b97f4a7c15
	z := uint64(*p)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unit returns a uniform float64 in [0, 1).
func (p *prng) unit() float64 { return float64(p.next()>>11) / (1 << 53) }

// pct returns a uniform scale factor in [1-j, 1+j].
func (p *prng) pct(j float64) float64 { return 1 + j*(2*p.unit()-1) }

// intn returns a uniform int in [0, n).
func (p *prng) intn(n int) int { return int(p.next() % uint64(n)) }

// nodePRNG keys a node's jitter stream off the fleet seed and the node
// index. The index is mixed through splitmix64 first so consecutive
// nodes land far apart in the stream.
func nodePRNG(seed int64, node int) prng {
	p := prng(uint64(seed))
	q := prng(uint64(node) + 0x5851f42d4c957f2d)
	return prng(p.next() ^ q.next())
}

// cloneBench deep-copies a benchmark profile so per-node jitter never
// mutates the shared package-level profiles (BenchA, the SPEC table).
func cloneBench(b *workload.Benchmark) *workload.Benchmark {
	c := *b
	c.Phases = append([]workload.Phase(nil), b.Phases...)
	return &c
}

// endless makes a profile effectively infinite: fleet nodes run
// time-bounded, never work-bounded, so threads must not finish.
const endlessInstructions = 1e18

// mixedPrograms is the rotation the mixed preset draws from: typical
// CPU-bound, balanced, and memory-bound SPEC profiles (Section II's
// suite, the paper's own diversity axis).
var mixedPrograms = []string{"458", "416", "456", "401", "483", "433", "429", "470"}

// planNode derives node i's complete identity. Everything below is a
// pure function of (mix, seed, i); scheduling order can never leak in.
func planNode(mix Mix, seed int64, i int) (nodePlan, error) {
	r := nodePRNG(seed, i)
	plan := nodePlan{
		threads:    8,
		vf:         arch.VF5,
		sensorSeed: int64(r.next() & 0x7fffffffffffffff),
	}
	switch mix {
	case MixSteady:
		b := cloneBench(workload.BenchSteady())
		b.Instructions = endlessInstructions
		plan.bench = b
	case MixJittered:
		b := cloneBench(workload.BenchA())
		b.Instructions = endlessInstructions
		ph := &b.Phases[0]
		ph.BaseCPI *= r.pct(0.10)
		jitterRates(&ph.PerInst, &r, 0.10)
		// A per-node noise floor keeps every node's ticks varying.
		ph.Noise = 0.002 + 0.01*r.unit()
		plan.bench = b
	case MixMixed:
		b := cloneBench(workload.SPECByNumber(mixedPrograms[i%len(mixedPrograms)]))
		b.Instructions = endlessInstructions
		for pi := range b.Phases {
			ph := &b.Phases[pi]
			ph.BaseCPI *= r.pct(0.08)
			jitterRates(&ph.PerInst, &r, 0.08)
			if ph.BaseCPI < 0.25 {
				ph.BaseCPI = 0.25
			}
		}
		plan.threads = 4 + r.intn(5)          // 4..8
		plan.vf = arch.VFState(3 + r.intn(3)) // VF3..VF5
		plan.warmTempK = 305 + 12*r.unit()    // per-node thermal environment
		plan.bench = b
	default:
		return nodePlan{}, fmt.Errorf("fleet: unknown mix %q", mix)
	}
	if err := plan.bench.Validate(); err != nil {
		return nodePlan{}, fmt.Errorf("fleet: node %d workload invalid after jitter: %w", i, err)
	}
	return plan, nil
}

// jitterRates scales the per-instruction event rates by independent
// factors in [1-j, 1+j], clamping the structural floors the profile
// validator enforces (uops/inst ≥ 1).
func jitterRates(rt *workload.Rates, r *prng, j float64) {
	rt.Uops *= r.pct(j)
	if rt.Uops < 1 {
		rt.Uops = 1
	}
	rt.FPU *= r.pct(j)
	rt.ICFetch *= r.pct(j)
	rt.DCAccess *= r.pct(j)
	rt.L2Req *= r.pct(j)
	rt.Branch *= r.pct(j)
	rt.Mispred *= r.pct(j)
	rt.L2Miss *= r.pct(j)
	rt.Prefetch *= r.pct(j)
	rt.TLBWalk *= r.pct(j)
}
