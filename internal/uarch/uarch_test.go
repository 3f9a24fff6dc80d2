package uarch

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"ppep/internal/arch"
	"ppep/internal/mem"
	"ppep/internal/workload"
)

var testLat = mem.Latencies{L3NS: 20, DRAMNS: 80}

// newCore binds a thread of the benchmark to a fresh core context.
func newCore(b *workload.Benchmark, fTopGHz float64) *Core {
	c := &Core{}
	c.Reset(b, fTopGHz)
	return c
}

// step runs one Core.Step into a fresh result.
func step(c *Core, fGHz, dtS float64, lat mem.Latencies) TickResult {
	var r TickResult
	c.Step(fGHz, dtS, &lat, &r)
	return r
}

func steadyBench() *workload.Benchmark {
	return &workload.Benchmark{
		Name:         "steady-test",
		Suite:        "micro",
		Instructions: 50e9,
		Phases: []workload.Phase{{
			Name:    "p",
			Weight:  1,
			BaseCPI: 0.6,
			PerInst: workload.Rates{
				Uops: 1.3, FPU: 0.4, ICFetch: 0.25, DCAccess: 0.45,
				L2Req: 0.02, Branch: 0.15, Mispred: 0.004, L2Miss: 0.008,
				Prefetch: 0.01, TLBWalk: 0.002,
			},
			L3MissRatio: 0.5,
			MLP:         2,
			Noise:       0, // exact arithmetic checks below
		}},
	}
}

func TestStepArithmetic(t *testing.T) {
	c := newCore(steadyBench(), 3.5)
	r := step(c, 3.5, 0.001, testLat)

	// Expected CPI: base 0.6 + mispred 0.004·20 + MCPI.
	llNS := (0.008*0.5*20 + 0.008*0.5*80) / 2
	wantMCPI := llNS * 3.5
	wantCPI := 0.6 + 0.08 + wantMCPI
	if math.Abs(r.CPI-wantCPI) > 1e-12 {
		t.Errorf("CPI = %v, want %v", r.CPI, wantCPI)
	}
	wantInst := 3.5e9 * 0.001 / wantCPI
	if math.Abs(r.Instructions-wantInst) > 1 {
		t.Errorf("instructions = %v, want %v", r.Instructions, wantInst)
	}
	if math.Abs(r.Cycles-r.CPI*r.Instructions) > 1e-3 {
		t.Error("cycles ≠ CPI × instructions")
	}
	// Event identities.
	if math.Abs(r.Events.Get(arch.RetiredInstructions)-r.Instructions) > 1e-9 {
		t.Error("E11 must equal instructions")
	}
	if math.Abs(r.Events.Get(arch.CPUClocksNotHalted)-r.Cycles) > 1e-6 {
		t.Error("E10 must equal cycles")
	}
	wantMAB := wantMCPI * r.Instructions
	if math.Abs(r.Events.Get(arch.MABWaitCycles)-wantMAB) > 1e-6 {
		t.Errorf("E12 = %v, want %v", r.Events.Get(arch.MABWaitCycles), wantMAB)
	}
	// DRAM traffic = L2 misses × L3 miss ratio.
	if math.Abs(r.DRAMAccesses-r.Events.Get(arch.L2CacheMisses)*0.5) > 1e-6 {
		t.Error("DRAM accesses inconsistent with L2 misses")
	}
	if math.Abs(r.L3Accesses-r.Events.Get(arch.L2CacheMisses)) > 1e-6 {
		t.Error("L3 accesses must equal L2 misses")
	}
}

func TestObservation2Structural(t *testing.T) {
	// CPI − DispatchStalls/inst must be identical across frequencies for
	// a noise-free benchmark with zero frequency sensitivity.
	b := steadyBench()
	gap := func(f float64) float64 {
		c := newCore(b, 3.5)
		r := step(c, f, 0.001, testLat)
		return r.CPI - r.Events.Get(arch.DispatchStalls)/r.Instructions
	}
	g35 := gap(3.5)
	g14 := gap(1.4)
	if math.Abs(g35-g14) > 1e-12 {
		t.Errorf("Observation 2 violated structurally: %v vs %v", g35, g14)
	}
	// And the gap has the Eq. 6 form: 1/W·(1−s·…) — just check it's
	// positive and frequency-free.
	if g35 <= 0 {
		t.Errorf("gap %v must be positive", g35)
	}
}

func TestObservation1Structural(t *testing.T) {
	// Per-instruction core-private event counts are VF-independent when
	// FreqSens is zero.
	b := steadyBench()
	perInst := func(f float64) [8]float64 {
		c := newCore(b, 3.5)
		r := step(c, f, 0.001, testLat)
		var out [8]float64
		for i := 0; i < 8; i++ {
			out[i] = r.Events[i] / r.Instructions
		}
		return out
	}
	a := perInst(3.5)
	z := perInst(1.7)
	for i := range a {
		if math.Abs(a[i]-z[i]) > 1e-12 {
			t.Errorf("event %d per-inst differs across f: %v vs %v", i+1, a[i], z[i])
		}
	}
}

func TestFreqSensViolatesObservation1Slightly(t *testing.T) {
	b := steadyBench()
	b.FreqSens[3] = 0.08 // DCAccess sensitivity
	perInst := func(f float64) float64 {
		c := newCore(b, 3.5)
		r := step(c, f, 0.001, testLat)
		return r.Events.Get(arch.DataCacheAccesses) / r.Instructions
	}
	hi := perInst(3.5)
	lo := perInst(1.7)
	diff := math.Abs(lo-hi) / hi
	// (1.7/3.5−1)·0.08 ≈ 4.1%.
	if diff < 0.02 || diff > 0.06 {
		t.Errorf("Observation 1 violation %v, want ≈4%%", diff)
	}
}

func TestMCPIScalesWithFrequency(t *testing.T) {
	b := steadyBench()
	mcpi := func(f float64) float64 {
		c := newCore(b, 3.5)
		r := step(c, f, 0.001, testLat)
		return r.Events.Get(arch.MABWaitCycles) / r.Instructions
	}
	m35 := mcpi(3.5)
	m17 := mcpi(1.7)
	if math.Abs(m35/m17-3.5/1.7) > 1e-9 {
		t.Errorf("MCPI ratio %v, want %v", m35/m17, 3.5/1.7)
	}
}

func TestRunsToCompletion(t *testing.T) {
	b := steadyBench()
	b.Instructions = 1e7 // tiny run
	c := newCore(b, 3.5)
	var total float64
	ticks := 0
	for !c.Finished() {
		r := step(c, 3.5, 0.001, testLat)
		total += r.Instructions
		ticks++
		if ticks > 100000 {
			t.Fatal("did not finish")
		}
	}
	if math.Abs(total-1e7) > 1 {
		t.Errorf("retired %v instructions, want 1e7", total)
	}
	if c.Done < c.Bench.Instructions {
		t.Errorf("done = %v of %v instructions", c.Done, c.Bench.Instructions)
	}
	// Further steps are no-ops.
	r := step(c, 3.5, 0.001, testLat)
	if r.Instructions != 0 || !r.Finished {
		t.Error("finished core must not retire more instructions")
	}
}

func TestJitterIsPositionLocked(t *testing.T) {
	// Two cores running the same noisy benchmark at different
	// frequencies must see identical jitter at the same instruction
	// position (compare per-instruction rates at matched positions).
	b := steadyBench()
	b.Phases[0].Noise = 0.15

	ratesAt := func(f float64, targetDone float64) float64 {
		c := newCore(b, 3.5)
		for c.Done < targetDone && !c.Finished() {
			step(c, f, 0.001, testLat)
		}
		r := step(c, f, 0.0001, testLat)
		return r.Events.Get(arch.DataCacheAccesses) / r.Instructions
	}
	target := 5e9
	hi := ratesAt(3.5, target)
	lo := ratesAt(1.4, target)
	// Positions won't match exactly (tick granularity) but the smooth
	// segment interpolation keeps the difference well under the jitter σ.
	if math.Abs(hi-lo)/hi > 0.02 {
		t.Errorf("jitter not position-locked: %v vs %v", hi, lo)
	}
	// And jitter actually varies along the run.
	early := ratesAt(3.5, 1e9)
	late := ratesAt(3.5, 40e9)
	if math.Abs(early-late)/early < 1e-4 {
		t.Error("jitter appears inert along the run")
	}
}

// TestJitterKnots pins the jitter model through the rate lines of a
// phase whose rates are all 1, so a line reads the multiplier itself. At
// every segment knot the multiplier is exp(σ·g) of that knot's Gaussian
// draw, bit for bit. Between knots it is the linear interpolation of the
// two knot multipliers, to rounding — the chord of exp: never below
// exp(σ·g) interpolated in the exponent, and above it by at most
// frac·(1−frac)/2·h²·e^h relative, h = σ·|Δg| (≈ σ²Δg²/8 at mid-segment).
func TestJitterKnots(t *testing.T) {
	b := steadyBench()
	b.Instructions = 200 << 20 // segLen = 2^20, so knot positions are exact
	segLen := b.Instructions / 200
	unit := workload.Phase{BaseCPI: 1, PerInst: workload.Rates{
		Uops: 1, FPU: 1, ICFetch: 1, DCAccess: 1, L2Req: 1, Branch: 1, Mispred: 1, L2Miss: 1,
	}}
	check := func(c *Core, k int64, frac, sigma float64) {
		t.Helper()
		c.Done = (float64(k) + frac) * segLen
		unit.Noise = sigma
		if got := c.segmentFrac(&unit, 3.5); got != frac {
			t.Fatalf("segment fraction %v, want %v", got, frac)
		}
		for d := 0; d < numJitterDims; d++ {
			g0, g1 := hashGauss(b.Name, d, k), hashGauss(b.Name, d, k+1)
			got := c.lineA[d] + c.lineB[d]*frac
			if frac == 0 {
				if want := math.Exp(sigma * g0); got != want {
					t.Fatalf("σ=%v seg %d dim %d: knot multiplier %v, want exp(σ·g) = %v", sigma, k, d, got, want)
				}
				continue
			}
			want := math.Exp(sigma*g0)*(1-frac) + math.Exp(sigma*g1)*frac
			if math.Abs(got-want) > 1e-15*want {
				t.Fatalf("σ=%v seg %d+%v dim %d: multiplier %v, want the knot interpolation %v", sigma, k, frac, d, got, want)
			}
			inExp := math.Exp(sigma * (g0*(1-frac) + g1*frac))
			h := sigma * math.Abs(g1-g0)
			bound := frac * (1 - frac) / 2 * h * h * math.Exp(h)
			if rel := (got - inExp) / inExp; rel < -1e-15 || rel > bound+1e-15 {
				t.Fatalf("σ=%v seg %d+%v dim %d: multiplier %v is %.3g relative off exp(σ·g) = %v, bound [0, %.3g]",
					sigma, k, frac, d, got, rel, inExp, bound)
			}
		}
	}
	fracs := []float64{0, 0.25, 0.5, 0.75}
	// Walking forward at one σ reuses the trailing knot of each segment.
	for _, sigma := range []float64{0.05, 0.15, 0.5} {
		c := newCore(b, 3.5)
		for k := int64(0); k < 64; k++ {
			for _, frac := range fracs {
				check(c, k, frac, sigma)
			}
		}
	}
	// σ changing inside a segment (a phase boundary) and jumping
	// segments both recompute the two knots from scratch.
	c := newCore(b, 3.5)
	for _, k := range []int64{7, 8, 3, 40, 41, 0} {
		for _, frac := range fracs {
			for _, sigma := range []float64{0.15, 0.05} {
				check(c, k, frac, sigma)
			}
		}
	}
}

func TestJitterRespectsPhysicalBounds(t *testing.T) {
	b := steadyBench()
	b.Phases[0].Noise = 0.5 // extreme
	b.Phases[0].PerInst.Mispred = b.Phases[0].PerInst.Branch * 0.9
	b.Phases[0].PerInst.L2Miss = b.Phases[0].PerInst.L2Req * 0.9
	c := newCore(b, 3.5)
	for i := 0; i < 2000 && !c.Finished(); i++ {
		r := step(c, 3.5, 0.001, testLat)
		if r.Events.Get(arch.RetiredMispredBranches) > r.Events.Get(arch.RetiredBranches)+1e-9 {
			t.Fatal("mispredicts exceeded branches")
		}
		if r.Events.Get(arch.L2CacheMisses) > r.Events.Get(arch.RequestToL2Cache)+1e-9 {
			t.Fatal("L2 misses exceeded requests")
		}
		if r.Events.Get(arch.RetiredUOP) < r.Instructions-1e-9 {
			t.Fatal("uops fell below instructions")
		}
	}
}

func TestHigherDRAMLatencySlowsMemBound(t *testing.T) {
	b := steadyBench()
	fast := newCore(b, 3.5)
	slow := newCore(b, 3.5)
	rf := step(fast, 3.5, 0.001, mem.Latencies{L3NS: 20, DRAMNS: 80})
	rs := step(slow, 3.5, 0.001, mem.Latencies{L3NS: 20, DRAMNS: 200})
	if rs.Instructions >= rf.Instructions {
		t.Error("higher memory latency must reduce throughput")
	}
}

func TestHashGaussStatistics(t *testing.T) {
	var sum, sq float64
	const n = 5000
	for i := 0; i < n; i++ {
		g := hashGauss("bench", 3, int64(i))
		sum += g
		sq += g * g
	}
	mean := sum / n
	sd := math.Sqrt(sq/n - mean*mean)
	if math.Abs(mean) > 0.05 {
		t.Errorf("mean %v", mean)
	}
	if math.Abs(sd-1) > 0.1 {
		t.Errorf("sd %v", sd)
	}
	// Different dims decorrelate.
	var dot float64
	for i := 0; i < n; i++ {
		dot += hashGauss("bench", 0, int64(i)) * hashGauss("bench", 1, int64(i))
	}
	if math.Abs(dot/n) > 0.05 {
		t.Errorf("cross-dim correlation %v", dot/n)
	}
}

func TestZeroDtIsNoop(t *testing.T) {
	c := newCore(steadyBench(), 3.5)
	r := step(c, 3.5, 0, testLat)
	if r.Instructions != 0 {
		t.Error("zero dt must retire nothing")
	}
}

func TestProgressMonotone(t *testing.T) {
	c := newCore(steadyBench(), 3.5)
	prev := 0.0
	for i := 0; i < 1000; i++ {
		step(c, 3.5, 0.001, testLat)
		if p := c.Done; p < prev {
			t.Fatalf("progress went backwards: %v < %v", p, prev)
		} else {
			prev = p
		}
	}
}

// TestFreqSensMemoFollowsTheClock pins the rate-line memo, which holds
// the frequency-sensitivity factors: a core whose clock moves mid-run
// must step exactly as a core that derives the lines afresh at the new
// clock. Every event dimension carries a sensitivity, so a stale factor
// shows in the event vector.
func TestFreqSensMemoFollowsTheClock(t *testing.T) {
	b := steadyBench()
	for d := range b.FreqSens {
		b.FreqSens[d] = 0.01 * float64(d+1)
	}
	c := newCore(b, 3.5)
	for _, f := range []float64{3.5, 1.4, 1.4, 2.9, 3.5} {
		fresh := *c
		fresh.lineOK = false
		got, want := step(c, f, 0.001, testLat), step(&fresh, f, 0.001, testLat)
		if got != want {
			t.Fatalf("at %v GHz the memoised step gave %+v, a fresh one %+v", f, got, want)
		}
	}
}

// TestRateLinesMatchInterpolation checks the rate lines against the
// formula they replace, written out here: interpolate each dimension's
// jitter multiplier between its segment knots, then scale the phase's
// rate by it and by the frequency factor. Over random segments,
// fractions, σ, clocks and phases, every jittered rate and BaseCPI
// agrees within 1e-12 relative.
func TestRateLinesMatchInterpolation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := steadyBench()
	for d := range b.FreqSens {
		b.FreqSens[d] = 0.1 * (rng.Float64() - 0.5)
	}
	const fTop = 3.5
	c := newCore(b, fTop)
	segLen := b.Instructions / 200
	for i := 0; i < 2000; i++ {
		p := workload.Phase{BaseCPI: 0.3 + rng.Float64(), Noise: 0.5 * rng.Float64()}
		r := &p.PerInst
		rates := []*float64{&r.Uops, &r.FPU, &r.ICFetch, &r.DCAccess, &r.L2Req, &r.Branch, &r.Mispred, &r.L2Miss}
		for _, x := range rates {
			*x = 2 * rng.Float64()
		}
		seg := rng.Int63n(200)
		frac := rng.Float64()
		f := 1.4 + (fTop-1.4)*rng.Float64()
		c.Done = (float64(seg) + frac) * segLen
		got := c.segmentFrac(&p, f)
		if pos := c.Done / segLen; got != pos-float64(int64(pos)) {
			t.Fatalf("segment fraction %v at position %v", got, pos)
		}
		seg = int64(c.Done / segLen)
		for d := 0; d < numJitterDims; d++ {
			m0 := math.Exp(p.Noise * hashGauss(b.Name, d, seg))
			m1 := math.Exp(p.Noise * hashGauss(b.Name, d, seg+1))
			m := m0*(1-got) + m1*got
			want := p.BaseCPI * m
			if d < dimBaseCPI {
				want = *rates[d] * m * (1 + b.FreqSens[d]*(f/fTop-1))
			}
			line := c.lineA[d] + c.lineB[d]*got
			if math.Abs(line-want) > 1e-12*math.Abs(want) {
				t.Fatalf("case %d dim %d (seg %d, frac %v, σ %v, %v GHz): line %v, interpolated %v",
					i, d, seg, got, p.Noise, f, line, want)
			}
		}
	}
}

// TestKnotTablesMatchHashGauss checks every shared knot table against
// exp(σ·hashGauss) evaluated directly, for random benchmark names and σ
// and at random knots, the last one a run can reach included. Knots must
// return one table per distinct positive σ, and the same tables again.
func TestKnotTablesMatchHashGauss(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 0; n < 20; n++ {
		name := make([]byte, 1+rng.Intn(12))
		for i := range name {
			name[i] = byte('a' + rng.Intn(26))
		}
		sigmas := []float64{rng.Float64() * 0.6, 0, rng.Float64() * 0.6}
		b := &workload.Benchmark{Name: "knots-" + string(name)}
		for _, s := range append(sigmas, sigmas[0]) {
			b.Phases = append(b.Phases, workload.Phase{Weight: 1, Noise: s})
		}
		tabs := Knots(b)
		if len(tabs) != 2 || tabs[0].sigma != sigmas[0] || tabs[1].sigma != sigmas[2] {
			t.Fatalf("%s: tables for σ %v, want one per distinct positive σ of %v", b.Name, tabs, sigmas)
		}
		for k, tab := range tabs {
			for _, seg := range []int64{0, rng.Int63n(numSegments), numSegments, numSegments + 1} {
				for d := 0; d < numJitterDims; d++ {
					if got, want := tab.m[seg][d], math.Exp(tab.sigma*hashGauss(b.Name, d, seg)); got != want {
						t.Fatalf("%s σ=%v knot %d dim %d: table %v, exp(σ·hashGauss) %v", b.Name, tab.sigma, seg, d, got, want)
					}
				}
			}
			if again := Knots(b); again[k] != tab {
				t.Fatalf("%s σ=%v: a second Knots call built a new table", b.Name, tab.sigma)
			}
		}
	}
}

// TestKnotTablesMatchComputedKnots runs a multi-phase benchmark, its
// phases at two σ and one noiseless, to completion on two cores, one
// reading shared knot tables and one computing its knots, and requires
// bit-identical ticks; a restart of the same benchmark keeps the tables
// and a Reset to another drops them.
func TestKnotTablesMatchComputedKnots(t *testing.T) {
	b := *workload.SPECByNumber("481")
	b.Name = "knots-481-mixed-sigma"
	b.Instructions = 4e9
	b.Phases = slices.Clone(b.Phases)
	if len(b.Phases) < 3 {
		t.Fatalf("481 has %d phases, the test needs 3", len(b.Phases))
	}
	b.Phases[1].Noise *= 2
	b.Phases[2].Noise = 0
	shared, own := newCore(&b, 3.5), newCore(&b, 3.5)
	shared.UseKnots(Knots(&b))
	if len(shared.knots) != 2 {
		t.Fatalf("%d knot tables, want one for each of the two positive σ", len(shared.knots))
	}
	for _, f := range []float64{3.5, 1.4} {
		for i := 0; !own.Finished(); i++ {
			if got, want := step(shared, f, 0.001, testLat), step(own, f, 0.001, testLat); got != want {
				t.Fatalf("%v GHz tick %d: with knot tables %+v, computed knots %+v", f, i, got, want)
			}
		}
		if !shared.Finished() {
			t.Fatal("the core with knot tables did not finish with the other")
		}
		shared.Reset(&b, 3.5)
		own.Reset(&b, 3.5)
		if len(shared.knots) == 0 {
			t.Fatal("a restart of the same benchmark dropped its knot tables")
		}
	}
	shared.Reset(steadyBench(), 3.5)
	if shared.knots != nil {
		t.Error("a Reset to another benchmark kept the old one's knot tables")
	}
}

// concurrentResolves numbers TestKnotsConcurrentResolve's runs, so each
// run of a -count=N loop resolves a name no earlier run built.
var concurrentResolves atomic.Int64

// TestKnotsConcurrentResolve resolves one (name, σ) not resolved before
// from two goroutines at once: both must get the same table, and under
// -race the build and the reads must not race.
func TestKnotsConcurrentResolve(t *testing.T) {
	name := fmt.Sprintf("knots-concurrent-%d", concurrentResolves.Add(1))
	b := &workload.Benchmark{Name: name, Phases: []workload.Phase{{Weight: 1, Noise: 0.25}}}
	var got [2][]*KnotTable
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = Knots(b)
		}()
	}
	wg.Wait()
	if len(got[0]) != 1 || len(got[1]) != 1 || got[0][0] != got[1][0] {
		t.Fatalf("concurrent resolves returned %v and %v, want one shared table", got[0], got[1])
	}
	if m := got[1][0].m[3][2]; m != math.Exp(0.25*hashGauss(b.Name, 2, 3)) {
		t.Errorf("concurrently built table reads %v at knot 3 dim 2", m)
	}
}
