package fxsim

import (
	"compress/gzip"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"os"
	"testing"

	"ppep/internal/arch"
	"ppep/internal/powertruth"
	"ppep/internal/sensor"
	"ppep/internal/uarch"
	"ppep/internal/units"
)

// driftRow is one interval of a goldenCollect scenario as the per-tick
// reference simulator produced it.
type driftRow struct {
	Interval                      uint32
	TruePowerW, TempK, MeasPowerW float64
	Counters                      [8]arch.EventVec
}

// readDriftRef reads testdata/tickdrift.bin.gz: for each goldenCollect
// scenario in order, a little-endian u32 row count and that many
// binary-encoded driftRows. The rows are every tenth interval and the
// last one of each run, recorded at tracecodec.SchemaVersion 2, before
// the tick computed its jittered rates as lines in the segment position,
// folded core power per operating point, and evaluated the leakage
// temperature factor once per sensor window. It is a fixed reference:
// re-recording it from a later simulator would hide the drift it bounds.
// So the file must hold exactly one block per goldenCollect scenario: a
// new scenario belongs in goldenIdle, which has no drift reference.
func readDriftRef(t *testing.T) [][]driftRow {
	t.Helper()
	f, err := os.Open("testdata/tickdrift.bin.gz")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]driftRow
	for {
		var n uint32
		err := binary.Read(zr, binary.LittleEndian, &n)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("reference block %d: %v", len(out), err)
		}
		rows := make([]driftRow, n)
		if err := binary.Read(zr, binary.LittleEndian, rows); err != nil {
			t.Fatalf("reference block %d: %v", len(out), err)
		}
		out = append(out, rows)
	}
	if len(out) != len(goldenCollect) {
		t.Fatalf("the drift reference holds %d blocks and goldenCollect has %d scenarios: "+
			"the reference is fixed, so a new scenario belongs in goldenIdle", len(out), len(goldenCollect))
	}
	return out
}

// relDrift is |got−want| relative to the larger magnitude, 0 when both
// are zero.
func relDrift(got, want float64) float64 {
	d := math.Abs(got - want)
	if d == 0 {
		return 0
	}
	return d / math.Max(math.Abs(got), math.Abs(want))
}

// TestTickDrift bounds how far the tick's rounding-level shortcuts move
// a whole run from the per-tick reference, over the five goldenCollect
// scenarios: true power within 1e-4 relative, the diode within 1e-5,
// every counter within 1e-9, and the measured power within one sensor
// quantum (a noisy sample near a quantization step may round the other
// way).
func TestTickDrift(t *testing.T) {
	const (
		powerTol   = 1e-4
		tempTol    = 1e-5
		counterTol = 1e-9
	)
	quantW := sensor.Default(0).QuantW
	ref := readDriftRef(t)
	for s, tc := range goldenCollect {
		tc, rows := tc, ref[s]
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			tr := tc.run(t)
			var maxP, maxT, maxC, maxM float64
			for _, row := range rows {
				if int(row.Interval) >= len(tr.Intervals) {
					t.Fatalf("run has %d intervals, reference has interval %d", len(tr.Intervals), row.Interval)
				}
				iv := &tr.Intervals[row.Interval]
				maxP = math.Max(maxP, relDrift(iv.TruePowerW, row.TruePowerW))
				maxT = math.Max(maxT, relDrift(iv.TempK, row.TempK))
				maxM = math.Max(maxM, math.Abs(iv.MeasPowerW-row.MeasPowerW))
				for core, want := range row.Counters {
					for k, w := range want {
						maxC = math.Max(maxC, relDrift(iv.Counters[core][k], w))
					}
				}
			}
			if last := rows[len(rows)-1].Interval; int(last) != len(tr.Intervals)-1 {
				t.Errorf("run has %d intervals, the reference run had %d", len(tr.Intervals), last+1)
			}
			t.Logf("largest drift: true power %.2g, temperature %.2g, counters %.2g relative; measured power %.3g W",
				maxP, maxT, maxC, maxM)
			if maxP > powerTol {
				t.Errorf("true power drifted %.3g relative, bound %g", maxP, powerTol)
			}
			if maxT > tempTol {
				t.Errorf("temperature drifted %.3g relative, bound %g", maxT, tempTol)
			}
			if maxC > counterTol {
				t.Errorf("counters drifted %.3g relative, bound %g", maxC, counterTol)
			}
			if maxM > quantW {
				t.Errorf("measured power drifted %.3g W, more than one %.1f W sensor quantum", maxM, quantW)
			}
		})
	}
}

// TestFoldedCorePowerMatchesOracle checks the tick's core dynamic power,
// with the per-event coefficients folded per operating point, against
// powertruth.CoreDynamicW over the tick's per-second rates: over random
// operating points and activities on both platforms they agree within
// 1e-12 relative.
func TestFoldedCorePowerMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, cfg := range []Config{DefaultFX8320Config(), DefaultPhenomIIConfig()} {
		chip := New(cfg)
		for i := 0; i < 2000; i++ {
			v := units.Volts(0.8 + 0.6*rng.Float64())
			f := units.GigaHertz(1 + 3*rng.Float64())
			var r uarch.TickResult
			a := powertruth.Activity{EPIScale: 0.85 + 0.3*rng.Float64()}
			for k := range r.Events {
				r.Events[k] = 4e6 * rng.Float64()
				a.Events[k] = r.Events[k] / TickS
			}
			r.Prefetches, r.TLBWalks, r.EPIScale = 4e4*rng.Float64(), 4e3*rng.Float64(), a.EPIScale
			a.PrefetchPS, a.TLBWalkPS = r.Prefetches/TickS, r.TLBWalks/TickS
			got := chip.cuCoeffs(0, v, f).coreDynW(&r)
			want := cfg.Power.CoreDynamicW(&a, v, f)
			if math.Abs(float64(got-want)) > 1e-12*math.Abs(float64(want)) {
				t.Fatalf("%s at %v V %v GHz: folded core power %v W, powertruth %v W",
					cfg.Topology.Name, v, f, got, want)
			}
		}
	}
}
