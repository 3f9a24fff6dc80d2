package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"ppep/internal/arch"
	"ppep/internal/core"
	"ppep/internal/daemon"
	"ppep/internal/units"
)

// prediction is the /predict response shape as encoding/json sees it:
// one VF state's published row plus the interval it came from.
type prediction struct {
	Seq        uint64             `json:"seq"`
	TimeS      units.Seconds      `json:"time_s"`
	MeasuredVF arch.VFState       `json:"measured_vf"`
	Projection core.PredictionRow `json:"projection"`
}

// marshalOracle is the package's response style as encoding/json writes
// it: two-space indent and a trailing newline.
func marshalOracle(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// checkRender renders tab and compares every body with encoding/json's
// rendering of the same values.
func checkRender(t *testing.T, name string, tab *core.PredictionTable) {
	t.Helper()
	batch, perVF := renderBodies(tab)
	if want := marshalOracle(t, tab); !bytes.Equal(batch, want) {
		t.Fatalf("%s: batch body differs from encoding/json:\n got %s\nwant %s", name, batch, want)
	}
	if len(perVF) != len(tab.Rows) {
		t.Fatalf("%s: %d /predict bodies for %d rows", name, len(perVF), len(tab.Rows))
	}
	for i, row := range tab.Rows {
		want := marshalOracle(t, prediction{Seq: tab.Seq, TimeS: tab.TimeS, MeasuredVF: tab.MeasuredVF, Projection: row})
		if !bytes.Equal(perVF[i], want) {
			t.Fatalf("%s: /predict body %d differs from encoding/json:\n got %s\nwant %s", name, i, perVF[i], want)
		}
		if cap(perVF[i]) != len(perVF[i]) {
			t.Fatalf("%s: /predict body %d has spare capacity %d", name, i, cap(perVF[i])-len(perVF[i]))
		}
	}
	if cap(batch) != len(batch) {
		t.Fatalf("%s: batch body has spare capacity %d", name, cap(batch)-len(batch))
	}
}

// TestRenderMatchesEncodingJSON pins the published bodies of the
// daemon's real tables, interval after interval, byte for byte against
// encoding/json.
func TestRenderMatchesEncodingJSON(t *testing.T) {
	d, err := daemon.AttachOpts(busyChip(t), models(t), nil, daemon.Options{HistoryCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(d, Options{})
	for i := 0; i < 200; i++ {
		if err := d.RunIntervals(1); err != nil {
			t.Fatal(err)
		}
		p := srv.pub.Load()
		if p == nil || p.table != d.Predictions() {
			t.Fatalf("interval %d: snapshot does not hold the published table", i)
		}
		if want := marshalOracle(t, p.table); !bytes.Equal(p.batchJSON, want) {
			t.Fatalf("interval %d: batch body differs from encoding/json:\n got %s\nwant %s", i, p.batchJSON, want)
		}
		for vf, row := range p.table.Rows {
			want := marshalOracle(t, prediction{Seq: p.table.Seq, TimeS: p.table.TimeS, MeasuredVF: p.table.MeasuredVF, Projection: row})
			if !bytes.Equal(p.perVF[vf], want) {
				t.Fatalf("interval %d: /predict?vf=%d body differs from encoding/json:\n got %s\nwant %s", i, vf+1, p.perVF[vf], want)
			}
		}
	}
}

// edgeFloats straddle every branch of encoding/json's float64 rule:
// zero of both signs, either side of the 1e-6 and 1e21 switches to 'e'
// notation, one- and three-digit negative exponents, the subnormal and
// overflow extremes, and their negatives.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, 0.1, 1e-7, 9.99e-7, 1e-6, 1.5e-6, 1e-10, 1e20, 1e21,
	123456789012345678901, 5e-324, math.SmallestNonzeroFloat64 * 3, math.MaxFloat64,
	-1e-7, -9.99e-7, -1e-6, -1e20, -1e21, -5e-324, -math.MaxFloat64, 1.0 / 3, 318.15, 2.5e-9,
}

// edgeTable builds a table with v in every float field and rows rows.
func edgeTable(v float64, rows []core.PredictionRow) *core.PredictionTable {
	for i := range rows {
		rows[i] = core.PredictionRow{
			VF: arch.VFState(i + 1), CPI: units.CPI(v), TotalIPS: units.InstPerSec(v),
			ChipW: units.Watts(v), IdleW: units.Watts(v), DynW: units.Watts(v),
			IntervalEnergyJ: units.Joules(v), JPerInst: units.JoulesPerInst(v), EDP: units.EDP(v),
		}
	}
	return &core.PredictionTable{
		Seq: math.MaxUint64, TimeS: units.Seconds(v), DurS: units.Seconds(v), MeasuredVF: arch.VF5,
		MeasPowerW: units.Watts(v), TempK: units.Kelvin(v), Rows: rows,
	}
}

// TestRenderEdgeFloats pins the renderer against encoding/json on the
// float edge cases, on empty and nil row sets, and on random finite bit
// patterns.
func TestRenderEdgeFloats(t *testing.T) {
	for _, v := range edgeFloats {
		checkRender(t, "edge", edgeTable(v, make([]core.PredictionRow, 5)))
	}
	checkRender(t, "empty rows", edgeTable(1, []core.PredictionRow{}))
	checkRender(t, "nil rows", edgeTable(1, nil))
	tab := edgeTable(0, make([]core.PredictionRow, 1))
	tab.Seq, tab.MeasuredVF, tab.Rows[0].VF = 0, -3, -1
	checkRender(t, "zero seq, negative states", tab)

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		v := math.Float64frombits(rng.Uint64())
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		rows := make([]core.PredictionRow, 1+rng.Intn(5))
		tab := edgeTable(v, rows)
		tab.TimeS, tab.Rows[0].ChipW = units.Seconds(rng.Float64()*1e4), units.Watts(rng.NormFloat64()*100)
		checkRender(t, "random", tab)
	}
}

// TestObserveAllocs pins the per-interval render cost of Observe: one
// buffer for every JSON body, the slice of /predict bodies, the binary
// frame and the snapshot itself. encoding/json's reflection path spent
// 20 allocations here.
func TestObserveAllocs(t *testing.T) {
	d, err := daemon.AttachOpts(busyChip(t), models(t), nil, daemon.Options{HistoryCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(d, Options{})
	if err := d.RunIntervals(1); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(100, func() {
		srv.pub.Store(nil) // force a re-render of the same table
		srv.Observe(daemon.Record{})
	})
	const ceiling = 4
	if got > ceiling {
		t.Errorf("Observe allocates %.1f times per interval, want <= %d", got, ceiling)
	}
}
