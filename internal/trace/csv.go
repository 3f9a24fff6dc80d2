package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"

	"ppep/internal/arch"
)

// WriteCSV serializes a trace, one row per (interval, core), with chip
// measurements repeated per row. The format is the same shape as the
// paper's logged traces (counter dump + power + temperature per sample).
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"time_s", "dur_s", "core", "vf", "busy", "temp_k", "meas_w", "true_w"}
	for _, ev := range arch.Events {
		header = append(header, fmt.Sprintf("e%d", ev.ID))
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	for _, iv := range t.Intervals {
		for core := range iv.Counters {
			row := []string{
				f(iv.TimeS), f(iv.DurS), strconv.Itoa(core),
				strconv.Itoa(int(iv.PerCoreVF[core])),
				strconv.FormatBool(iv.Busy[core]),
				f(iv.TempK), f(iv.MeasPowerW), f(iv.TruePowerW),
			}
			for _, c := range iv.Counters[core] {
				row = append(row, f(c))
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a trace written by WriteCSV. Oracle split fields that are
// not serialized (core/NB breakdown) come back zero. Rows WriteCSV never
// writes are rejected: non-finite numbers, VF states below 1, a row whose
// chip fields (dur_s, temp_k, meas_w, true_w) differ from its interval's
// first row, a core column that is not the interval's next core index,
// and anything Validate refuses. Every field of every row is parsed.
func ReadCSV(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return &Trace{}, nil
	}
	wantCols := 8 + arch.NumEvents
	if len(rows[0]) != wantCols {
		return nil, fmt.Errorf("trace: header has %d columns, want %d", len(rows[0]), wantCols)
	}
	t := &Trace{}
	var cur *Interval
	for i, row := range rows[1:] {
		// The chip-level columns, repeated on every row of an interval:
		// time_s, dur_s, temp_k, meas_w, true_w.
		var chip [5]float64
		for k, col := range [...]int{0, 1, 5, 6, 7} {
			if chip[k], err = parseFinite(row[col]); err != nil {
				return nil, fmt.Errorf("trace: row %d: %v", i+1, err)
			}
		}
		if cur == nil || cur.TimeS != chip[0] {
			t.Intervals = append(t.Intervals, Interval{
				TimeS: chip[0], DurS: chip[1], TempK: chip[2], MeasPowerW: chip[3], TruePowerW: chip[4],
			})
			cur = &t.Intervals[len(t.Intervals)-1]
		} else if chip != [5]float64{cur.TimeS, cur.DurS, cur.TempK, cur.MeasPowerW, cur.TruePowerW} {
			return nil, fmt.Errorf("trace: row %d: chip fields differ from the first row of the interval at %v s", i+1, cur.TimeS)
		}
		core, err := strconv.Atoi(row[2])
		if err != nil {
			return nil, fmt.Errorf("trace: row %d: %v", i+1, err)
		}
		if core != len(cur.Counters) {
			return nil, fmt.Errorf("trace: row %d: core %d, want %d (the interval's next core)", i+1, core, len(cur.Counters))
		}
		vf, err := strconv.Atoi(row[3])
		if err != nil {
			return nil, fmt.Errorf("trace: row %d: %v", i+1, err)
		}
		if vf < 1 {
			return nil, fmt.Errorf("trace: row %d: VF state %d below VF1", i+1, vf)
		}
		busy, err := strconv.ParseBool(row[4])
		if err != nil {
			return nil, fmt.Errorf("trace: row %d: %v", i+1, err)
		}
		var ev arch.EventVec
		for j := 0; j < arch.NumEvents; j++ {
			if ev[j], err = parseFinite(row[8+j]); err != nil {
				return nil, fmt.Errorf("trace: row %d event %d: %v", i+1, j+1, err)
			}
		}
		cur.PerCoreVF = append(cur.PerCoreVF, arch.VFState(vf))
		cur.Busy = append(cur.Busy, busy)
		cur.Counters = append(cur.Counters, ev)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// parseFinite parses a float64 field, rejecting the NaN and ±Inf
// spellings strconv accepts.
func parseFinite(s string) (float64, error) {
	x, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0, fmt.Errorf("non-finite value %q", s)
	}
	return x, nil
}
