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
// writes are rejected: non-finite numbers, VF states below 1, and
// anything Validate refuses.
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
		timeS, err := parseFinite(row[0])
		if err != nil {
			return nil, fmt.Errorf("trace: row %d: %v", i+1, err)
		}
		if cur == nil || cur.TimeS != timeS {
			t.Intervals = append(t.Intervals, Interval{TimeS: timeS})
			cur = &t.Intervals[len(t.Intervals)-1]
			if cur.DurS, err = parseFinite(row[1]); err != nil {
				return nil, fmt.Errorf("trace: row %d: %v", i+1, err)
			}
			if cur.TempK, err = parseFinite(row[5]); err != nil {
				return nil, fmt.Errorf("trace: row %d: %v", i+1, err)
			}
			if cur.MeasPowerW, err = parseFinite(row[6]); err != nil {
				return nil, fmt.Errorf("trace: row %d: %v", i+1, err)
			}
			if cur.TruePowerW, err = parseFinite(row[7]); err != nil {
				return nil, fmt.Errorf("trace: row %d: %v", i+1, err)
			}
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
