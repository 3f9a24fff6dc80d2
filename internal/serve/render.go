package serve

import (
	"bytes"
	"math"
	"slices"
	"strconv"

	"ppep/internal/core"
)

// The /predict/batch and /predict?vf=N JSON bodies are written by hand
// rather than through encoding/json: the keys and the two-space
// indentation are constants, and each of the table's numbers is
// formatted once and then copied into every body that carries it. The
// output is byte-identical to json.MarshalIndent(v, "", "  ") plus a
// trailing newline — the package's response style — which the tests
// pin against encoding/json.

// rowFloatKeys are the JSON keys of a core.PredictionRow's float
// fields in field order (after "vf"), each with its ": " separator.
var rowFloatKeys = [...]string{
	`"cpi": `, `"ips": `, `"chip_w": `, `"idle_w": `, `"dyn_w": `,
	`"interval_energy_j": `, `"j_per_inst": `, `"edp": `,
}

// The fixed text before each header value both kinds of body carry,
// and the text around a /predict body's row.
const (
	predictSeq  = "{\n  \"seq\": "
	predictTime = ",\n  \"time_s\": "
	predictVF   = ",\n  \"measured_vf\": "
	predictRow  = ",\n  \"projection\": "
	bodyEnd     = "\n}\n"
)

// renderBodies renders the batch JSON body of t and one /predict body
// per row into a single backing buffer. Every returned body is a
// capacity-clipped subslice of that buffer, so no body can grow into
// its neighbour.
func renderBodies(t *core.PredictionTable) (batch []byte, perVF [][]byte) {
	b := make([]byte, 0, 512+len(t.Rows)*768)
	perVF = make([][]byte, len(t.Rows))
	b = append(b, predictSeq...)
	seqLo := len(b)
	b = strconv.AppendUint(b, t.Seq, 10)
	seqHi := len(b)
	b = append(b, predictTime...)
	timeLo := len(b)
	b = appendFloat(b, float64(t.TimeS))
	timeHi := len(b)
	b = append(b, ",\n  \"dur_s\": "...)
	b = appendFloat(b, float64(t.DurS))
	b = append(b, predictVF...)
	vfLo := len(b)
	b = strconv.AppendInt(b, int64(t.MeasuredVF), 10)
	vfHi := len(b)
	b = append(b, ",\n  \"measured_power_w\": "...)
	b = appendFloat(b, float64(t.MeasPowerW))
	b = append(b, ",\n  \"temp_k\": "...)
	b = appendFloat(b, float64(t.TempK))
	b = append(b, ",\n  \"rows\": "...)
	switch {
	case t.Rows == nil:
		b = append(b, "null"...)
	case len(t.Rows) == 0:
		b = append(b, "[]"...)
	default:
		b = append(b, '[')
		for i := range t.Rows {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n    "...)
			lo := len(b)
			b = appendRow(b, &t.Rows[i])
			// Until its body is rendered, perVF[i] holds the row's
			// batch text.
			perVF[i] = b[lo:]
		}
		b = append(b, "\n  ]"...)
	}
	b = append(b, bodyEnd...)
	batchEnd := len(b)

	// A /predict body is its row's batch text plus the fixed text and
	// the three header values, so this one grow keeps every body in b.
	head := len(predictSeq+predictTime+predictVF+predictRow+bodyEnd) + seqHi - seqLo + timeHi - timeLo + vfHi - vfLo
	b = slices.Grow(b, len(t.Rows)*head+batchEnd)
	// The /predict bodies reuse the formatted header values and rows. A
	// row nests one level shallower there, so its copy loses two spaces
	// of indentation after every newline.
	for i, row := range perVF {
		lo := len(b)
		b = append(b, predictSeq...)
		b = append(b, b[seqLo:seqHi]...)
		b = append(b, predictTime...)
		b = append(b, b[timeLo:timeHi]...)
		b = append(b, predictVF...)
		b = append(b, b[vfLo:vfHi]...)
		b = append(b, predictRow...)
		b = appendDedent(b, row)
		b = append(b, bodyEnd...)
		perVF[i] = b[lo:len(b):len(b)]
	}
	return b[:batchEnd:batchEnd], perVF
}

// appendRow appends one row object at the batch body's nesting depth:
// fields indented six spaces, the closing brace four.
func appendRow(b []byte, r *core.PredictionRow) []byte {
	b = append(b, "{\n      \"vf\": "...)
	b = strconv.AppendInt(b, int64(r.VF), 10)
	vals := [len(rowFloatKeys)]float64{
		float64(r.CPI), float64(r.TotalIPS), float64(r.ChipW), float64(r.IdleW),
		float64(r.DynW), float64(r.IntervalEnergyJ), float64(r.JPerInst), float64(r.EDP),
	}
	for k, v := range vals {
		b = append(b, ",\n      "...)
		b = append(b, rowFloatKeys[k]...)
		b = appendFloat(b, v)
	}
	return append(b, "\n    }"...)
}

// appendDedent appends src with the two spaces after every newline
// dropped.
func appendDedent(b, src []byte) []byte {
	for {
		i := bytes.IndexByte(src, '\n')
		if i < 0 {
			return append(b, src...)
		}
		b = append(b, src[:i+1]...)
		src = src[i+3:]
	}
}

// appendFloat formats f the way encoding/json formats a float64: the
// shortest representation that round-trips, in 'f' notation except for
// magnitudes below 1e-6 or from 1e21 up, which use 'e' notation with a
// one-digit negative exponent written e-7 rather than e-07. f must be
// finite; JSON has no spelling for NaN or ±Inf.
func appendFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
