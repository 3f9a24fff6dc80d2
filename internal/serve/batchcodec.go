// Binary encoding for /predict/batch, built on internal/tracecodec's
// float writer and cursor: a versioned magic-tagged layout, floats
// carried as raw IEEE-754 bits (so a decoded table is bit-identical to
// the published one), and a bounds-checked decoder that degrades corrupt
// input to an error instead of a panic or a partial table.
//
// Layout (all integers little-endian):
//
//	magic "PPBT" | u32 BatchSchemaVersion
//	u64 seq | f64 time_s | f64 dur_s | f64 measured_power_w | f64 temp_k
//	u32 measured_vf | u32 nRows
//	per row: u32 vf | f64 ×8 (cpi ips chip_w idle_w dyn_w interval_energy_j j_per_inst edp)
//
// Clients ask for it with `Accept: application/x-ppep-batch`; anything
// else gets JSON. The binary form is ~5× smaller than the JSON and
// needs no float parsing on the client — the load-generator's preferred
// diet at tens of thousands of requests per second.
package serve

import (
	"encoding/binary"
	"errors"
	"fmt"

	"ppep/internal/arch"
	"ppep/internal/core"
	"ppep/internal/tracecodec"
	"ppep/internal/units"
)

// BatchContentType is the negotiated media type of the binary encoding.
const BatchContentType = "application/x-ppep-batch"

// BatchSchemaVersion identifies the binary layout. Bump it whenever the
// frame layout or the semantics of any field change; old clients then
// see ErrBatchSchema instead of silently misreading.
const BatchSchemaVersion = 1

const batchMagic = "PPBT"

var (
	// ErrBatchSchema reports a frame written by a different schema
	// version — a mismatch, not damage.
	ErrBatchSchema = errors.New("serve: batch schema mismatch")
	// ErrBatchCorrupt reports structurally inconsistent bytes.
	ErrBatchCorrupt = errors.New("serve: corrupt batch frame")
)

const (
	batchHeaderSize = 4 + 4 + 8 + 4*8 + 4 + 4 // magic, version, seq, 4 floats, vf, nRows
	batchRowSize    = 4 + 8*8                 // vf + 8 floats
)

// EncodeBatch serializes a prediction table into a fresh byte slice.
// It runs once per published interval (not per request), so the single
// allocation is deliberate: the result is retained by the lock-free
// response snapshot for as long as readers hold it.
func EncodeBatch(t *core.PredictionTable) []byte {
	b := make([]byte, batchHeaderSize+batchRowSize*len(t.Rows))
	off := copy(b, batchMagic)
	binary.LittleEndian.PutUint32(b[off:], BatchSchemaVersion)
	off += 4
	binary.LittleEndian.PutUint64(b[off:], t.Seq)
	off += 8
	off = tracecodec.PutF64(b, off, float64(t.TimeS))
	off = tracecodec.PutF64(b, off, float64(t.DurS))
	off = tracecodec.PutF64(b, off, float64(t.MeasPowerW))
	off = tracecodec.PutF64(b, off, float64(t.TempK))
	binary.LittleEndian.PutUint32(b[off:], uint32(t.MeasuredVF))
	off += 4
	binary.LittleEndian.PutUint32(b[off:], uint32(len(t.Rows)))
	off += 4
	for i := range t.Rows {
		r := &t.Rows[i]
		binary.LittleEndian.PutUint32(b[off:], uint32(r.VF))
		off += 4
		off = tracecodec.PutF64(b, off, float64(r.CPI))
		off = tracecodec.PutF64(b, off, float64(r.TotalIPS))
		off = tracecodec.PutF64(b, off, float64(r.ChipW))
		off = tracecodec.PutF64(b, off, float64(r.IdleW))
		off = tracecodec.PutF64(b, off, float64(r.DynW))
		off = tracecodec.PutF64(b, off, float64(r.IntervalEnergyJ))
		off = tracecodec.PutF64(b, off, float64(r.JPerInst))
		off = tracecodec.PutF64(b, off, float64(r.EDP))
	}
	return b[:off]
}

// DecodeBatch parses a binary /predict/batch response. The decoded
// table is bit-identical to the one the server published.
func DecodeBatch(data []byte) (*core.PredictionTable, error) {
	r := tracecodec.NewReader(data)
	if string(r.Take(4)) != batchMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBatchCorrupt)
	}
	if v := r.U32(); v != BatchSchemaVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrBatchSchema, v, BatchSchemaVersion)
	}
	t := &core.PredictionTable{Seq: r.U64()}
	t.TimeS = units.Seconds(r.F64())
	t.DurS = units.Seconds(r.F64())
	t.MeasPowerW = units.Watts(r.F64())
	t.TempK = units.Kelvin(r.F64())
	t.MeasuredVF = arch.VFState(r.U32())
	nRows := int(r.U32())
	if !r.OK() {
		return nil, fmt.Errorf("%w: truncated header", ErrBatchCorrupt)
	}
	if nRows < 0 || nRows > r.Rem()/batchRowSize {
		return nil, fmt.Errorf("%w: row count %d exceeds data", ErrBatchCorrupt, nRows)
	}
	if nRows > 0 {
		t.Rows = make([]core.PredictionRow, nRows)
	}
	for i := range t.Rows {
		row := &t.Rows[i]
		row.VF = arch.VFState(r.U32())
		row.CPI = units.CPI(r.F64())
		row.TotalIPS = units.InstPerSec(r.F64())
		row.ChipW = units.Watts(r.F64())
		row.IdleW = units.Watts(r.F64())
		row.DynW = units.Watts(r.F64())
		row.IntervalEnergyJ = units.Joules(r.F64())
		row.JPerInst = units.JoulesPerInst(r.F64())
		row.EDP = units.EDP(r.F64())
	}
	if !r.OK() {
		return nil, fmt.Errorf("%w: truncated rows", ErrBatchCorrupt)
	}
	if rem := r.Rem(); rem != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBatchCorrupt, rem)
	}
	return t, nil
}
