// Package tracecodec is a compact, versioned binary codec for
// trace.Trace values, used by the on-disk simulation cache
// (internal/simcache). Floats round-trip through their raw IEEE-754
// bits, so a decoded trace is bit-identical to the freshly simulated
// one — Trace.Fingerprint of the decode equals the original, which is
// what lets the cache stay invisible to the golden-equivalence tests.
//
// Layout (all integers little-endian):
//
//	magic "PPTC" | u32 SchemaVersion | u32 arch.NumEvents
//	u16-len Run | u16-len Suite | u16-len Platform
//	u32 nIntervals
//	per interval: u32 frameLen | frame
//
// and each frame is
//
//	f64 ×7 (TimeS DurS TempK MeasPowerW TruePowerW TrueCoreW TrueNBW)
//	u32 nVF   | u64 ×nVF        (two's-complement VFState)
//	u32 nCtr  | f64 ×NumEvents ×nCtr
//	u32 nBusy | byte ×nBusy     (strictly 0 or 1)
//	u32 nDyn  | f64 ×nDyn
//
// Decode never panics on truncated or corrupted input and never
// returns a partial trace: any structural inconsistency yields an
// error wrapping ErrCorrupt (or ErrSchema for a version/event-count
// mismatch), and the caller treats it as a cache miss.
package tracecodec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"ppep/internal/arch"
	"ppep/internal/trace"
)

// SchemaVersion identifies the encoding and the simulator model behind
// it. Bump it whenever the layout, the fingerprint algorithm feeding
// cache keys, or the semantics of any encoded field change — and
// whenever a change to the simulator moves the fxsim golden fingerprints
// (internal/fxsim/golden_test.go pins the version next to them). The
// cache key holds no other simulator-model component, so only this bump
// keeps a warm cache from serving traces of the old model. Old entries
// then miss (the version is part of the key) or decode as ErrSchema, and
// are re-simulated (docs/CACHE.md), and simcache.Open removes sealed
// segments written under another version. Version 2: jitter interpolated
// linearly in the multiplier between segment knots. Version 3: jittered
// rates evaluated as lines in the segment position, core dynamic power
// folded per operating point, and the leakage temperature factor
// evaluated once per 20 ms sensor window.
const SchemaVersion = 3

const magic = "PPTC"

var (
	// ErrSchema reports an entry written by a different codec schema or
	// event-vector width. It is a mismatch, not damage.
	ErrSchema = errors.New("tracecodec: schema mismatch")
	// ErrCorrupt reports structurally inconsistent bytes (truncation,
	// bad magic, counts that exceed the data present).
	ErrCorrupt = errors.New("tracecodec: corrupt entry")
	// ErrTooLong reports a trace whose Run/Suite/Platform name exceeds
	// the u16 length prefix; campaign names are all far shorter.
	ErrTooLong = errors.New("tracecodec: name exceeds 64 KiB")
)

const (
	headerFixed = 4 + 4 + 4 + 3*2 + 4 // magic, version, nEvents, 3 name lengths, nIntervals
	frameFixed  = 7*8 + 4*4           // 7 floats + 4 counts
)

// An Encoder carries a reusable scratch buffer across Encode calls; the
// returned slice aliases it and is valid until the next Encode. The
// zero value is ready to use.
type Encoder struct {
	buf []byte
}

func encodedSize(t *trace.Trace) int {
	n := headerFixed + len(t.Run) + len(t.Suite) + len(t.Platform)
	for i := range t.Intervals {
		n += 4 + frameSize(&t.Intervals[i])
	}
	return n
}

func frameSize(iv *trace.Interval) int {
	return frameFixed +
		8*len(iv.PerCoreVF) +
		8*arch.NumEvents*len(iv.Counters) +
		len(iv.Busy) +
		8*len(iv.TrueCoreDynW)
}

// ensure grows the scratch buffer to at least n usable bytes. It is the
// encoder's sanctioned amortized slow path: after the first call at a
// given campaign shape, subsequent Encodes reuse the buffer.
func (e *Encoder) ensure(n int) {
	if cap(e.buf) < n {
		e.buf = make([]byte, n)
	}
	e.buf = e.buf[:cap(e.buf)]
}

// Encode serializes t into the encoder's scratch buffer and returns the
// encoded bytes (aliasing the buffer — copy before the next Encode if
// retained). The error is non-nil only for names longer than 64 KiB.
//
//ppep:hotpath
func (e *Encoder) Encode(t *trace.Trace) ([]byte, error) {
	if len(t.Run) > math.MaxUint16 || len(t.Suite) > math.MaxUint16 || len(t.Platform) > math.MaxUint16 {
		return nil, ErrTooLong
	}
	// Size on its own line: the allow below must cover only ensure's
	// amortized growth, while encodedSize stays hotpath-verified.
	n := encodedSize(t)
	e.ensure(n) //ppep:allow hotpath amortized buffer growth; steady-state Encodes reuse the scratch buffer
	b := e.buf
	off := copy(b, magic)
	binary.LittleEndian.PutUint32(b[off:], SchemaVersion)
	off += 4
	binary.LittleEndian.PutUint32(b[off:], arch.NumEvents)
	off += 4
	off = putName(b, off, t.Run)
	off = putName(b, off, t.Suite)
	off = putName(b, off, t.Platform)
	binary.LittleEndian.PutUint32(b[off:], uint32(len(t.Intervals)))
	off += 4
	for i := range t.Intervals {
		iv := &t.Intervals[i]
		binary.LittleEndian.PutUint32(b[off:], uint32(frameSize(iv)))
		off += 4
		off = putFrame(b, off, iv)
	}
	return b[:off], nil
}

func putName(b []byte, off int, s string) int {
	binary.LittleEndian.PutUint16(b[off:], uint16(len(s)))
	off += 2
	return off + copy(b[off:], s)
}

// PutF64 writes one float as raw IEEE-754 bits at off and returns the
// advanced offset.
//
//ppep:inline
func PutF64(b []byte, off int, x float64) int {
	binary.LittleEndian.PutUint64(b[off:], math.Float64bits(x))
	return off + 8
}

func putFrame(b []byte, off int, iv *trace.Interval) int {
	off = PutF64(b, off, iv.TimeS)
	off = PutF64(b, off, iv.DurS)
	off = PutF64(b, off, iv.TempK)
	off = PutF64(b, off, iv.MeasPowerW)
	off = PutF64(b, off, iv.TruePowerW)
	off = PutF64(b, off, iv.TrueCoreW)
	off = PutF64(b, off, iv.TrueNBW)
	binary.LittleEndian.PutUint32(b[off:], uint32(len(iv.PerCoreVF)))
	off += 4
	for _, s := range iv.PerCoreVF {
		binary.LittleEndian.PutUint64(b[off:], uint64(int64(s)))
		off += 8
	}
	binary.LittleEndian.PutUint32(b[off:], uint32(len(iv.Counters)))
	off += 4
	for ci := range iv.Counters {
		for _, x := range iv.Counters[ci] {
			off = PutF64(b, off, x)
		}
	}
	binary.LittleEndian.PutUint32(b[off:], uint32(len(iv.Busy)))
	off += 4
	for _, busy := range iv.Busy {
		if busy {
			b[off] = 1
		} else {
			b[off] = 0
		}
		off++
	}
	binary.LittleEndian.PutUint32(b[off:], uint32(len(iv.TrueCoreDynW)))
	off += 4
	for _, w := range iv.TrueCoreDynW {
		off = PutF64(b, off, w)
	}
	return off
}

// Reader is a bounds-checked cursor over an encoded buffer; every Take
// past the end sets OK to false instead of slicing out of range, so
// corrupt input degrades to an error. The serving layer's batch frames
// are read through it too.
type Reader struct {
	b   []byte
	off int
	ok  bool
}

// NewReader returns a cursor at the start of b.
func NewReader(b []byte) *Reader { return &Reader{b: b, ok: true} }

// OK reports whether every read so far stayed within the buffer.
func (r *Reader) OK() bool { return r.ok }

// Take yields the next n bytes, or clears OK and returns nil past the
// end; small enough that U32/U64/F64 collapse to straight-line loads.
//
//ppep:inline
func (r *Reader) Take(n int) []byte {
	if !r.ok || n < 0 || len(r.b)-r.off < n {
		r.ok = false
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

func (r *Reader) u16() uint16 {
	if s := r.Take(2); s != nil {
		return binary.LittleEndian.Uint16(s)
	}
	return 0
}

// U32 reads a little-endian uint32 (0 past the end).
//
//ppep:inline
func (r *Reader) U32() uint32 {
	if s := r.Take(4); s != nil {
		return binary.LittleEndian.Uint32(s)
	}
	return 0
}

// U64 reads a little-endian uint64 (0 past the end).
//
//ppep:inline
func (r *Reader) U64() uint64 {
	if s := r.Take(8); s != nil {
		return binary.LittleEndian.Uint64(s)
	}
	return 0
}

// F64 reads a float carried as raw IEEE-754 bits (0 past the end).
//
//ppep:inline
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

func (r *Reader) name() string { return string(r.Take(int(r.u16()))) }

// Rem returns the unread byte count.
func (r *Reader) Rem() int { return len(r.b) - r.off }

// Decode parses an encoded trace. Zero-length per-interval slices
// decode as nil (the codec does not distinguish nil from empty).
func Decode(data []byte) (*trace.Trace, error) {
	r := NewReader(data)
	if string(r.Take(4)) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := r.U32(); v != SchemaVersion {
		return nil, fmt.Errorf("%w: schema version %d, want %d", ErrSchema, v, SchemaVersion)
	}
	if ne := r.U32(); ne != arch.NumEvents {
		return nil, fmt.Errorf("%w: event vector width %d, want %d", ErrSchema, ne, arch.NumEvents)
	}
	t := &trace.Trace{}
	t.Run = r.name()
	t.Suite = r.name()
	t.Platform = r.name()
	nIv := int(r.U32())
	if !r.ok {
		return nil, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	// Each interval costs at least 4 (frameLen) + frameFixed bytes, so a
	// count implying more data than present is rejected before allocating.
	if nIv < 0 || nIv > r.Rem()/(4+frameFixed) {
		return nil, fmt.Errorf("%w: interval count %d exceeds data", ErrCorrupt, nIv)
	}
	if nIv > 0 {
		t.Intervals = make([]trace.Interval, nIv)
	}
	for i := range t.Intervals {
		frameLen := int(r.U32())
		frame := r.Take(frameLen)
		if frame == nil {
			return nil, fmt.Errorf("%w: truncated at interval %d", ErrCorrupt, i)
		}
		if err := decodeFrame(frame, &t.Intervals[i]); err != nil {
			return nil, fmt.Errorf("interval %d: %w", i, err)
		}
	}
	if r.Rem() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, r.Rem())
	}
	return t, nil
}

func decodeFrame(frame []byte, iv *trace.Interval) error {
	r := NewReader(frame)
	iv.TimeS = r.F64()
	iv.DurS = r.F64()
	iv.TempK = r.F64()
	iv.MeasPowerW = r.F64()
	iv.TruePowerW = r.F64()
	iv.TrueCoreW = r.F64()
	iv.TrueNBW = r.F64()

	nVF := int(r.U32())
	if !r.ok || nVF < 0 || nVF > r.Rem()/8 {
		return fmt.Errorf("%w: bad VF count", ErrCorrupt)
	}
	if nVF > 0 {
		iv.PerCoreVF = make([]arch.VFState, nVF)
	}
	for i := range iv.PerCoreVF {
		iv.PerCoreVF[i] = arch.VFState(int64(r.U64()))
	}

	nCtr := int(r.U32())
	if !r.ok || nCtr < 0 || nCtr > r.Rem()/(8*arch.NumEvents) {
		return fmt.Errorf("%w: bad counter count", ErrCorrupt)
	}
	if nCtr > 0 {
		iv.Counters = make([]arch.EventVec, nCtr)
	}
	for i := range iv.Counters {
		for j := range iv.Counters[i] {
			iv.Counters[i][j] = r.F64()
		}
	}

	nBusy := int(r.U32())
	if !r.ok || nBusy < 0 || nBusy > r.Rem() {
		return fmt.Errorf("%w: bad busy count", ErrCorrupt)
	}
	if nBusy > 0 {
		iv.Busy = make([]bool, nBusy)
	}
	for i := range iv.Busy {
		switch b := r.Take(1); {
		case b == nil:
			return fmt.Errorf("%w: truncated busy flags", ErrCorrupt)
		case b[0] == 1:
			iv.Busy[i] = true
		case b[0] != 0:
			return fmt.Errorf("%w: busy flag byte %#x", ErrCorrupt, b[0])
		}
	}

	nDyn := int(r.U32())
	if !r.ok || nDyn < 0 || nDyn > r.Rem()/8 {
		return fmt.Errorf("%w: bad dyn-power count", ErrCorrupt)
	}
	if nDyn > 0 {
		iv.TrueCoreDynW = make([]float64, nDyn)
	}
	for i := range iv.TrueCoreDynW {
		iv.TrueCoreDynW[i] = r.F64()
	}

	if !r.ok {
		return fmt.Errorf("%w: truncated frame", ErrCorrupt)
	}
	if r.Rem() != 0 {
		return fmt.Errorf("%w: %d trailing frame bytes", ErrCorrupt, r.Rem())
	}
	return nil
}
