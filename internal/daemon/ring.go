package daemon

// Ring is a capacity-bounded FIFO over interval records. A long-running
// daemon pushes one record per 200 ms decision interval; once the ring is
// full the oldest record is overwritten, so memory stays bounded by the
// capacity no matter how long the service runs. With keepAll set the ring
// degenerates into an append-only slice — the batch behaviour finite
// experiments (RunIntervals) rely on.
type Ring[T any] struct {
	buf     []T
	head    int // index of the oldest element once the ring is full
	keepAll bool
}

// NewRing returns a ring bounded at cap elements. cap <= 0 keeps
// everything (batch mode).
func NewRing[T any](capacity int) *Ring[T] {
	if capacity <= 0 {
		return &Ring[T]{keepAll: true}
	}
	return &Ring[T]{buf: make([]T, 0, capacity)}
}

// Push appends a record, evicting the oldest when the ring is full.
func (r *Ring[T]) Push(v T) {
	if r.keepAll {
		r.buf = append(r.buf, v)
		return
	}
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.head] = v
	r.head = (r.head + 1) % len(r.buf)
}

// Len returns the number of live records.
func (r *Ring[T]) Len() int { return len(r.buf) }

// At returns the i-th record, oldest first (0 <= i < Len()).
// keepAll rings never rotate, so head stays 0 and this is a plain index.
func (r *Ring[T]) At(i int) T { return r.buf[(r.head+i)%len(r.buf)] }

// Last returns the newest record and whether one exists.
func (r *Ring[T]) Last() (T, bool) {
	var zero T
	if len(r.buf) == 0 {
		return zero, false
	}
	return r.At(len(r.buf) - 1), true
}

// Snapshot copies out the live records, oldest first.
func (r *Ring[T]) Snapshot() []T {
	out := make([]T, len(r.buf))
	for i := range out {
		out[i] = r.At(i)
	}
	return out
}
