package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// median returns the middle of xs (mean of the two middles for even
// lengths), or 0 for no samples. xs is sorted in place.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// tail returns the highest of the standard percentiles that still has
// at least ten samples beyond it, and the quantile chosen.
func tail(xs []float64) (value, q float64) {
	q = 0.5
	for _, c := range []float64{0.9, 0.99, 0.999, 0.9999} {
		if float64(len(xs))*(1-c) >= 10 {
			q = c
		}
	}
	return quantile(xs, q), q
}

// accuracy accumulates the next-interval check: relative absolute errors
// of predicted power and interval energy against what was measured.
type accuracy struct {
	power, energy float64
	n             int
}

func (a *accuracy) add(predW, measW, predJ, measJ float64) {
	a.power += math.Abs(predW-measW) / measW
	a.energy += math.Abs(predJ-measJ) / measJ
	a.n++
}

// record stores the averages as power_pred_aae and energy_pred_aae.
func (a *accuracy) record(rep *report) {
	rep.metrics["power_pred_aae"] = a.power / float64(a.n)
	rep.metrics["energy_pred_aae"] = a.energy / float64(a.n)
}

// maxSamples bounds the values a sample set keeps.
const maxSamples = 1 << 14

// samples records timings in seconds: the count and sum of all of them,
// and a uniform reservoir of at most maxSamples for quantiles. Memory
// stays flat however many operations the host manages, so max_rss_mb
// does not grow with throughput.
type samples struct {
	xs  []float64
	n   int
	sum float64
	rng uint64 // xorshift64 state for reservoir replacement
}

func newSamples() *samples {
	return &samples{xs: make([]float64, 0, maxSamples), rng: 0x9e3779b97f4a7c15}
}

func (s *samples) add(d time.Duration) {
	x := d.Seconds()
	s.n++
	s.sum += x
	if len(s.xs) < maxSamples {
		s.xs = append(s.xs, x)
		return
	}
	s.rng ^= s.rng << 13
	s.rng ^= s.rng >> 7
	s.rng ^= s.rng << 17
	if j := s.rng % uint64(s.n); j < maxSamples {
		s.xs[j] = x
	}
}

// median is the median in seconds; call it once recording is over.
func (s *samples) median() float64 { return median(s.xs) }

// perSecond is operations per second of the time they took.
func (s *samples) perSecond() float64 { return float64(s.n) / s.sum }

// recordTail stores the tail of s, times scale, as metric name, and
// prints which percentile it is and over how many samples.
func recordTail(rep *report, name string, s *samples, scale float64) {
	v, q := tail(s.xs)
	rep.metrics[name] = v * scale
	fmt.Printf("tail %s: p%g of %d samples (%d recorded)\n", name, 100*q, len(s.xs), s.n)
}

// maxRSSMB is the peak resident set of this process in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// setupRuns is how many times each workload sets up per run; setup_s
// is the median.
const setupRuns = 5

// repeatSetup builds the workload's state setupRuns times, tearing down
// all but the last, and returns the last state with the median build
// time in seconds.
func repeatSetup[T any](build func() (T, error), teardown func(T)) (T, float64, error) {
	var (
		st    T
		times []float64
	)
	for i := 0; i < setupRuns; i++ {
		if i > 0 {
			teardown(st)
		}
		t0 := time.Now()
		var err error
		st, err = build()
		if err != nil {
			return st, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return st, median(times), nil
}

// gcStats captures the Go runtime counters a run's per-layer metrics
// are differences of.
type gcStats struct {
	mallocs, numGC uint64
	pauseNs        uint64
}

func readGC() gcStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcStats{mallocs: ms.Mallocs, numGC: uint64(ms.NumGC), pauseNs: ms.PauseTotalNs}
}

// recordGC stores the go.* per-layer metrics for ops operations
// between two readings.
func recordGC(rep *report, before, after gcStats, ops int) {
	if ops > 0 {
		rep.metrics["go.allocs_per_op"] = float64(after.mallocs-before.mallocs) / float64(ops)
	}
	rep.metrics["go.gc_cycles"] = float64(after.numGC - before.numGC)
	rep.metrics["go.gc_pause_ms"] = float64(after.pauseNs-before.pauseNs) / 1e6
}

// tracer keeps spans in memory: each has a name, a start and end
// relative to the tracer's epoch, and the span that caused it. A nil
// tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	epoch time.Time
	names []string
	index map[string]int32
	spans []span
}

type span struct {
	name       int32
	parent     int32 // -1 for a root span
	start, end time.Duration
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), index: map[string]int32{}, spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	id, ok := t.index[name]
	if !ok {
		id = int32(len(t.names))
		t.index[name] = id
		t.names = append(t.names, name)
	}
	t.spans = append(t.spans, span{name: id, parent: int32(parent), start: time.Since(t.epoch), end: -1})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].end = time.Since(t.epoch)
}

// add records a root span of duration d that ends now: the sum of
// several timed pieces that are too short to open a span each.
func (t *tracer) add(name string, d time.Duration) {
	if t == nil {
		return
	}
	id := t.begin(name, -1)
	t.spans[id].end = t.spans[id].start
	t.spans[id].start -= d
}

// durations returns every closed span of one name, in microseconds.
func (t *tracer) durations(name string) []float64 {
	id, ok := t.index[name]
	if !ok {
		return nil
	}
	var out []float64
	for _, s := range t.spans {
		if s.name == id && s.end >= 0 {
			out = append(out, float64(s.end-s.start)/1e3)
		}
	}
	return out
}

// medianUS is the median duration of a span name in microseconds.
func (t *tracer) medianUS(name string) float64 { return median(t.durations(name)) }

// summary prints one line per span name: count, median duration, and
// median self time (duration minus the part its child spans cover).
func (t *tracer) summary() {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 && s.end >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	durs := map[string][]float64{}
	selfs := map[string][]float64{}
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		n := t.names[s.name]
		durs[n] = append(durs[n], float64(s.end-s.start)/1e3)
		selfs[n] = append(selfs[n], float64(s.end-s.start-child[i])/1e3)
	}
	for _, n := range sortedKeys(durs) {
		fmt.Printf("span %-26s n=%-7d median=%10.2fus self=%10.2fus\n",
			n, len(durs[n]), median(durs[n]), median(selfs[n]))
	}
}
