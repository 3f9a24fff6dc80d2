// Package serve is the HTTP observability layer of the always-on PPEP
// service (`ppepd -serve`): it exposes the daemon's live per-VF
// performance/power/energy projections in Prometheus text format
// (/metrics), the bounded report history as JSON (/reports,
// /reports/latest), cross-VF projections (/predict?vf=N and
// /predict/batch), and loop liveness (/healthz).
//
// The deployment shape follows the paper's Section IV-E user-level
// daemon: the sampling/analyze/policy loop runs as one
// context-cancellable goroutine (daemon.Run) while this package's
// handlers only read published state — they never touch the chip or the
// models, so no endpoint can perturb sampling.
//
// Prediction reads are O(1) and lock-free: at every interval end the
// daemon publishes an immutable per-VF projection table
// (core.PredictionTable) and Observe pre-renders every response body —
// one JSON blob per VF state, the batch JSON, and the batch binary
// frame — into an immutable snapshot behind an atomic pointer. A
// /predict or /predict/batch request is then a pointer load and a
// buffer write: zero model work, zero encoding, and at most two heap
// allocations per request (pinned by TestPredictAllocs). The paper's
// one-observation-prices-all-states property is what makes this shape
// possible: the full cross-VF answer is a fixed-size table, so it can
// be materialized eagerly no matter how many clients ask.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ppep/internal/arch"
	"ppep/internal/core"
	"ppep/internal/daemon"
	"ppep/internal/fxsim"
	"ppep/internal/units"
)

// DefaultStaleAfter is the /healthz staleness threshold when Options
// leaves it zero.
const DefaultStaleAfter = 5 * time.Second

// startupGrace is how long /healthz tolerates spin-up (no completed
// interval yet) before reporting 503. Model training and workload
// binding legitimately take far longer than a steady-state interval
// gap, so the startup budget is separate from — and much larger than —
// StaleAfter.
const startupGrace = 60 * time.Second

// HTTP server timeouts. A slow or stalled client must never be able to
// pin a connection, and with them unset it could: net/http's zero
// values mean "wait forever".
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 15 * time.Second
	writeTimeout      = 15 * time.Second
	idleTimeout       = 2 * time.Minute
)

// Options tunes the server.
type Options struct {
	// StaleAfter is how long /healthz tolerates no completed interval —
	// after at least one has completed — before reporting 503 (default
	// DefaultStaleAfter when zero or negative).
	StaleAfter time.Duration
	// Now replaces time.Now for staleness arithmetic (tests).
	Now func() time.Time
}

// Server renders a daemon's state over HTTP.
type Server struct {
	d    *daemon.Daemon
	opts Options

	// lastWallNanos is the wall time of the most recent completed
	// interval, maintained by Observe from the sampling goroutine.
	lastWallNanos atomic.Int64
	startWall     time.Time

	// pub is the pre-rendered response snapshot for the current
	// prediction table, swapped whole by Observe. Handlers load it once
	// and write bytes; nil until the first interval completes.
	pub atomic.Pointer[published]
}

// published pairs one prediction table with every response body
// rendered from it. All fields are immutable after construction.
type published struct {
	table *core.PredictionTable
	// perVF holds the /predict?vf=N response bodies, index VF-1.
	perVF [][]byte
	// batchJSON and batchBin are the /predict/batch bodies in both
	// negotiable encodings.
	batchJSON []byte
	batchBin  []byte
}

// New wires a server onto the daemon: the daemon's OnInterval callback
// is chained through Observe so /healthz can detect a stalled loop and
// the prediction snapshot tracks the published table.
func New(d *daemon.Daemon, opts Options) *Server {
	if opts.StaleAfter <= 0 {
		opts.StaleAfter = DefaultStaleAfter
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	s := &Server{d: d, opts: opts, startWall: opts.Now()}
	prev := d.OnInterval
	d.OnInterval = func(rec daemon.Record) {
		s.Observe(rec)
		if prev != nil {
			prev(rec)
		}
	}
	return s
}

// Observe stamps a completed interval against the wall clock and
// refreshes the pre-rendered prediction snapshot from the daemon's
// published table. It is the daemon's OnInterval hook; exported so
// alternative loop drivers (tests, benchmarks) can call it directly.
// It runs on the sampling goroutine once per 200 ms interval — the
// rendering cost lives here precisely so no request ever pays it.
func (s *Server) Observe(daemon.Record) {
	s.lastWallNanos.Store(s.opts.Now().UnixNano())
	t := s.d.Predictions()
	if t == nil {
		return
	}
	if old := s.pub.Load(); old != nil && old.table == t {
		return // driver called Observe twice for one interval
	}
	p := &published{
		table:     t,
		perVF:     make([][]byte, len(t.Rows)),
		batchJSON: renderJSON(t),
		batchBin:  EncodeBatch(t),
	}
	for i := range t.Rows {
		p.perVF[i] = renderJSON(prediction{
			Seq:        t.Seq,
			TimeS:      t.TimeS,
			MeasuredVF: t.MeasuredVF,
			Projection: t.Rows[i],
		})
	}
	s.pub.Store(p)
}

// renderJSON encodes v in the package's response style (two-space
// indent, trailing newline). The encoded values are plain finite
// numbers by construction (core.PredictionTable carries no ±Inf/NaN),
// so an encode error is a programming bug — it degrades to an empty
// body rather than a panic on the sampling goroutine.
func renderJSON(v any) []byte {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil
	}
	return append(b, '\n')
}

// Handler returns the route mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /reports", s.handleReports)
	mux.HandleFunc("GET /reports/latest", s.handleLatest)
	mux.HandleFunc("GET /predict", s.handlePredict)
	mux.HandleFunc("GET /predict/batch", s.handlePredictBatch)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// httpServer builds the configured http.Server for addr. Split out of
// ListenAndServe so tests can assert the timeout wiring without
// binding a socket.
func (s *Server) httpServer(addr string) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// ListenAndServe serves the handler on addr until ctx is cancelled, then
// shuts down gracefully (in-flight requests get shutdownGrace). It
// returns nil on a clean ctx-driven shutdown.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	return s.run(ctx, s.httpServer(addr), nil)
}

// Serve is ListenAndServe on an existing listener — callers that need
// to know the bound address (e.g. ppep-loadgen's self-contained mode
// binding 127.0.0.1:0) listen first and pass the listener in. The
// listener is closed when serving stops.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	return s.run(ctx, s.httpServer(ln.Addr().String()), ln)
}

func (s *Server) run(ctx context.Context, srv *http.Server, ln net.Listener) error {
	const shutdownGrace = 3 * time.Second
	errc := make(chan error, 1)
	go func() {
		if ln != nil {
			errc <- srv.Serve(ln)
			return
		}
		errc <- srv.ListenAndServe()
	}()
	select {
	case err := <-errc:
		return err // bind failure or unexpected server death
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			return err
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}

// bufPool recycles response-encode buffers across requests: the
// /metrics exposition and the JSON report snapshots are rendered into a
// pooled buffer and written out in one call, so a scrape-heavy client
// cannot make the server re-grow encode buffers on every request.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getBuf() *bytes.Buffer {
	b := bufPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

// writeJSON renders v with a 200 (or the given status).
func writeJSON(w http.ResponseWriter, status int, v any) {
	b := getBuf()
	defer bufPool.Put(b)
	enc := json.NewEncoder(b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// best-effort: the client may have gone away mid-response
	_, _ = w.Write(b.Bytes())
}

// handleReports returns the retained history, oldest first. ?n=K limits
// the response to the newest K records (?n=0 is a valid empty window).
func (s *Server) handleReports(w http.ResponseWriter, r *http.Request) {
	recs := s.d.Records()
	if q, ok := queryValue(r.URL.RawQuery, "n"); ok {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			http.Error(w, fmt.Sprintf("bad n %q: want a non-negative integer", q), http.StatusBadRequest)
			return
		}
		if n < len(recs) {
			recs = recs[len(recs)-n:]
		}
	}
	writeJSON(w, http.StatusOK, recs)
}

// handleLatest returns the newest record, or 404 before the first
// interval completes.
func (s *Server) handleLatest(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.d.Latest()
	if !ok {
		http.Error(w, "no interval completed yet", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// prediction is the /predict response: one VF state's published
// projection row from the latest interval.
type prediction struct {
	Seq        uint64             `json:"seq"`
	TimeS      units.Seconds      `json:"time_s"`
	MeasuredVF arch.VFState       `json:"measured_vf"`
	Projection core.PredictionRow `json:"projection"`
}

// queryValue extracts one key's value from a raw query string without
// allocating (url.Values would build a map per request on the hot read
// path). No percent-unescaping is performed — the predict parameters
// are plain integers, and a value that needed escaping will simply
// fail integer parsing downstream. The manual byte scan (rather than
// strings.IndexByte/strings.Cut) keeps the inlining cost under the
// compiler's budget so the call disappears from handlePredict.
//
//ppep:inline
func queryValue(raw, key string) (string, bool) {
	for raw != "" {
		j := 0
		for j < len(raw) && raw[j] != '&' {
			j++
		}
		if j >= len(key) && raw[:len(key)] == key {
			if j == len(key) {
				return "", true // bare key, no '='
			}
			if raw[len(key)] == '=' {
				return raw[len(key)+1 : j], true
			}
		}
		if j < len(raw) {
			j++ // skip the '&'
		}
		raw = raw[j:]
	}
	return "", false
}

// handlePredict returns the latest published projection at ?vf=N.
// Parameter validation runs first: a malformed request is 400 whether
// or not an interval has completed yet (it used to be 404 before the
// first interval, hiding the client's bug behind the server's state).
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	q, ok := queryValue(r.URL.RawQuery, "vf")
	if !ok || q == "" {
		http.Error(w, "missing vf parameter (want vf=1..N)", http.StatusBadRequest)
		return
	}
	nStates := len(s.d.Models.Table)
	n, err := strconv.Atoi(q)
	if err != nil || n < 1 || n > nStates {
		http.Error(w, fmt.Sprintf("bad vf %q: want 1..%d", q, nStates), http.StatusBadRequest)
		return
	}
	p := s.pub.Load()
	if p == nil {
		http.Error(w, "no interval completed yet", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	// best-effort: the client may have gone away mid-response
	_, _ = w.Write(p.perVF[n-1])
}

// handlePredictBatch returns every VF state's projection in one
// response — the paper's whole point, one observation prices all
// states, as a single read. The body is pre-rendered JSON, or the
// binary frame (batchcodec.go) when the client sends
// `Accept: application/x-ppep-batch`.
func (s *Server) handlePredictBatch(w http.ResponseWriter, r *http.Request) {
	p := s.pub.Load()
	if p == nil {
		http.Error(w, "no interval completed yet", http.StatusNotFound)
		return
	}
	if strings.Contains(r.Header.Get("Accept"), BatchContentType) {
		w.Header().Set("Content-Type", BatchContentType)
		// best-effort: the client may have gone away mid-response
		_, _ = w.Write(p.batchBin)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	// best-effort: the client may have gone away mid-response
	_, _ = w.Write(p.batchJSON)
}

// health is the /healthz response body.
type health struct {
	Status    string  `json:"status"` // "ok", "starting", or "stale"
	Intervals uint64  `json:"intervals"`
	AgeS      float64 `json:"last_interval_age_s"`
}

// handleHealthz reports loop liveness. Before the first completed
// interval the status is "starting": 200 within startupGrace (model
// spin-up is slow but healthy), 503 past it (a wedged spin-up). After
// the first interval the status is "ok" while intervals keep completing
// within StaleAfter and "stale"/503 once they stop — a loop that has
// proven it can complete intervals is held to the tighter bound.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	now := s.opts.Now()
	h := health{Intervals: s.d.Counters().Intervals.Load()}
	last := s.lastWallNanos.Load()
	if last == 0 {
		h.Status = "starting"
		since := now.Sub(s.startWall)
		h.AgeS = since.Seconds()
		status := http.StatusOK
		if since > startupGrace {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, h)
		return
	}
	since := now.Sub(time.Unix(0, last))
	h.AgeS = since.Seconds()
	if since > s.opts.StaleAfter {
		h.Status = "stale"
		writeJSON(w, http.StatusServiceUnavailable, h)
		return
	}
	h.Status = "ok"
	writeJSON(w, http.StatusOK, h)
}

// handleMetrics renders the Prometheus text exposition: the published
// table's per-VF projections as gauges plus the daemon's operational
// counters. Like the predict handlers it reads only the published
// pointer and atomic counters — no daemon lock.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	b := getBuf()
	defer bufPool.Put(b)
	if p := s.pub.Load(); p != nil {
		t := p.table
		gauge(b, "ppep_measured_power", "Sensor-measured chip power over the last interval.",
			t.MeasPowerW)
		gauge(b, "ppep_diode_temp", "Socket thermal diode reading.", t.TempK.Celsius())
		gauge(b, "ppep_measured_freq", "Core clock of the VF state the last interval ran at.",
			s.d.Models.Table.Point(t.MeasuredVF).Freq.MegaHertz())
		gauge(b, "ppep_measured_vf_state", "VF state the last interval ran at.",
			float64(t.MeasuredVF))
		gauge(b, "ppep_interval_seq", "Sequence number of the last completed interval.",
			float64(t.Seq))
		perVF(b, "ppep_predicted_chip", "Predicted chip power at each VF state.",
			t.Rows, func(r core.PredictionRow) units.Watts { return r.ChipW })
		perVF(b, "ppep_predicted_idle", "Predicted idle power at each VF state.",
			t.Rows, func(r core.PredictionRow) units.Watts { return r.IdleW })
		perVF(b, "ppep_predicted", "Predicted chip-wide instructions per second at each VF state.",
			t.Rows, func(r core.PredictionRow) units.InstPerSec { return r.TotalIPS })
		perVF(b, "ppep_predicted_interval", "Predicted energy of one decision interval at each VF state.",
			t.Rows, func(r core.PredictionRow) units.Joules { return r.IntervalEnergyJ })
	}
	for _, c := range counterRows(s.d.Counters().Snapshot(), s.d.EngineStats()) {
		counter(b, c.name, c.help, c.val)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// best-effort: the client may have gone away mid-response
	_, _ = w.Write(b.Bytes())
}

// counterRow is one operational counter's exposition metadata.
type counterRow struct {
	name, help string
	val        uint64
}

// counterRows maps the daemon counter snapshot onto metric rows. The
// rows are listed in metric-name order (the Prometheus exposition is
// sorted) so no per-request sort or heap allocation is needed; the
// ordering is pinned by TestCounterRowsSorted.
func counterRows(c daemon.CounterSnapshot, eng fxsim.EngineStats) [10]counterRow {
	return [10]counterRow{
		{"ppep_analyze_errors_total", "Intervals rejected by the PPEP analysis pipeline.", c.AnalyzeErrors},
		{"ppep_hwmon_read_failures_total", "Diode reads that failed after the full retry budget.", c.HwmonFailures},
		{"ppep_hwmon_read_retries_total", "Transient thermal diode faults that were retried.", c.HwmonRetries},
		{"ppep_intervals_total", "Completed (sampled and analyzed) decision intervals.", c.Intervals},
		{"ppep_msr_read_failures_total", "MSR operations that failed after the full retry budget.", c.MSRFailures},
		{"ppep_msr_read_retries_total", "Transient MSR faults that were retried.", c.MSRRetries},
		{"ppep_policy_rejects_total", "DVFS policy decisions the chip rejected.", c.PolicyRejects},
		{"ppep_sim_fast_ticks_total", "Simulator ticks replayed by the batched quiescent-run engine.", eng.FastTicks},
		{"ppep_sim_reference_ticks_total", "Simulator ticks executed on the reference per-tick path.", eng.ReferenceTicks},
		{"ppep_skipped_intervals_total", "Intervals abandoned after exhausting the device retry budget.", c.SkippedIntervals},
	}
}

// gauge renders one gauge. The metric name is the base plus the
// canonical unit suffix of the value's type (units.Suffix), so a name
// can never disagree with the unit of the value it exports; plain
// float64 values (state numbers, sequence counters) get no suffix.
func gauge[T ~float64](b *bytes.Buffer, base, help string, v T) {
	name := base + units.Suffix(v)
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, float64(v))
}

func counter(b *bytes.Buffer, name, help string, v uint64) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

// perVF renders one gauge with a vf label per published row, with the
// unit suffix derived from the row field's type like gauge.
func perVF[T ~float64](b *bytes.Buffer, base, help string, rows []core.PredictionRow, f func(core.PredictionRow) T) {
	name := base + units.Suffix(T(0))
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	for _, r := range rows {
		fmt.Fprintf(b, "%s{vf=\"%d\"} %g\n", name, int(r.VF), float64(f(r)))
	}
}
