package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"time"

	"ppep/internal/arch"
	"ppep/internal/core"
	"ppep/internal/daemon"
	"ppep/internal/fxsim"
	"ppep/internal/hwmon"
	"ppep/internal/msr"
	"ppep/internal/serve"
	"ppep/internal/trace"
	"ppep/internal/workload"
)

// ppepd workload sizing.
const (
	// ppepdScored is the fixed prefix of intervals scored for accuracy.
	ppepdScored = 1000
	// ppepdWarmup intervals run during set-up, before any timing.
	ppepdWarmup = 20
	// metricsEvery is how often (in intervals) /metrics is scraped.
	metricsEvery = 25
)

// vfCycle is the deterministic DVFS policy: the chip moves to the next
// state of this cycle after every interval, so every next interval runs
// at a different VF state and every score is a cross-VF prediction.
var vfCycle = []arch.VFState{5, 2, 4, 1, 3}

// newBusyChip builds the ppepd chip: a 433x2 endless workload on a warm
// FX-8320, as ppep-loadgen -self does, with the run's sensor seed.
func newBusyChip(seed int64) (*fxsim.Chip, error) {
	cfg := fxsim.DefaultFX8320Config()
	cfg.SensorSeed = seed
	chip := fxsim.New(cfg)
	chip.SetTempK(318)
	run := workload.MultiInstance("433", 2)
	for i := range run.Members {
		b := *run.Members[i].Bench
		b.Instructions = 1e15 // endless: the chip stays busy
		run.Members[i].Bench = &b
	}
	if _, err := chip.PlaceRun(run, fxsim.PlaceScatter, true); err != nil {
		return nil, err
	}
	return chip, nil
}

// node is one ppepd service: chip, daemon, HTTP layer on a loopback
// port, and a keep-alive client.
type node struct {
	models    *core.Models
	d         *daemon.Daemon
	srv       *serve.Server
	base      string
	client    *http.Client
	transport *http.Transport
	cancel    context.CancelFunc
	served    chan error
	// step is the policy's position in vfCycle; policyErrs counts
	// rejected P-state requests.
	step       int
	policyErrs int
}

func newNode(cfg config) (*node, error) {
	models, err := loadModels(cfg.models)
	if err != nil {
		return nil, err
	}
	chip, err := newBusyChip(cfg.seed)
	if err != nil {
		return nil, err
	}
	n := &node{models: models}
	policy := daemon.PolicyFunc(func(c *fxsim.Chip, _ trace.Interval, _ *core.Report) {
		if err := c.SetAllPStates(vfCycle[n.step%len(vfCycle)]); err != nil {
			n.policyErrs++
		}
		n.step++
	})
	n.d, err = daemon.AttachOpts(chip, models, policy, daemon.Options{HistoryCap: 64})
	if err != nil {
		return nil, err
	}
	n.srv = serve.New(n.d, serve.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	n.cancel = cancel
	n.served = make(chan error, 1)
	go serveUntil(ctx, n.srv, ln, n.served)
	n.base = "http://" + ln.Addr().String()
	n.transport = &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	n.client = &http.Client{Transport: n.transport, Timeout: 10 * time.Second}
	if err := n.d.RunIntervals(ppepdWarmup); err != nil {
		n.close()
		return nil, err
	}
	if _, _, err := n.get("/predict/batch", true); err != nil {
		n.close()
		return nil, err
	}
	return n, nil
}

// serveUntil serves HTTP on ln until ctx is cancelled and reports how
// serving ended on done.
func serveUntil(ctx context.Context, srv *serve.Server, ln net.Listener, done chan<- error) {
	done <- srv.Serve(ctx, ln)
}

// close shuts the client and the server down and waits for the server
// goroutine to return.
func (n *node) close() {
	n.transport.CloseIdleConnections()
	n.cancel()
	if err := <-n.served; err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
	}
}

// get sends one request over the keep-alive connection and returns the
// body; a non-200 status is an error.
func (n *node) get(path string, binary bool) ([]byte, time.Duration, error) {
	req, err := http.NewRequest(http.MethodGet, n.base+path, nil)
	if err != nil {
		return nil, 0, err
	}
	if binary {
		req.Header.Set("Accept", serve.BatchContentType)
	}
	t0 := time.Now()
	resp, err := n.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	dt := time.Since(t0)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s: status %d", path, resp.StatusCode)
	}
	return body, dt, err
}

// sameTable reports whether two prediction tables are bit-identical.
func sameTable(a, b *core.PredictionTable) bool {
	if a.Seq != b.Seq || a.MeasuredVF != b.MeasuredVF || len(a.Rows) != len(b.Rows) ||
		!sameBits(float64(a.TimeS), float64(b.TimeS), float64(a.DurS), float64(b.DurS),
			float64(a.MeasPowerW), float64(b.MeasPowerW), float64(a.TempK), float64(b.TempK)) {
		return false
	}
	for i := range a.Rows {
		x, y := &a.Rows[i], &b.Rows[i]
		if x.VF != y.VF || !sameBits(float64(x.CPI), float64(y.CPI), float64(x.TotalIPS), float64(y.TotalIPS),
			float64(x.ChipW), float64(y.ChipW), float64(x.IdleW), float64(y.IdleW),
			float64(x.DynW), float64(y.DynW), float64(x.IntervalEnergyJ), float64(y.IntervalEnergyJ),
			float64(x.JPerInst), float64(y.JPerInst), float64(x.EDP), float64(y.EDP)) {
			return false
		}
	}
	return true
}

// sameBits compares consecutive pairs of floats by their IEEE-754 bits.
func sameBits(pairs ...float64) bool {
	for i := 0; i+1 < len(pairs); i += 2 {
		if math.Float64bits(pairs[i]) != math.Float64bits(pairs[i+1]) {
			return false
		}
	}
	return true
}

// predictResponse is the /predict?vf=N body.
type predictResponse struct {
	Seq        uint64             `json:"seq"`
	Projection core.PredictionRow `json:"projection"`
}

// requests sends the per-interval read set, checks every answer against
// the published table t, and records each prediction round trip in lat.
func (n *node) requests(t *core.PredictionTable, scrape bool, lat *samples) error {
	body, dt, err := n.get("/predict/batch", true)
	if err != nil {
		return err
	}
	lat.add(dt)
	got, err := serve.DecodeBatch(body)
	if err != nil {
		return err
	}
	if !sameTable(got, t) {
		return fmt.Errorf("seq %d: /predict/batch differs from the published table", t.Seq)
	}
	for vf := 1; vf <= len(t.Rows); vf++ {
		body, dt, err := n.get("/predict?vf="+strconv.Itoa(vf), false)
		if err != nil {
			return err
		}
		lat.add(dt)
		var p predictResponse
		if err := json.Unmarshal(body, &p); err != nil {
			return err
		}
		want := t.Rows[vf-1]
		if p.Seq != t.Seq || p.Projection.VF != want.VF ||
			!sameBits(float64(p.Projection.ChipW), float64(want.ChipW),
				float64(p.Projection.IntervalEnergyJ), float64(want.IntervalEnergyJ)) {
			return fmt.Errorf("seq %d: /predict?vf=%d differs from the published table", t.Seq, vf)
		}
	}
	if scrape {
		body, _, err := n.get("/metrics", false)
		if err != nil {
			return err
		}
		if !bytes.Contains(body, []byte("ppep_intervals_total")) {
			return fmt.Errorf("seq %d: /metrics lacks ppep_intervals_total", t.Seq)
		}
	}
	return nil
}

// scoreTable adds the next-interval check for one interval: the row prev
// published for the VF state that ran next, against cur's measurement.
func scoreTable(acc *accuracy, prev, cur *core.PredictionTable) {
	pred := prev.Row(cur.MeasuredVF)
	meas := float64(cur.MeasPowerW)
	acc.add(float64(pred.ChipW), meas, float64(pred.IntervalEnergyJ), meas*float64(cur.DurS))
}

func runPPEPD(cfg config) (*report, error) {
	rep := newReport()
	n, setupS, err := repeatSetup(func() (*node, error) { return newNode(cfg) }, (*node).close)
	if err != nil {
		return nil, err
	}
	defer n.close()
	rep.metrics["setup_s"] = setupS

	var tw *twin
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		if tw, err = newTwin(cfg, n, tr); err != nil {
			return nil, err
		}
	}
	var (
		acc       accuracy
		intervals = newSamples()
		predict   = newSamples()
		prev      = n.d.Predictions()
		deadline  = time.Duration(cfg.seconds * float64(time.Second))
		gc0       = readGC()
		start     = time.Now()
	)
	for i := 1; time.Since(start) < deadline || i <= ppepdScored; i++ {
		rep.attempted++
		sp := tr.begin("daemon.interval", -1)
		tw.setParent(sp)
		t0 := time.Now()
		err := n.d.RunIntervals(1)
		intervals.add(time.Since(t0))
		tr.end(sp)
		if !rep.check(err == nil, "interval %d: %v", i, err) {
			continue
		}
		cur := n.d.Predictions()
		if i <= ppepdScored {
			scoreTable(&acc, prev, cur)
		}
		prev = cur

		sp = tr.begin("serve.requests", -1)
		err = n.requests(cur, i%metricsEvery == 0, predict)
		tr.end(sp)
		rep.check(err == nil, "interval %d: %v", i, err)
		if tw != nil {
			if err := tw.step(cur, i%metricsEvery == 0); err != nil {
				return nil, err
			}
		}
	}
	gc1 := readGC()
	rep.check(n.policyErrs == 0, "%d policy P-state requests rejected", n.policyErrs)
	rep.metrics["op_ms"] = intervals.median() * 1e3
	rep.metrics["ops_per_s"] = intervals.perSecond()
	acc.record(rep)

	c := n.d.Counters().Snapshot()
	rep.check(c.AnalyzeErrors == 0 && c.SkippedIntervals == 0,
		"daemon counters: %d analyze errors, %d skipped intervals", c.AnalyzeErrors, c.SkippedIntervals)
	if cfg.trace {
		recordGC(rep, gc0, gc1, intervals.n)
		rep.metrics["daemon.retries"] = float64(c.MSRRetries + c.HwmonRetries)
		rep.metrics["daemon.failures"] = float64(c.MSRFailures + c.HwmonFailures)
		rep.metrics["daemon.skips"] = float64(c.SkippedIntervals)
		rep.metrics["daemon.analyze_errors"] = float64(c.AnalyzeErrors)
		es := n.d.EngineStats()
		rep.metrics["fxsim.fast_tick_share"] = float64(es.FastTicks) / float64(es.FastTicks+es.ReferenceTicks)
		rep.metrics["serve.predict_us"] = predict.median() * 1e6
		recordTail(rep, "op_tail_ms", intervals, 1e3)
		recordTail(rep, "read_tail_us", predict, 1e6)
		tw.record(rep, intervals.median()*1e6)
		tr.summary()
	}
	rep.metrics["max_rss_mb"] = maxRSSMB()
	return rep, nil
}

// twin holds the traced run's side measurements: a second chip built
// like the daemon's (same seed, workload, counter files through msr and
// the same VF sequence), stepped through the daemon's device path one
// stage at a time, plus in-process handler calls and re-analysis of the
// daemon's own intervals.
type twin struct {
	n       *node
	tr      *tracer
	chip    *fxsim.Chip
	sampler *daemon.Sampler
	diode   *hwmon.Sensor
	iv      trace.Interval
	rep     core.Report
	handler http.Handler
	reqs    []*http.Request
	metrics *http.Request
	// parent is the current interval span; the render wrapper nests
	// its span under it.
	parent int
	sizes  map[string]float64
}

func newTwin(cfg config, n *node, tr *tracer) (*twin, error) {
	chip, err := newBusyChip(cfg.seed)
	if err != nil {
		return nil, err
	}
	s, err := daemon.NewSampler(msr.Open(chip), chip.Topology().NumCores(), chip.VFTable())
	if err != nil {
		return nil, err
	}
	tw := &twin{n: n, tr: tr, chip: chip, sampler: s, diode: hwmon.Open(chip),
		handler: n.srv.Handler(), parent: -1, sizes: map[string]float64{}}
	mk := func(path string, binary bool) *http.Request {
		r := httptest.NewRequest(http.MethodGet, path, nil)
		if binary {
			r.Header.Set("Accept", serve.BatchContentType)
		}
		return r
	}
	tw.reqs = append(tw.reqs, mk("/predict/batch", true))
	for vf := 1; vf <= len(n.models.Table); vf++ {
		tw.reqs = append(tw.reqs, mk("/predict?vf="+strconv.Itoa(vf), false))
	}
	tw.metrics = mk("/metrics", false)
	// Time the render chain serve.New installed on the daemon.
	render := n.d.OnInterval
	n.d.OnInterval = func(rec daemon.Record) {
		sp := tr.begin("serve.render", tw.parent)
		render(rec)
		tr.end(sp)
	}
	return tw, nil
}

func (tw *twin) setParent(sp int) {
	if tw != nil {
		tw.parent = sp
	}
}

// step runs the twin's stages for one interval: the device path on the
// twin chip, then analysis and table build over the daemon's latest
// interval, then the same request set through the in-process handler.
func (tw *twin) step(cur *core.PredictionTable, scrape bool) error {
	tr := tw.tr
	// Run the interval at the state the daemon's chip just ran at, so
	// the twin follows the same VF sequence.
	if err := tw.chip.SetAllPStates(cur.MeasuredVF); err != nil {
		return err
	}
	windows := arch.DecisionIntervalMS / arch.PowerSamplePeriodMS
	var tick, sample time.Duration
	for w := 0; w < windows; w++ {
		t0 := time.Now()
		tw.chip.TickN(arch.PowerSamplePeriodMS)
		t1 := time.Now()
		if err := tw.sampler.OnWindow(arch.PowerSamplePeriodMS); err != nil {
			return err
		}
		tick += t1.Sub(t0)
		sample += time.Since(t1)
	}
	t0 := time.Now()
	tempK, err := tw.diode.ReadTempK()
	if err != nil {
		return err
	}
	if _, err := tw.sampler.EndInterval(tw.chip.TimeS(), arch.DecisionIntervalMS, tempK); err != nil {
		return err
	}
	sample += time.Since(t0)
	tr.add("fxsim.tick", tick)
	tr.add("daemon.sampler", sample)
	sp := tr.begin("fxsim.read", -1)
	tw.chip.ReadIntervalInto(&tw.iv)
	tr.end(sp)

	rec, ok := tw.n.d.Latest()
	if !ok {
		return fmt.Errorf("twin: daemon has no interval")
	}
	sp = tr.begin("core.analyze", -1)
	err = tw.n.models.AnalyzeInto(rec.Interval, &tw.rep)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("core.table", -1)
	tw.n.models.PredictionTable(rec.Seq, rec.Interval, &tw.rep)
	tr.end(sp)

	for i, r := range tw.reqs {
		sp := tr.begin("serve.handler", -1)
		w := httptest.NewRecorder()
		tw.handler.ServeHTTP(w, r)
		tr.end(sp)
		if w.Code != http.StatusOK {
			return fmt.Errorf("twin: handler %s: status %d", r.URL, w.Code)
		}
		key := "serve.predict_bytes"
		if i == 0 {
			key = "serve.batch_bytes"
		}
		tw.sizes[key] = float64(w.Body.Len())
	}
	if scrape {
		w := httptest.NewRecorder()
		tw.handler.ServeHTTP(w, tw.metrics)
		tw.sizes["serve.metrics_bytes"] = float64(w.Body.Len())
	}
	return nil
}

// record stores the twin-derived per-layer metrics. intervalUS is the
// traced run's median interval.
func (tw *twin) record(rep *report, intervalUS float64) {
	tr := tw.tr
	for k, v := range tw.sizes {
		rep.metrics[k] = v
	}
	tick, sampler, read := tr.medianUS("fxsim.tick"), tr.medianUS("daemon.sampler"), tr.medianUS("fxsim.read")
	analyze, table, render := tr.medianUS("core.analyze"), tr.medianUS("core.table"), tr.medianUS("serve.render")
	handler := tr.medianUS("serve.handler")
	rep.metrics["fxsim.tick_us"] = tick
	rep.metrics["fxsim.read_us"] = read
	rep.metrics["daemon.sampler_us"] = sampler
	rep.metrics["core.analyze_us"] = analyze
	rep.metrics["core.table_us"] = table
	rep.metrics["serve.render_us"] = render
	rep.metrics["serve.handler_us"] = handler
	rep.metrics["serve.http_overhead_us"] = rep.metrics["serve.predict_us"] - handler
	// The residual is everything in the interval the separately timed
	// stages do not cover: sampling, the oracle read and bookkeeping.
	rep.metrics["daemon.sample_us"] = intervalUS - (tick + analyze + table + render)
	rep.metrics["stages.reconcile_err"] = (tick+sampler+read+analyze+table+render)/intervalUS - 1
}
