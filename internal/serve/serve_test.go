package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ppep/internal/arch"
	"ppep/internal/core"
	"ppep/internal/daemon"
	"ppep/internal/fxsim"
	"ppep/internal/trace"
	"ppep/internal/workload"
)

var (
	trainOnce sync.Once
	trained   *core.Models
	trainErr  error
)

// models trains a slim but valid PPEP model set once per test binary:
// idle traces at every VF plus two benchmarks across the VF table.
func models(t testing.TB) *core.Models {
	t.Helper()
	trainOnce.Do(func() {
		ts := core.TrainingSet{IdleTraces: map[arch.VFState]*trace.Trace{}}
		for _, vf := range arch.FX8320VFTable.States() {
			chip := fxsim.New(fxsim.DefaultFX8320Config())
			tr, err := chip.HeatCool(vf, 40, 80)
			if err != nil {
				trainErr = err
				return
			}
			ts.IdleTraces[vf] = tr
		}
		for _, num := range []string{"429", "433", "458", "416"} {
			b := *workload.SPECByNumber(num)
			b.Instructions = 8e9
			for _, vf := range arch.FX8320VFTable.States() {
				chip := fxsim.New(fxsim.DefaultFX8320Config())
				r := workload.Run{Name: num, Suite: "SPE",
					Members: []workload.Member{{Bench: &b, Threads: 1}}}
				tr, err := chip.Collect(r, fxsim.RunOpts{VF: vf, WarmTempK: 315})
				if err != nil {
					trainErr = err
					return
				}
				ts.Runs = append(ts.Runs, core.RunTrace{Name: num, Suite: "SPE", VF: vf, Trace: tr})
			}
		}
		trained, trainErr = core.Train(ts, arch.FX8320VFTable)
	})
	if trainErr != nil {
		t.Fatal(trainErr)
	}
	return trained
}

// busyChip builds a chip running milc×2 endlessly so every interval has
// real activity behind the projections.
func busyChip(t testing.TB) *fxsim.Chip {
	t.Helper()
	chip := fxsim.New(fxsim.DefaultFX8320Config())
	chip.SetTempK(318)
	run := workload.MultiInstance("433", 2)
	for i := range run.Members {
		b := *run.Members[i].Bench
		b.Instructions = 1e12
		run.Members[i].Bench = &b
	}
	if _, err := chip.PlaceRun(run, fxsim.PlaceScatter, true); err != nil {
		t.Fatal(err)
	}
	return chip
}

// fakeClock is an injectable Now for staleness tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// get performs one in-process request against the server's mux.
func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
	return rr.Code, rr.Body.String()
}

func TestServeEndpoints(t *testing.T) {
	d, err := daemon.AttachOpts(busyChip(t), models(t), nil, daemon.Options{HistoryCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	clock := &fakeClock{t: time.Unix(1000, 0)}
	srv := New(d, Options{StaleAfter: 2 * time.Second, Now: clock.Now})
	h := srv.Handler()

	// Before the first interval: healthz reports "starting", the report
	// endpoints have nothing to say.
	if code, body := get(t, h, "/healthz"); code != http.StatusOK || !strings.Contains(body, `"starting"`) {
		t.Errorf("pre-interval healthz %d %q, want 200 starting", code, body)
	}
	if code, _ := get(t, h, "/reports/latest"); code != http.StatusNotFound {
		t.Errorf("pre-interval /reports/latest = %d, want 404", code)
	}
	if code, _ := get(t, h, "/predict?vf=3"); code != http.StatusNotFound {
		t.Errorf("pre-interval /predict = %d, want 404", code)
	}
	if code, _ := get(t, h, "/predict/batch"); code != http.StatusNotFound {
		t.Errorf("pre-interval /predict/batch = %d, want 404", code)
	}

	// Slow spin-up is healthy "starting" while within startupGrace —
	// the old behaviour called it "stale" the moment StaleAfter passed,
	// even though no interval had ever completed.
	clock.Advance(startupGrace - time.Second)
	if code, body := get(t, h, "/healthz"); code != http.StatusOK || !strings.Contains(body, `"starting"`) {
		t.Errorf("in-grace startup healthz %d %q, want 200 starting", code, body)
	}

	// But a spin-up that outlives the grace is unhealthy: still
	// "starting" (no interval has ever completed, so it cannot be
	// "stale"), yet 503 — a wedged startup must not look healthy forever.
	clock.Advance(2 * time.Second)
	if code, body := get(t, h, "/healthz"); code != http.StatusServiceUnavailable || !strings.Contains(body, `"starting"`) {
		t.Errorf("wedged-startup healthz %d %q, want 503 starting", code, body)
	}

	if err := d.RunIntervals(5); err != nil {
		t.Fatal(err)
	}

	t.Run("healthz", func(t *testing.T) {
		code, body := get(t, h, "/healthz")
		if code != http.StatusOK || !strings.Contains(body, `"ok"`) {
			t.Fatalf("healthz %d %q, want 200 ok", code, body)
		}
		var hb struct {
			Status    string  `json:"status"`
			Intervals uint64  `json:"intervals"`
			AgeS      float64 `json:"last_interval_age_s"`
		}
		if err := json.Unmarshal([]byte(body), &hb); err != nil {
			t.Fatal(err)
		}
		if hb.Intervals != 5 {
			t.Errorf("intervals %d, want 5", hb.Intervals)
		}
		clock.Advance(3 * time.Second)
		if code, body := get(t, h, "/healthz"); code != http.StatusServiceUnavailable || !strings.Contains(body, `"stale"`) {
			t.Errorf("stale healthz %d %q, want 503 stale", code, body)
		}
	})

	t.Run("reports", func(t *testing.T) {
		code, body := get(t, h, "/reports")
		if code != http.StatusOK {
			t.Fatalf("/reports = %d", code)
		}
		var recs []daemon.Record
		if err := json.Unmarshal([]byte(body), &recs); err != nil {
			t.Fatal(err)
		}
		if len(recs) != 5 {
			t.Fatalf("%d records, want 5", len(recs))
		}
		if recs[0].Seq != 1 || recs[4].Seq != 5 {
			t.Errorf("seq range %d..%d, want 1..5 oldest first", recs[0].Seq, recs[4].Seq)
		}
		if recs[4].Report == nil || len(recs[4].Report.PerVF) != len(arch.FX8320VFTable) {
			t.Error("record missing its per-VF report")
		}

		_, body = get(t, h, "/reports?n=2")
		recs = nil
		if err := json.Unmarshal([]byte(body), &recs); err != nil {
			t.Fatal(err)
		}
		if len(recs) != 2 || recs[0].Seq != 4 {
			t.Errorf("?n=2 returned %d records starting at seq %d, want newest 2", len(recs), recs[0].Seq)
		}
		if code, _ := get(t, h, "/reports?n=-1"); code != http.StatusBadRequest {
			t.Errorf("negative n accepted: %d", code)
		}
		if code, _ := get(t, h, "/reports?n=bogus"); code != http.StatusBadRequest {
			t.Errorf("non-numeric n accepted: %d", code)
		}
	})

	t.Run("latest", func(t *testing.T) {
		code, body := get(t, h, "/reports/latest")
		if code != http.StatusOK {
			t.Fatalf("/reports/latest = %d", code)
		}
		var rec daemon.Record
		if err := json.Unmarshal([]byte(body), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Seq != 5 {
			t.Errorf("latest seq %d, want 5", rec.Seq)
		}
	})

	t.Run("predict", func(t *testing.T) {
		for _, vf := range []int{1, 3, 5} {
			code, body := get(t, h, fmt.Sprintf("/predict?vf=%d", vf))
			if code != http.StatusOK {
				t.Fatalf("/predict?vf=%d = %d", vf, code)
			}
			var p struct {
				Seq        uint64             `json:"seq"`
				Projection core.PredictionRow `json:"projection"`
			}
			if err := json.Unmarshal([]byte(body), &p); err != nil {
				t.Fatal(err)
			}
			if p.Seq != 5 {
				t.Errorf("vf=%d seq %d, want 5", vf, p.Seq)
			}
			if int(p.Projection.VF) != vf {
				t.Errorf("vf=%d returned projection for VF %d", vf, p.Projection.VF)
			}
			if p.Projection.ChipW <= 0 || p.Projection.TotalIPS <= 0 || p.Projection.EDP <= 0 {
				t.Errorf("vf=%d projection empty: %+v", vf, p.Projection)
			}
		}
		for _, bad := range []string{"/predict", "/predict?vf=0", "/predict?vf=6", "/predict?vf=abc"} {
			if code, _ := get(t, h, bad); code != http.StatusBadRequest {
				t.Errorf("%s = %d, want 400", bad, code)
			}
		}
	})

	t.Run("metrics", func(t *testing.T) {
		code, body := get(t, h, "/metrics")
		if code != http.StatusOK {
			t.Fatalf("/metrics = %d", code)
		}
		for _, want := range []string{
			"ppep_measured_power_watts ",
			"ppep_diode_temp_celsius ",
			"ppep_measured_vf_state ",
			"ppep_interval_seq 5",
			`ppep_predicted_chip_watts{vf="1"} `,
			`ppep_predicted_chip_watts{vf="5"} `,
			`ppep_predicted_idle_watts{vf="3"} `,
			`ppep_predicted_ips{vf="2"} `,
			`ppep_predicted_interval_joules{vf="4"} `,
			"ppep_intervals_total 5",
			"ppep_skipped_intervals_total 0",
			"ppep_analyze_errors_total 0",
			"ppep_msr_read_retries_total ",
			"ppep_hwmon_read_failures_total ",
			"ppep_policy_rejects_total ",
			"# TYPE ppep_intervals_total counter",
			"# TYPE ppep_predicted_chip_watts gauge",
		} {
			if !strings.Contains(body, want) {
				t.Errorf("metrics missing %q", want)
			}
		}
	})

	t.Run("methods", func(t *testing.T) {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/metrics", nil))
		if rr.Code != http.StatusMethodNotAllowed {
			t.Errorf("POST /metrics = %d, want 405", rr.Code)
		}
	})
}

// TestCounterRowsSorted pins the order counterRows lists its rows in:
// the /metrics exposition is sorted by name, and the rows are written
// as listed.
func TestCounterRowsSorted(t *testing.T) {
	rows := counterRows(daemon.CounterSnapshot{})
	for i := 1; i < len(rows); i++ {
		if rows[i-1].name >= rows[i].name {
			t.Errorf("counter row %q listed before %q", rows[i-1].name, rows[i].name)
		}
	}
}

// TestServeIntegration is the end-to-end service contract: a faulted
// daemon loop running under Run(ctx) stays observable over real HTTP,
// bounds its history, counts its retries, and shuts down cleanly.
func TestServeIntegration(t *testing.T) {
	d, err := daemon.AttachOpts(busyChip(t), models(t), nil, daemon.Options{
		HistoryCap: 8,
		Retry:      daemon.Retry{Attempts: 4, Sleep: func(time.Duration) {}},
	})
	if err != nil {
		t.Fatal(err)
	}
	d.InjectFaults(0.10, 0.10, 3)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv := New(d, Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	done := make(chan error, 1)
	go func() { done <- d.Run(ctx) }()

	fetch := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	deadline := time.Now().Add(60 * time.Second)
	for d.Counters().Intervals.Load() < 10 {
		if time.Now().After(deadline) {
			t.Fatal("faulted loop did not reach 10 intervals")
		}
		// The endpoints must answer while the loop is running.
		if code, _ := fetch("/healthz"); code != http.StatusOK {
			t.Fatalf("healthz %d mid-run", code)
		}
		time.Sleep(10 * time.Millisecond)
	}

	if code, body := fetch("/metrics"); code != http.StatusOK ||
		!strings.Contains(body, "ppep_intervals_total") {
		t.Errorf("mid-run metrics %d", code)
	}
	if code, _ := fetch("/reports/latest"); code != http.StatusOK {
		t.Errorf("mid-run /reports/latest %d", code)
	}

	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("loop did not stop after cancellation")
	}

	s := d.Counters().Snapshot()
	if s.MSRRetries == 0 {
		t.Error("10%% MSR fault rate produced no retries")
	}
	if len(d.Records()) > 8 {
		t.Errorf("history grew past the ring cap: %d records", len(d.Records()))
	}
}

// TestListenAndServe covers the graceful-shutdown path: a ctx-cancelled
// server returns nil, and a bind failure surfaces as an error.
func TestListenAndServe(t *testing.T) {
	d, err := daemon.AttachOpts(busyChip(t), models(t), nil, daemon.Options{HistoryCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(d, Options{})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe(ctx, "127.0.0.1:0") }()
	time.Sleep(50 * time.Millisecond) // let the listener come up
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("cancelled ListenAndServe returned %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ListenAndServe did not shut down")
	}

	if err := srv.ListenAndServe(context.Background(), "256.0.0.1:1"); err == nil {
		t.Error("bogus bind address accepted")
	}
}
