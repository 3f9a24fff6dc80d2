// Command ppepd runs the PPEP daemon against a simulated chip, the way
// the paper's user-level daemon runs on real silicon: it trains the
// models once, binds a workload, then samples the hardware every 200 ms —
// counters through the MSR interface, temperature through hwmon —
// projects performance, power and energy at every VF state, and applies
// an optional DVFS policy.
//
// Both modes run that same loop (internal/daemon) on the same assembly.
// Batch mode, the default, runs it for -seconds of simulated time and
// prints the live per-VF projections every fifth interval. With -serve
// it runs as an always-on service (Section IV-E as deployed): the loop
// becomes a context-cancellable goroutine that shuts down cleanly on
// SIGINT or SIGTERM, device reads are retried with backoff, and an HTTP
// layer exposes /metrics, /reports, /reports/latest, /predict?vf=N,
// /predict/batch (all VF states in one response, JSON or binary via
// Accept), and /healthz (see docs/DAEMON.md). Prediction responses are
// pre-rendered once per interval and served lock-free; cmd/ppep-loadgen
// measures what that sustains.
//
// -seconds applies to batch mode only; -serve, -pace, -fault-msr and
// -fault-hwmon to service mode only (a batch run aborts on the first
// device error, so it has no use for injected faults). Every other flag
// applies to both.
//
// Usage:
//
//	ppepd [-workload 433x2] [-vf 5] [-policy none|energy|edp|cap] [-cap 70]
//	      [-scale 0.05] [-load models.json] [-ring 512]
//	      [-seconds 10]
//	      [-serve :8080] [-pace 200ms] [-fault-msr 0.1] [-fault-hwmon 0.1]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ppep/internal/arch"
	"ppep/internal/core"
	"ppep/internal/daemon"
	"ppep/internal/dvfs"
	"ppep/internal/experiments"
	"ppep/internal/fxsim"
	"ppep/internal/serve"
	"ppep/internal/trace"
	"ppep/internal/units"
	"ppep/internal/workload"
)

// flags gathers every command-line knob for validation.
type flags struct {
	vf         int
	seconds    float64
	policy     string
	scale      float64
	capW       float64
	ring       int
	pace       time.Duration
	faultMSR   float64
	faultHwmon float64
}

// validate rejects out-of-range flag values with a usage-style error
// before any expensive work (an invalid -vf previously reached the
// simulator as undefined behaviour).
func (f flags) validate(table arch.VFTable) error {
	if f.vf < 1 || f.vf > len(table) {
		return fmt.Errorf("ppepd: -vf %d out of range: this platform has VF states 1..%d", f.vf, len(table))
	}
	if !positive(f.seconds) || !(math.Round(f.seconds*1000/arch.DecisionIntervalMS) < math.MaxInt) {
		return fmt.Errorf("ppepd: -seconds %v must be positive and finite, its interval count an int", f.seconds)
	}
	if policies[f.policy] == nil {
		return fmt.Errorf("ppepd: -policy %q unknown: want none, energy, edp or cap", f.policy)
	}
	if !positive(f.scale) {
		return fmt.Errorf("ppepd: -scale %v must be positive and finite", f.scale)
	}
	if !positive(f.capW) {
		return fmt.Errorf("ppepd: -cap %v must be positive and finite", f.capW)
	}
	if f.ring < 0 {
		return fmt.Errorf("ppepd: -ring %d must be non-negative (0 keeps all history)", f.ring)
	}
	if f.pace < 0 {
		return fmt.Errorf("ppepd: -pace %v must be non-negative", f.pace)
	}
	if !(f.faultMSR >= 0 && f.faultMSR < 1) {
		return fmt.Errorf("ppepd: -fault-msr %v must be in [0, 1)", f.faultMSR)
	}
	if !(f.faultHwmon >= 0 && f.faultHwmon < 1) {
		return fmt.Errorf("ppepd: -fault-hwmon %v must be in [0, 1)", f.faultHwmon)
	}
	return nil
}

// positive reports whether x is a positive finite number: NaN fails
// every comparison, so a plain x <= 0 check would let it through.
func positive(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

func main() {
	var (
		wl      = flag.String("workload", "433x2", "workload: SPEC number with instance count (429x1, 433x4), 'mix' for the capping mix")
		vf      = flag.Int("vf", 5, "initial VF state (1..5)")
		policy  = flag.String("policy", "none", "DVFS policy: none, energy, edp, cap")
		capW    = flag.Float64("cap", 70, "power budget for -policy cap")
		scale   = flag.Float64("scale", 0.05, "training campaign scale")
		load    = flag.String("load", "", "load model coefficients from a ppep-train -save file instead of training")
		ring    = flag.Int("ring", 512, "report history ring capacity (0 = unbounded)")
		seconds = flag.Float64("seconds", 10, "batch mode: run length in simulated seconds")

		serveAddr  = flag.String("serve", "", "run as an always-on service on this HTTP address (e.g. :8080) instead of a finite batch")
		pace       = flag.Duration("pace", 200*time.Millisecond, "service mode: wall-clock pacing per simulated 200 ms interval (0 = flat out)")
		faultMSR   = flag.Float64("fault-msr", 0, "service mode: injected transient MSR fault rate in [0, 1)")
		faultHwmon = flag.Float64("fault-hwmon", 0, "service mode: injected transient diode fault rate in [0, 1)")
	)
	flag.Parse()

	fl := flags{vf: *vf, seconds: *seconds, policy: *policy, scale: *scale, capW: *capW,
		ring: *ring, pace: *pace, faultMSR: *faultMSR, faultHwmon: *faultHwmon}
	if err := fl.validate(arch.FX8320VFTable); err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}
	run, err := workload.ParseRunSpec(*wl)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var models *core.Models
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		models, err = core.LoadModels(f)
		_ = f.Close() // read-only handle; close errors carry no data
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("loaded models from %s: alpha=%.2f\n\n", *load, models.Dyn.Alpha)
	} else {
		fmt.Println("training PPEP models (one-time offline effort)...")
		camp, err := experiments.NewFXCampaign(experiments.Options{Scale: *scale, MaxRunsPerSuite: 6})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		models = camp.Models
		fmt.Printf("trained: alpha=%.2f\n\n", models.Dyn.Alpha)
	}

	d, err := attach(models, run, fl)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *serveAddr != "" {
		os.Exit(runServe(d, run.Name, *serveAddr, fl))
	}
	if err := runBatch(d, fl.seconds); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// attach assembles the daemon both modes run: a simulated FX-8320 with
// the workload bound for as long as the daemon runs, sampled through the
// MSR and hwmon device paths with a bounded history ring and retried
// reads, under the -policy decision from the initial -vf state.
func attach(models *core.Models, run workload.Run, fl flags) (*daemon.Daemon, error) {
	cfg := fxsim.DefaultFX8320Config()
	cfg.PowerGating = true
	if fl.policy == "cap" {
		cfg.PerCUPlanes = true
	}
	chip := fxsim.New(cfg)
	chip.SetTempK(318)

	// Stretch every instance and re-bind on completion so the chip never
	// idles out, however long the loop runs.
	for i := range run.Members {
		b := *run.Members[i].Bench
		b.Instructions = 1e15
		run.Members[i].Bench = &b
	}
	if _, err := chip.PlaceRun(run, fxsim.PlaceScatter, true); err != nil {
		return nil, err
	}

	d, err := daemon.AttachOpts(chip, models, nil, daemon.Options{
		HistoryCap: fl.ring,
		Retry:      daemon.Retry{Attempts: 4, Backoff: 100 * time.Microsecond},
	})
	if err != nil {
		return nil, err
	}
	d.Policy = policies[fl.policy](models, fl.capW, d.Counters())
	return d, chip.SetAllPStates(arch.VFState(fl.vf))
}

// policies is the -policy table: each entry builds the daemon policy for
// one name. Rejected P-state requests are counted (surfaced at /metrics
// as ppep_policy_rejects_total).
var policies = map[string]func(models *core.Models, capW float64, counters *daemon.Counters) daemon.Policy{
	"none": func(*core.Models, float64, *daemon.Counters) daemon.Policy { return nil },
	"energy": func(_ *core.Models, _ float64, counters *daemon.Counters) daemon.Policy {
		return uniform(dvfs.EnergyOptimal, counters)
	},
	"edp": func(_ *core.Models, _ float64, counters *daemon.Counters) daemon.Policy {
		return uniform(dvfs.EDPOptimal, counters)
	},
	"cap": func(models *core.Models, capW float64, _ *daemon.Counters) daemon.Policy {
		return &capPolicy{dvfs.PPEPCapper{Models: models,
			Target: func(units.Seconds) units.Watts { return units.Watts(capW) }}}
	},
}

// uniform requests pick's state for every CU each interval, counting and
// (rate-limited) logging rejections instead of silently dropping them: a
// rejected request leaves the previous state and is retried next
// interval.
func uniform(pick func(*core.Report) arch.VFState, counters *daemon.Counters) daemon.Policy {
	rl := newRateLimited(2 * time.Second)
	return daemon.PolicyFunc(func(ch *fxsim.Chip, _ trace.Interval, rep *core.Report) {
		s := pick(rep)
		if err := ch.SetAllPStates(s); err != nil {
			counters.PolicyRejects.Add(1)
			rl.logf("ppepd: policy request for %v rejected: %v", s, err)
		}
	})
}

// capPolicy applies the one-step PPEP capper every interval but keeps no
// trajectory: PPEPCapper appends a step per decision, which an always-on
// daemon would retain without bound.
type capPolicy struct{ dvfs.PPEPCapper }

func (c *capPolicy) Apply(ch *fxsim.Chip, iv trace.Interval, _ *core.Report) {
	c.Decide(ch, iv)
	c.History = c.History[:0]
}

// rateLimited emits through log.Printf at most once per period, counting
// what it suppressed in between.
type rateLimited struct {
	period     time.Duration
	last       time.Time
	suppressed uint64
}

func newRateLimited(period time.Duration) *rateLimited {
	return &rateLimited{period: period}
}

func (r *rateLimited) logf(format string, args ...any) {
	now := time.Now()
	if !r.last.IsZero() && now.Sub(r.last) < r.period {
		r.suppressed++
		return
	}
	if r.suppressed > 0 {
		format += fmt.Sprintf(" (%d similar suppressed)", r.suppressed)
		r.suppressed = 0
	}
	r.last = now
	log.Printf(format, args...)
}

// ---- batch mode (finite run, live printing) ----

// runBatch runs the daemon for seconds of simulated time, printing the
// live per-VF projections every fifth interval. A device or analysis
// error aborts the run.
func runBatch(d *daemon.Daemon, seconds float64) error {
	d.OnInterval = func(rec daemon.Record) {
		if rec.Seq%5 == 1 {
			printRecord(rec)
		}
	}
	n := max(1, int(math.Round(seconds*1000/arch.DecisionIntervalMS)))
	if err := d.RunIntervals(n); err != nil {
		return err
	}
	if s := d.Counters().Snapshot(); s.PolicyRejects > 0 {
		fmt.Fprintf(os.Stderr, "ppepd: %d rejected policy decisions during the run\n", s.PolicyRejects)
	}
	return nil
}

// printRecord prints one interval's device readings and its projections
// at every VF state, the measured state starred.
func printRecord(rec daemon.Record) {
	iv, rep := &rec.Interval, rec.Report
	fmt.Printf("t=%5.1fs  diode=%.1f°C  state=%v  measured=%.1fW\n",
		iv.TimeS, units.Kelvin(iv.TempK).Celsius(), iv.VF(), iv.MeasPowerW)
	fmt.Printf("  %-6s %10s %10s %10s %12s\n", "state", "chip W", "idle W", "IPS", "J/interval")
	for i := len(rep.PerVF) - 1; i >= 0; i-- {
		p := rep.PerVF[i]
		marker := " "
		if p.VF == rep.MeasuredVF {
			marker = "*"
		}
		fmt.Printf(" %s%-6v %10.1f %10.1f %10.2e %12.2f\n",
			marker, p.VF, p.ChipW, p.IdleW, p.TotalIPS, p.IntervalEnergyJ)
	}
}

// ---- service mode (-serve) ----

// runServe runs the daemon as an always-on service: optional fault
// injection, wall-clock pacing, HTTP observability, and graceful
// shutdown on SIGINT/SIGTERM.
func runServe(d *daemon.Daemon, workloadName, addr string, fl flags) int {
	if fl.faultMSR > 0 || fl.faultHwmon > 0 {
		d.InjectFaults(fl.faultMSR, fl.faultHwmon, 1)
		log.Printf("ppepd: fault injection on (msr=%.0f%%, hwmon=%.0f%%)",
			100*fl.faultMSR, 100*fl.faultHwmon)
	}
	if fl.pace > 0 {
		d.Throttle = func() { time.Sleep(fl.pace) }
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := serve.New(d, serve.Options{StaleAfter: staleAfter(fl.pace)})
	loopDone := make(chan error, 1)
	go func() { loopDone <- d.Run(ctx) }()
	log.Printf("ppepd: serving on %s (workload %s, policy %s, ring %d)", addr, workloadName, fl.policy, fl.ring)

	err := srv.ListenAndServe(ctx, addr)
	stop() // a server failure must also stop the sampling loop
	if lerr := <-loopDone; lerr != nil && !isCanceled(lerr) {
		fmt.Fprintln(os.Stderr, "ppepd: sampling loop:", lerr)
		return 1
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ppepd:", err)
		return 1
	}
	s := d.Counters().Snapshot()
	log.Printf("ppepd: clean shutdown after %d intervals (%d skipped, %d msr retries, %d hwmon retries)",
		s.Intervals, s.SkippedIntervals, s.MSRRetries, s.HwmonRetries)
	return 0
}

// staleAfter derives a /healthz staleness threshold from the pacing: a
// healthy loop completes an interval every pace (plus epsilon), so 25
// missed intervals is decisively stale. Unpaced loops use the default.
func staleAfter(pace time.Duration) time.Duration {
	if pace <= 0 {
		return 0 // serve.DefaultStaleAfter
	}
	return 25 * pace
}

// isCanceled reports whether the loop exited through context
// cancellation (the clean path).
func isCanceled(err error) bool {
	return err == context.Canceled || err == context.DeadlineExceeded
}
