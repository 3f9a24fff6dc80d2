// Command ppep-loadgen is a closed-loop load harness for ppepd's
// prediction endpoints. It hammers a running daemon (or, with -self, an
// in-process one it spins up itself) with N concurrent keep-alive
// workers and reports throughput plus p50/p90/p99/p999 latency.
//
// Against an external daemon:
//
//	ppepd -serve :8080 &
//	ppep-loadgen -url http://127.0.0.1:8080 -c 32 -duration 10s -binary
//
// Self-contained (trains slim models, binds a busy chip, serves on a
// loopback port, then measures — the shape `make loadgen-smoke` uses):
//
//	ppep-loadgen -self -duration 2s -c 16 -min-rps 1000 -max-p99 250ms
//
// -min-rps and -max-p99 turn the run into an assertion: the process
// exits 1 if the achieved rate is below the floor or the p99 above the
// ceiling, so CI can gate on serving performance.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ppep/internal/daemon"
	"ppep/internal/fleet"
	"ppep/internal/fxsim"
	"ppep/internal/loadgen"
	"ppep/internal/serve"
	"ppep/internal/workload"
)

func main() {
	var (
		url      = flag.String("url", "", "base URL of a running ppepd (e.g. http://127.0.0.1:8080)")
		path     = flag.String("path", loadgen.DefaultPath, "endpoint to load")
		conns    = flag.Int("c", loadgen.DefaultConns, "concurrent closed-loop workers")
		duration = flag.Duration("duration", loadgen.DefaultDuration, "measurement window")
		binary   = flag.Bool("binary", false, "request the binary batch encoding (Accept: application/x-ppep-batch)")
		self     = flag.Bool("self", false, "spin up an in-process ppepd on a loopback port and load that")
		minRPS   = flag.Float64("min-rps", 0, "exit 1 if achieved req/s is below this (0 = no assertion)")
		maxP99   = flag.Duration("max-p99", 0, "exit 1 if p99 latency exceeds this (0 = no assertion)")
	)
	flag.Parse()

	if (*url == "") == !*self {
		fmt.Fprintln(os.Stderr, "ppep-loadgen: need exactly one of -url or -self")
		flag.Usage()
		os.Exit(2)
	}
	if *conns <= 0 || *duration <= 0 {
		fmt.Fprintln(os.Stderr, "ppep-loadgen: -c and -duration must be positive")
		os.Exit(2)
	}
	// NaN fails every comparison, so a plain *minRPS > 0 test would
	// switch the assertion off.
	if !(*minRPS >= 0) || math.IsInf(*minRPS, 1) {
		fmt.Fprintf(os.Stderr, "ppep-loadgen: -min-rps %v must be non-negative and finite\n", *minRPS)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	target := *url
	if *self {
		var shutdown func()
		var err error
		target, shutdown, err = selfServe(ctx)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ppep-loadgen:", err)
			os.Exit(1)
		}
		defer shutdown()
		fmt.Printf("self-serving on %s\n", target)
	}

	res, err := loadgen.Run(ctx, loadgen.Options{
		URL: target, Path: *path, Conns: *conns, Duration: *duration, Binary: *binary,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ppep-loadgen:", err)
		os.Exit(1)
	}
	fmt.Println(res)

	failed := false
	if res.Requests == 0 || res.Errors == res.Requests {
		fmt.Fprintln(os.Stderr, "ppep-loadgen: no successful requests")
		failed = true
	}
	if *minRPS > 0 && res.RPS() < *minRPS {
		fmt.Fprintf(os.Stderr, "ppep-loadgen: %.0f req/s below floor %.0f\n", res.RPS(), *minRPS)
		failed = true
	}
	if *maxP99 > 0 && res.Hist.Quantile(0.99) > *maxP99 {
		fmt.Fprintf(os.Stderr, "ppep-loadgen: p99 %v above ceiling %v\n", res.Hist.Quantile(0.99), *maxP99)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

// selfServe builds the whole serving stack in-process: slim-trained
// models, a busy simulated chip, the sampling daemon (unpaced, so
// tables republish as fast as the simulator runs), and the HTTP layer
// on an ephemeral loopback port. It returns the base URL and a
// shutdown func that joins both goroutines.
func selfServe(ctx context.Context) (string, func(), error) {
	fmt.Println("training slim models for self-serve mode...")
	models, err := fleet.SlimModels()
	if err != nil {
		return "", nil, err
	}

	chip := fxsim.New(fxsim.DefaultFX8320Config())
	chip.SetTempK(318)
	run := workload.MultiInstance("433", 2)
	for i := range run.Members {
		b := *run.Members[i].Bench
		b.Instructions = 1e15 // effectively endless: the chip must stay busy
		run.Members[i].Bench = &b
	}
	if _, err := chip.PlaceRun(run, fxsim.PlaceScatter, true); err != nil {
		return "", nil, err
	}

	d, err := daemon.AttachOpts(chip, models, nil, daemon.Options{HistoryCap: 64})
	if err != nil {
		return "", nil, err
	}
	// Light pacing keeps the sampling loop from monopolizing cores the
	// load workers need, while still republishing tables many times per
	// second — so the measurement covers live pointer swaps.
	d.Throttle = func() { time.Sleep(2 * time.Millisecond) }

	srv := serve.New(d, serve.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}

	srvCtx, cancel := context.WithCancel(ctx)
	loopDone := make(chan error, 1)
	httpDone := make(chan error, 1)
	go func() { loopDone <- d.Run(srvCtx) }()
	go func() { httpDone <- srv.Serve(srvCtx, ln) }()

	// Block until the first interval publishes so the measurement never
	// counts warm-up 404s.
	for d.Predictions() == nil {
		select {
		case <-srvCtx.Done():
			cancel()
			return "", nil, srvCtx.Err()
		case err := <-loopDone:
			cancel()
			return "", nil, fmt.Errorf("sampling loop died during warm-up: %v", err)
		case <-time.After(10 * time.Millisecond):
		}
	}

	shutdown := func() {
		cancel()
		if err := <-httpDone; err != nil {
			fmt.Fprintln(os.Stderr, "ppep-loadgen: http:", err)
		}
		if err := <-loopDone; err != nil && err != context.Canceled {
			fmt.Fprintln(os.Stderr, "ppep-loadgen: loop:", err)
		}
	}
	return "http://" + ln.Addr().String(), shutdown, nil
}
