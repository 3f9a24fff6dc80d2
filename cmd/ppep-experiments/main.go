// Command ppep-experiments reproduces the paper's evaluation: it executes
// the measurement campaign on the simulated platform, trains the PPEP
// models, and regenerates every table and figure.
//
// Usage:
//
//	ppep-experiments [-run fig2,fig7] [-scale 0.1] [-max 8] [-phenom] [-list]
//	                 [-cache-dir DIR] [-cache-max-mb N]
//
// -scale shrinks benchmark lengths for quick runs (1.0 = the full-length
// campaign); -max caps the per-suite run count; -run selects a
// comma-separated subset of experiments; -phenom additionally runs the
// secondary-platform validation.
//
// -cache-dir enables the persistent simulation-trace cache (docs/CACHE.md):
// every deterministic campaign cell is stored under DIR keyed by its full
// identity, so a repeat invocation with the same configuration decodes
// traces instead of re-simulating them, bit-identically. -cache-max-mb
// bounds the directory size (oldest entries evicted; 0 = unbounded). The
// cache statistics are printed after each campaign in greppable
// key=value form (hits=… misses=…).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ppep/internal/experiments"
)

func main() {
	var (
		runList = flag.String("run", "", "comma-separated experiment IDs (default: all)")
		scale   = flag.Float64("scale", 0.1, "benchmark length scale (1.0 = full length)")
		maxRuns = flag.Int("max", 0, "cap runs per suite (0 = all)")
		phenom  = flag.Bool("phenom", false, "also run the Phenom II validation campaign")
		list    = flag.Bool("list", false, "list experiments and exit")
		md      = flag.String("md", "", "also write all results as a Markdown report to this file")

		cacheDir   = flag.String("cache-dir", "", "persistent simulation-trace cache directory (empty = no cache)")
		cacheMaxMB = flag.Int64("cache-max-mb", 0, "cache size cap in MiB, oldest entries evicted (0 = unbounded)")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-12s %s\n", e.ID, e.Desc)
		}
		return
	}

	selected := experiments.All()
	if *runList != "" {
		selected = selected[:0]
		for _, id := range strings.Split(*runList, ",") {
			e, err := experiments.ByID(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	opts := experiments.Options{
		Scale: *scale, MaxRunsPerSuite: *maxRuns,
		CacheDir: *cacheDir, CacheMaxBytes: *cacheMaxMB << 20,
	}
	fmt.Printf("building FX-8320 campaign (scale %.2f, max/suite %d)...\n", *scale, *maxRuns)
	start := time.Now()
	camp, err := experiments.NewFXCampaign(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("campaign ready in %.1fs: %d run traces, α=%.2f\n",
		time.Since(start).Seconds(), len(camp.Runs), camp.Models.Dyn.Alpha)
	printCacheStats(camp)
	fmt.Println()

	failed := 0
	var all []*experiments.Result
	for _, e := range selected {
		t0 := time.Now()
		results, err := e.Run(camp)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			failed++
			continue
		}
		for _, r := range results {
			fmt.Println(r)
		}
		all = append(all, results...)
		fmt.Printf("   (%.1fs)\n\n", time.Since(t0).Seconds())
	}

	if *md != "" {
		f, err := os.Create(*md)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		title := fmt.Sprintf("PPEP reproduction results (scale %.2f)", *scale)
		if err := experiments.WriteMarkdown(f, title, all); err != nil {
			_ = f.Close() // already exiting on the write error
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote Markdown report to %s\n", *md)
	}

	if *phenom {
		fmt.Println("building Phenom II validation campaign...")
		ph, err := experiments.NewPhenomCampaign(opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		res, err := ph.IdleModelAccuracy()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(res)
		a, b, err := ph.Fig2()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(a)
		fmt.Println(b)
		printCacheStats(ph)
	}
	// The main campaign's final counters include the lazily-collected
	// exploration traces, so report them after all experiments ran.
	printCacheStats(camp)
	if failed > 0 {
		os.Exit(1)
	}
}

// printCacheStats emits the trace-cache counters in the greppable
// key=value form the CI warm-cache smoke step matches on.
func printCacheStats(c *experiments.Campaign) {
	if st, ok := c.CacheStats(); ok {
		fmt.Printf("trace cache [%s]: %s\n", c.Platform, st)
	}
}
