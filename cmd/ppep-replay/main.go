// Command ppep-replay analyzes recorded measurement traces offline: it
// loads model coefficients saved by `ppep-train -save` and CSV traces
// dumped by `ppep-train -csv`, then replays PPEP's per-interval analysis —
// estimation error against the recorded power, and the full cross-VF
// projection for any interval. This is the workflow for post-hoc analysis
// of traces captured on a live system.
//
// Usage:
//
//	ppep-replay -models models.json trace1.csv [trace2.csv ...]
//	ppep-replay -models models.json -interval 12 trace.csv
package main

import (
	"flag"
	"fmt"
	"os"

	"ppep/internal/core"
	"ppep/internal/stats"
	"ppep/internal/trace"
)

func main() {
	var (
		modelsPath = flag.String("models", "", "model coefficients from ppep-train -save (required)")
		interval   = flag.Int("interval", -1, "print the full cross-VF projection of this interval index")
	)
	flag.Parse()
	if *modelsPath == "" || flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: ppep-replay -models models.json trace.csv [...]")
		os.Exit(2)
	}

	mf, err := os.Open(*modelsPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	models, err := core.LoadModels(mf)
	_ = mf.Close() // read-only handle; close errors carry no data
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("models: %d states, α=%.2f\n", len(models.Table), models.Dyn.Alpha)

	for _, path := range flag.Args() {
		tf, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		tr, err := trace.ReadCSV(tf)
		_ = tf.Close() // read-only handle; close errors carry no data
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			os.Exit(1)
		}
		if err := replay(models, path, tr, *interval); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			os.Exit(1)
		}
	}
}

// replay analyzes every interval of one trace. An interval the models
// cannot analyze (a VF state outside their table) fails the replay.
func replay(models *core.Models, path string, tr *trace.Trace, detail int) error {
	var errs []float64
	for i, iv := range tr.Intervals {
		rep := new(core.Report)
		if err := models.AnalyzeInto(iv, rep); err != nil {
			return fmt.Errorf("interval %d: %w", i, err)
		}
		if iv.MeasPowerW > 0 {
			errs = append(errs, stats.AbsPctErr(float64(rep.Current().ChipW), iv.MeasPowerW))
		}
		if i == detail {
			fmt.Printf("\n%s interval %d (t=%.1fs, %v, %.1f°K, measured %.1fW):\n",
				path, i, iv.TimeS, iv.VF(), iv.TempK, iv.MeasPowerW)
			fmt.Printf("%-6s %9s %9s %11s\n", "state", "chip W", "idle W", "IPS")
			for j := len(rep.PerVF) - 1; j >= 0; j-- {
				p := rep.PerVF[j]
				fmt.Printf("%-6v %9.1f %9.1f %11.2e\n", p.VF, p.ChipW, p.IdleW, p.TotalIPS)
			}
		}
	}
	s := stats.SummarizeAbsErrors(errs)
	fmt.Printf("%s: %d intervals, estimation AAE %.1f%% (SD %.1f%%, max %.1f%%)\n",
		path, s.N, 100*s.Mean, 100*s.SD, 100*s.Max)
	return nil
}
