// Command experiments regenerates every table and figure of the paper's
// evaluation and writes them under an output directory: one rendered
// text file and one CSV per experiment, plus a combined report and a
// metrics.prom snapshot of the accumulated training metrics (per-learner
// durations, reviser time, rule churn — the live Table 5) in Prometheus
// text exposition.
//
// Usage:
//
//	experiments [-out results] [-seed 2008] [-quick] [-weeks N] [-scale F]
//	            [-parallelism N] [-cpuprofile F] [-memprofile F]
//
// The default is the full-scale ANL and SDSC presets (a few minutes and
// a few GB of transient memory for the raw ANL log); -quick runs a
// shortened, duplication-reduced configuration in seconds.
//
// -parallelism bounds how many experiment cells (independent engine runs)
// execute at once: 0 (the default) means GOMAXPROCS, 1 runs them one at
// a time. Each run trains on one goroutine, learning one pass ahead of
// its predictor. Results are identical at any setting. -cpuprofile /
// -memprofile write pprof profiles of the run for performance work.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/bgsim"
	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/obsv"
)

func main() {
	out := flag.String("out", "results", "output directory")
	seed := flag.Uint64("seed", 2008, "generator seed")
	quick := flag.Bool("quick", false, "run the reduced quick suite")
	weeks := flag.Int("weeks", 0, "override log length in weeks (0 = preset)")
	scale := flag.Float64("scale", -1, "override raw duplication scale (<0 = preset)")
	parallelism := flag.Int("parallelism", 0, "concurrent experiment cells (0 = GOMAXPROCS, 1 = one at a time)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	if err := run(*out, *seed, *quick, *weeks, *scale, *parallelism); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
}

func run(out string, seed uint64, quick bool, weeks int, scale float64, parallelism int) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	cfgs := []*bgsim.Config{bgsim.ANL(seed), bgsim.SDSC(seed)}
	if quick {
		for i, cfg := range cfgs {
			cfgs[i] = cfg.Scaled(24, 0.02)
		}
	}
	for i, cfg := range cfgs {
		w, s := cfg.Weeks, cfg.RawScale
		if weeks > 0 {
			w = weeks
		}
		if scale >= 0 {
			s = scale
		}
		cfgs[i] = cfg.Scaled(w, s)
	}

	start := time.Now()
	fmt.Printf("loading %d systems (seed %d)...\n", len(cfgs), seed)
	suite, err := exp.NewSuite(cfgs...)
	if err != nil {
		return err
	}
	suite.Parallelism = parallelism
	// Accumulate every training pass of the whole grid — the live Table 5
	// — and snapshot it to metrics.prom alongside the reports.
	metrics := obsv.NewRegistry()
	suite.Metrics = engine.NewTrainingMetrics(metrics)
	for _, sd := range suite.Systems {
		fmt.Printf("  %s: %d raw events -> %d filtered, %d fatals\n",
			sd.Cfg.Name, sd.RawCount, sd.Filtered.Len(), sd.Fatals)
	}

	combined, err := os.Create(filepath.Join(out, "all.txt"))
	if err != nil {
		return err
	}
	defer combined.Close()

	reports, err := suite.All()
	if err != nil {
		return err
	}
	for _, r := range reports {
		fmt.Printf("  %-8s %s\n", r.ID, r.Title)
		if err := r.Render(combined); err != nil {
			return err
		}
		txt, err := os.Create(filepath.Join(out, r.ID+".txt"))
		if err != nil {
			return err
		}
		if err := r.Render(txt); err != nil {
			txt.Close()
			return err
		}
		txt.Close()
		csvf, err := os.Create(filepath.Join(out, r.ID+".csv"))
		if err != nil {
			return err
		}
		if err := r.WriteCSV(csvf); err != nil {
			csvf.Close()
			return err
		}
		csvf.Close()
	}
	promf, err := os.Create(filepath.Join(out, "metrics.prom"))
	if err != nil {
		return err
	}
	if err := metrics.WritePrometheus(promf); err != nil {
		promf.Close()
		return err
	}
	if err := promf.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d experiments to %s in %v\n",
		len(reports), out, time.Since(start).Round(time.Second))
	return nil
}
