// Quickstart: the paper's whole pipeline in one page.
//
// It simulates a small Blue Gene/L installation, preprocesses the raw RAS
// log (categorize + filter), runs the dynamic meta-learning framework
// over it, and prints the prediction accuracy week by week.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// A 30-week SDSC-like installation at reduced raw-duplication scale
	// (the unique event structure the learners see is unchanged).
	cfg := repro.SDSC(42).Scaled(30, 0.05)

	raw, err := repro.Generate(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "raw RAS log: %d events over %d weeks\n", raw.Len(), cfg.Weeks)

	// Data preprocessing (paper §3): categorize into the 219-class
	// catalog and compress duplicates with the 300 s threshold.
	events, stats := repro.Preprocess(raw, 300)
	fmt.Fprintf(w, "after filtering: %d events (%.1f%% compression)\n",
		len(events), 100*stats.CompressionRate())

	// The dynamic meta-learning framework (paper §4): train on the first
	// 12 weeks, retrain every 4 weeks on a sliding 12-week window,
	// predict failures within a 300 s window.
	opts := repro.DefaultOptions()
	opts.InitialTrainWeeks = 12
	opts.TrainWeeks = 12
	res, err := repro.Run(events, cfg.Start, cfg.Weeks, opts)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "\nweekly accuracy (test weeks %d-%d):\n", res.TestFrom, cfg.Weeks-1)
	fmt.Fprintf(w, "%-6s %-10s %-8s %-8s\n", "week", "precision", "recall", "fatals")
	for _, wp := range res.Weekly {
		fmt.Fprintf(w, "%-6d %-10.2f %-8.2f %-8d\n", wp.Week, wp.Precision(), wp.Recall(), wp.Fatals)
	}
	fmt.Fprintf(w, "\noverall: %s\n", res.Overall)

	fmt.Fprintln(w, "\nknowledge repository across retrainings:")
	for _, rt := range res.Retrainings {
		fmt.Fprintf(w, "  week %2d: %3d rules (unchanged %3d, added %3d, removed %d+%d)\n",
			rt.Week, rt.RepoSize, rt.Churn.Unchanged, rt.Churn.Added,
			rt.Churn.RemovedByMeta, rt.Churn.RemovedByReviser)
	}
	return nil
}
