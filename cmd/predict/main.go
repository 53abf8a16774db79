// Command predict runs the dynamic meta-learning framework over a RAS log
// (text codec) and prints weekly precision/recall plus the retraining
// record.
//
// Usage:
//
//	predict [-in FILE] [-filter 300] [-window 300] [-retrain 4] [-train 26]
//	        [-policy sliding|whole|static] [-sort]
//
// Reads stdin when -in is omitted:
//
//	bgsim-gen -system sdsc -scale 0.05 | predict -train 26
//
// The input is decoded on its own goroutine, a few chunks of lines ahead
// of the incremental preprocessor (raslog.ScanLog), so only the filtered
// events (~2% of the raw log at the default threshold)
// are ever resident in memory. That requires a time-sorted input — which
// bgsim-gen and the production logs produce; pass -sort to buffer and
// sort an unsorted log first.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro"
	"repro/internal/preprocess"
	"repro/internal/raslog"
)

func main() {
	in := flag.String("in", "", "input raw log file (default stdin)")
	filter := flag.Int64("filter", 300, "preprocessing filter threshold in seconds (0 disables)")
	window := flag.Int64("window", 300, "prediction window W_P in seconds")
	retrain := flag.Int("retrain", 4, "retraining window W_R in weeks")
	train := flag.Int("train", 26, "initial/sliding training set in weeks")
	policy := flag.String("policy", "sliding", "training policy: sliding, whole or static")
	sortFirst := flag.Bool("sort", false, "buffer the whole log and sort it before preprocessing")
	verbose := flag.Bool("v", false, "print every week instead of a summary")
	flag.Parse()

	if err := run(*in, *filter, *window, *retrain, *train, *policy, *sortFirst, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "predict:", err)
		os.Exit(1)
	}
}

// load streams the input through the incremental preprocessor, returning
// the filtered tagged events plus the raw log's start time and week span.
func load(src io.Reader, filter int64, sortFirst bool) ([]repro.TaggedEvent, repro.FilterStats, int64, int, error) {
	if sortFirst {
		log, err := raslog.ReadLog(src, "input")
		if err != nil {
			return nil, repro.FilterStats{}, 0, 0, err
		}
		log.SortByTime()
		events, stats := repro.Preprocess(log, filter)
		return events, stats, log.Start(), log.Weeks(), nil
	}

	inc := preprocess.Filter{Threshold: filter}.Incremental()
	zer := preprocess.NewCategorizer(preprocess.NewCatalog())
	var (
		events      []repro.TaggedEvent
		first, last int64
		seen        bool
	)
	err := raslog.ScanLog(src, func(e repro.Event) error {
		if !seen {
			first, seen = e.Time, true
		} else if e.Time < last {
			return fmt.Errorf("input not time-sorted at record %d (run with -sort)", e.RecordID)
		}
		last = e.Time
		if inc.Observe(e) {
			class, fatal := zer.Categorize(e)
			events = append(events, repro.TaggedEvent{Event: e, Class: class, Fatal: fatal})
		}
		return nil
	})
	if err != nil {
		return nil, repro.FilterStats{}, 0, 0, err
	}
	weeks := 0
	if seen {
		weeks = int((last-first)/raslog.MillisPerWeek) + 1
	}
	return events, inc.Stats(), first, weeks, nil
}

func run(in string, filter, window int64, retrain, train int, policy string, sortFirst, verbose bool) error {
	var src io.Reader = os.Stdin
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	events, stats, start, weeks, err := load(src, filter, sortFirst)
	if err != nil {
		return err
	}
	fmt.Printf("log: %d raw events, %d after filtering (%.1f%% compression)\n",
		stats.Input, stats.AfterSpatial, 100*stats.CompressionRate())

	opts := repro.DefaultOptions()
	opts.Params.WindowSec = window
	opts.RetrainWeeks = retrain
	opts.InitialTrainWeeks = train
	opts.TrainWeeks = train
	switch policy {
	case "sliding":
		opts.Policy = repro.SlidingPolicy
	case "whole":
		opts.Policy = repro.WholePolicy
	case "static":
		opts.Policy = repro.StaticPolicy
	default:
		return fmt.Errorf("unknown policy %q", policy)
	}

	res, err := repro.Run(events, start, weeks, opts)
	if err != nil {
		return err
	}

	fmt.Printf("test span: weeks %d-%d, %d fatals, %d warnings\n",
		res.TestFrom, weeks-1, len(res.FatalTimes), len(res.Warnings))
	fmt.Printf("overall: %s\n", res.Overall)
	if verbose {
		fmt.Printf("\n%-6s %-10s %-10s %-6s %-6s\n", "week", "precision", "recall", "TP", "FP")
		for _, wp := range res.Weekly {
			fmt.Printf("%-6d %-10.3f %-10.3f %-6d %-6d\n",
				wp.Week, wp.Precision(), wp.Recall(), wp.TP, wp.FP)
		}
	}
	fmt.Printf("\nretrainings: %d (rule matching %v total)\n",
		len(res.Retrainings), res.MatchDuration)
	for _, rt := range res.Retrainings {
		fmt.Printf("  week %3d: %5d train events, repo %3d rules "+
			"(unchanged %d, +%d, -%d meta, -%d reviser) in %v\n",
			rt.Week, rt.TrainEvents, rt.RepoSize, rt.Churn.Unchanged,
			rt.Churn.Added, rt.Churn.RemovedByMeta, rt.Churn.RemovedByReviser, rt.Total)
	}
	return nil
}
