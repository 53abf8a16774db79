// Checkpointing: failure-aware checkpoint scheduling driven by the
// framework's warnings — the paper's §1.1 motivation ("an efficient
// failure prediction could substantially reduce [checkpointing's]
// operational cost by telling when and where to perform checkpoints").
//
// A long-running application executes across the test span of a simulated
// SDSC log. Whenever a failure strikes, all work since the last
// checkpoint is lost. Three strategies compete:
//
//   - periodic-1h:  blind checkpoints every hour;
//   - periodic-4h:  blind checkpoints every four hours;
//   - predictive:   checkpoint when the predictor warns, with a 6 h
//     fallback so silent stretches stay bounded.
//
// The predictive strategy converts recall into less lost work and
// precision into fewer wasted checkpoints.
//
//	go run ./examples/checkpointing
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"time"

	"repro"
)

const (
	checkpointCost = 4 * time.Minute // time to write one checkpoint
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	cfg := repro.SDSC(7).Scaled(40, 0.05)
	raw, err := repro.Generate(cfg)
	if err != nil {
		return err
	}
	events, _ := repro.Preprocess(raw, 300)

	opts := repro.DefaultOptions()
	opts.InitialTrainWeeks = 16
	opts.TrainWeeks = 16
	res, err := repro.Run(events, cfg.Start, cfg.Weeks, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "predictor over the test span: %s\n\n", res.Overall)

	start := cfg.Start + int64(res.TestFrom)*7*24*3600*1000
	end := cfg.Start + int64(cfg.Weeks)*7*24*3600*1000

	warnTimes := make([]int64, 0, len(res.Warnings))
	for _, w := range res.Warnings {
		warnTimes = append(warnTimes, w.Time)
	}
	sort.Slice(warnTimes, func(i, j int) bool { return warnTimes[i] < warnTimes[j] })

	fmt.Fprintf(w, "%-14s %14s %14s %12s %14s\n",
		"strategy", "lost work", "checkpoints", "ckpt cost", "total waste")
	for _, s := range []strategy{
		periodic{"periodic-1h", time.Hour},
		periodic{"periodic-4h", 4 * time.Hour},
		predictive{warnTimes, 6 * time.Hour},
	} {
		lost, ckpts := simulate(s, start, end, res.FatalTimes)
		overhead := time.Duration(ckpts) * checkpointCost
		fmt.Fprintf(w, "%-14s %14s %14d %12s %14s\n",
			s.name(), lost.Round(time.Minute), ckpts,
			overhead.Round(time.Minute), (lost + overhead).Round(time.Minute))
	}
	return nil
}

// strategy decides the next checkpoint instant given the current time.
type strategy interface {
	name() string
	// next returns the next checkpoint time strictly after now (ms).
	next(now int64) int64
}

type periodic struct {
	label    string
	interval time.Duration
}

func (p periodic) name() string { return p.label }
func (p periodic) next(now int64) int64 {
	return now + p.interval.Milliseconds()
}

// predictive checkpoints at each warning (warnings within the fallback
// horizon take priority) and otherwise at the fallback interval.
type predictive struct {
	warnings []int64 // sorted ms
	fallback time.Duration
}

func (p predictive) name() string { return "predictive" }
func (p predictive) next(now int64) int64 {
	deadline := now + p.fallback.Milliseconds()
	i := sort.Search(len(p.warnings), func(i int) bool { return p.warnings[i] > now })
	if i < len(p.warnings) && p.warnings[i] < deadline {
		return p.warnings[i]
	}
	return deadline
}

// simulate replays the fatal record against a checkpoint schedule and
// accumulates the work lost to each failure (time since the last
// checkpoint) plus the number of checkpoints taken.
func simulate(s strategy, start, end int64, fatals []int64) (lost time.Duration, checkpoints int) {
	lastCkpt := start
	nextCkpt := s.next(start)
	fi := 0
	for now := start; now < end; {
		// Advance to whichever comes first: the next checkpoint or the
		// next fatal.
		var nextFatal int64 = end
		if fi < len(fatals) {
			nextFatal = fatals[fi]
		}
		if nextCkpt <= nextFatal {
			now = nextCkpt
			lastCkpt = now
			checkpoints++
			nextCkpt = s.next(now)
			continue
		}
		now = nextFatal
		fi++
		lost += time.Duration(now-lastCkpt) * time.Millisecond
		// The application restarts from the checkpoint; schedule anew.
		nextCkpt = s.next(now)
	}
	return lost, checkpoints
}
