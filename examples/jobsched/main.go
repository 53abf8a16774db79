// Jobsched: failure-aware job scheduling, the other §1.1 motivation
// ("failure-aware resource management and scheduling").
//
// A stream of batch jobs arrives at a simulated machine. A job that is
// running when a fatal event strikes is killed and must rerun from
// scratch. Two schedulers compete over the same job stream and the same
// failure record:
//
//   - baseline: starts every job immediately;
//   - failure-aware: holds job starts while a failure warning is open
//     (predicted failure within W_P), releasing them once the window
//     passes.
//
// Good recall converts into fewer killed jobs; the price of false alarms
// is added queueing delay.
//
//	go run ./examples/jobsched
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"time"

	"repro"
	"repro/internal/stats"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	cfg := repro.SDSC(11).Scaled(40, 0.05)
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

	jobs := generateJobs(start, end, 9001)
	fmt.Fprintf(w, "job stream: %d jobs (30 min - 4 h runtimes)\n\n", len(jobs))

	baseKilled, baseDelay := schedule(jobs, res.FatalTimes, nil)
	awareKilled, awareDelay := schedule(jobs, res.FatalTimes, res.Warnings)

	fmt.Fprintf(w, "%-15s %10s %18s\n", "scheduler", "killed", "mean start delay")
	fmt.Fprintf(w, "%-15s %10d %18s\n", "baseline", baseKilled, baseDelay.Round(time.Second))
	fmt.Fprintf(w, "%-15s %10d %18s\n", "failure-aware", awareKilled, awareDelay.Round(time.Second))
	if baseKilled > 0 {
		fmt.Fprintf(w, "\nkilled-job reduction: %.1f%%\n",
			100*float64(baseKilled-awareKilled)/float64(baseKilled))
	}
	return nil
}

type job struct {
	arrival int64 // ms
	runtime int64 // ms
}

// generateJobs produces a Poisson arrival stream with log-uniform
// runtimes between 30 minutes and 4 hours.
func generateJobs(start, end int64, seed uint64) []job {
	r := stats.NewRNG(seed)
	var jobs []job
	t := start
	for {
		t += int64(r.ExpFloat64() * 45 * 60 * 1000) // mean 45 min between arrivals
		if t >= end {
			return jobs
		}
		runtime := int64(30*60*1000) + r.Int63n(int64(3.5*60*60*1000))
		jobs = append(jobs, job{arrival: t, runtime: runtime})
	}
}

// schedule replays the job stream. With warnings, a job whose start falls
// inside an open warning window is postponed to the window's deadline
// (re-checked against any newer warning). A running job is killed and
// restarted whenever a fatal event occurs before it finishes; each job
// gives up after 5 kills.
func schedule(jobs []job, fatals []int64, warnings []repro.Warning) (killed int, meanDelay time.Duration) {
	var totalDelay time.Duration
	for _, j := range jobs {
		startAt := j.arrival
		if warnings != nil {
			startAt = deferPastWarnings(startAt, warnings)
		}
		totalDelay += time.Duration(startAt-j.arrival) * time.Millisecond
		// Run, restarting on failures.
		for attempt := 0; attempt < 5; attempt++ {
			finish := startAt + j.runtime
			k := firstFatalIn(fatals, startAt, finish)
			if k < 0 {
				break
			}
			killed++
			startAt = fatals[k] + 60_000 // restart a minute after the crash
			if warnings != nil {
				startAt = deferPastWarnings(startAt, warnings)
			}
		}
	}
	if len(jobs) == 0 {
		return killed, 0
	}
	return killed, totalDelay / time.Duration(len(jobs))
}

// deferPastWarnings pushes a start time past every warning window that
// covers it.
func deferPastWarnings(t int64, warnings []repro.Warning) int64 {
	for {
		moved := false
		i := sort.Search(len(warnings), func(i int) bool { return warnings[i].Deadline >= t })
		for ; i < len(warnings) && warnings[i].Time <= t; i++ {
			if t > warnings[i].Time && t <= warnings[i].Deadline {
				t = warnings[i].Deadline + 1
				moved = true
			}
		}
		if !moved {
			return t
		}
	}
}

// firstFatalIn returns the index of the first fatal in (from, to], or -1.
func firstFatalIn(fatals []int64, from, to int64) int {
	i := sort.Search(len(fatals), func(i int) bool { return fatals[i] > from })
	if i < len(fatals) && fatals[i] <= to {
		return i
	}
	return -1
}
