// Package exp regenerates every table and figure of the paper's
// evaluation (§5). Each experiment is a function from loaded system data
// to a Report — a rendered text table plus a CSV series — and the Suite
// groups them so cmd/experiments and the benchmark harness can run the
// whole evaluation in one call.
//
// The experiment ↔ module mapping lives in DESIGN.md §4; expected versus
// measured results are recorded in EXPERIMENTS.md.
package exp

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/bgsim"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/learner"
	"repro/internal/meta"
	"repro/internal/preprocess"
	"repro/internal/raslog"
)

// Thresholds are the Table 4 filtering thresholds in seconds.
var Thresholds = []int64{0, 10, 60, 120, 200, 300, 400}

// SystemData is one installation's generated and preprocessed log plus
// the raw-log statistics needed by Tables 2 and 4 (the raw log itself is
// not retained — at full scale it is millions of events).
type SystemData struct {
	Cfg      *bgsim.Config
	Catalog  *preprocess.Catalog
	RawCount int
	RawBytes int64
	// Sweep[fac][i] is the number of events of a facility surviving the
	// filter at Thresholds[i] (Table 4's layout).
	Sweep [][]int
	// Filtered is the 300 s-filtered log; Tagged its categorized form —
	// the stream every learner and predictor consumes.
	Filtered *raslog.Log
	Tagged   []preprocess.TaggedEvent
	Fatals   int
}

// Load generates a system's raw log, runs the full preprocessing pipeline
// (categorizer + filter), and computes the raw-side statistics. The raw
// log is discarded before returning.
func Load(cfg *bgsim.Config) (*SystemData, error) {
	g, err := bgsim.NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	raw, err := g.Generate()
	if err != nil {
		return nil, err
	}
	sd := &SystemData{
		Cfg:      cfg,
		Catalog:  g.Catalog(),
		RawCount: raw.Len(),
		RawBytes: raslog.LogSizeBytes(raw),
		Sweep:    preprocess.ThresholdSweep(raw, Thresholds),
	}
	filtered, _ := preprocess.Filter{Threshold: 300}.Apply(raw)
	raw = nil // release the raw log before tagging
	sd.Filtered = filtered
	z := preprocess.NewCategorizer(sd.Catalog)
	sd.Tagged = z.Tag(filtered)
	sd.Fatals = preprocess.FatalCount(sd.Tagged)
	return sd, nil
}

// Suite bundles the loaded systems and shared parameters.
type Suite struct {
	Systems []*SystemData
	Params  learner.Params
	// Parallelism bounds how many independent engine runs a multi-cell
	// experiment (Figures 7, 9, 10) executes concurrently: 0 means
	// GOMAXPROCS, 1 runs the cells one at a time. Each cell is an
	// independent run over read-only system data, so the reports are
	// identical at any setting. It is the only parallelism setting: each
	// run trains on one goroutine, learning one pass ahead of its
	// predictor.
	Parallelism int
	// Metrics, when non-nil, accumulates every engine run's training
	// passes (per-learner durations, reviser time, rule churn) — the
	// suite-wide live Table 5 that cmd/experiments snapshots to
	// metrics.prom. Instruments are concurrency-safe, so parallel grid
	// cells record into it directly.
	Metrics *engine.TrainingMetrics
}

// NewSuite loads the given configurations (typically the ANL and SDSC
// presets, possibly scaled down for quick runs). Systems generate and
// preprocess independently, so they load concurrently.
func NewSuite(cfgs ...*bgsim.Config) (*Suite, error) {
	s := &Suite{Params: learner.Params{WindowSec: 300}}
	s.Systems = make([]*SystemData, len(cfgs))
	err := forEach(len(cfgs), 0, func(i int) error {
		sd, err := Load(cfgs[i])
		if err != nil {
			return fmt.Errorf("exp: loading %s: %w", cfgs[i].Name, err)
		}
		s.Systems[i] = sd
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// forEach runs fn(0..n-1) under at most `workers` goroutines and returns
// the lowest-index error (matching what a serial loop would surface).
// workers ≤ 0 means runtime.GOMAXPROCS(0); one runs fn serially on the
// caller's goroutine.
func forEach(n, workers int, fn func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// QuickSuite loads shortened, duplication-reduced presets for tests and
// benchmarks: the unique-event structure (and therefore every learner-
// facing behaviour) is unchanged; only the raw duplicate volume and the
// log length shrink.
func QuickSuite(seed uint64, weeks int) (*Suite, error) {
	return NewSuite(bgsim.ANL(seed).Scaled(weeks, 0.02), bgsim.SDSC(seed).Scaled(weeks, 0.02))
}

// All runs every experiment in paper order.
func (s *Suite) All() ([]*Report, error) {
	type entry struct {
		name string
		run  func() (*Report, error)
	}
	entries := []entry{
		{"table2", s.Table2},
		{"table3", s.Table3},
		{"table4", s.Table4},
		{"table5", s.Table5},
		{"fig4", s.Figure4},
		{"fig5", s.Figure5},
		{"fig7", s.Figure7},
		{"fig8", s.Figure8},
		{"fig9", s.Figure9},
		{"fig10", s.Figure10},
		{"fig11", s.Figure11},
		{"fig12", s.Figure12},
		{"fig13", s.Figure13},
	}
	reports := make([]*Report, 0, len(entries))
	for _, e := range entries {
		r, err := e.run()
		if err != nil {
			return reports, fmt.Errorf("exp: %s: %w", e.name, err)
		}
		reports = append(reports, r)
	}
	return reports, nil
}

// run executes the engine over one system with the given configuration.
func (s *Suite) run(sd *SystemData, cfg engine.Config) (*engine.Result, error) {
	return engine.Run(sd.Tagged, sd.Cfg.Start, sd.Cfg.Weeks, cfg)
}

// engineDefaults adapts the paper defaults to short quick-suite logs: the
// initial training window shrinks so a test span always remains.
func (s *Suite) engineDefaults(sd *SystemData) engine.Config {
	cfg := engine.Defaults()
	cfg.Params = s.Params
	cfg.Metrics = s.Metrics
	if sd.Cfg.Weeks <= cfg.InitialTrainWeeks+4 {
		cfg.InitialTrainWeeks = sd.Cfg.Weeks / 2
		cfg.TrainWeeks = cfg.InitialTrainWeeks
	}
	return cfg
}

// meanEarlyLate summarizes a weekly series: overall mean, first 20 test
// weeks, and last 26 weeks.
func meanEarlyLate(weekly []eval.WeekPoint, testFrom, weeks int) (p, r, pe, re, pl, rl float64) {
	var ne, nl int
	n := 0
	for _, wp := range weekly {
		p += wp.Precision()
		r += wp.Recall()
		n++
		if wp.Week < testFrom+20 {
			pe += wp.Precision()
			re += wp.Recall()
			ne++
		}
		if wp.Week >= weeks-26 {
			pl += wp.Precision()
			rl += wp.Recall()
			nl++
		}
	}
	div := func(x float64, c int) float64 {
		if c == 0 {
			return 0
		}
		return x / float64(c)
	}
	return div(p, n), div(r, n), div(pe, ne), div(re, ne), div(pl, nl), div(rl, nl)
}

// defaultMeta builds a meta-learner with paper defaults (a fresh one per
// engine run keeps experiments independent).
func defaultMeta() *meta.MetaLearner { return meta.New() }

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func d(v int) string      { return fmt.Sprintf("%d", v) }

// dur renders a Table 5 timing cell in milliseconds at microsecond
// resolution, one unit for every cell, so sub-millisecond passes do not
// all read 0.
func dur(v time.Duration) string {
	return fmt.Sprintf("%.3fms", float64(v.Microseconds())/1000)
}
