// Package engine orchestrates the *dynamic* half of the framework
// (paper §4, Figure 3): it maintains the training set over time, invokes
// the meta-learner and reviser every retraining window W_R, swaps the
// refreshed rule set into the online predictor, and scores predictions
// week by week. The training-set policies (static, sliding, whole-history)
// and the retraining cadence are exactly the experimental axes of
// Figures 9 and 10.
package engine

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/eval"
	"repro/internal/learner"
	"repro/internal/learner/incr"
	"repro/internal/meta"
	"repro/internal/predictor"
	"repro/internal/preprocess"
	"repro/internal/raslog"
)

// Policy selects how the training set evolves (Figure 9's four curves).
type Policy int

// Training-set policies.
const (
	// Static trains once on the initial window and never retrains —
	// Figure 9's "static" baseline.
	Static Policy = iota
	// Sliding retrains every W_R weeks on the most recent TrainWeeks of
	// data ("dynamic-6 mo" / "dynamic-3 mo").
	Sliding
	// Whole retrains every W_R weeks on all history so far
	// ("dynamic-whole").
	Whole
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case Static:
		return "static"
	case Sliding:
		return "sliding"
	case Whole:
		return "whole"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Config parameterizes one engine run.
type Config struct {
	// Params carries the prediction / rule-generation window W_P.
	Params learner.Params
	// Policy selects the training-set evolution.
	Policy Policy
	// InitialTrainWeeks is the length of the first training set
	// (paper default: 26 weeks ≈ six months).
	InitialTrainWeeks int
	// TrainWeeks is the sliding-window length for Policy == Sliding.
	TrainWeeks int
	// RetrainWeeks is W_R, the retraining cadence (paper default 4).
	RetrainWeeks int
	// Meta supplies the learners and reviser; nil means meta.New().
	Meta *meta.MetaLearner
	// KindFilter, when non-nil, restricts the predictor to rules of one
	// family — how Figure 7 evaluates each base learner in isolation.
	KindFilter *learner.Kind
	// Metrics, when non-nil, records every (re)training pass — duration,
	// per-learner time, reviser time, rule churn — into an obsv registry:
	// the live version of Table 5. Nil disables recording.
	Metrics *TrainingMetrics
}

// DefaultWindowSec is the paper's base prediction / rule-generation
// window W_P (300 s, §5.2). It doubles as the alarm-spacing anchor:
// warning deduplication stays at this base window even when a run
// evaluates wider prediction windows (Figure 13), so the clamp in
// newPredictor and stream's newPredictor derives from this constant
// rather than repeating the literal.
const DefaultWindowSec int64 = 300

// Defaults returns the paper's default configuration: dynamic retraining
// every 4 weeks on a sliding six-month window, W_P = 300 s.
func Defaults() Config {
	return Config{
		Params:            learner.Params{WindowSec: DefaultWindowSec},
		Policy:            Sliding,
		InitialTrainWeeks: 26,
		TrainWeeks:        26,
		RetrainWeeks:      4,
	}
}

func (c *Config) validate(totalWeeks int) error {
	if c.Params.WindowSec <= 0 {
		return fmt.Errorf("engine: WindowSec = %d, need > 0", c.Params.WindowSec)
	}
	if c.InitialTrainWeeks <= 0 {
		return fmt.Errorf("engine: InitialTrainWeeks = %d, need > 0", c.InitialTrainWeeks)
	}
	if c.InitialTrainWeeks >= totalWeeks {
		return fmt.Errorf("engine: initial training (%d weeks) consumes the whole %d-week log",
			c.InitialTrainWeeks, totalWeeks)
	}
	if c.Policy == Sliding && c.TrainWeeks <= 0 {
		return fmt.Errorf("engine: sliding policy needs TrainWeeks > 0")
	}
	if c.Policy != Static && c.RetrainWeeks <= 0 {
		return fmt.Errorf("engine: dynamic policy needs RetrainWeeks > 0")
	}
	return nil
}

// Retraining records one (re)training pass.
type Retraining struct {
	Week        int // zero-based week at which the new rules took effect
	TrainEvents int
	RepoSize    int
	Churn       meta.Churn
	// Durations for Table 5.
	LearnerDurations map[string]time.Duration
	ReviseDuration   time.Duration
	Total            time.Duration
	// Incr describes the sufficient-statistics advance behind this pass
	// (TrainWindow fills it in); nil only in records restored from
	// snapshots of older versions, which could train without it.
	Incr *IncrInfo
}

// IncrInfo records what the incremental maintainer did for one pass:
// the delta it applied, or the full-rebuild fallback it fell into.
type IncrInfo struct {
	// Applied and Expired count the events that entered / left the
	// training window in this advance.
	Applied int
	Expired int
	// Rebuild marks a full rebuild fallback; Reason says why.
	Rebuild bool
	Reason  string `json:",omitempty"`
	// AdvanceDuration is the time spent updating the sufficient
	// statistics (the delta-apply itself, excluding rule emission).
	AdvanceDuration time.Duration
}

// Result is the outcome of an engine run.
type Result struct {
	Config      Config
	Start       int64 // ms of week 0
	Weeks       int
	TestFrom    int // first predicted week (== InitialTrainWeeks)
	Warnings    []predictor.Warning
	FatalTimes  []int64 // fatals in the test span
	Weekly      []eval.WeekPoint
	Overall     eval.Outcome
	Retrainings []Retraining
	// MatchDuration is the total time spent in the event-driven predictor
	// over the whole test span (the "rule matching" column of Table 5).
	MatchDuration time.Duration
}

// TrainWindow runs one (re)training pass over the events in [from, to):
// view → learn → revise. It slides st's sufficient statistics to that
// window and serves the learners from them, then runs the meta-learner,
// reviser and repository swap (TrainStepPrepared). The streaming service
// (internal/stream) calls it for every retrain, and Run runs the same
// three steps with the next pass's view and learners overlapping this
// pass's revise, so the paper's retrain-every-W_R step has a single
// implementation. events must be time-sorted and agree with what st was
// fed before on any shared time range; st rebuilds from scratch when it
// cannot slide (first pass, W_P change, window moving backwards, drift).
// The returned Retraining has Week zero; callers with a week timeline
// set it.
func TrainWindow(ml *meta.MetaLearner, repo *meta.Repository, st *incr.State, events []preprocess.TaggedEvent, from, to int64, params learner.Params) (Retraining, error) {
	pre, info := trainView(st, events, from, to, params)
	rt, err := TrainStepPrepared(ml, repo, pre, params)
	rt.Incr = info
	return rt, err
}

// TrainStepPrepared runs the meta-learner, reviser and repository swap
// over a prepared training view and returns the pass record. TrainWindow
// calls it with the maintained statistics installed on the view; over a
// bare view it is the learners' batch pass, the reference the maintained
// statistics are pinned against.
func TrainStepPrepared(ml *meta.MetaLearner, repo *meta.Repository, pre *learner.Prepared, params learner.Params) (Retraining, error) {
	t0 := time.Now()
	report, err := learnPass(ml, pre, params)
	if err != nil {
		return Retraining{}, err
	}
	rt := revise(ml, repo, pre, report, params)
	rt.Total = time.Since(t0)
	return rt, nil
}

// view is the first step of a pass: it slides st's sufficient statistics
// to [from, to) and returns the window's training view with them
// installed, plus what the slide did.
func view(st *incr.State, events []preprocess.TaggedEvent, from, to int64, params learner.Params) (*learner.Prepared, *IncrInfo) {
	t0 := time.Now()
	d := st.Advance(events, from, to, params)
	info := &IncrInfo{Applied: d.Applied, Expired: d.Expired,
		Rebuild: d.Rebuild, Reason: d.Reason, AdvanceDuration: time.Since(t0)}
	pre := learner.Prepare(events[searchTime(events, from):searchTime(events, to)])
	st.Install(pre)
	return pre, info
}

// trainView is the view step of TrainWindow and Run. It is a variable
// only so that this package's tests can swap in a bare view of the
// window — the learners' batch pass — as the reference.
var trainView = view

// learnPass is the learn step of TrainStepPrepared and Run, a variable
// for the same reason as trainView: this package's tests swap in a step
// that fails on a chosen pass.
var learnPass = (*meta.MetaLearner).Learn

// revise is the last step of a pass: the reviser over the learned
// candidates, then the repository swap. It reads only the view's events,
// its carried replay and the report, never the statistics that served
// the learners, and the passes of one chain revise in pass order. The
// record's Total is left to the caller.
func revise(ml *meta.MetaLearner, repo *meta.Repository, pre *learner.Prepared, report *meta.TrainReport, params learner.Params) Retraining {
	ml.Revise(report, pre, params)
	churn := repo.Update(report)
	return Retraining{
		TrainEvents:      len(pre.Events),
		RepoSize:         repo.Len(),
		Churn:            churn,
		LearnerDurations: report.LearnerDurations,
		ReviseDuration:   report.ReviseDuration,
	}
}

// searchTime returns the index of the first event at or after t.
func searchTime(events []preprocess.TaggedEvent, t int64) int {
	return sort.Search(len(events), func(i int) bool { return events[i].Time >= t })
}

// learned is one pass of Run with its view and learn steps done: what
// the caller needs to revise it, and what the steps so far cost.
type learned struct {
	week   int
	pre    *learner.Prepared
	report *meta.TrainReport
	info   *IncrInfo
	took   time.Duration // view and learners
	err    error
}

// Run executes the framework over a preprocessed, time-sorted event
// stream spanning [start, start + weeks). Training happens inside the
// stream's own timeline: the first InitialTrainWeeks are training-only,
// prediction and periodic retraining cover the rest.
func Run(events []preprocess.TaggedEvent, start int64, weeks int, cfg Config) (*Result, error) {
	if err := cfg.validate(weeks); err != nil {
		return nil, err
	}
	ml := cfg.Meta
	if ml == nil {
		ml = meta.New()
	}
	res := &Result{Config: cfg, Start: start, Weeks: weeks, TestFrom: cfg.InitialTrainWeeks}
	repo := meta.NewRepository()

	weekMs := int64(raslog.MillisPerWeek)
	at := func(week int) int64 { return start + int64(week)*weekMs }

	// The passes: the initial training, then one every W_R weeks.
	schedule := []int{cfg.InitialTrainWeeks}
	if cfg.Policy != Static {
		for week := cfg.InitialTrainWeeks + cfg.RetrainWeeks; week < weeks; week += cfg.RetrainWeeks {
			schedule = append(schedule, week)
		}
	}

	// learn runs the view and learn steps of the pass at week, in pass
	// order. It alone touches st, which carries the learners' sufficient
	// statistics across the overlapping training windows and turns each
	// pass into a delta-apply.
	st := incr.New(meta.IncrConfig(ml, cfg.Params))
	learn := func(week int) learned {
		t0 := time.Now()
		from, to := start, at(week)
		if cfg.Policy == Sliding {
			from = at(max(week-cfg.TrainWeeks, 0))
		}
		p := learned{week: week}
		p.pre, p.info = trainView(st, events, from, to, cfg.Params)
		p.report, p.err = learnPass(ml, p.pre, cfg.Params)
		p.took = time.Since(t0)
		return p
	}

	// A goroutine learns the passes one ahead of the caller: the
	// unbuffered hand-off lets it start pass k+1 as soon as the caller
	// takes pass k, so pass k+1's view and learners run while the caller
	// revises pass k and predicts with it. A pass depends on no
	// prediction, and the reviser reads only the events and the
	// candidates, so the overlap changes no result.
	passes := make(chan learned)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, week := range schedule {
			p := learn(week)
			select {
			case passes <- p:
			case <-stop:
				return
			}
			if p.err != nil {
				return
			}
		}
	}()
	// However Run ends, the learning goroutine ends first.
	defer func() {
		close(stop)
		<-done
	}()
	pass := 0

	// train revises the next pass and swaps it into the repository.
	train := func() error {
		p := <-passes
		pass++
		if p.err != nil {
			cfg.Metrics.RecordError()
			return p.err
		}
		t0 := time.Now()
		rt := revise(ml, repo, p.pre, p.report, cfg.Params)
		rt.Week = p.week
		rt.Incr = p.info
		// The pass's own work, not the time it waited to be handed over.
		rt.Total = p.took + time.Since(t0)
		cfg.Metrics.Record(rt)
		res.Retrainings = append(res.Retrainings, rt)
		return nil
	}

	// Initial training.
	if err := train(); err != nil {
		return nil, err
	}

	// Prediction with periodic retraining.
	pr := newPredictor(repo, cfg)
	i := searchTime(events, at(cfg.InitialTrainWeeks))
	for week := cfg.InitialTrainWeeks; week < weeks; week++ {
		if pass < len(schedule) && week == schedule[pass] {
			if err := train(); err != nil {
				return nil, err
			}
			lastFatal := pr.LastFatal()
			lastWarn := pr.LastWarnTimes()
			pr = newPredictor(repo, cfg)
			pr.SeedLastFatal(lastFatal)
			// Carry the dedup marks too: re-arming the distribution expert
			// (SeedLastFatal) while forgetting it just fired would let it
			// re-warn immediately after every swap.
			pr.SeedLastWarn(lastWarn)
		}
		weekEnd := at(week + 1)
		t0 := time.Now()
		for ; i < len(events) && events[i].Time < weekEnd; i++ {
			res.Warnings = append(res.Warnings, pr.Observe(events[i])...)
			if events[i].Fatal {
				res.FatalTimes = append(res.FatalTimes, events[i].Time)
			}
		}
		res.MatchDuration += time.Since(t0)
	}

	res.Weekly = eval.Weekly(res.Warnings, res.FatalTimes, start, weeks)
	res.Overall = eval.Match(res.Warnings, res.FatalTimes)
	return res, nil
}

// newPredictor loads the repository's rules (optionally filtered to one
// family) into a fresh predictor at the run's window.
func newPredictor(repo *meta.Repository, cfg Config) *predictor.Predictor {
	rules := repo.Rules()
	if cfg.KindFilter != nil {
		filtered := rules[:0:0]
		for _, r := range rules {
			if r.Kind == *cfg.KindFilter {
				filtered = append(filtered, r)
			}
		}
		rules = filtered
	}
	pr := predictor.New(rules, cfg.Params)
	// The full ensemble counts overlapping alarms as one prediction;
	// a single isolated family keeps its own window. Alarm spacing stays
	// at the base window even when evaluating wider prediction windows
	// (see predictor.DedupWindowSec).
	pr.GlobalDedup = cfg.KindFilter == nil
	ClampDedup(pr, cfg.Params.WindowSec)
	return pr
}

// ClampDedup pins a predictor's alarm spacing to the base rule-generation
// window when the effective prediction window is wider: sweeping W_P must
// admit more alarms, not ration them (Figure 13). Shared with the
// streaming service's predictor swap so both deployment modes space
// alarms identically.
func ClampDedup(pr *predictor.Predictor, windowSec int64) {
	if windowSec > DefaultWindowSec {
		pr.DedupWindowSec = DefaultWindowSec
	}
}
