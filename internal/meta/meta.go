// Package meta implements the meta-learner (paper §4.1, Figure 6) and the
// knowledge repository it maintains.
//
// The meta-learner is a mixture-of-experts ensemble: it runs all three
// base learners over the training set, merges their candidate rules, and
// (normally) passes them through the reviser. The resulting rule set is
// what the predictor consults at runtime, with the fixed expert ordering
// association → statistical → probability distribution encoded in package
// predictor. The repository tracks rule churn across retrainings — the
// unchanged/added/removed counts of Figure 12.
package meta

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/learner"
	"repro/internal/learner/assoc"
	"repro/internal/learner/probdist"
	"repro/internal/learner/statrule"
	"repro/internal/reviser"
)

// MetaLearner bundles the three base learners and the reviser.
type MetaLearner struct {
	Assoc *assoc.Learner
	Stat  *statrule.Learner
	Prob  *probdist.Learner
	// Reviser filters the merged candidates; set UseReviser false to
	// measure its contribution (Figure 11).
	Reviser    *reviser.Reviser
	UseReviser bool
}

// New returns a meta-learner with every component at the paper's defaults.
func New() *MetaLearner {
	return &MetaLearner{
		Assoc:      assoc.New(),
		Stat:       statrule.New(),
		Prob:       probdist.New(),
		Reviser:    reviser.New(),
		UseReviser: true,
	}
}

// TrainReport is the outcome of one (re)training pass.
type TrainReport struct {
	// CandidatesByLearner holds each base learner's raw output.
	CandidatesByLearner map[string][]learner.Rule
	// Candidates is the merged, ID-deduplicated candidate set.
	Candidates []learner.Rule
	// Kept is the final rule set after revision (== Candidates when the
	// reviser is disabled).
	Kept []learner.Rule
	// Scores carries the reviser's per-rule scorecard (nil when disabled).
	Scores []reviser.RuleScore
	// LearnerDurations and ReviseDuration are the Table 5 timings;
	// TotalDuration covers the whole pass (learners + merge + revision).
	LearnerDurations map[string]time.Duration
	ReviseDuration   time.Duration
	TotalDuration    time.Duration
}

// Learn is the first half of a training pass: it runs the base learners
// and merges and dedupes their candidates. The report's Kept and Scores
// stay empty until Revise. The candidates share no memory with tr, so
// Revise needs only the view's events and its carried replay, and
// whatever serves tr's counts may move on to the next window once Learn
// returns.
//
// The base learners run one after another in their fixed order, and the
// first non-ignorable error ends the pass.
func (m *MetaLearner) Learn(tr *learner.Prepared, p learner.Params) (*TrainReport, error) {
	passStart := time.Now()
	report := &TrainReport{
		CandidatesByLearner: make(map[string][]learner.Rule, 3),
		LearnerDurations:    make(map[string]time.Duration, 3),
	}
	for _, bl := range []learner.Learner{m.Assoc, m.Stat, m.Prob} {
		start := time.Now()
		rules, err := bl.Learn(tr, p)
		report.LearnerDurations[bl.Name()] = time.Since(start)
		if err != nil {
			if errors.Is(err, probdist.ErrTooFewFailures) {
				continue
			}
			return nil, fmt.Errorf("meta: %s learner: %w", bl.Name(), err)
		}
		report.CandidatesByLearner[bl.Name()] = rules
		report.Candidates = append(report.Candidates, rules...)
	}
	report.Candidates = dedupe(report.Candidates)
	report.TotalDuration = time.Since(passStart)
	return report, nil
}

// Revise is the second half of a training pass: it replays the report's
// candidates against the view's events (Algorithm 1) and fills Kept and
// Scores, or keeps every candidate when the reviser is off. It adds its
// own time to the report's TotalDuration.
func (m *MetaLearner) Revise(report *TrainReport, tr *learner.Prepared, p learner.Params) {
	start := time.Now()
	if m.UseReviser && m.Reviser != nil {
		report.Kept, report.Scores = m.Reviser.Revise(report.Candidates, tr, p)
	} else {
		report.Kept = report.Candidates
	}
	report.ReviseDuration = time.Since(start)
	report.TotalDuration += report.ReviseDuration
}

// dedupe removes rules with duplicate IDs, keeping the first (stable).
func dedupe(rules []learner.Rule) []learner.Rule {
	seen := make(map[string]bool, len(rules))
	out := rules[:0]
	for _, r := range rules {
		id := r.ID()
		if seen[id] {
			continue
		}
		seen[id] = true
		out = append(out, r)
	}
	return out
}
