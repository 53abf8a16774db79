package engine

import (
	"repro/internal/obsv"
)

// trainBuckets spans one (re)training pass: sub-millisecond toy sets up
// to minutes-long full-scale passes.
var trainBuckets = obsv.ExpBuckets(1e-3, 4, 10)

// learnerBuckets spans one base learner or reviser pass.
var learnerBuckets = obsv.ExpBuckets(1e-4, 4, 10)

// TrainingMetrics records (re)training passes into an obsv registry —
// the live, continuously-updated version of Table 5: per-learner rule
// generation time, ensemble + revising time, total pass duration, and
// the rule churn of Figure 12. Both deployment modes feed it: the
// offline engine via Config.Metrics and the streaming service on every
// background retrain. A nil *TrainingMetrics is a no-op recorder, so
// call sites never need to guard.
type TrainingMetrics struct {
	reg *obsv.Registry

	passes   *obsv.Counter
	errors   *obsv.Counter
	duration *obsv.Histogram
	revise   *obsv.Histogram

	incrApplied  *obsv.Counter
	incrExpired  *obsv.Counter
	incrRebuilds *obsv.Counter
	incrAdvance  *obsv.Histogram

	rulesUnchanged *obsv.Counter
	rulesAdded     *obsv.Counter
	rulesRemoved   *obsv.Counter

	trainEvents *obsv.Gauge
	repoRules   *obsv.Gauge
}

// NewTrainingMetrics registers the training instruments (train_* names)
// on reg and returns the recorder.
func NewTrainingMetrics(reg *obsv.Registry) *TrainingMetrics {
	return &TrainingMetrics{
		reg:      reg,
		passes:   reg.Counter("train_passes_total", "Completed (re)training passes."),
		errors:   reg.Counter("train_errors_total", "Failed (re)training passes (previous rules stay live)."),
		duration: reg.Histogram("train_duration_seconds", "Total duration of one (re)training pass.", trainBuckets),
		revise: reg.Histogram("train_revise_duration_seconds",
			"Ensemble + revising time of one pass (Table 5).", learnerBuckets),
		incrApplied: reg.Counter("train_incr_applied_events_total",
			"Events delta-applied at the window end across incremental retrains."),
		incrExpired: reg.Counter("train_incr_expired_events_total",
			"Events expired at the window start across incremental retrains."),
		incrRebuilds: reg.Counter("train_incr_rebuilds_total",
			"Incremental retrains that fell back to a full sufficient-statistics rebuild."),
		incrAdvance: reg.Histogram("train_incr_advance_duration_seconds",
			"Sufficient-statistics delta-apply time of one incremental retrain.", learnerBuckets),
		rulesUnchanged: reg.Counter("train_rules_unchanged_total",
			"Rules re-learned unchanged across retrainings (Figure 12)."),
		rulesAdded: reg.Counter("train_rules_added_total",
			"New rules entering the repository across retrainings (Figure 12)."),
		rulesRemoved: reg.Counter("train_rules_removed_total",
			"Rules dropped by the meta-learner or rejected by the reviser (Figure 12)."),
		trainEvents: reg.Gauge("train_events", "Training-set size of the most recent pass."),
		repoRules:   reg.Gauge("train_repo_rules", "Knowledge-repository size after the most recent pass."),
	}
}

// Record accounts one successful pass.
func (tm *TrainingMetrics) Record(rt Retraining) {
	if tm == nil {
		return
	}
	tm.passes.Inc()
	tm.duration.Observe(rt.Total.Seconds())
	tm.revise.Observe(rt.ReviseDuration.Seconds())
	mode := "full"
	if rt.Incr != nil {
		tm.incrApplied.Add(int64(rt.Incr.Applied))
		tm.incrExpired.Add(int64(rt.Incr.Expired))
		tm.incrAdvance.Observe(rt.Incr.AdvanceDuration.Seconds())
		if rt.Incr.Rebuild {
			tm.incrRebuilds.Inc()
		} else {
			mode = "incremental"
		}
	}
	// The incremental-vs-full comparison histogram: one pass duration
	// series per mode, so dashboards can overlay delta-apply retrains
	// against full rebuilds (and non-incremental passes) directly.
	tm.reg.Histogram("train_pass_duration_seconds",
		"Total pass duration split by training mode.", trainBuckets,
		obsv.Label{Key: "mode", Value: mode}).Observe(rt.Total.Seconds())
	for name, d := range rt.LearnerDurations {
		tm.reg.Histogram("train_learner_duration_seconds",
			"Rule-generation time per base learner (Table 5).", learnerBuckets,
			obsv.Label{Key: "learner", Value: name}).Observe(d.Seconds())
	}
	tm.rulesUnchanged.Add(int64(rt.Churn.Unchanged))
	tm.rulesAdded.Add(int64(rt.Churn.Added))
	tm.rulesRemoved.Add(int64(rt.Churn.RemovedByMeta + rt.Churn.RemovedByReviser))
	tm.trainEvents.Set(float64(rt.TrainEvents))
	tm.repoRules.Set(float64(rt.RepoSize))
}

// RecordError accounts one failed pass.
func (tm *TrainingMetrics) RecordError() {
	if tm == nil {
		return
	}
	tm.passes.Inc()
	tm.errors.Inc()
}
