package meta

import (
	"testing"

	"repro/internal/learner"
	"repro/internal/preprocess"
	"repro/internal/raslog"
	"repro/internal/stats"
)

var p300 = learner.Params{WindowSec: 300}

// train runs a from-scratch pass over events: Learn over a fresh view,
// then Revise.
func train(ml *MetaLearner, events []preprocess.TaggedEvent, p learner.Params) (*TrainReport, error) {
	pre := learner.Prepare(events)
	report, err := ml.Learn(pre, p)
	if err != nil {
		return nil, err
	}
	ml.Revise(report, pre, p)
	return report, nil
}

func mk(tSec int64, class int, fatal bool) preprocess.TaggedEvent {
	return preprocess.TaggedEvent{
		Event: raslog.Event{Time: tSec * 1000}, Class: class, Fatal: fatal,
	}
}

// richStream exercises all three learners: precursor pairs before fatal
// 99, fatal bursts, and enough fatals for a distribution fit.
func richStream() []preprocess.TaggedEvent {
	var events []preprocess.TaggedEvent
	r := stats.NewRNG(5)
	tm := int64(0)
	for i := 0; i < 60; i++ {
		// Precursor pattern then fatal.
		events = append(events,
			mk(tm, 1, false), mk(tm+40, 2, false), mk(tm+100, 99, true))
		// Burst continuation.
		for b := 0; b < 4; b++ {
			tm += 60 + int64(r.Intn(60))
			events = append(events, mk(tm+100, 98, true))
		}
		tm += 3000 + int64(r.Intn(9000))
	}
	return events
}

func TestTrainProducesAllFamilies(t *testing.T) {
	ml := New()
	report, err := train(ml, richStream(), p300)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.CandidatesByLearner["association"]) == 0 {
		t.Error("no association candidates")
	}
	if len(report.CandidatesByLearner["statistical"]) == 0 {
		t.Error("no statistical candidates")
	}
	if len(report.CandidatesByLearner["distribution"]) == 0 {
		t.Error("no distribution candidates")
	}
	if len(report.Kept) == 0 {
		t.Error("reviser killed everything")
	}
	if len(report.Kept) > len(report.Candidates) {
		t.Error("kept more than candidates")
	}
	for _, name := range []string{"association", "statistical", "distribution"} {
		if _, ok := report.LearnerDurations[name]; !ok {
			t.Errorf("no duration recorded for %s", name)
		}
	}
}

func TestTrainWithoutReviser(t *testing.T) {
	ml := New()
	ml.UseReviser = false
	report, err := train(ml, richStream(), p300)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Kept) != len(report.Candidates) {
		t.Error("reviser ran while disabled")
	}
	if report.Scores != nil {
		t.Error("scores present with reviser disabled")
	}
}

func TestTrainTooFewFailuresIsNotError(t *testing.T) {
	ml := New()
	events := []preprocess.TaggedEvent{
		mk(0, 1, false), mk(10, 2, false), mk(20, 99, true),
	}
	report, err := train(ml, events, p300)
	if err != nil {
		t.Fatalf("sparse stream errored: %v", err)
	}
	if len(report.CandidatesByLearner["distribution"]) != 0 {
		t.Error("distribution fitted from one failure")
	}
}

func TestTrainEmptyStream(t *testing.T) {
	report, err := train(New(), nil, p300)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Candidates) != 0 || len(report.Kept) != 0 {
		t.Errorf("rules from empty stream: %+v", report)
	}
}

func TestDedupe(t *testing.T) {
	a := learner.Rule{Kind: learner.Statistical, Count: 2}
	b := learner.Rule{Kind: learner.Statistical, Count: 2, Confidence: 0.9}
	c := learner.Rule{Kind: learner.Statistical, Count: 3}
	out := dedupe([]learner.Rule{a, b, c})
	if len(out) != 2 {
		t.Fatalf("dedupe kept %d rules", len(out))
	}
	if out[0].Confidence != 0 {
		t.Error("dedupe did not keep first occurrence")
	}
}

func TestRepositoryUpdateChurn(t *testing.T) {
	repo := NewRepository()
	r1 := learner.Rule{Kind: learner.Statistical, Count: 2}
	r2 := learner.Rule{Kind: learner.Statistical, Count: 3}
	r3 := learner.Rule{Kind: learner.Statistical, Count: 4}
	r4 := learner.Rule{Kind: learner.Statistical, Count: 5}

	// First training: r1, r2 kept; r3 mined but rejected.
	c := repo.Update(&TrainReport{
		Candidates: []learner.Rule{r1, r2, r3},
		Kept:       []learner.Rule{r1, r2},
	})
	if c.Added != 2 || c.Unchanged != 0 || c.RemovedByReviser != 1 || c.RemovedByMeta != 0 {
		t.Errorf("first churn = %+v", c)
	}
	if repo.Len() != 2 {
		t.Errorf("repo size = %d", repo.Len())
	}

	// Second: r1 re-learned, r2 not mined at all, r4 new, r3 rejected again.
	c = repo.Update(&TrainReport{
		Candidates: []learner.Rule{r1, r3, r4},
		Kept:       []learner.Rule{r1, r4},
	})
	if c.Unchanged != 1 || c.Added != 1 || c.RemovedByMeta != 1 || c.RemovedByReviser != 1 {
		t.Errorf("second churn = %+v", c)
	}
	if repo.Len() != 2 {
		t.Errorf("repo size = %d", repo.Len())
	}
}

func TestRepositoryRulesSorted(t *testing.T) {
	repo := NewRepository()
	repo.Update(&TrainReport{Kept: []learner.Rule{
		{Kind: learner.Statistical, Count: 5},
		{Kind: learner.Statistical, Count: 2},
	}})
	rules := repo.Rules()
	if len(rules) != 2 || rules[0].ID() > rules[1].ID() {
		t.Errorf("rules unsorted: %v", rules)
	}
}

func TestRepositoryRevisedRulesImproveOverCandidates(t *testing.T) {
	// Sanity: with the reviser on, kept rules' training precision is high.
	ml := New()
	report, err := train(ml, richStream(), p300)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range report.Scores {
		if s.Kept && s.ROC < ml.Reviser.MinROC {
			t.Errorf("kept rule below MinROC: %+v", s)
		}
		if !s.Kept && s.ROC >= ml.Reviser.MinROC {
			t.Errorf("rejected rule above MinROC: %+v", s)
		}
	}
}
