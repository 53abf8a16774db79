package engine

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/bgsim"
	"repro/internal/learner"
	"repro/internal/meta"
	"repro/internal/obsv"
	"repro/internal/preprocess"
)

// pipeline generates a small log and preprocesses it.
func pipeline(t *testing.T, seed uint64, weeks int) ([]preprocess.TaggedEvent, int64) {
	t.Helper()
	cfg := bgsim.ANL(seed).Scaled(weeks, 0.02)
	g, err := bgsim.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	filtered, _ := preprocess.Filter{Threshold: 300}.Apply(raw)
	z := preprocess.NewCategorizer(preprocess.NewCatalog())
	return z.Tag(filtered), cfg.Start
}

// quickConfig shrinks the defaults to fit a short log.
func quickConfig() Config {
	cfg := Defaults()
	cfg.InitialTrainWeeks = 8
	cfg.TrainWeeks = 8
	cfg.RetrainWeeks = 4
	return cfg
}

func TestRunDynamicEndToEnd(t *testing.T) {
	events, start := pipeline(t, 101, 20)
	cfg := quickConfig()
	res, err := Run(events, start, 20, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TestFrom != 8 {
		t.Errorf("TestFrom = %d", res.TestFrom)
	}
	// Initial training + retrains at weeks 12 and 16.
	if len(res.Retrainings) != 3 {
		t.Errorf("retrainings = %d, want 3", len(res.Retrainings))
	}
	if len(res.FatalTimes) == 0 {
		t.Fatal("no fatals in the test span")
	}
	if len(res.Warnings) == 0 {
		t.Fatal("no warnings at all — the pipeline is dead")
	}
	if res.Overall.Recall() <= 0.05 {
		t.Errorf("recall %.3f implausibly low", res.Overall.Recall())
	}
	if len(res.Weekly) == 0 {
		t.Error("no weekly series")
	}
	for _, wp := range res.Weekly {
		if wp.Week < res.TestFrom {
			t.Errorf("weekly point inside the training span: week %d", wp.Week)
		}
	}
}

func TestRunStaticNeverRetrains(t *testing.T) {
	events, start := pipeline(t, 102, 16)
	cfg := quickConfig()
	cfg.Policy = Static
	res, err := Run(events, start, 16, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Retrainings) != 1 {
		t.Errorf("static policy retrained: %d trainings", len(res.Retrainings))
	}
}

func TestRunWholeGrowsTrainingSet(t *testing.T) {
	events, start := pipeline(t, 103, 20)
	cfg := quickConfig()
	cfg.Policy = Whole
	res, err := Run(events, start, 20, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Retrainings) < 2 {
		t.Fatalf("too few retrainings: %d", len(res.Retrainings))
	}
	prev := 0
	for _, rt := range res.Retrainings {
		if rt.TrainEvents < prev {
			t.Errorf("whole-history training set shrank: %d -> %d", prev, rt.TrainEvents)
		}
		prev = rt.TrainEvents
	}
}

func TestRunSlidingBoundsTrainingSet(t *testing.T) {
	events, start := pipeline(t, 104, 24)
	cfg := quickConfig()
	cfg.TrainWeeks = 4
	res, err := Run(events, start, 24, cfg)
	if err != nil {
		t.Fatal(err)
	}
	whole := quickConfig()
	whole.Policy = Whole
	resWhole, err := Run(events, start, 24, whole)
	if err != nil {
		t.Fatal(err)
	}
	// The last sliding retraining must use fewer events than whole-history.
	last := res.Retrainings[len(res.Retrainings)-1]
	lastWhole := resWhole.Retrainings[len(resWhole.Retrainings)-1]
	if last.TrainEvents >= lastWhole.TrainEvents {
		t.Errorf("sliding window (%d events) not smaller than whole (%d)",
			last.TrainEvents, lastWhole.TrainEvents)
	}
}

func TestRunKindFilter(t *testing.T) {
	events, start := pipeline(t, 105, 16)
	for _, kind := range []learner.Kind{learner.Association, learner.Statistical, learner.Distribution} {
		cfg := quickConfig()
		k := kind
		cfg.KindFilter = &k
		res, err := Run(events, start, 16, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range res.Warnings {
			if w.Source != kind {
				t.Fatalf("kind filter %v leaked a %v warning", kind, w.Source)
			}
		}
	}
}

func TestRunRecordsChurn(t *testing.T) {
	events, start := pipeline(t, 106, 20)
	res, err := Run(events, start, 20, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	first := res.Retrainings[0]
	if first.Churn.Added == 0 || first.Churn.Unchanged != 0 {
		t.Errorf("first training churn = %+v", first.Churn)
	}
	if first.RepoSize == 0 {
		t.Error("empty repository after training")
	}
	later := res.Retrainings[len(res.Retrainings)-1]
	if later.Churn.Unchanged == 0 {
		t.Errorf("no rule survived a 4-week retrain: %+v", later.Churn)
	}
	if _, ok := first.LearnerDurations["association"]; !ok {
		t.Error("missing learner timing")
	}
}

func TestRunValidation(t *testing.T) {
	events, start := pipeline(t, 107, 10)
	bad := []func(*Config){
		func(c *Config) { c.Params.WindowSec = 0 },
		func(c *Config) { c.InitialTrainWeeks = 0 },
		func(c *Config) { c.InitialTrainWeeks = 10 }, // consumes whole log
		func(c *Config) { c.TrainWeeks = 0 },
		func(c *Config) { c.RetrainWeeks = 0 },
	}
	for i, mutate := range bad {
		cfg := quickConfig()
		mutate(&cfg)
		if _, err := Run(events, start, 10, cfg); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestPolicyString(t *testing.T) {
	if Static.String() != "static" || Sliding.String() != "sliding" || Whole.String() != "whole" {
		t.Error("policy names")
	}
	if Policy(9).String() != "Policy(9)" {
		t.Error("unknown policy name")
	}
}

func TestRunDeterministic(t *testing.T) {
	events, start := pipeline(t, 108, 16)
	a, err := Run(events, start, 16, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(events, start, 16, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Warnings) != len(b.Warnings) {
		t.Fatalf("warning counts differ: %d vs %d", len(a.Warnings), len(b.Warnings))
	}
	for i := range a.Warnings {
		if a.Warnings[i] != b.Warnings[i] {
			t.Fatalf("warning %d differs", i)
		}
	}
}

// TestNewPredictorClampsAlarmSpacing pins the alarm-spacing rule: the
// predictor's warning deduplication stays at the base rule-generation
// window (DefaultWindowSec) even when the effective prediction window is
// wider — sweeping W_P (Figure 13) must admit more alarms, never ration
// them to one per W_P.
func TestNewPredictorClampsAlarmSpacing(t *testing.T) {
	repo := meta.NewRepository()
	cfg := Defaults()
	for _, tc := range []struct{ win, want int64 }{
		{DefaultWindowSec, 0}, // base window: predictor default spacing
		{900, DefaultWindowSec},
		{7200, DefaultWindowSec},
	} {
		cfg.Params.WindowSec = tc.win
		pr := newPredictor(repo, cfg)
		if pr.DedupWindowSec != tc.want {
			t.Errorf("WindowSec %d: DedupWindowSec = %d, want %d",
				tc.win, pr.DedupWindowSec, tc.want)
		}
	}
}

// TestTrainingMetricsRecorded runs the engine with a metrics recorder
// attached and checks the registry against the returned retraining
// records: pass counts, per-learner durations, and the summed rule churn
// must agree, and the exposition must parse.
func TestTrainingMetricsRecorded(t *testing.T) {
	events, start := pipeline(t, 101, 20)
	cfg := quickConfig()
	reg := obsv.NewRegistry()
	cfg.Metrics = NewTrainingMetrics(reg)
	res, err := Run(events, start, 20, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := obsv.ParseText(&buf)
	if err != nil {
		t.Fatalf("invalid exposition: %v", err)
	}
	passes := float64(len(res.Retrainings))
	if passes == 0 {
		t.Fatal("no retrainings to account")
	}
	if got := samples["train_passes_total"]; got != passes {
		t.Errorf("train_passes_total = %v, want %v", got, passes)
	}
	if got := samples["train_errors_total"]; got != 0 {
		t.Errorf("train_errors_total = %v, want 0", got)
	}
	if got := samples["train_duration_seconds_count"]; got != passes {
		t.Errorf("train_duration_seconds_count = %v, want %v", got, passes)
	}
	for _, name := range []string{"association", "statistical", "distribution"} {
		key := fmt.Sprintf("train_learner_duration_seconds_count{learner=%q}", name)
		if got := samples[key]; got != passes {
			t.Errorf("%s = %v, want %v", key, got, passes)
		}
	}
	var added, removed, unchanged float64
	for _, rt := range res.Retrainings {
		added += float64(rt.Churn.Added)
		unchanged += float64(rt.Churn.Unchanged)
		removed += float64(rt.Churn.RemovedByMeta + rt.Churn.RemovedByReviser)
	}
	if got := samples["train_rules_added_total"]; got != added {
		t.Errorf("train_rules_added_total = %v, want %v", got, added)
	}
	if got := samples["train_rules_removed_total"]; got != removed {
		t.Errorf("train_rules_removed_total = %v, want %v", got, removed)
	}
	if got := samples["train_rules_unchanged_total"]; got != unchanged {
		t.Errorf("train_rules_unchanged_total = %v, want %v", got, unchanged)
	}
	last := res.Retrainings[len(res.Retrainings)-1]
	if got := samples["train_repo_rules"]; got != float64(last.RepoSize) {
		t.Errorf("train_repo_rules = %v, want %v", got, last.RepoSize)
	}
	if got := samples["train_events"]; got != float64(last.TrainEvents) {
		t.Errorf("train_events = %v, want %v", got, last.TrainEvents)
	}
}
