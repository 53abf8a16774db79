package stream

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/learner"
	"repro/internal/learner/incr"
	"repro/internal/meta"
	"repro/internal/preprocess"
	"repro/internal/raslog"
)

// batchPass trains on the learners' batch scans and the reviser's full
// replay over a bare view of the training snapshot: the reference
// engine.TrainWindow's maintained statistics and carried replay must
// reproduce. A test installs it as a fresh service's trainPass before
// feeding the first event.
func batchPass(ml *meta.MetaLearner, repo *meta.Repository, _ *incr.State, snapshot []preprocess.TaggedEvent, _, _ int64, p learner.Params) (engine.Retraining, error) {
	return engine.TrainStepPrepared(ml, repo, learner.Prepare(snapshot), p)
}

// incrEquivConfig is a multi-retrain configuration: fed through
// ingestAll, every pass installs at a fixed stream position, so the
// incremental and batch services must agree warning for warning.
func incrEquivConfig() Config {
	cfg := Defaults()
	cfg.InitialTrain = 3 * week
	cfg.RetrainEvery = 2 * week
	cfg.TrainWindow = 5 * week
	cfg.WarningsKeep = 1 << 20
	return cfg
}

// retrainRecords asserts every completed retrain succeeded and returns
// the records.
func retrainRecords(t *testing.T, s *Service) []RetrainRecord {
	t.Helper()
	recs := s.Stats().Retrains
	for _, r := range recs {
		if r.Err != "" {
			t.Fatalf("retrain at %d failed: %s", r.At, r.Err)
		}
	}
	return recs
}

// TestStreamIncrementalEquivalence pins the service-level contract: a
// service and a batch-pass reference fed the same stream end with
// identical rules, warnings, and retrain outcomes — and the service
// reports delta-applies after its first pass.
func TestStreamIncrementalEquivalence(t *testing.T) {
	l := genLog(t, 17, 10)
	run := func(batch bool) *Service {
		t.Helper()
		s, err := New(incrEquivConfig())
		if err != nil {
			t.Fatal(err)
		}
		if batch {
			s.trainPass = batchPass
		}
		ingestAll(t, s, l)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	inc, batch := run(false), run(true)

	if !reflect.DeepEqual(inc.Rules(), batch.Rules()) {
		t.Errorf("rule sets diverge: %d incremental vs %d batch",
			len(inc.Rules()), len(batch.Rules()))
	}
	iw, bw := inc.Warnings(0), batch.Warnings(0)
	if len(iw) != len(bw) {
		t.Fatalf("warning counts diverge: %d incremental vs %d batch", len(iw), len(bw))
	}
	for i := range iw {
		if iw[i] != bw[i] {
			t.Fatalf("warning %d diverges: %+v vs %+v", i, iw[i], bw[i])
		}
	}

	ir, br := retrainRecords(t, inc), retrainRecords(t, batch)
	if len(ir) != len(br) || len(ir) < 3 {
		t.Fatalf("retrain counts: %d incremental vs %d batch (want equal, >= 3)", len(ir), len(br))
	}
	for i := range ir {
		if ir[i].At != br[i].At || ir[i].TrainEvents != br[i].TrainEvents ||
			ir[i].Churn != br[i].Churn {
			t.Errorf("retrain %d diverges: %+v vs %+v", i, ir[i], br[i])
		}
		if br[i].Incr != nil {
			t.Errorf("retrain %d: batch service carries IncrInfo", i)
		}
		if ir[i].Incr == nil {
			t.Fatalf("retrain %d: incremental service missing IncrInfo", i)
		}
		if i == 0 && !ir[i].Incr.Rebuild {
			t.Error("first retrain must be a full rebuild")
		}
		if i > 0 && ir[i].Incr.Rebuild {
			t.Errorf("retrain %d fell back to a rebuild: %s", i, ir[i].Incr.Reason)
		}
	}
}

// TestSnapshotCopiesOnlyItsWindow stalls the first training pass until
// the whole feed is applied, so the later passes start weeks behind the
// stream and the history still holds every event since the stalled
// boundary. Each pass must get exactly the feed's [from, at) events, in
// a slice sized to that window rather than to the history.
func TestSnapshotCopiesOnlyItsWindow(t *testing.T) {
	l := genLog(t, 17, 10)
	fed := batchPreprocess(l, preprocess.Filter{Threshold: 300})
	cfg := Defaults()
	cfg.InitialTrain = 3 * week
	cfg.RetrainEvery = 2 * week
	cfg.TrainWindow = 3 * week
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	type pass struct {
		from, at, lag int64
		snapshot      []preprocess.TaggedEvent
	}
	var passes []pass // appended by the training passes, which never overlap
	release := make(chan struct{})
	s.trainPass = func(ml *meta.MetaLearner, repo *meta.Repository, st *incr.State, snapshot []preprocess.TaggedEvent, from, at int64, p learner.Params) (engine.Retraining, error) {
		if len(passes) == 0 {
			<-release
		}
		passes = append(passes, pass{from: from, at: at, lag: int64(s.m.watermark.Value()) - at, snapshot: snapshot})
		return engine.TrainWindow(ml, repo, st, snapshot, from, at, p)
	}
	// Fed without waiting for the passes: the first one is held.
	ctx := context.Background()
	for _, e := range l.Events {
		if err := s.Ingest(ctx, e); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 30*time.Second, func() bool {
		st := s.Stats()
		return st.Watermark >= st.StreamStart+9*week.Milliseconds()
	})
	close(release)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	retrainRecords(t, s)

	lagged := 0
	for i, p := range passes {
		var want []preprocess.TaggedEvent
		for _, te := range fed {
			if te.Time >= p.from && te.Time < p.at {
				want = append(want, te)
			}
		}
		if len(want) == 0 || !reflect.DeepEqual(p.snapshot, want) {
			t.Errorf("pass %d [%d, %d): snapshot of %d events, want the feed's %d", i, p.from, p.at, len(p.snapshot), len(want))
		}
		if cap(p.snapshot) != len(p.snapshot) {
			t.Errorf("pass %d: snapshot cap %d for %d events", i, cap(p.snapshot), len(p.snapshot))
		}
		if p.lag >= cfg.RetrainEvery.Milliseconds() {
			lagged++
		}
	}
	if len(passes) != 4 || lagged < 2 {
		t.Fatalf("%d passes, %d of them a cadence behind the stream; want 4 and at least 2", len(passes), lagged)
	}
}

// TestTrainingViewSurvivesTrims holds a training view while the sliding
// history is trimmed at least twice and outgrows its backing array at
// least once, and checks that the view still reads exactly the events
// it was taken over: the history is append-only, so the trainer needs
// no copy. A trim that compacts the history in place overwrites the
// view's elements and fails here.
func TestTrainingViewSurvivesTrims(t *testing.T) {
	cfg := Defaults()
	cfg.TrainWindow = 3000 * time.Millisecond
	full, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	c := newCore(full, nil, nil)

	// One event per ms, appended the way process does.
	next := int64(0)
	feed := func(n int) {
		for i := 0; i < n; i++ {
			c.appendHistory(preprocess.TaggedEvent{Event: raslog.Event{Time: next}, Class: int(next % 97), Fatal: next%13 == 0})
			next++
		}
	}
	backingEnd := func() *preprocess.TaggedEvent {
		full := c.history[:cap(c.history)]
		return &full[len(full)-1]
	}

	c.nextRetrain = 3000
	feed(3000)
	view, from := c.trainingView(3000)
	if from != 0 || len(view) != 3000 || cap(view) != len(view) {
		t.Fatalf("view [%d, 3000): %d events, cap %d; want 3000 from 0 with cap == len", from, len(view), cap(view))
	}
	want := append([]preprocess.TaggedEvent(nil), view...)

	trims, growths := 0, 0
	for trims < 2 || growths < 1 {
		if next > 1<<20 {
			t.Fatalf("after %d events: %d trims, %d reallocations; want 2 and 1", next, trims, growths)
		}
		c.nextRetrain = next + 1000
		before, end := len(c.history), backingEnd()
		feed(1024 - before%1024)
		if len(c.history) < before {
			trims++
		}
		if backingEnd() != end {
			growths++
		}
		if !reflect.DeepEqual(view, want) {
			t.Fatalf("training view changed after %d trims and %d reallocations of the history", trims, growths)
		}
	}
}

// TestRecoveryRestoresIncrementalState kills a service after its first
// retrain (and the snapshot that follows it) and restarts over the same
// state directory: the incremental sufficient statistics must come back
// from the snapshot, and the first retrain of the recovered run must be
// a delta-apply, never a cold rebuild.
func TestRecoveryRestoresIncrementalState(t *testing.T) {
	l := genLog(t, 13, 8)
	cfg := durableConfig(t.TempDir())

	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Feed past the first retrain (InitialTrain = 3w) with enough tail
	// that the pipeline reaches the post-retrain snapshot point.
	split := l.Start() + 4*week.Milliseconds()
	ingestAll(t, s1, &raslog.Log{Name: l.Name, Events: l.Window(l.Start(), split)})
	// The kill must land after the first retrain AND the snapshot the
	// pipeline writes at the end of that batch — crash() abandons the
	// store, so anything still pending is lost (that's the point).
	waitFor(t, 30*time.Second, func() bool {
		return len(s1.Stats().Retrains) >= 1 && s1.m.snapshots.Value() >= 1
	})
	s1.crash()

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Recovery().IncrRestored {
		t.Fatal("snapshot recovery did not restore incremental state")
	}
	ingestAll(t, s2, &raslog.Log{Name: l.Name, Events: l.Window(split, l.End()+1)})
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	recs := retrainRecords(t, s2)
	if len(recs) < 2 {
		t.Fatalf("recovered run completed %d retrains; want >= 2", len(recs))
	}
	// Record 0 predates the kill (restored with the snapshot): it was the
	// cold build. Every retrain the recovered process itself ran must be
	// a delta-apply on the restored statistics.
	if !recs[0].Incr.Rebuild {
		t.Error("pre-kill first retrain should have been the cold rebuild")
	}
	for _, r := range recs[1:] {
		if r.Incr == nil {
			t.Fatalf("retrain at %d missing IncrInfo", r.At)
		}
		if r.Incr.Rebuild {
			t.Errorf("retrain at %d after recovery cold-rebuilt: %s", r.At, r.Incr.Reason)
		}
	}
}

// TestRecoveryWithoutIncrState pins the fallback: a writer that trained
// without maintained statistics (batch passes, as older versions could)
// leaves no incremental state in its snapshots, and a reader recovering
// from them simply cold-rebuilds on its next retrain — recovery never
// depends on the field being present.
func TestRecoveryWithoutIncrState(t *testing.T) {
	l := genLog(t, 13, 8)
	cfg := durableConfig(t.TempDir())

	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s1.trainPass = batchPass
	split := l.Start() + 4*week.Milliseconds()
	ingestAll(t, s1, &raslog.Log{Name: l.Name, Events: l.Window(l.Start(), split)})
	s1.crash()

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Recovery().IncrRestored {
		t.Error("restored incremental state from a batch-only snapshot")
	}
	ingestAll(t, s2, &raslog.Log{Name: l.Name, Events: l.Window(split, l.End()+1)})
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	recs := retrainRecords(t, s2)
	var own []RetrainRecord
	for _, r := range recs {
		if r.Incr != nil {
			own = append(own, r)
		}
	}
	if len(own) == 0 {
		t.Fatal("recovered service never retrained incrementally")
	}
	if !own[0].Incr.Rebuild {
		t.Error("first incremental retrain without restored state must cold-rebuild")
	}
	for _, r := range own[1:] {
		if r.Incr.Rebuild {
			t.Errorf("retrain at %d cold-rebuilt: %s", r.At, r.Incr.Reason)
		}
	}
}
