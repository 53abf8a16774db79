package stream

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/bgsim"
	"repro/internal/engine"
	"repro/internal/preprocess"
	"repro/internal/raslog"
)

const week = 7 * 24 * time.Hour

func genLog(t testing.TB, seed uint64, weeks int) *raslog.Log {
	t.Helper()
	g, err := bgsim.NewGenerator(bgsim.SDSC(seed).Scaled(weeks, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	l, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	l.SortByTime()
	return l
}

// ingestAll feeds l one event at a time, waiting after each until it is
// applied. A training pass then installs right after the event whose
// release crossed its boundary, however long it trains, so two services
// fed this way install every pass at the same stream position.
func ingestAll(t testing.TB, s *Service, l *raslog.Log) {
	t.Helper()
	ctx := context.Background()
	for _, e := range l.Events {
		if err := s.Ingest(ctx, e); err != nil {
			t.Fatal(err)
		}
		applied(t, s)
	}
}

// applied waits until the pipeline has applied every batch handed to it
// and no training pass is in flight (a pass a batch started holds the
// retraining flag from before the batch is published to its install).
func applied(t testing.TB, s *Service) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for spins := 0; ; spins++ {
		// applyBatch sets the depth gauge last, so read it first.
		depth := int64(s.m.reorderDepth.Value())
		if depth+s.m.sequenced.Value()+s.m.lateDropped.Value() == s.m.ingested.Value() && !s.retraining.Load() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("pipeline did not apply its intake in time")
		}
		if spins < 1000 {
			runtime.Gosched()
		} else {
			time.Sleep(time.Millisecond)
		}
	}
}

// waitFor polls cond until true or the deadline fails the test.
func waitFor(t testing.TB, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// batchPreprocess is what repro.Preprocess does: batch filter + tag.
func batchPreprocess(l *raslog.Log, f preprocess.Filter) []preprocess.TaggedEvent {
	filtered, _ := f.Apply(l)
	z := preprocess.NewCategorizer(preprocess.NewCatalog())
	return z.Tag(filtered)
}

// TestPipelineMatchesBatch pins the live pipeline (reorder buffer → apply)
// to the batch preprocessor: on an in-order feed the accumulated history
// must equal Filter.Apply + Tag exactly.
func TestPipelineMatchesBatch(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			l := genLog(t, seed, 6)
			want := batchPreprocess(l, preprocess.Filter{Threshold: 300})

			cfg := Defaults()
			cfg.InitialTrain = 10000 * week // never train: isolate the filter path
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ingestAll(t, s, l)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			got := s.core.history
			if len(got) != len(want) {
				t.Fatalf("pipeline kept %d events, batch kept %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("event %d: pipeline %+v != batch %+v", i, got[i], want[i])
				}
			}
			st := s.Stats()
			if st.LateDropped != 0 || st.Sequenced != int64(l.Len()) {
				t.Errorf("stats = %+v; want no late drops, %d sequenced", st, l.Len())
			}
		})
	}
}

// TestRetrainsAndWarnsWhileStreaming drives the full service: ingesting a
// multi-week log must complete retrain cycles on the stream's own
// timeline, install rules, and emit warnings.
func TestRetrainsAndWarnsWhileStreaming(t *testing.T) {
	l := genLog(t, 7, 14)
	cfg := Defaults()
	cfg.InitialTrain = 4 * week
	cfg.RetrainEvery = 3 * week
	cfg.TrainWindow = 8 * week
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Feed the training prefix, then wait for the first (background)
	// rule swap so the live span is guaranteed to be observed — without
	// this the test races the trainer on slow builds.
	split := l.Start() + 6*week.Milliseconds()
	ingestAll(t, s, &raslog.Log{Name: l.Name, Events: l.Window(l.Start(), split)})
	waitFor(t, 30*time.Second, func() bool { return s.Stats().Rules > 0 })
	ingestAll(t, s, &raslog.Log{Name: l.Name, Events: l.Window(split, l.End()+1)})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	st := s.Stats()
	if len(st.Retrains) < 2 {
		t.Fatalf("completed %d retrains over 14 weeks (initial 4w, every 3w); want >= 2; stats %+v",
			len(st.Retrains), st)
	}
	for _, r := range st.Retrains {
		if r.Err != "" {
			t.Errorf("retrain at %d failed: %s", r.At, r.Err)
		}
	}
	if st.Rules == 0 {
		t.Error("no rules installed after retraining")
	}
	if st.WarningsTotal == 0 {
		t.Error("no warnings emitted on a 14-week fatal-bearing log")
	}
	if got := s.Warnings(10); len(got) == 0 {
		t.Error("Warnings(10) is empty despite WarningsTotal > 0")
	}
	if st.CompressionRate < 0.5 {
		t.Errorf("compression rate %.2f; filter apparently not engaged", st.CompressionRate)
	}
}

// TestOutOfOrderTolerance checks the reorder buffer: shuffles within the
// tolerance are restored to time order; stale events beyond it are
// dropped and counted, never observed out of order.
func TestOutOfOrderTolerance(t *testing.T) {
	cfg := Defaults()
	cfg.InitialTrain = 10000 * week
	cfg.ReorderWindow = time.Minute
	cfg.Filter = preprocess.Filter{} // keep everything: inspect raw order
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	base := int64(1_000_000_000_000)
	mk := func(sec int64, loc string) raslog.Event {
		return raslog.Event{Time: base + sec*1000, Location: loc, Entry: "e",
			Facility: raslog.Kernel, Severity: raslog.Info}
	}
	// 30 s swaps: within the 60 s tolerance.
	for _, sec := range []int64{0, 60, 30, 120, 90, 180, 150} {
		if err := s.Ingest(ctx, mk(sec, "L1")); err != nil {
			t.Fatal(err)
		}
	}
	// An hour-stale event: beyond tolerance once the watermark advances.
	if err := s.Ingest(ctx, mk(3600*2, "L1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest(ctx, mk(1, "L2")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	st := s.Stats()
	if st.LateDropped != 1 {
		t.Errorf("late dropped = %d, want 1", st.LateDropped)
	}
	var prev int64 = -1
	for _, te := range s.core.history {
		if te.Time < prev {
			t.Fatalf("history out of order: %d after %d", te.Time, prev)
		}
		prev = te.Time
	}
	if len(s.core.history) != 8 {
		t.Errorf("history has %d events, want 8 (7 in-tolerance + 1 tail)", len(s.core.history))
	}
}

// TestIngestAfterClose verifies the intake gate.
func TestIngestAfterClose(t *testing.T) {
	s, err := New(Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest(context.Background(), raslog.Event{}); err != ErrClosed {
		t.Fatalf("Ingest after Close = %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// TestTrainNowBeforeFirstEvent pins the empty-stream guard: before any
// event has been applied there is no history and no stream
// clock, so a manual retrain must be rejected cleanly — no junk failed
// record, no stuck in-flight flag.
func TestTrainNowBeforeFirstEvent(t *testing.T) {
	s, err := New(Defaults())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.TrainNow(); !errors.Is(err, ErrNoEvents) {
		t.Fatalf("TrainNow before any event = %v, want ErrNoEvents", err)
	}
	st := s.Stats()
	if len(st.Retrains) != 0 {
		t.Errorf("rejected TrainNow left %d retrain records", len(st.Retrains))
	}
	if st.Retraining {
		t.Error("rejected TrainNow left the retraining flag set")
	}
}

// TestTrainNowAdvancesSchedule pins the manual-retrain accounting: a
// successful TrainNow counts against the stream-time schedule, so the
// next automatic pass runs one full cadence later instead of re-firing
// on near-identical data the moment the old boundary is crossed.
func TestTrainNowAdvancesSchedule(t *testing.T) {
	l := genLog(t, 5, 6)
	cfg := Defaults()
	cfg.InitialTrain = 7 * week // a 6-week log never reaches it on its own
	cfg.RetrainEvery = 4 * week
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, s, l)
	settle(t, s)

	before := s.Stats()
	rec, err := s.TrainNow()
	if err != nil {
		t.Fatal(err)
	}
	if rec.At != before.Watermark+1 {
		t.Errorf("trained at %d, want watermark+1 = %d", rec.At, before.Watermark+1)
	}
	st := s.Stats()
	want := rec.At + cfg.RetrainEvery.Milliseconds()
	if st.NextRetrain != want {
		t.Fatalf("NextRetrain = %d after TrainNow, want %d (at + cadence); was %d",
			st.NextRetrain, want, before.NextRetrain)
	}
	if len(st.Retrains) != 1 || st.Retrains[0].At != rec.At {
		t.Fatalf("retrain history = %+v, want exactly the manual pass at %d", st.Retrains, rec.At)
	}

	// Cross the *original* InitialTrain boundary: with the schedule
	// advanced, no scheduled pass may fire on the data the manual pass
	// just consumed.
	bound := l.Start() + cfg.InitialTrain.Milliseconds()
	ctx := context.Background()
	mk := func(ms int64) raslog.Event {
		return raslog.Event{Time: ms, Location: "LX", Entry: "post",
			Facility: raslog.Kernel, Severity: raslog.Info}
	}
	if err := s.Ingest(ctx, mk(bound+1_000)); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest(ctx, mk(bound+120_000)); err != nil { // pushes the first past the tolerance
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, func() bool { return s.Stats().Watermark >= bound+1_000 })
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		st := s.Stats()
		if len(st.Retrains) > 1 || st.Retraining {
			t.Fatalf("scheduled pass re-fired right after TrainNow: %+v", st.Retrains)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if len(st.Retrains) != 1 {
		t.Fatalf("completed %d retrains, want only the manual one", len(st.Retrains))
	}
	if st.NextRetrain != want {
		t.Errorf("NextRetrain drifted to %d, want %d", st.NextRetrain, want)
	}
}

// TestSwapPredictorClampsAlarmSpacing pins the streaming half of the
// alarm-spacing rule: a service running a wider prediction window than
// the base W_P still spaces warnings at the base window, exactly like
// the offline engine (engine.ClampDedup).
func TestSwapPredictorClampsAlarmSpacing(t *testing.T) {
	l := genLog(t, 5, 6)
	for _, tc := range []struct{ windowSec, want int64 }{
		{engine.DefaultWindowSec, 0}, // base window: predictor default spacing
		{900, engine.DefaultWindowSec},
	} {
		cfg := Defaults()
		cfg.Params.WindowSec = tc.windowSec
		cfg.InitialTrain = 10000 * week // manual retrain only
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ingestAll(t, s, l)
		settle(t, s)
		if _, err := s.TrainNow(); err != nil {
			t.Fatal(err)
		}
		pr := s.pr.Load()
		if pr == nil {
			t.Fatal("no predictor installed after TrainNow")
		}
		if pr.DedupWindowSec != tc.want {
			t.Errorf("WindowSec %d: DedupWindowSec = %d, want %d",
				tc.windowSec, pr.DedupWindowSec, tc.want)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStaticPolicyTrainsOnce checks that Static trains at the initial
// boundary and then stops accumulating history.
func TestStaticPolicyTrainsOnce(t *testing.T) {
	l := genLog(t, 3, 10)
	cfg := Defaults()
	cfg.Policy = engine.Static
	cfg.InitialTrain = 3 * week
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, s, l)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if len(st.Retrains) != 1 {
		t.Fatalf("static policy retrained %d times, want exactly 1", len(st.Retrains))
	}
	if len(s.core.history) != 0 {
		t.Errorf("static policy retained %d history events after training", len(s.core.history))
	}
}
