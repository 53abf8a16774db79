package stream

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/learner"
	"repro/internal/learner/incr"
	"repro/internal/meta"
	"repro/internal/preprocess"
	"repro/internal/raslog"
)

// TestSnapshotCutNeverCapturesAPassInFlight kills a service whose
// snapshot could be cut while a pass is started but not installed: pass
// 1 is held until the feed is in, its install's catch-up starts pass 2,
// which is held too, and the rest of the log (crossing a third boundary)
// arrives before the kill. Recovery from the directory must come out
// exactly where a replay of its WAL alone does: a cut that recorded pass
// 2's advanced schedule without pass 2 would lose that pass, and every
// pass the schedule owed after it.
func TestSnapshotCutNeverCapturesAPassInFlight(t *testing.T) {
	l := genLog(t, 11, 8)
	dir := t.TempDir()
	s, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int32
	hold1, hold2 := make(chan struct{}), make(chan struct{})
	s.trainPass = func(ml *meta.MetaLearner, repo *meta.Repository, st *incr.State, view []preprocess.TaggedEvent, from, at int64, p learner.Params) (engine.Retraining, error) {
		switch calls.Add(1) {
		case 1:
			<-hold1
		case 2:
			<-hold2
		}
		return engine.TrainWindow(ml, repo, st, view, from, at, p)
	}
	ctx := context.Background()
	feed := func(events []raslog.Event) {
		for i := 0; i < len(events); i += 64 {
			batch := append([]raslog.Event(nil), events[i:min(i+64, len(events))]...)
			if _, err := s.IngestBatch(ctx, batch); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Boundaries at 3, 5 and 7 weeks: the feed crosses the first two.
	split := l.Start() + 6*week.Milliseconds()
	feed(l.Window(l.Start(), split))
	close(hold1)
	waitFor(t, 30*time.Second, func() bool { return calls.Load() == 2 })
	feed(l.Window(split, l.End()+1))
	// The snapshot pass 1's install asked for is written on a goroutine
	// of its own; the kill comes after it.
	waitFor(t, 30*time.Second, func() bool { return s.m.snapshots.Value() >= 1 })
	s.store.Abandon()
	close(hold2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(s.Stats().Retrains); n != 3 {
		t.Fatalf("the killed service ran %d passes, want 3", n)
	}

	walOnly := copyStateDir(t, dir, "snap-")
	recovered, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if rec := recovered.Recovery(); rec.SnapshotSeq == 0 {
		t.Fatalf("recovery = %+v, want one from a snapshot", rec)
	}
	if err := recovered.Close(); err != nil {
		t.Fatal(err)
	}
	replayed, err := New(durableConfig(walOnly))
	if err != nil {
		t.Fatal(err)
	}
	if err := replayed.Close(); err != nil {
		t.Fatal(err)
	}
	got, want := stateOf(t, recovered), stateOf(t, replayed)
	if len(got.stats.Retrains) != len(want.stats.Retrains) {
		t.Fatalf("recovered service ran %d passes, the WAL replay %d", len(got.stats.Retrains), len(want.stats.Retrains))
	}
	got.mustEqual(t, "snapshot recovery", want)
}

// TestTrainNowRacingCloseReturns races a manual retrain against
// shutdown. TrainNow waits for its pass to install, which only the
// pipeline goroutine does; it must never wait on a pipeline that has
// already exited. Either Close came first (ErrClosed) or the pass
// installed before the pipeline stopped serving the hand-off.
func TestTrainNowRacingCloseReturns(t *testing.T) {
	l := genLog(t, 5, 3)
	cfg := Defaults()
	cfg.InitialTrain = 10000 * week // manual retrain only
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedBatches(t, s, l.Events, func(int) int { return 256 })
	done := make(chan error, 1)
	go func() {
		_, err := s.TrainNow()
		done <- err
	}()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		n := len(s.Stats().Retrains)
		switch {
		case errors.Is(err, ErrClosed) && n == 0:
		case err == nil && n == 1:
		default:
			t.Fatalf("TrainNow racing Close: %v with %d passes recorded", err, n)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("TrainNow did not return after Close")
	}
}

// TestRecoveryFromAnInstallCut recovers from the snapshot an install
// cut while its catch-up pass was still training. One batch crosses two
// boundaries: pass 1 installs with a mark, the cut follows, and the
// catch-up (pass 2) is held until the snapshot is copied. Pass 2 then
// installs with a second mark at the same position, or, in the second
// case, after more events. Recovering from that cut plus the whole WAL
// must start pass 2 where the cut left off and skip the mark the
// snapshot already holds, ending where a replay of the WAL alone does.
func TestRecoveryFromAnInstallCut(t *testing.T) {
	l := genLog(t, 11, 8)
	w := week.Milliseconds()
	for _, tc := range []struct {
		name string
		more []raslog.Event // fed while pass 2 is held
	}{
		{"same position", nil},
		{"later position", l.Window(l.Start()+11*w/2, l.Start()+23*w/4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := New(durableConfig(dir))
			if err != nil {
				t.Fatal(err)
			}
			var calls atomic.Int32
			hold := make(chan struct{})
			s.trainPass = func(ml *meta.MetaLearner, repo *meta.Repository, st *incr.State, view []preprocess.TaggedEvent, from, at int64, p learner.Params) (engine.Retraining, error) {
				if calls.Add(1) == 2 {
					<-hold
				}
				return engine.TrainWindow(ml, repo, st, view, from, at, p)
			}
			// Boundaries at 3 and 5 weeks; the stream jumps from before the
			// first to past the second in one batch.
			feedBatches(t, s, l.Window(l.Start(), l.Start()+29*w/10), func(int) int { return 64 })
			jump := l.Window(l.Start()+51*w/10, l.Start()+11*w/2)
			if _, err := s.IngestBatch(context.Background(), jump); err != nil {
				t.Fatal(err)
			}
			waitFor(t, 30*time.Second, func() bool { return calls.Load() == 2 && s.m.snapshots.Value() >= 1 })
			cut := copyStateDir(t, dir, "wal-")
			feedAll(t, s, tc.more)
			waitFor(t, 30*time.Second, func() bool {
				st := s.Stats()
				return st.Sequenced+int64(st.Queues.Reorder) == st.Ingested
			})
			close(hold)
			waitFor(t, 30*time.Second, func() bool { return !s.Stats().Retraining })
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if n := len(s.Stats().Retrains); n != 2 {
				t.Fatalf("the service ran %d passes, want 2", n)
			}

			walOnly := copyStateDir(t, dir, "snap-")
			fromCut := copyStateDir(t, walOnly, "")
			entries, err := os.ReadDir(cut)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				raw, err := os.ReadFile(filepath.Join(cut, e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(fromCut, e.Name()), raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			recovered, err := New(durableConfig(fromCut))
			if err != nil {
				t.Fatal(err)
			}
			if rec := recovered.Recovery(); rec.SnapshotSeq == 0 {
				t.Fatalf("recovery = %+v, want one from the install cut", rec)
			}
			if err := recovered.Close(); err != nil {
				t.Fatal(err)
			}
			replayed, err := New(durableConfig(walOnly))
			if err != nil {
				t.Fatal(err)
			}
			if err := replayed.Close(); err != nil {
				t.Fatal(err)
			}
			want := stateOf(t, s)
			stateOf(t, replayed).mustEqual(t, "WAL replay", want)
			stateOf(t, recovered).mustEqual(t, "recovery from the install cut", want)
		})
	}
}
