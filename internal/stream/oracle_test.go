package stream

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/learner"
	"repro/internal/learner/incr"
	"repro/internal/meta"
	"repro/internal/predictor"
	"repro/internal/preprocess"
	"repro/internal/raslog"
)

// finalState is everything the oracle test compares between two services
// that applied the same released stream: the public counters, the full
// warning history and the bytes a snapshot of the drained service holds.
type finalState struct {
	stats    Stats
	warnings []predictor.Warning
	snapshot []byte
}

// withoutTimings zeroes the wall-clock measurements inside retrain
// records; they are the one part of the state that legitimately differs
// between two runs over the same stream.
func withoutTimings(recs []RetrainRecord) []RetrainRecord {
	out := append([]RetrainRecord(nil), recs...)
	for i := range out {
		out[i].LearnerDurations = nil
		out[i].ReviseDuration = 0
		out[i].Total = 0
		if out[i].Incr != nil {
			incr := *out[i].Incr
			incr.AdvanceDuration = 0
			out[i].Incr = &incr
		}
	}
	return out
}

// stateOf captures a closed service. How the service got its events
// (recovery block, replication role, queue depths) is dropped from the
// stats; what it computed from them stays.
func stateOf(t *testing.T, s *Service) finalState {
	t.Helper()
	st := s.Stats()
	st.Recovery, st.Standby, st.Role, st.Queues = nil, nil, "", QueueDepths{}
	st.Retrains = withoutTimings(st.Retrains)

	snap, err := s.core.buildSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	var recs []RetrainRecord
	if len(snap.Retrains) > 0 {
		if err := json.Unmarshal(snap.Retrains, &recs); err != nil {
			t.Fatal(err)
		}
		if snap.Retrains, err = json.Marshal(withoutTimings(recs)); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	return finalState{stats: st, warnings: s.Warnings(0), snapshot: raw}
}

func (got finalState) mustEqual(t *testing.T, leg string, want finalState) {
	t.Helper()
	if !reflect.DeepEqual(got.stats, want.stats) {
		t.Errorf("%s: stats differ from the live run:\n got %+v\nwant %+v", leg, got.stats, want.stats)
	}
	if !reflect.DeepEqual(got.warnings, want.warnings) {
		t.Errorf("%s: %d warnings, live run %d (or their contents differ)", leg, len(got.warnings), len(want.warnings))
	}
	if !bytes.Equal(got.snapshot, want.snapshot) {
		t.Errorf("%s: snapshot bytes differ from the live run (%d vs %d bytes)", leg, len(got.snapshot), len(want.snapshot))
	}
}

// copyStateDir copies a (flat) state directory, leaving out files whose
// name starts with skipPrefix.
func copyStateDir(t *testing.T, from, skipPrefix string) string {
	t.Helper()
	to := t.TempDir()
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if skipPrefix != "" && strings.HasPrefix(e.Name(), skipPrefix) {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return to
}

// TestOneStateMachineOracle is the equivalence test of the three ways a
// service receives its events: the live pipeline sequencing client
// batches, startup recovery replaying the WAL, and a standby applying a
// leader's shipped segments. All three drive the same apply function over
// the same released stream (the live run's WAL), so they must end in the
// same state: identical stats (install positions included), identical
// warnings, and a byte-identical snapshot. The feed arrives modestly out
// of order, so the order the WAL records is the reorder buffer's work,
// not the input's. The live run's trainer is slow: each pass is held
// until several more batches have been acked, so its rules go live
// batches after its boundary, where only the live run's install marks
// say; the other legs train at their own speed and must install there.
func TestOneStateMachineOracle(t *testing.T) {
	l := genLog(t, 31, 8)
	events := append([]raslog.Event(nil), l.Events...)
	for i := 0; i+1 < len(events); i += 2 {
		events[i], events[i+1] = events[i+1], events[i]
	}

	// Leg 1, live: batches through the pipeline goroutine. Registering a
	// follower that never acks keeps every WAL segment from pruning, so
	// the other two legs can read the stream from sequence 0.
	liveDir := t.TempDir()
	live, err := New(durableConfig(liveDir))
	if err != nil {
		t.Fatal(err)
	}
	live.store.RetainFollower("oracle", 0)
	var acked atomic.Int64
	fed := make(chan struct{})
	live.trainPass = func(ml *meta.MetaLearner, repo *meta.Repository, st *incr.State, view []preprocess.TaggedEvent, from, at int64, p learner.Params) (engine.Retraining, error) {
		for until := acked.Load() + 3; acked.Load() < until; {
			select {
			case <-fed:
				until = 0
			case <-time.After(time.Millisecond):
			}
		}
		return engine.TrainWindow(ml, repo, st, view, from, at, p)
	}
	ctx := context.Background()
	for i := 0; i < len(events); i += 97 {
		batch := append([]raslog.Event(nil), events[i:min(i+97, len(events))]...)
		if _, err := live.IngestBatch(ctx, batch); err != nil {
			t.Fatal(err)
		}
		acked.Add(1)
	}
	close(fed)
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
	want := stateOf(t, live)
	n := uint64(len(events))
	if want.stats.Sequenced != int64(n) || want.stats.LateDropped != 0 {
		t.Fatalf("live run sequenced %d of %d events (%d late): the legs would not see one stream",
			want.stats.Sequenced, n, want.stats.LateDropped)
	}
	if want.stats.Rules == 0 || len(want.warnings) == 0 {
		t.Fatalf("live run is trivial: %d rules, %d warnings", want.stats.Rules, len(want.warnings))
	}
	for _, rec := range want.stats.Retrains {
		if rec.InstalledSeq == 0 {
			t.Fatalf("live pass at %d has no install position: %+v", rec.At, rec)
		}
	}

	// Leg 2, recovery: the same WAL with the snapshots taken away, so New
	// replays the whole stream.
	replayed, err := New(durableConfig(copyStateDir(t, liveDir, "snap-")))
	if err != nil {
		t.Fatal(err)
	}
	if rec := replayed.Recovery(); rec.SnapshotSeq != 0 || rec.Replayed != n {
		t.Fatalf("recovery = %+v, want all %d events replayed from the WAL alone", rec, n)
	}
	if err := replayed.Close(); err != nil {
		t.Fatal(err)
	}
	stateOf(t, replayed).mustEqual(t, "WAL replay", want)

	// Leg 3, follower: a leader restarted over a copy of the live directory
	// ships its segments to a standby that starts from nothing.
	leader, err := New(durableConfig(copyStateDir(t, liveDir, "")))
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	srv := httptest.NewServer(NewMux(leader))
	defer srv.Close()
	standby := newStandby(t, t.TempDir())
	f, err := NewFollower(standby, FollowerConfig{Leader: srv.URL, Poll: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, standby, n)
	f.Stop()
	if err := standby.Close(); err != nil {
		t.Fatal(err)
	}
	stateOf(t, standby).mustEqual(t, "follower apply", want)
}
