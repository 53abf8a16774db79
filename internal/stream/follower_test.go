package stream

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/learner"
	"repro/internal/learner/incr"
	"repro/internal/meta"
	"repro/internal/persist"
	"repro/internal/preprocess"
	"repro/internal/raslog"
)

// newStandby builds a standby replica service over dir with the
// recovery tests' configuration. The replica starts its passes where it
// applies the boundary crossing and installs each at the leader's mark,
// so it follows the leader whatever the timing of either trainer.
func newStandby(t *testing.T, dir string) *Service {
	t.Helper()
	cfg := durableConfig(dir)
	cfg.Standby = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// drainTo waits until the leader has pulled everything it will pull out
// of the intake queue (events inside the reorder tolerance stay buffered
// and are lost on a kill), then returns the durable sequence count.
func drainTo(t *testing.T, s *Service, n int) uint64 {
	t.Helper()
	waitFor(t, 30*time.Second, func() bool {
		st := s.Stats()
		return st.Sequenced+st.LateDropped+int64(st.Queues.Reorder) == int64(n)
	})
	return uint64(s.Stats().Sequenced)
}

// waitCaughtUp waits until the replica has replicated every record the
// leader made durable.
func waitCaughtUp(t *testing.T, standby *Service, durable uint64) {
	t.Helper()
	waitFor(t, 30*time.Second, func() bool {
		st := standby.Stats()
		return st.Standby != nil && st.Standby.NextSeq == durable
	})
}

// TestFollowerPromotionEquivalence is the failover acceptance test: a
// replica that tailed the leader's WAL, was promoted after the leader
// died, and then saw the rest of the stream must end byte-identical to a
// single node that ingested the whole stream uninterrupted — the same
// contract crash-recovery honors, proven over the HTTP replication path.
func TestFollowerPromotionEquivalence(t *testing.T) {
	l := genLog(t, 11, 8)
	events := l.Events
	ref := referenceRun(t, l)
	if len(ref.Rules()) == 0 || len(ref.Warnings(0)) == 0 {
		t.Fatalf("reference run is trivial: %d rules, %d warnings — test would prove nothing",
			len(ref.Rules()), len(ref.Warnings(0)))
	}

	leader, err := New(durableConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewMux(leader))
	defer srv.Close()

	standby := newStandby(t, t.TempDir())
	if _, err := NewFollower(standby, FollowerConfig{Leader: srv.URL, ID: "s1", Poll: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	ssrv := httptest.NewServer(NewMux(standby))
	defer ssrv.Close()

	// A standby refuses writes: ErrStandby in-process, 503 + Retry-After
	// over HTTP (the same resume contract as a restarting daemon).
	if err := standby.Ingest(context.Background(), events[0]); !errors.Is(err, ErrStandby) {
		t.Fatalf("standby Ingest: %v, want ErrStandby", err)
	}
	var line bytes.Buffer
	if _, err := raslog.WriteLog(&line, &raslog.Log{Events: events[:1]}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ssrv.URL+"/ingest", "text/plain", bytes.NewReader(line.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST /ingest on standby: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("standby 503 is missing Retry-After")
	}
	if st := standby.Stats(); st.Role != "standby" {
		t.Fatalf("standby role %q, want standby", st.Role)
	}

	// Feed most of the stream, then kill the leader with the rest of it
	// still unseen: the promoted replica has to carry the stream forward.
	kill := 5 * len(events) / 6
	ingestAll(t, leader, &raslog.Log{Name: l.Name, Events: events[:kill]})
	durable := drainTo(t, leader, kill)
	waitCaughtUp(t, standby, durable)
	if lag := standby.Stats().Standby.LagSeq; lag != 0 {
		t.Errorf("replica lag %d after catch-up, want 0", lag)
	}
	// The lag is only worth something if the leader's position is read:
	// it is the leader's durable end, not a zero that makes any lag 0.
	if lead := standby.Stats().Standby.LeaderSeq; lead != durable || lead == 0 {
		t.Errorf("replica reports the leader at seq %d, the leader sequenced %d", lead, durable)
	}

	// kill -9: the leader's store is abandoned mid-flight, the reorder
	// buffer's tail dies with it, and the listener goes away.
	srv.Close()
	leader.crash()

	// Promote over the replica's own HTTP surface (flips the role; the
	// pull loop stops at its next pull).
	resp, err = http.Post(ssrv.URL+"/promote", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /promote: HTTP %d", resp.StatusCode)
	}
	if standby.Standby() {
		t.Fatal("service still reports standby after promotion")
	}
	st := standby.Stats()
	if st.Role != "leader" {
		t.Fatalf("promoted role %q, want leader", st.Role)
	}
	if st.Standby == nil || st.Standby.Promotions != 1 {
		t.Fatalf("promoted Stats.Standby = %+v, want promotions 1", st.Standby)
	}
	// Promotion is idempotent.
	if err := standby.Promote(); err != nil {
		t.Fatalf("second Promote: %v", err)
	}

	// An in-order feed means sequence i is input
	// index i, so resuming the stream at the replicated position covers
	// both the never-ingested tail and the reorder buffer's losses.
	ingestAll(t, standby, &raslog.Log{Name: l.Name, Events: events[durable:]})
	if err := standby.Close(); err != nil {
		t.Fatal(err)
	}
	compareServices(t, standby, ref)
}

// TestFollowerRestartResumes kills the replica itself: a follower crash
// must recover from its own WAL prefix and resume pulling mid-segment
// from its durable end, and still promote byte-identical.
func TestFollowerRestartResumes(t *testing.T) {
	l := genLog(t, 23, 8)
	events := l.Events
	ref := referenceRun(t, l)

	leader, err := New(durableConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewMux(leader))
	defer srv.Close()

	sdir := t.TempDir()
	s1 := newStandby(t, sdir)
	f1, err := NewFollower(s1, FollowerConfig{Leader: srv.URL, ID: "s1", Poll: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	half := len(events) / 2
	ingestAll(t, leader, &raslog.Log{Name: l.Name, Events: events[:half]})
	durable1 := drainTo(t, leader, half)
	waitCaughtUp(t, s1, durable1)
	f1.Stop()
	if !s1.Standby() {
		t.Fatal("Stop promoted the replica; it must stay a standby")
	}
	s1.crash()

	// The leader moves on while the replica is down.
	ingestAll(t, leader, &raslog.Log{Name: l.Name, Events: events[half:]})
	durable2 := drainTo(t, leader, len(events))

	s2 := newStandby(t, sdir)
	if got := s2.Recovery().ResumeSeq; got != durable1 {
		t.Fatalf("replica recovered to seq %d, want its replicated prefix %d", got, durable1)
	}
	f2, err := NewFollower(s2, FollowerConfig{Leader: srv.URL, ID: "s1", Poll: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, s2, durable2)
	if err := f2.Promote(); err != nil {
		t.Fatal(err)
	}
	ingestAll(t, s2, &raslog.Log{Name: l.Name, Events: events[durable2:]})
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	compareServices(t, s2, ref)
}

// TestFollowerAutoPromotes pins the unattended failover path: once the
// leader has been unreachable past PromoteAfter, the replica promotes
// itself and starts accepting writes.
func TestFollowerAutoPromotes(t *testing.T) {
	l := genLog(t, 29, 4)
	leader, err := New(durableConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewMux(leader))
	defer srv.Close()

	standby := newStandby(t, t.TempDir())
	if _, err := NewFollower(standby, FollowerConfig{
		Leader: srv.URL, Poll: 5 * time.Millisecond, PromoteAfter: 150 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}

	ingestAll(t, leader, l)
	durable := drainTo(t, leader, len(l.Events))
	waitCaughtUp(t, standby, durable)

	srv.Close()
	leader.crash()
	waitFor(t, 10*time.Second, func() bool { return !standby.Standby() })
	st := standby.Stats()
	if st.Role != "leader" || st.Standby == nil || st.Standby.Promotions != 1 {
		t.Fatalf("after auto-promotion: role %q, standby %+v", st.Role, st.Standby)
	}
	// The promoted replica accepts writes again.
	if err := standby.Ingest(context.Background(), l.Events[len(l.Events)-1]); err != nil {
		t.Fatalf("ingest after auto-promotion: %v", err)
	}
	if err := standby.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFollowerNeverPromotesOnAWALGap pins the split-brain guard: a
// leader that answers, but no longer holds the records the replica needs
// (its oldest segment starts past sequence 0), is not a silent leader. A
// fresh replica attached to it must stay a standby however long that
// lasts, and name the gap in /stats and on standby_wal_gaps_total.
func TestFollowerNeverPromotesOnAWALGap(t *testing.T) {
	l := genLog(t, 11, 8)
	cfg := durableConfig(t.TempDir())
	cfg.WALRotateBytes = 4096
	leader, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	ingestAll(t, leader, l)
	waitFor(t, 30*time.Second, func() bool {
		_, _, err := leader.store.Copy(io.Discard, 0, 1)
		return errors.Is(err, persist.ErrWALGap)
	})
	srv := httptest.NewServer(NewMux(leader))
	defer srv.Close()

	const promoteAfter = 100 * time.Millisecond
	standby := newStandby(t, t.TempDir())
	defer standby.Close()
	f, err := NewFollower(standby, FollowerConfig{Leader: srv.URL, Poll: 5 * time.Millisecond, PromoteAfter: promoteAfter})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	ssrv := httptest.NewServer(NewMux(standby))
	defer ssrv.Close()

	time.Sleep(10 * promoteAfter)
	if !standby.Standby() {
		t.Fatal("the replica promoted itself on a WAL gap: two leaders")
	}
	resp, err := http.Get(ssrv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Role != "standby" || st.Standby == nil || !strings.Contains(st.Standby.Gap, "WAL gap") {
		t.Fatalf("/stats: role %q, standby %+v; want a standby naming the WAL gap", st.Role, st.Standby)
	}
	if n := standby.m.standbyGaps.Value(); n == 0 {
		t.Error("standby_wal_gaps_total = 0 after polls that met a gap")
	}
}

// TestWALEndpointsRequireStateDir pins the serving side for a
// memory-only service: no durable state, no WAL to ship.
func TestWALEndpointsRequireStateDir(t *testing.T) {
	s, err := New(Defaults())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(NewMux(s))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/wal?from=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /wal without state dir: HTTP %d, want 404", resp.StatusCode)
	}
	// Promoting a plain leader is a no-op, not an error.
	if err := s.Promote(); err != nil {
		t.Fatalf("Promote on a leader: %v", err)
	}
}

// swapHandler serves whichever leader currently runs behind one URL, and
// 503 while none does.
type swapHandler struct{ h atomic.Pointer[http.Handler] }

func (sw *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h := sw.h.Load(); h != nil {
		(*h).ServeHTTP(w, r)
		return
	}
	http.Error(w, "restarting", http.StatusServiceUnavailable)
}

func (sw *swapHandler) serve(s *Service) {
	var h http.Handler = NewMux(s)
	sw.h.Store(&h)
}

// holdFirstPass makes s's first training pass wait until the returned
// channel is closed, and counts every pass started in calls.
func holdFirstPass(s *Service, calls *atomic.Int32) chan struct{} {
	hold := make(chan struct{})
	s.trainPass = func(ml *meta.MetaLearner, repo *meta.Repository, st *incr.State, view []preprocess.TaggedEvent, from, at int64, p learner.Params) (engine.Retraining, error) {
		if calls.Add(1) == 1 {
			<-hold
		}
		return engine.TrainWindow(ml, repo, st, view, from, at, p)
	}
	return hold
}

// feedAll ingests events in 64-event batches without waiting for passes.
func feedAll(t *testing.T, s *Service, events []raslog.Event) {
	t.Helper()
	for i := 0; i < len(events); i += 64 {
		batch := append([]raslog.Event(nil), events[i:min(i+64, len(events))]...)
		if _, err := s.IngestBatch(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFollowerReadsMarksThatEndASegment shuts the leader down with a
// pass in flight: Close installs it with a mark after the last event of
// the open segment, and the restarted leader appends to a new segment
// starting at that same sequence. The replica, caught up to the last
// event before the mark was written, must still read the mark from the
// older segment, or it installs that pass one leader pass late from
// then on. The promoted replica must equal the leader.
func TestFollowerReadsMarksThatEndASegment(t *testing.T) {
	l := genLog(t, 11, 8)
	dir := t.TempDir()
	leader, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int32
	hold := holdFirstPass(leader, &calls)
	var sw swapHandler
	sw.serve(leader)
	srv := httptest.NewServer(&sw)
	defer srv.Close()
	standby := newStandby(t, t.TempDir())
	f, err := NewFollower(standby, FollowerConfig{Leader: srv.URL, ID: "s1", Poll: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	// Pass 1 starts at the 3-week boundary and is held while the leader
	// shuts down: Close flushes the reorder buffer, the replica catches up
	// to it, and only then does the pass install, with its mark.
	first := l.Window(l.Start(), l.Start()+4*week.Milliseconds())
	feedAll(t, leader, first)
	waitFor(t, 30*time.Second, func() bool { return calls.Load() == 1 })
	closed := make(chan error, 1)
	go func() { closed <- leader.Close() }()
	waitFor(t, 30*time.Second, func() bool { return leader.Stats().Sequenced == int64(len(first)) })
	waitCaughtUp(t, standby, uint64(len(first)))
	close(hold)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	sw.h.Store(nil)

	leader2, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	sw.serve(leader2)
	ingestAll(t, leader2, &raslog.Log{Name: l.Name, Events: l.Events[len(first):]})
	durable := drainTo(t, leader2, len(l.Events))
	waitCaughtUp(t, standby, durable)
	if err := f.Promote(); err != nil {
		t.Fatal(err)
	}
	// The leader's Close releases its reorder buffer's tail; the promoted
	// replica is fed the same tail.
	ingestAll(t, standby, &raslog.Log{Name: l.Name, Events: l.Events[durable:]})
	if err := leader2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := standby.Close(); err != nil {
		t.Fatal(err)
	}
	want := stateOf(t, leader2)
	if len(want.stats.Retrains) < 3 {
		t.Fatalf("leader ran %d passes, want at least 3 — test would prove nothing", len(want.stats.Retrains))
	}
	stateOf(t, standby).mustEqual(t, "promoted replica", want)
}

// TestStandbyRestartWithPassInFlight stops a replica gracefully while
// its pass waits for the leader's mark, and lets the leader install that
// pass only after more events. A replica that installed the pass at its
// own shutdown would sit one install position off the leader for good;
// restarted, it must install the pass at the leader's mark and promote
// equal to the leader.
func TestStandbyRestartWithPassInFlight(t *testing.T) {
	l := genLog(t, 23, 8)
	leader, err := New(durableConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int32
	hold := holdFirstPass(leader, &calls)
	srv := httptest.NewServer(NewMux(leader))
	defer srv.Close()

	sdir := t.TempDir()
	s1 := newStandby(t, sdir)
	f1, err := NewFollower(s1, FollowerConfig{Leader: srv.URL, ID: "s1", Poll: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	split := l.Start() + 4*week.Milliseconds()
	first := l.Window(l.Start(), split)
	feedAll(t, leader, first)
	waitFor(t, 30*time.Second, func() bool { return calls.Load() == 1 })
	waitCaughtUp(t, s1, drainTo(t, leader, len(first)))
	waitFor(t, 30*time.Second, func() bool { return s1.Stats().Retraining })
	f1.Stop()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// The leader moves on, then installs pass 1 after more events.
	second := l.Window(split, split+week.Milliseconds()/2)
	feedAll(t, leader, second)
	drainTo(t, leader, len(first)+len(second))
	close(hold)
	waitFor(t, 30*time.Second, func() bool { return !leader.Stats().Retraining })
	ingestAll(t, leader, &raslog.Log{Name: l.Name, Events: l.Events[len(first)+len(second):]})
	durable := drainTo(t, leader, len(l.Events))

	s2 := newStandby(t, sdir)
	f2, err := NewFollower(s2, FollowerConfig{Leader: srv.URL, ID: "s1", Poll: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, s2, durable)
	if err := f2.Promote(); err != nil {
		t.Fatal(err)
	}
	ingestAll(t, s2, &raslog.Log{Name: l.Name, Events: l.Events[durable:]})
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	stateOf(t, s2).mustEqual(t, "restarted replica", stateOf(t, leader))
}
