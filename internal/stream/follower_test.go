package stream

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/raslog"
)

// newStandby builds a standby replica service over dir with the same
// deterministic configuration the recovery tests use.
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

	// kill -9: the leader's store is abandoned mid-flight, the reorder
	// buffer's tail dies with it, and the listener goes away.
	srv.Close()
	leader.crash()

	// Promote over the replica's own HTTP surface (stops the pull loop
	// through the registered hook, then flips the role).
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
	if s2.next != durable1 {
		t.Fatalf("replica recovered to seq %d, want its replicated prefix %d", s2.next, durable1)
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

// TestWALEndpointsRequireStateDir pins the serving side for a
// memory-only service: no durable state, no segments to ship.
func TestWALEndpointsRequireStateDir(t *testing.T) {
	s, err := New(Defaults())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(NewMux(s))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/wal/segments")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /wal/segments without state dir: HTTP %d, want 404", resp.StatusCode)
	}
	// Promoting a plain leader is a no-op, not an error.
	if err := s.Promote(); err != nil {
		t.Fatalf("Promote on a leader: %v", err)
	}
}
