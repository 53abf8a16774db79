package stream

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/raslog"
)

// TestDaemonPathsStampEvents pins that every way an event reaches the
// daemon stamps it with its vocabulary hints — the HTTP ingest route,
// backfill, a follower's WAL pull, and recovery from a snapshot's
// history and the WAL tail — so the filter stages and the categorizer
// never fall back to looking a string up.
func TestDaemonPathsStampEvents(t *testing.T) {
	l := genLog(t, 11, 8)
	// The live route feeds the first half and, at the end, a tail that
	// starts no pass: the snapshot cut at the last install leaves the
	// tail to WAL replay. Backfill feeds what lies between.
	half, mid := len(l.Events)/2, 3*len(l.Events)/4
	live := encodeLog(t, &raslog.Log{Events: l.Events[:half]})
	backfill := encodeLog(t, &raslog.Log{Events: l.Events[half:mid]})

	dir := t.TempDir()
	leader, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewMux(leader))
	defer srv.Close()
	standby := newStandby(t, t.TempDir())
	if _, err := NewFollower(standby, FollowerConfig{Leader: srv.URL, ID: "s1", Poll: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}

	before := raslog.HintMisses()
	if res := postIngest(t, srv.URL, live); res.Accepted != half {
		t.Fatalf("ingest accepted %d of %d events", res.Accepted, half)
	}
	resp, err := http.Post(srv.URL+"/backfill", "text/plain", bytes.NewReader(backfill))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /backfill: HTTP %d", resp.StatusCode)
	}
	drainTo(t, leader, mid)
	applied(t, leader)
	next := leader.Stats().NextRetrain
	end := mid
	for end < len(l.Events) && l.Events[end].Time < next {
		end++
	}
	if end-mid < 50 {
		t.Fatalf("only %d events before the next retrain boundary", end-mid)
	}
	if res := postIngest(t, srv.URL, encodeLog(t, &raslog.Log{Events: l.Events[mid:end]})); res.Accepted != end-mid {
		t.Fatalf("ingest accepted %d of %d tail events", res.Accepted, end-mid)
	}
	durable := drainTo(t, leader, end)
	waitCaughtUp(t, standby, durable)
	leader.crash()

	recovered, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	rec := recovered.Recovery()
	if err := recovered.Close(); err != nil {
		t.Fatal(err)
	}
	if err := standby.Close(); err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotSeq == 0 || rec.Replayed == 0 {
		t.Fatalf("recovery restored snapshot %d and replayed %d events; the test needs both", rec.SnapshotSeq, rec.Replayed)
	}
	if n := raslog.HintMisses() - before; n != 0 {
		t.Fatalf("%d Loc/Ent calls fell back to a lookup on the daemon paths, want 0", n)
	}
}
