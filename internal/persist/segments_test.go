package persist

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/raslog"
)

// copyDecode round-trips Copy output through DecodeFrames — the
// follower's read path — and returns the events, the next sequence and
// the flushed end Copy reported.
func copyDecode(t *testing.T, st *Store, from uint64, maxBytes int64) ([]raslog.Event, uint64, uint64) {
	t.Helper()
	var buf bytes.Buffer
	next, end, err := st.Copy(&buf, from, maxBytes)
	if err != nil {
		t.Fatalf("Copy(%d): %v", from, err)
	}
	var evs []raslog.Event
	wantSeq := from
	dnext, err := DecodeFrames(bytes.NewReader(buf.Bytes()), from, func(seq uint64, e raslog.Event) error {
		if seq != wantSeq {
			t.Fatalf("decode out of order: seq %d, want %d", seq, wantSeq)
		}
		wantSeq++
		evs = append(evs, e)
		return nil
	}, nil)
	if err != nil {
		t.Fatalf("DecodeFrames: %v", err)
	}
	if dnext != next {
		t.Fatalf("DecodeFrames ended at %d, Copy reported %d", dnext, next)
	}
	return evs, next, end
}

// TestReadActiveSegmentExtends is the live-tail contract: a read while
// the leader is still appending to its segment returns everything
// durable so far as a clean end — and a retry from that position picks
// up the extension. This is exactly a follower tailing a leader's open
// segment.
func TestReadActiveSegmentExtends(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.StartAppend(0)
	const first, second = 25, 40
	for i := 0; i < first; i++ {
		appendOne(t, st, uint64(i), testEvent(i))
	}

	evs, got, end := copyDecode(t, st, 0, 1<<20)
	if segs, _ := st.listRefs(walPrefix); len(segs) != 1 || end != first {
		t.Fatalf("%d segments, flushed end %d; want 1, %d", len(segs), end, first)
	}
	if got != first || len(evs) != first {
		t.Fatalf("live read: %d events, next %d; want %d", len(evs), got, first)
	}

	// The segment grows underneath the reader; a retry from the previous
	// durable end sees only the extension.
	for i := first; i < second; i++ {
		appendOne(t, st, uint64(i), testEvent(i))
	}
	evs, got, _ = copyDecode(t, st, first, 1<<20)
	if got != second || len(evs) != second-first {
		t.Fatalf("extension read: %d events, next %d; want %d, %d", len(evs), got, second-first, second)
	}
	for i, e := range evs {
		if e != testEvent(first+i) {
			t.Fatalf("extension event %d differs", first+i)
		}
	}
}

// TestDecodeFramesTornTransfer: a transfer cut mid-frame (the leader
// died, the connection dropped) decodes as a clean end at the last whole
// frame — the follower applies the prefix and re-requests the rest.
func TestDecodeFramesTornTransfer(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.StartAppend(0)
	const n = 20
	for i := 0; i < n; i++ {
		appendOne(t, st, uint64(i), testEvent(i))
	}
	var buf bytes.Buffer
	if _, _, err := st.Copy(&buf, 0, 1<<20); err != nil {
		t.Fatal(err)
	}

	whole := buf.Bytes()
	for _, cut := range []int{len(whole) - 1, len(whole) - 5, len(whole) / 2, 3} {
		count := 0
		next, err := DecodeFrames(bytes.NewReader(whole[:cut]), 0, func(seq uint64, e raslog.Event) error {
			if e != testEvent(int(seq)) {
				t.Fatalf("cut %d: event %d differs", cut, seq)
			}
			count++
			return nil
		}, nil)
		if err != nil {
			t.Fatalf("cut %d: DecodeFrames: %v", cut, err)
		}
		if int(next) != count || count >= n {
			t.Fatalf("cut %d: %d events, next %d; want a clean strict prefix", cut, count, next)
		}
	}
}

// TestCopyFromRotationBoundary pins the `from` semantics at segment
// edges: a copy from just below, at or just above a segment's first seq
// crosses into the newer segment with no duplicate and no gap, a
// one-byte budget resumed at each next walks the whole chain, and a from
// below the oldest retained segment is refused with ErrWALGap — the
// chain cannot prove dense coverage below its start.
func TestCopyFromRotationBoundary(t *testing.T) {
	st, err := Open(t.TempDir(), Options{RotateBytes: 256, KeepSnapshots: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.StartAppend(0)
	const n = 50
	for i := 0; i < n; i++ {
		appendOne(t, st, uint64(i), testEvent(i))
	}
	segs, err := st.listRefs(walPrefix)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("need several segments, got %d", len(segs))
	}
	boundary := segs[1].seq

	for _, from := range []uint64{boundary - 1, boundary, boundary + 1} {
		evs, next, _ := copyDecode(t, st, from, 1<<20)
		if next != n || len(evs) != n-int(from) {
			t.Fatalf("from %d: %d events, next %d; want %d, next %d", from, len(evs), next, n-int(from), n)
		}
		for i, e := range evs {
			if e != testEvent(int(from)+i) {
				t.Fatalf("from %d: event %d differs", from, int(from)+i)
			}
		}
	}

	// A byte budget smaller than a segment resumes exactly where the
	// previous copy ended, across every rotation.
	var all []raslog.Event
	for from := uint64(0); from < n; {
		evs, next, _ := copyDecode(t, st, from, 1)
		if next <= from {
			t.Fatalf("budgeted copy from %d made no progress (next %d)", from, next)
		}
		all, from = append(all, evs...), next
	}
	for i, e := range all {
		if e != testEvent(i) {
			t.Fatalf("budget resume: event %d differs", i)
		}
	}
	if len(all) != n {
		t.Fatalf("budget resume: %d events, want %d", len(all), n)
	}

	if _, err := st.WriteSnapshot(&Snapshot{Seq: 40}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Copy(&bytes.Buffer{}, 0, 1<<20); !errors.Is(err, ErrWALGap) {
		t.Fatalf("Copy from below the oldest retained segment: %v, want ErrWALGap", err)
	}
}

// blockingWriter parks the first Write until release is closed, holding
// a Copy (and its pin) mid-transfer.
type blockingWriter struct {
	started, release chan struct{}
	once             bool
}

func (w *blockingWriter) Write(p []byte) (int, error) {
	if !w.once {
		w.once = true
		close(w.started)
		<-w.release
	}
	return len(p), nil
}

// TestPruneSparesFollowerAndPinnedSegments is the retention-guard test:
// a registered follower ack and an in-flight copy both hold segments a
// snapshot would otherwise prune; dropping the follower (or its TTL
// lapsing) releases them at the next snapshot.
func TestPruneSparesFollowerAndPinnedSegments(t *testing.T) {
	st, err := Open(t.TempDir(), Options{RotateBytes: 256, KeepSnapshots: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.ackTTL = time.Hour
	st.StartAppend(0)
	const n = 50
	for i := 0; i < n; i++ {
		appendOne(t, st, uint64(i), testEvent(i))
	}
	if segs, err := st.listRefs(walPrefix); err != nil || len(segs) < 3 {
		t.Fatalf("need several segments, got %d (%v)", len(segs), err)
	}
	oldest := func() uint64 {
		t.Helper()
		segs, err := st.listRefs(walPrefix)
		if err != nil {
			t.Fatal(err)
		}
		return segs[0].seq
	}

	// A follower acked at seq 5: a snapshot at 40 must keep the chain
	// from 5 on, because pruning it would tear the replica's only source.
	st.RetainFollower("replica-1", 5)
	if _, err := st.WriteSnapshot(&Snapshot{Seq: 40}); err != nil {
		t.Fatal(err)
	}
	kept := oldest()
	if kept > 5 {
		t.Fatalf("prune tore the follower's chain: oldest segment now starts at %d, follower acked 5", kept)
	}
	// The replica must still be able to read seq 5 end to end.
	if evs, _, _ := copyDecode(t, st, 5, 1<<20); len(evs) != n-5 {
		t.Fatalf("retained chain from 5 read %d events, want %d", len(evs), n-5)
	}

	// Prune racing an in-flight pull: a copy mid-transfer pins its start
	// even once the follower has caught up and holds nothing back.
	st.RetainFollower("replica-1", n)
	w := &blockingWriter{started: make(chan struct{}), release: make(chan struct{})}
	done := make(chan error, 1)
	go func() {
		_, _, err := st.Copy(w, kept, 1<<20)
		done <- err
	}()
	<-w.started
	if _, err := st.WriteSnapshot(&Snapshot{Seq: 45}); err != nil {
		t.Fatal(err)
	}
	if got := oldest(); got != kept {
		t.Fatalf("prune removed a segment with an in-flight read (oldest now %d)", got)
	}
	close(w.release)
	if err := <-done; err != nil {
		t.Fatalf("pinned read failed: %v", err)
	}

	// With the ack past the tail and the pin released, the next snapshot
	// prunes.
	if _, err := st.WriteSnapshot(&Snapshot{Seq: 45}); err != nil {
		t.Fatal(err)
	}
	if got := oldest(); got <= 5 {
		t.Fatalf("segments not pruned after guard release: oldest still %d", got)
	}
}

// TestFollowerTTLExpiry: a follower that stops polling ages out of the
// retention guard instead of growing the WAL forever.
func TestFollowerTTLExpiry(t *testing.T) {
	st, err := Open(t.TempDir(), Options{RotateBytes: 256, KeepSnapshots: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.ackTTL = 5 * time.Millisecond
	st.StartAppend(0)
	const n = 50
	for i := 0; i < n; i++ {
		appendOne(t, st, uint64(i), testEvent(i))
	}
	st.RetainFollower("ghost", 0)
	if f, ok := st.followers["ghost"]; len(st.followers) != 1 || !ok || f.acked != 0 {
		t.Fatalf("followers: %v, want ghost@0", st.followers)
	}
	time.Sleep(20 * time.Millisecond)
	if _, err := st.WriteSnapshot(&Snapshot{Seq: 40}); err != nil {
		t.Fatal(err)
	}
	if len(st.followers) != 0 {
		t.Fatalf("expired follower still registered: %v", st.followers)
	}
	segs, err := st.listRefs(walPrefix)
	if err != nil {
		t.Fatal(err)
	}
	if segs[0].seq == 0 {
		t.Fatal("expired follower's ack still blocks pruning")
	}
}
