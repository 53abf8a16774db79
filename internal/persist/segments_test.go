package persist

import (
	"bytes"
	"math"
	"testing"
	"time"

	"repro/internal/raslog"
)

// copyDecode round-trips CopySegment output through DecodeFrames — the
// follower's read path.
func copyDecode(t *testing.T, st *Store, name string, from uint64, maxBytes int64) ([]raslog.Event, uint64) {
	t.Helper()
	var buf bytes.Buffer
	_, next, err := st.CopySegment(&buf, name, from, maxBytes)
	if err != nil {
		t.Fatalf("CopySegment(%s, %d): %v", name, from, err)
	}
	var evs []raslog.Event
	wantSeq := from
	dnext, err := DecodeFrames(bytes.NewReader(buf.Bytes()), from, math.MaxUint64, func(seq uint64, e raslog.Event) error {
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
		t.Fatalf("DecodeFrames ended at %d, CopySegment reported %d", dnext, next)
	}
	return evs, next
}

// TestReadActiveSegmentExtends is the live-tail contract: a segment read
// while the leader is still appending to it returns everything durable
// so far as a clean end — and a retry from that position picks up the
// extension. This is exactly a follower tailing a leader's open segment.
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

	segs, next, err := st.Segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || next != first {
		t.Fatalf("Segments: %d segments, next %d; want 1, %d", len(segs), next, first)
	}
	evs, got := copyDecode(t, st, segs[0].Name, 0, 1<<20)
	if got != first || len(evs) != first {
		t.Fatalf("live read: %d events, next %d; want %d", len(evs), got, first)
	}

	// The segment grows underneath the reader; a retry from the previous
	// durable end sees only the extension.
	for i := first; i < second; i++ {
		appendOne(t, st, uint64(i), testEvent(i))
	}
	evs, got = copyDecode(t, st, segs[0].Name, first, 1<<20)
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
	segs, _, err := st.Segments()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, _, err := st.CopySegment(&buf, segs[0].Name, 0, 1<<20); err != nil {
		t.Fatal(err)
	}

	whole := buf.Bytes()
	for _, cut := range []int{len(whole) - 1, len(whole) - 5, len(whole) / 2, 3} {
		count := 0
		next, err := DecodeFrames(bytes.NewReader(whole[:cut]), 0, math.MaxUint64, func(seq uint64, e raslog.Event) error {
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

// TestCopySegmentFromRotationBoundary pins the `from` semantics at
// segment edges: from exactly at the next segment's first seq drains the
// older segment to zero events, and the newer segment starts exactly
// there — no duplicate, no gap.
func TestCopySegmentFromRotationBoundary(t *testing.T) {
	st, err := Open(t.TempDir(), Options{RotateBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.StartAppend(0)
	const n = 50
	for i := 0; i < n; i++ {
		appendOne(t, st, uint64(i), testEvent(i))
	}
	segs, next, err := st.Segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("need several segments, got %d", len(segs))
	}
	boundary := segs[1].FirstSeq

	// from == the older segment's end: zero events, clean end at the end
	// of that segment's records.
	evs, got := copyDecode(t, st, segs[0].Name, boundary, 1<<20)
	if len(evs) != 0 || got != boundary {
		t.Fatalf("old segment from boundary: %d events, next %d; want 0, %d", len(evs), got, boundary)
	}
	// The newer segment serves the boundary record itself.
	evs, _ = copyDecode(t, st, segs[1].Name, boundary, 1<<20)
	if len(evs) == 0 || evs[0] != testEvent(int(boundary)) {
		t.Fatalf("new segment from boundary: first event wrong (%d events)", len(evs))
	}
	// And from below a segment's first seq is refused — the caller asked
	// for records this file cannot prove dense coverage for.
	if _, _, err := st.CopySegment(&bytes.Buffer{}, segs[1].Name, boundary-1, 1<<20); err == nil {
		t.Fatal("CopySegment accepted from below the segment's first seq")
	}
	_ = next

	// A byte budget smaller than the segment resumes exactly where the
	// flushed copy ended.
	evs1, mid := copyDecode(t, st, segs[0].Name, 0, 1)
	if mid == 0 || int(mid) >= int(boundary) && len(evs1) == 0 {
		t.Fatalf("budgeted copy made no progress (next %d)", mid)
	}
	evs2, end := copyDecode(t, st, segs[0].Name, mid, 1<<20)
	if end != boundary || len(evs1)+len(evs2) != int(boundary) {
		t.Fatalf("budget resume: %d+%d events, end %d; want %d total", len(evs1), len(evs2), end, boundary)
	}
}

// TestPruneSparesFollowerAndPinnedSegments is the retention-guard test:
// a registered follower ack and an in-flight segment read both hold
// segments a snapshot would otherwise prune; dropping the follower (or
// its TTL lapsing) releases them at the next snapshot.
func TestPruneSparesFollowerAndPinnedSegments(t *testing.T) {
	st, err := Open(t.TempDir(), Options{RotateBytes: 256, KeepSnapshots: 1, FollowerTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.StartAppend(0)
	const n = 50
	for i := 0; i < n; i++ {
		appendOne(t, st, uint64(i), testEvent(i))
	}
	segs, _, err := st.Segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("need several segments, got %d", len(segs))
	}

	// A follower acked at seq 5: a snapshot at 40 must keep the chain
	// from 5 on, because pruning it would tear the replica's only source.
	st.RetainFollower("replica-1", 5)
	if _, err := st.WriteSnapshot(&Snapshot{Seq: 40}); err != nil {
		t.Fatal(err)
	}
	after, _, err := st.Segments()
	if err != nil {
		t.Fatal(err)
	}
	if after[0].FirstSeq > 5 {
		t.Fatalf("prune tore the follower's chain: oldest segment now starts at %d, follower acked 5", after[0].FirstSeq)
	}
	// The replica must still be able to read seq 5 end to end.
	evs, _ := copyDecode(t, st, after[0].Name, after[0].FirstSeq, 1<<20)
	if len(evs) == 0 {
		t.Fatal("retained segment is unreadable")
	}

	// Prune racing an in-flight pull: a reader mid-segment pins it even
	// once the follower has caught up and holds nothing back.
	st.RetainFollower("replica-1", n)
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := st.readSegment(after[0].Name, after[0].FirstSeq, func(seq uint64, e raslog.Event) error {
			if seq == after[0].FirstSeq {
				close(started)
				<-release
			}
			return nil
		}, nil)
		done <- err
	}()
	<-started
	if _, err := st.WriteSnapshot(&Snapshot{Seq: 45}); err != nil {
		t.Fatal(err)
	}
	mid, _, err := st.Segments()
	if err != nil {
		t.Fatal(err)
	}
	if mid[0].FirstSeq != after[0].FirstSeq {
		t.Fatalf("prune removed a segment with an in-flight read (oldest now %d)", mid[0].FirstSeq)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("pinned read failed: %v", err)
	}

	// With the ack past the tail and the pin released, the next snapshot
	// prunes.
	if _, err := st.WriteSnapshot(&Snapshot{Seq: 45}); err != nil {
		t.Fatal(err)
	}
	final, _, err := st.Segments()
	if err != nil {
		t.Fatal(err)
	}
	if final[0].FirstSeq <= 5 {
		t.Fatalf("segments not pruned after guard release: oldest still %d", final[0].FirstSeq)
	}
}

// TestFollowerTTLExpiry: a follower that stops polling ages out of the
// retention guard instead of growing the WAL forever.
func TestFollowerTTLExpiry(t *testing.T) {
	st, err := Open(t.TempDir(), Options{RotateBytes: 256, KeepSnapshots: 1, FollowerTTL: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.StartAppend(0)
	const n = 50
	for i := 0; i < n; i++ {
		appendOne(t, st, uint64(i), testEvent(i))
	}
	st.RetainFollower("ghost", 0)
	if got := st.Followers(); len(got) != 1 || got["ghost"] != 0 {
		t.Fatalf("Followers: %v, want ghost@0", got)
	}
	time.Sleep(20 * time.Millisecond)
	if got := st.Followers(); len(got) != 0 {
		t.Fatalf("expired follower still listed: %v", got)
	}
	if _, err := st.WriteSnapshot(&Snapshot{Seq: 40}); err != nil {
		t.Fatal(err)
	}
	segs, _, err := st.Segments()
	if err != nil {
		t.Fatal(err)
	}
	if segs[0].FirstSeq == 0 {
		t.Fatal("expired follower's ack still blocks pruning")
	}
}
