package persist

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/learner"
	"repro/internal/raslog"
	"repro/internal/stats"
)

// testEvent is stamped like every decoded event, so comparing it with a
// replayed one checks the decoder's hints too.
func testEvent(i int) raslog.Event {
	e := raslog.Event{
		RecordID: int64(i),
		Time:     1_000_000_000_000 + int64(i)*1234 + 7, // ms resolution on purpose
		JobID:    int64(i%5) - 1,                        // includes -1 (zigzag path)
		Facility: raslog.Facility(i % 4),
		Severity: raslog.Severity(i % 6),
		Type:     "RAS",
		Location: "R" + string(rune('A'+i%3)) + "-M0-N4",
		Entry:    "machine check interrupt … unit é" + strings.Repeat("x", i%17),
	}
	e.Stamp()
	return e
}

func TestEventFrameRoundTrip(t *testing.T) {
	for i := 0; i < 64; i++ {
		e := testEvent(i)
		frame := appendFrame(nil, appendEvent(nil, e))
		payload, err := readFrame(bufio.NewReader(bytes.NewReader(frame)))
		if err != nil {
			t.Fatalf("event %d: readFrame: %v", i, err)
		}
		got, err := decodeEvent(payload)
		if err != nil {
			t.Fatalf("event %d: decode: %v", i, err)
		}
		if got != e {
			t.Fatalf("event %d: round trip mismatch:\n got %+v\nwant %+v", i, got, e)
		}
	}
}

func TestDecodeEventRejectsTrailingBytes(t *testing.T) {
	b := appendEvent(nil, testEvent(1))
	if _, err := decodeEvent(append(b, 0)); err == nil {
		t.Fatal("decodeEvent accepted a record with trailing bytes")
	}
}

// appendOne writes e as a one-event frame at seq and waits for the
// covering fsync.
func appendOne(t *testing.T, st *Store, seq uint64, e raslog.Event) {
	t.Helper()
	_, tk, err := st.AppendBatch(seq, []raslog.Event{e})
	if err != nil {
		t.Fatalf("AppendBatch %d: %v", seq, err)
	}
	if err := tk.Wait(context.Background()); err != nil {
		t.Fatalf("commit %d: %v", seq, err)
	}
}

func replayAll(t *testing.T, st *Store, from uint64) ([]raslog.Event, uint64) {
	t.Helper()
	var got []raslog.Event
	wantSeq := from
	end, err := st.Replay(from, func(seq uint64, e raslog.Event) error {
		if seq != wantSeq {
			t.Fatalf("replay out of order: seq %d, want %d", seq, wantSeq)
		}
		wantSeq++
		got = append(got, e)
		return nil
	})
	if err != nil {
		t.Fatalf("Replay(%d): %v", from, err)
	}
	return got, end
}

func TestAppendCloseReplay(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.StartAppend(0); err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		appendOne(t, st, uint64(i), testEvent(i))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, end := replayAll(t, st2, 0)
	if end != n || len(got) != n {
		t.Fatalf("replay returned %d events, end %d; want %d", len(got), end, n)
	}
	for i, e := range got {
		if e != testEvent(i) {
			t.Fatalf("event %d differs after replay", i)
		}
	}
	// Resume mid-log too.
	got, end = replayAll(t, st2, 40)
	if end != n || len(got) != n-40 {
		t.Fatalf("partial replay: %d events, end %d", len(got), end)
	}
}

func TestAppendRejectsOutOfOrderSeq(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	one := []raslog.Event{testEvent(0)}
	if _, _, err := st.AppendBatch(0, one); err == nil {
		t.Fatal("AppendBatch before StartAppend succeeded")
	}
	if err := st.StartAppend(5); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.AppendBatch(7, one); err == nil {
		t.Fatal("out-of-order AppendBatch succeeded")
	}
	if _, _, err := st.AppendBatch(5, one); err != nil {
		t.Fatal(err)
	}
}

// newestWAL returns the path of the newest WAL segment.
func newestWAL(t *testing.T, st *Store) string {
	t.Helper()
	segs, err := st.listRefs(walPrefix)
	if err != nil || len(segs) == 0 {
		t.Fatalf("listRefs: %v (%d segments)", err, len(segs))
	}
	return filepath.Join(st.dir, segs[len(segs)-1].name)
}

func TestTornTailEndsReplayCleanly(t *testing.T) {
	for name, mangle := range map[string]func([]byte) []byte{
		"truncated-frame": func(b []byte) []byte { return b[:len(b)-3] },
		"bit-flip":        func(b []byte) []byte { b[len(b)-1] ^= 0x40; return b },
		"torn-header":     func(b []byte) []byte { return append(b, 0xff, 0xff) },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			st.StartAppend(0)
			const n = 20
			for i := 0; i < n; i++ {
				appendOne(t, st, uint64(i), testEvent(i))
			}
			st.Close()

			path := newestWAL(t, st)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, mangle(b), 0o644); err != nil {
				t.Fatal(err)
			}

			st2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			got, end := replayAll(t, st2, 0)
			switch name {
			case "torn-header":
				if len(got) != n || end != n {
					t.Fatalf("got %d events, end %d; want all %d", len(got), end, n)
				}
			default:
				// The mangled final record must be dropped; everything before
				// it replays.
				if len(got) != n-1 || end != n-1 {
					t.Fatalf("got %d events, end %d; want %d", len(got), end, n-1)
				}
			}
		})
	}
}

func TestRotationSnapshotPrune(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{RotateBytes: 256, KeepSnapshots: 1})
	if err != nil {
		t.Fatal(err)
	}
	st.StartAppend(0)
	const n = 50
	for i := 0; i < n; i++ {
		appendOne(t, st, uint64(i), testEvent(i))
	}
	segs, _ := st.listRefs(walPrefix)
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(segs))
	}

	// Snapshot at seq 30: segments wholly below 30 become prunable.
	if _, err := st.WriteSnapshot(&Snapshot{Seq: 30}); err != nil {
		t.Fatal(err)
	}
	after, _ := st.listRefs(walPrefix)
	if len(after) >= len(segs) {
		t.Fatalf("prune removed nothing: %d -> %d segments", len(segs), len(after))
	}
	if after[0].seq > 30 {
		t.Fatalf("oldest retained segment starts at %d, past the snapshot seq", after[0].seq)
	}
	st.Close()

	// Recovery from the snapshot position must still see 30..n-1.
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := st2.LoadSnapshot()
	if err != nil || snap == nil || snap.Seq != 30 {
		t.Fatalf("LoadSnapshot: %v, %+v", err, snap)
	}
	got, end := replayAll(t, st2, snap.Seq)
	if len(got) != n-30 || end != n {
		t.Fatalf("replay from snapshot: %d events, end %d", len(got), end)
	}
}

// TestReplayFromPastRetainedSegments replays from a position several
// segments into a WAL that kept its older segments (a follower's ack
// held them back from pruning): only the records from that position on
// may come back. A replay that restarted each segment at the previous
// one's end would re-deliver everything after the first segment.
func TestReplayFromPastRetainedSegments(t *testing.T) {
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
	if segs, _ := st.listRefs(walPrefix); len(segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(segs))
	}
	got, end := replayAll(t, st, 30)
	if len(got) != n-30 || end != n {
		t.Fatalf("replay from 30: %d events, end %d; want %d, end %d", len(got), end, n-30, n)
	}
}

func TestWALGapFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{RotateBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	st.StartAppend(0)
	for i := 0; i < 50; i++ {
		appendOne(t, st, uint64(i), testEvent(i))
	}
	st.Close()
	segs, _ := st.listRefs(walPrefix)
	if len(segs) < 3 {
		t.Fatalf("need several segments, got %d", len(segs))
	}
	// Remove a middle segment: replay must refuse to jump the hole.
	if err := os.Remove(filepath.Join(dir, segs[1].name)); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st2.Replay(0, func(uint64, raslog.Event) error { return nil }); err == nil {
		t.Fatal("Replay over a missing segment succeeded")
	}
}

func TestCorruptNewestSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.WriteSnapshot(&Snapshot{Seq: 10, WatermarkMs: 111}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.WriteSnapshot(&Snapshot{Seq: 20, WatermarkMs: 222}); err != nil {
		t.Fatal(err)
	}
	snaps, _ := st.listRefs(snapPrefix)
	if len(snaps) != 2 {
		t.Fatalf("want 2 snapshots, got %d", len(snaps))
	}
	newest := filepath.Join(dir, snaps[1].name)
	b, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(newest, b, 0o644); err != nil {
		t.Fatal(err)
	}

	snap, err := st.LoadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.Seq != 10 || snap.WatermarkMs != 111 {
		t.Fatalf("fallback snapshot: %+v, want the seq-10 one", snap)
	}
}

func TestLoadSnapshotEmptyDir(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := st.LoadSnapshot()
	if err != nil || snap != nil {
		t.Fatalf("empty dir: snap %+v, err %v; want nil, nil", snap, err)
	}
}

func TestAbandonDiscardsUnflushedTail(t *testing.T) {
	dir := t.TempDir()
	// The syncer lingers a minute before it flushes, and nothing here
	// waits for a ticket: the appended frames are still in the buffer.
	st, err := Open(dir, Options{SyncMaxWait: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	st.StartAppend(0)
	for i := 0; i < 10; i++ {
		if _, _, err := st.AppendBatch(uint64(i), []raslog.Event{testEvent(i)}); err != nil {
			t.Fatal(err)
		}
	}
	st.Abandon()
	// Everything after Abandon must be a silent no-op.
	if n, _, err := st.AppendBatch(10, []raslog.Event{testEvent(10)}); n != 0 || err != nil {
		t.Fatalf("AppendBatch after Abandon: %d, %v", n, err)
	}
	if n, err := st.WriteSnapshot(&Snapshot{Seq: 10}); n != 0 || err != nil {
		t.Fatalf("WriteSnapshot after Abandon: %d, %v", n, err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close after Abandon: %v", err)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := replayAll(t, st2, 0)
	if len(got) == 10 {
		t.Fatal("unflushed tail survived Abandon; crash simulation is not discarding the buffer")
	}
	if snap, _ := st2.LoadSnapshot(); snap != nil {
		t.Fatalf("snapshot written after Abandon: %+v", snap)
	}
}

func TestStartAppendAfterReplayContinuesSegmentChain(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.StartAppend(0)
	for i := 0; i < 10; i++ {
		appendOne(t, st, uint64(i), testEvent(i))
	}
	st.Abandon() // simulated crash
	st.Close()

	// Restart: replay, then append more from where the durable log ends.
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, end := replayAll(t, st2, 0)
	if err := st2.StartAppend(end); err != nil {
		t.Fatal(err)
	}
	for i := end; i < end+10; i++ {
		appendOne(t, st2, i, testEvent(int(i)))
	}
	st2.Close()

	st3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, end3 := replayAll(t, st3, 0)
	if uint64(len(got)) != end+10 || end3 != end+10 {
		t.Fatalf("after restart chain: %d events, end %d; want %d", len(got), end3, end+10)
	}
}

func TestRulesRoundTrip(t *testing.T) {
	wb, _ := stats.NewWeibull(187.3, 0.82)
	ex, _ := stats.NewExponential(412.5)
	ln, _ := stats.NewLogNormal(4.1, 1.3)
	rules := []learner.Rule{
		{Kind: learner.Association, Body: []int{3, 17}, Target: 204, Confidence: 0.81, Support: 0.02},
		{Kind: learner.Statistical, Count: 3, Confidence: 0.6},
		{Kind: learner.Distribution, Dist: wb, ElapsedSec: 900},
		{Kind: learner.Distribution, Dist: ex, ElapsedSec: 120},
		{Kind: learner.Distribution, Dist: ln, ElapsedSec: 60},
	}
	wire, err := EncodeRules(rules)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeRules(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rules, back) {
		t.Fatalf("rules round trip mismatch:\n got %+v\nwant %+v", back, rules)
	}
}

// fakeDist is a Distribution family the codec does not know about.
type fakeDist struct{ stats.Exponential }

func (fakeDist) Name() string { return "fake" }

func TestEncodeRulesRejectsUnknownDist(t *testing.T) {
	if _, err := EncodeRules([]learner.Rule{{Kind: learner.Distribution, Dist: fakeDist{}}}); err == nil {
		t.Fatal("EncodeRules accepted an unknown distribution family")
	}
}

func TestDecodeDistRejectsBadWire(t *testing.T) {
	for _, w := range []Dist{
		{Name: "fake", Params: []float64{1}},
		{Name: "weibull", Params: []float64{1}},          // wrong arity
		{Name: "weibull", Params: []float64{-1, 2}},      // invalid parameter
		{Name: "exponential", Params: []float64{1, 2}},   // wrong arity
		{Name: "lognormal", Params: []float64{0.5, -.1}}, // invalid sigma
	} {
		if _, err := decodeDist(w); err == nil {
			t.Fatalf("decodeDist accepted %+v", w)
		}
	}
}

func TestReadFrameStopsOnGiantLength(t *testing.T) {
	var hdr [frameHeader]byte
	for i := range hdr {
		hdr[i] = 0xff
	}
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(hdr[:]))); err != errTorn {
		t.Fatalf("giant length prefix: err %v, want errTorn", err)
	}
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(nil))); err != io.EOF {
		t.Fatalf("empty reader: err %v, want io.EOF", err)
	}
}
