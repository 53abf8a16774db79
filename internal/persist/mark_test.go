package persist

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/raslog"
)

// frameItem is one thing a frame walk delivers, in delivery order: an
// event at seq, or an install mark before the event at seq.
type frameItem struct {
	mark bool
	seq  uint64
}

func (it frameItem) String() string {
	if it.mark {
		return fmt.Sprintf("M%d", it.seq)
	}
	return fmt.Sprintf("E%d", it.seq)
}

// appendMark writes an install mark at seq and fails the test on error.
func appendMark(t *testing.T, st *Store, seq uint64) {
	t.Helper()
	if _, err := st.AppendMark(seq); err != nil {
		t.Fatalf("AppendMark %d: %v", seq, err)
	}
}

// writeMarked appends events and marks in the order script names them:
// a number n appends events up to sequence n (exclusive) one by one, -1
// writes a mark at the next sequence. It returns the script's items.
func writeMarked(t *testing.T, st *Store, script ...int) []frameItem {
	t.Helper()
	var want []frameItem
	next := uint64(0)
	for _, n := range script {
		if n < 0 {
			appendMark(t, st, next)
			want = append(want, frameItem{mark: true, seq: next})
			continue
		}
		for ; next < uint64(n); next++ {
			appendOne(t, st, next, testEvent(int(next)))
			want = append(want, frameItem{seq: next})
		}
	}
	return want
}

// replayItems replays st from `from` with marks and returns what came
// back, checking every event's content.
func replayItems(t *testing.T, st *Store, from uint64) ([]frameItem, uint64) {
	t.Helper()
	var got []frameItem
	end, err := st.ReplayMarks(from, func(seq uint64, e raslog.Event) error {
		if e != testEvent(int(seq)) {
			t.Fatalf("replayed event %d differs", seq)
		}
		got = append(got, frameItem{seq: seq})
		return nil
	}, func(seq uint64) error {
		got = append(got, frameItem{mark: true, seq: seq})
		return nil
	})
	if err != nil {
		t.Fatalf("ReplayMarks(%d): %v", from, err)
	}
	return got, end
}

// after drops the items before sequence from (marks at from stay).
func after(items []frameItem, from uint64) []frameItem {
	var out []frameItem
	for _, it := range items {
		if it.seq >= from {
			out = append(out, it)
		}
	}
	return out
}

// TestInstallMarkReplaysOnRotationBoundary writes marks with a rotation
// size so small that every frame opens a segment: a mark then sits alone
// in a segment whose successor starts at the same sequence. Replay must
// still deliver it, before the events of its successor.
func TestInstallMarkReplaysOnRotationBoundary(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{RotateBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.StartAppend(0); err != nil {
		t.Fatal(err)
	}
	want := writeMarked(t, st, 2, -1, 3, -1, -1, 5, -1)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, err = Open(dir, Options{RotateBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if segs, _, err := st.Segments(); err != nil || len(segs) < len(want) {
		t.Fatalf("%d segments (%v) for %d frames: the rotation size does not isolate the marks", len(segs), err, len(want))
	}
	for _, from := range []uint64{0, 2, 3, 5} {
		got, end := replayItems(t, st, from)
		if end != 5 || !reflect.DeepEqual(got, after(want, from)) {
			t.Errorf("replay from %d: %v, end %d; want %v, end 5", from, got, end, after(want, from))
		}
	}
}

// TestNewSegmentRestatesMarks pins the marks that end a segment: a
// store reopened after writing a mark opens its next segment at the
// mark's sequence, which supersedes the older one from there on. The new
// segment restates the mark, so it survives the older segment's pruning
// and a reader of the newest segment alone (a follower) sees it.
func TestNewSegmentRestatesMarks(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{KeepSnapshots: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.StartAppend(0); err != nil {
		t.Fatal(err)
	}
	writeMarked(t, st, 4, -1)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = Open(dir, Options{KeepSnapshots: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, end := replayAll(t, st, 0); end != 4 {
		t.Fatalf("replay ends at %d, want 4", end)
	}
	if err := st.StartAppend(4); err != nil {
		t.Fatal(err)
	}
	appendOne(t, st, 4, testEvent(4))
	appendMark(t, st, 5)
	if _, err := st.WriteSnapshot(&Snapshot{Seq: 4, Marks: 1}); err != nil {
		t.Fatal(err)
	}
	segs, _, err := st.Segments()
	if err != nil || len(segs) != 1 || segs[0].FirstSeq != 4 {
		t.Fatalf("segments after the snapshot: %v, %v; want the one starting at 4", segs, err)
	}
	want := []frameItem{{mark: true, seq: 4}, {seq: 4}, {mark: true, seq: 5}}
	if got, end := replayItems(t, st, 4); end != 5 || !reflect.DeepEqual(got, want) {
		t.Fatalf("replay from the snapshot: %v, end %d; want %v, end 5", got, end, want)
	}
	var buf bytes.Buffer
	if _, _, err := st.CopySegment(&buf, segs[0].Name, 4, 0); err != nil {
		t.Fatal(err)
	}
	var got []frameItem
	if _, err := DecodeFrames(&buf, 4, math.MaxUint64, func(seq uint64, _ raslog.Event) error {
		got = append(got, frameItem{seq: seq})
		return nil
	}, func(seq uint64) error {
		got = append(got, frameItem{mark: true, seq: seq})
		return nil
	}); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("shipped from the new segment: %v, %v; want %v", got, err, want)
	}
}

// TestReplaySkipsInstallMarks pins that Replay delivers only events: a
// WAL with marks replays the same events, to the same end, as one
// without.
func TestReplaySkipsInstallMarks(t *testing.T) {
	plain, marked := t.TempDir(), t.TempDir()
	for _, c := range []struct {
		dir    string
		script []int
	}{{plain, []int{9}}, {marked, []int{-1, 3, -1, -1, 7, -1, 9, -1}}} {
		st, err := Open(c.dir, Options{RotateBytes: 200})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.StartAppend(0); err != nil {
			t.Fatal(err)
		}
		writeMarked(t, st, c.script...)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	replay := func(dir string) ([]raslog.Event, uint64) {
		st, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		return replayAll(t, st, 0)
	}
	pe, pend := replay(plain)
	me, mend := replay(marked)
	if len(pe) != 9 || pend != 9 || !reflect.DeepEqual(me, pe) || mend != pend {
		t.Fatalf("replay with marks: %d events to %d; without: %d events to %d", len(me), mend, len(pe), pend)
	}
}

// TestCopySegmentShipsInstallMarks pins the follower's read path:
// CopySegment ships every mark at or after `from` as an empty frame at
// its place between the events, and DecodeFrames reports it there, at
// any starting point and under a byte budget that splits the transfer.
func TestCopySegmentShipsInstallMarks(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.StartAppend(0); err != nil {
		t.Fatal(err)
	}
	want := writeMarked(t, st, 2, -1, 3, -1, -1, 6, -1)
	segs, _, err := st.Segments()
	if err != nil || len(segs) != 1 {
		t.Fatalf("Segments: %v, %v", segs, err)
	}
	decode := func(from uint64, maxBytes int64) ([]frameItem, uint64) {
		var buf bytes.Buffer
		_, next, err := st.CopySegment(&buf, segs[0].Name, from, maxBytes)
		if err != nil {
			t.Fatal(err)
		}
		var got []frameItem
		dnext, err := DecodeFrames(&buf, from, math.MaxUint64, func(seq uint64, e raslog.Event) error {
			if e != testEvent(int(seq)) {
				t.Fatalf("shipped event %d differs", seq)
			}
			got = append(got, frameItem{seq: seq})
			return nil
		}, func(seq uint64) error {
			got = append(got, frameItem{mark: true, seq: seq})
			return nil
		})
		if err != nil || dnext != next {
			t.Fatalf("DecodeFrames from %d: next %d, err %v; CopySegment reported %d", from, dnext, err, next)
		}
		return got, next
	}
	for _, from := range []uint64{0, 2, 3, 5, 6} {
		if got, next := decode(from, 0); next != 6 || !reflect.DeepEqual(got, after(want, from)) {
			t.Errorf("from %d: %v, next %d; want %v, next 6", from, got, next, after(want, from))
		}
	}

	// A one-byte budget splits the transfer at every mark; resuming at
	// each reported next, and dropping the marks at it a previous request
	// shipped (as the follower does), rebuilds the stream.
	var got []frameItem
	for from := uint64(0); ; {
		part, next := decode(from, 1)
		dup := 0 // marks at from that earlier requests already shipped
		for _, it := range got {
			if it.mark && it.seq == from {
				dup++
			}
		}
		for _, it := range part {
			if it.mark && it.seq == from && dup > 0 {
				dup--
				continue
			}
			got = append(got, it)
		}
		if next == from {
			break
		}
		from = next
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("budgeted transfer: %v; want %v", got, want)
	}
}

// transfer frames a wire stream by hand: a number n is a frame of n
// consecutive test events, -1 an install mark.
func transfer(frames ...int) []byte {
	var b []byte
	seq := 0
	for _, n := range frames {
		var payload []byte
		for i := 0; i < n; i++ {
			payload = appendEvent(payload, testEvent(seq))
			seq++
		}
		b = appendFrame(b, payload)
	}
	return b
}

// FuzzDecodeFrames feeds the follower's decoder arbitrary bytes. Marks
// and events must arrive in frame order — each mark carries the sequence
// of the event after it — the returned sequence must be from plus the
// events delivered, every event delivered must hold valid enums and
// hints that name its fields, and a stream that decodes must decode to a
// prefix of itself, without error, when its tail is torn off.
func FuzzDecodeFrames(f *testing.F) {
	mid := transfer(2, -1, 3, -1, -1, 1)
	f.Add(mid, uint64(0))
	f.Add(transfer(4, 1, -1), uint64(7))
	f.Add(mid[:len(mid)-5], uint64(3))
	f.Add([]byte{}, uint64(0))
	f.Add(appendFrame(nil, rawEvent(257, 0)), uint64(0)) // would wrap to BGLMASTER
	f.Fuzz(func(t *testing.T, data []byte, from uint64) {
		decode := func(data []byte) ([]frameItem, uint64, error) {
			var got []frameItem
			n := uint64(0)
			next, err := DecodeFrames(bytes.NewReader(data), from, math.MaxUint64, func(seq uint64, e raslog.Event) error {
				if seq != from+n {
					t.Fatalf("event at %d, want %d", seq, from+n)
				}
				if !e.Facility.Valid() || !e.Severity.Valid() {
					t.Fatalf("event at %d decoded with facility %d, severity %d", seq, e.Facility, e.Severity)
				}
				if e.LocHint.String() != e.Location || e.EntHint.String() != e.Entry {
					t.Fatalf("event at %d decoded with hints that do not name its fields", seq)
				}
				n++
				got = append(got, frameItem{seq: seq})
				return nil
			}, func(seq uint64) error {
				if seq != from+n {
					t.Fatalf("mark at %d after %d events from %d", seq, n, from)
				}
				got = append(got, frameItem{mark: true, seq: seq})
				return nil
			})
			if next != from+n {
				t.Fatalf("returned %d after %d events from %d", next, n, from)
			}
			return got, next, err
		}
		whole, _, err := decode(data)
		if err != nil {
			return // a frame that passes its CRC but does not decode
		}
		for _, cut := range []int{len(data) - 1, len(data) / 2} {
			if cut < 0 {
				continue
			}
			part, _, err := decode(data[:cut])
			if err != nil || len(part) > len(whole) || (len(part) > 0 && !reflect.DeepEqual(part, whole[:len(part)])) {
				t.Fatalf("torn at %d of %d: %v, err %v; want a prefix of %v", cut, len(data), part, err, whole)
			}
		}
	})
}
