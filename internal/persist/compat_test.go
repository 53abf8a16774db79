package persist_test

// Backward compatibility with pre-batch state directories. The files
// under testdata/prebatch were written by the writer as it was before
// AppendBatch existed (one event per WAL frame, genFixtureEvents, then a
// snapshot at seq 6); these tests pin that today's reader loads them
// unchanged, that a store can append on top of such a directory, and
// that one-event batches still write exactly those frames.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/persist"
	"repro/internal/raslog"
)

// copyFixture clones testdata/prebatch into a writable temp dir so
// tests can replay and append without touching the checked-in files.
func copyFixture(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	entries, err := os.ReadDir("testdata/prebatch")
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		b, err := os.ReadFile(filepath.Join("testdata/prebatch", ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, ent.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func replayEvents(t *testing.T, st *persist.Store, from uint64) ([]raslog.Event, uint64) {
	t.Helper()
	var got []raslog.Event
	next, err := st.Replay(from, func(seq uint64, e raslog.Event) error {
		if want := from + uint64(len(got)); seq != want {
			t.Fatalf("replay seq %d, want %d", seq, want)
		}
		got = append(got, e)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, next
}

func TestPreBatchSnapshotLoads(t *testing.T) {
	st, err := persist.Open(copyFixture(t), persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	snap, err := st.LoadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("no snapshot found in pre-batch fixture")
	}
	if snap.Seq != 6 {
		t.Fatalf("snapshot Seq = %d, want 6", snap.Seq)
	}
	wantCounters := persist.Counters{Sequenced: 6, AfterTemporal: 5, Processed: 4, Fatals: 1}
	if snap.Counters != wantCounters {
		t.Fatalf("snapshot Counters = %+v, want %+v", snap.Counters, wantCounters)
	}
	if len(snap.Temporal) != 2 || len(snap.Spatial) != 1 {
		t.Fatalf("snapshot rows: %d temporal, %d spatial; want 2, 1",
			len(snap.Temporal), len(snap.Spatial))
	}
	if snap.Temporal[0].Entry != "ddr error" || snap.Spatial[0].Location != "R01-M0-N4-C:J12-U01" {
		t.Fatalf("snapshot filter rows corrupted: %+v / %+v", snap.Temporal[0], snap.Spatial[0])
	}
}

func TestPreBatchWALReplays(t *testing.T) {
	st, err := persist.Open(copyFixture(t), persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	want := genFixtureEvents()

	got, next := replayEvents(t, st, 0)
	if next != uint64(len(want)) {
		t.Fatalf("Replay(0) next = %d, want %d", next, len(want))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Replay(0) events differ:\n got %+v\nwant %+v", got, want)
	}

	// Resuming from the snapshot position replays only the tail.
	got, next = replayEvents(t, st, 6)
	if next != uint64(len(want)) {
		t.Fatalf("Replay(6) next = %d, want %d", next, len(want))
	}
	if !reflect.DeepEqual(got, want[6:]) {
		t.Fatalf("Replay(6) events differ:\n got %+v\nwant %+v", got, want[6:])
	}
}

func TestAppendBatchOnPreBatchDirectory(t *testing.T) {
	dir := copyFixture(t)
	st, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}

	old := genFixtureEvents()
	_, next := replayEvents(t, st, 0)
	if next != uint64(len(old)) {
		t.Fatalf("replay next = %d, want %d", next, len(old))
	}
	if err := st.StartAppend(next); err != nil {
		t.Fatal(err)
	}

	// A two-event frame and a one-event frame, appended after the
	// pre-batch records in the same segment chain.
	extra := stamped([]raslog.Event{
		{RecordID: 11, Type: "RAS", Time: 1136074600000, JobID: 9, Location: "R00-M1-N8-C:J05-U11", Entry: "ciod: Error reading message prefix", Facility: raslog.App, Severity: raslog.Failure},
		{RecordID: 12, Type: "RAS", Time: 1136074601000, JobID: 0, Location: "R23-M1-NC-I:J18-U11", Entry: "link fault", Facility: raslog.LinkCard, Severity: raslog.Warning},
		{RecordID: 13, Type: "RAS", Time: 1136074602000, JobID: 9, Location: "R00-M1-N8-C:J05-U11", Entry: "rts panic", Facility: raslog.Kernel, Severity: raslog.Fatal},
	})
	if _, _, err := st.AppendBatch(next, extra[:2]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.AppendBatch(next+2, extra[2:]); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	want := append(append([]raslog.Event{}, old...), extra...)
	got, next := replayEvents(t, st2, 0)
	if next != uint64(len(want)) {
		t.Fatalf("reopened next = %d, want %d", next, len(want))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened replay differs:\n got %+v\nwant %+v", got, want)
	}
}

func TestAppendBatchRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.StartAppend(0); err != nil {
		t.Fatal(err)
	}

	events := genFixtureEvents()
	// Mixed shapes: batch of 3, empty batch (a no-op), two batches of 1,
	// batch of the rest.
	if _, _, err := st.AppendBatch(0, events[:3]); err != nil {
		t.Fatal(err)
	}
	if n, _, err := st.AppendBatch(3, nil); err != nil || n != 0 {
		t.Fatalf("empty batch: n=%d err=%v, want 0, nil", n, err)
	}
	if _, _, err := st.AppendBatch(3, events[3:4]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.AppendBatch(4, events[4:5]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.AppendBatch(5, events[5:]); err != nil {
		t.Fatal(err)
	}

	// Sequence checking holds across batches too.
	if _, _, err := st.AppendBatch(7, events[:2]); err == nil ||
		!strings.Contains(err.Error(), "out-of-order") {
		t.Fatalf("out-of-order batch: err = %v, want out-of-order", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got, next := replayEvents(t, st2, 0)
	if next != uint64(len(events)) {
		t.Fatalf("next = %d, want %d", next, len(events))
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("replay differs:\n got %+v\nwant %+v", got, events)
	}

	// Replay from inside a batch frame: the decoder skips the frame's
	// leading records and delivers the rest.
	got, _ = replayEvents(t, st2, 1)
	if !reflect.DeepEqual(got, events[1:]) {
		t.Fatalf("mid-batch replay differs:\n got %+v\nwant %+v", got, events[1:])
	}
}

func TestAppendBatchRotatesSegments(t *testing.T) {
	dir := t.TempDir()
	st, err := persist.Open(dir, persist.Options{RotateBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.StartAppend(0); err != nil {
		t.Fatal(err)
	}
	events := genFixtureEvents()
	for i := 0; i < len(events); i += 2 {
		if _, _, err := st.AppendBatch(uint64(i), events[i:i+2]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	segs := 0
	for _, ent := range names {
		if strings.HasPrefix(ent.Name(), "wal-") {
			segs++
		}
	}
	if segs < 2 {
		t.Fatalf("expected batches to rotate into multiple segments, got %d", segs)
	}

	st2, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got, next := replayEvents(t, st2, 0)
	if next != uint64(len(events)) || !reflect.DeepEqual(got, events) {
		t.Fatalf("replay across rotated batch segments differs (next=%d)", next)
	}
}

func TestAppendBatchAfterCloseFails(t *testing.T) {
	st, err := persist.Open(t.TempDir(), persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.StartAppend(0); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.AppendBatch(0, genFixtureEvents()[:1]); !errors.Is(err, persist.ErrClosed) {
		t.Fatalf("AppendBatch after Close: err = %v, want ErrClosed", err)
	}
}

// TestOneEventFramesMatchPreBatchFixture pins the WAL format: one-event
// AppendBatch calls write the pre-batch fixture's segment byte for byte.
func TestOneEventFramesMatchPreBatchFixture(t *testing.T) {
	const name = "wal-0000000000000000-00000001.log"
	want, err := os.ReadFile(filepath.Join("testdata/prebatch", name))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.StartAppend(0); err != nil {
		t.Fatal(err)
	}
	events := genFixtureEvents()
	for i := range events {
		if _, _, err := st.AppendBatch(uint64(i), events[i:i+1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("one-event frames differ from the pre-batch segment: %d bytes, want %d", len(got), len(want))
	}
}

// genFixtureEvents returns the events testdata/prebatch's WAL holds.
func genFixtureEvents() []raslog.Event {
	base := int64(1136073600000) // 2006-01-01 00:00:00 UTC
	return stamped([]raslog.Event{
		{RecordID: 1, Type: "RAS", Time: base, JobID: 7, Location: "R01-M0-N4-C:J12-U01", Entry: "ddr error", Facility: raslog.Kernel, Severity: raslog.Error},
		{RecordID: 2, Type: "RAS", Time: base + 1000, JobID: 7, Location: "R01-M0-N4-C:J12-U01", Entry: "ddr error", Facility: raslog.Kernel, Severity: raslog.Error},
		{RecordID: 3, Type: "RAS", Time: base + 2000, JobID: 0, Location: "R23-M1-NC-I:J18-U11", Entry: "link fault", Facility: raslog.LinkCard, Severity: raslog.Warning},
		{RecordID: 4, Type: "RAS", Time: base + 400000, JobID: 7, Location: "R01-M0-N4-C:J12-U01", Entry: "rts panic", Facility: raslog.Kernel, Severity: raslog.Fatal},
		{RecordID: 5, Type: "RAS", Time: base + 401000, JobID: 7, Location: "R01-M0-N4-C:J12-U01", Entry: "ddr error", Facility: raslog.Kernel, Severity: raslog.Error},
		{RecordID: 6, Type: "RAS", Time: base + 402000, JobID: 0, Location: "R23-M1-NC-I:J18-U11", Entry: "link fault", Facility: raslog.LinkCard, Severity: raslog.Warning},
		{RecordID: 7, Type: "RAS", Time: base + 800000, JobID: 9, Location: "R00-M1-N8-C:J05-U11", Entry: "idoproxydb hit ASSERT condition", Facility: raslog.MMCS, Severity: raslog.Severe},
		{RecordID: 8, Type: "RAS", Time: base + 801000, JobID: 9, Location: "R00-M1-N8-C:J05-U11", Entry: "", Facility: raslog.App, Severity: raslog.Info},
		{RecordID: 9, Type: "RAS", Time: base + 802000, JobID: 0, Location: "", Entry: "power module status fault", Facility: raslog.Monitor, Severity: raslog.Failure},
		{RecordID: 10, Type: "RAS", Time: base + 900000, JobID: 9, Location: "R00-M1-N8-C:J05-U11", Entry: "ciod: LOGIN chdir failed", Facility: raslog.App, Severity: raslog.Failure},
	})
}

// stamped stamps hand-built events like every decoder stamps the ones it
// makes, so comparing them with replayed events checks the hints too.
func stamped(events []raslog.Event) []raslog.Event {
	for i := range events {
		events[i].Stamp()
	}
	return events
}
