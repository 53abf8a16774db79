package persist

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/preprocess"
	"repro/internal/raslog"
)

// TestReplayDecodeAllocBudget pins WAL replay's decode cost: through the
// process vocabulary, a record whose strings were seen before decodes
// without allocating (a plain string copy cost three allocations).
func TestReplayDecodeAllocBudget(t *testing.T) {
	var payload []byte
	for i := 0; i < 64; i++ {
		payload = appendEvent(payload, testEvent(i))
	}
	in := raslog.NewInterner()
	decodeAll := func() {
		d := eventDecoder{buf: payload, in: in}
		for len(d.buf) > 0 {
			if _, err := d.event(); err != nil {
				t.Fatal(err)
			}
		}
	}
	decodeAll() // the first sight of each string
	if allocs := testing.AllocsPerRun(100, decodeAll); allocs != 0 {
		t.Fatalf("decoding 64 seen records allocates %.1f times, want 0", allocs)
	}
}

// rawEvent encodes an event record field by field, so a test can write
// enum values no raslog.Event can hold.
func rawEvent(facility, severity uint64) []byte {
	b := binary.AppendVarint(nil, 1)
	b = binary.AppendVarint(b, 1_000_000)
	b = binary.AppendVarint(b, 7)
	b = binary.AppendUvarint(b, facility)
	b = binary.AppendUvarint(b, severity)
	for _, s := range []string{"RAS", "R00-M0-N4", "ddr error"} {
		b = appendString(b, s)
	}
	return b
}

// TestDecodeEventRejectsOutOfRangeEnums: a Facility or Severity beyond
// its last value is a corrupt record, not a value that wraps in the
// event's int8 (facility 257 would otherwise read back as BGLMASTER).
func TestDecodeEventRejectsOutOfRangeEnums(t *testing.T) {
	for _, c := range []struct{ facility, severity uint64 }{
		{257, 0},
		{uint64(raslog.NumFacilities), 0},
		{128, 0},
		{1 << 40, 0},
		{0, uint64(raslog.NumSeverities)},
		{0, 262},
		{0, 255},
	} {
		if e, err := decodeEvent(rawEvent(c.facility, c.severity)); err == nil {
			t.Errorf("facility %d, severity %d decoded as %v, want an error", c.facility, c.severity, e)
		}
	}
	e, err := decodeEvent(rawEvent(uint64(raslog.ServNet), uint64(raslog.Failure)))
	if err != nil || e.Facility != raslog.ServNet || e.Severity != raslog.Failure {
		t.Fatalf("the last facility and severity decoded as %v, %v", e, err)
	}
}

// TestSnapshotWriteAllocBudget pins the streamed snapshot write: the
// bytes a write allocates stay fixed (buffers and the small head), not
// a multiple of the snapshot's size, at 8 K and at 64 K history events.
// Building the snapshot in memory allocated 4.8 times its bytes.
func TestSnapshotWriteAllocBudget(t *testing.T) {
	const budget = 512 << 10
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	history := make([]preprocess.TaggedEvent, 64<<10)
	for i := range history {
		e := raslog.Event{
			RecordID: int64(i), Time: 1_000_000_000_000 + int64(i)*997, JobID: int64(i % 50),
			Type: "RAS", Location: fmt.Sprintf("R%02d-M%d-N%d-C:J%02d-U01", i%16, i%2, i%8, i%18),
			Entry:    fmt.Sprintf("ddr error %d", i%40),
			Facility: raslog.Facility(i % 4), Severity: raslog.Severity(i % 6),
		}
		e.Stamp()
		history[i] = preprocess.TaggedEvent{Event: e, Class: i % 97, Fatal: i%7 == 0}
	}
	seq := uint64(0)
	write := func(n int) {
		seq++
		if _, err := st.WriteSnapshot(&Snapshot{Seq: seq, History: history[:n]}); err != nil {
			t.Fatal(err)
		}
	}
	write(1 << 10) // warm-up
	for _, n := range []int{8 << 10, 64 << 10} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		write(n)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > budget {
			t.Errorf("writing a snapshot of %d history events allocated %d bytes, budget %d", n, got, budget)
		} else {
			t.Logf("%d history events: %d bytes allocated", n, got)
		}
	}
}
