package stream

// Batched-ingest equivalence: a service fed through IngestBatch must be
// indistinguishable — rules, warnings, counters, clocks, history, and
// durable state — from one fed the same events one at a time. The batch
// path changes *when* events are committed (one WAL frame and fsync per
// released burst), never *what* the pipeline computes.

import (
	"context"
	"errors"
	"sort"
	"testing"

	"repro/internal/raslog"
)

// batchSizes mixes degenerate (1), small, and large chunks so batch
// boundaries land at arbitrary stream positions.
var batchSizes = []int{1, 7, 64, 3, 256, 31}

// ingestBatches feeds events in batches of batchSizes, waiting after each
// until it is applied (see ingestAll). A batch also ends at the event
// whose ingest crosses the service's next training boundary, where
// ingestAll's one-event batches end too, so the two feeds install every
// pass at the same stream position.
func ingestBatches(t testing.TB, s *Service, events []raslog.Event) {
	k := 0
	feedBatches(t, s, events, func(i int) int {
		n := batchSizes[k%len(batchSizes)]
		k++
		return min(n, crossing(s, events, i)-i+1)
	})
}

// feedBatches feeds events in batches, the one starting at index i
// size(i) events long, and waits after each until it is applied.
func feedBatches(t testing.TB, s *Service, events []raslog.Event, size func(i int) int) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < len(events); {
		n := min(size(i), len(events)-i)
		batch := append([]raslog.Event(nil), events[i:i+n]...)
		m, err := s.IngestBatch(ctx, batch)
		if err != nil {
			t.Fatal(err)
		}
		if m != n {
			t.Fatalf("IngestBatch accepted %d of %d", m, n)
		}
		applied(t, s)
		i += n
	}
}

// crossing returns the index of the first event at or after i whose
// ingest releases an event at or past the service's next training
// boundary, or len(events) if none does. events must be time-sorted:
// then the ingest of events[k] releases every event up to its time
// minus the reorder tolerance, however the feed is batched.
func crossing(s *Service, events []raslog.Event, i int) int {
	at := s.Stats().NextRetrain
	if at <= 0 {
		return len(events)
	}
	c := sort.Search(len(events), func(j int) bool { return events[j].Time >= at })
	if c == len(events) {
		return len(events)
	}
	tol := s.cfg.ReorderWindow.Milliseconds()
	return i + sort.Search(len(events)-i, func(j int) bool { return events[i+j].Time-tol >= events[c].Time })
}

func TestIngestBatchMatchesSequential(t *testing.T) {
	l := genLog(t, 11, 8)
	ref := referenceRun(t, l)
	if len(ref.Rules()) == 0 || len(ref.Warnings(0)) == 0 {
		t.Fatalf("reference run is trivial: %d rules, %d warnings",
			len(ref.Rules()), len(ref.Warnings(0)))
	}

	s, err := New(durableConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	ingestBatches(t, s, l.Events)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	compareServices(t, s, ref)
}

// TestIngestBatchDurableEquivalence runs the same comparison with a
// state directory on both sides, then restarts both services over their
// directories: the recovered states must also agree, proving the batch
// frames the group commit wrote replay exactly like per-event frames.
func TestIngestBatchDurableEquivalence(t *testing.T) {
	l := genLog(t, 13, 8)
	dirSeq, dirBatch := t.TempDir(), t.TempDir()

	seqSvc, err := New(durableConfig(dirSeq))
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, seqSvc, l)
	if err := seqSvc.Close(); err != nil {
		t.Fatal(err)
	}

	batchSvc, err := New(durableConfig(dirBatch))
	if err != nil {
		t.Fatal(err)
	}
	ingestBatches(t, batchSvc, l.Events)
	if err := batchSvc.Close(); err != nil {
		t.Fatal(err)
	}
	compareServices(t, batchSvc, seqSvc)

	seq2, err := New(durableConfig(dirSeq))
	if err != nil {
		t.Fatal(err)
	}
	batch2, err := New(durableConfig(dirBatch))
	if err != nil {
		t.Fatal(err)
	}
	if err := seq2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := batch2.Close(); err != nil {
		t.Fatal(err)
	}
	compareServices(t, batch2, seq2)
}

func TestIngestBatchClosedAndEmpty(t *testing.T) {
	s, err := New(durableConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := s.IngestBatch(context.Background(), nil); n != 0 || err != nil {
		t.Fatalf("empty batch: n=%d err=%v, want 0, nil", n, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = s.IngestBatch(context.Background(), []raslog.Event{{Time: 1}})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("IngestBatch after Close: err = %v, want ErrClosed", err)
	}
}
