package stream

// Steady-state allocation budget for the serving hot path. The pipeline
// (reorder buffer, WAL staging, filters, predictor observe) reuses its
// buffers once warm; what remains per event is amortized slice growth in
// the training history plus scheduler noise. The budget is deliberately
// loose against that noise but tight enough that reintroducing a
// per-event allocation (interface boxing in the heap, per-event WAL
// frames) fails it clearly.

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/raslog"
)

// pipelineEvent fabricates a deterministic in-order event over a small
// set of locations and entries, like a production feed where the same
// hardware chatters repeatedly.
func pipelineEvent(i int) raslog.Event {
	locs := [...]string{
		"R00-M0-N0-C:J01-U01", "R01-M1-N2-C:J05-U11",
		"R02-M0-N4-C:J12-U01", "R03-M1-N8-C:J18-U11",
	}
	entries := [...]string{
		"instruction cache parity error corrected",
		"ddr: excessive soft failures",
		"MidplaneSwitchController performing bit sparing",
	}
	return raslog.Event{
		RecordID: int64(i),
		Type:     "RAS",
		Time:     int64(i) * 1000,
		JobID:    int64(i % 5),
		Location: locs[i%len(locs)],
		Entry:    entries[i%len(entries)],
		Facility: raslog.Kernel,
		Severity: raslog.Info,
	}
}

func TestPipelineSteadyStateAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is distorted by the race detector")
	}
	cfg := Defaults()
	cfg.InitialTrain = 1 << 40 * time.Millisecond // never trains
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctx := context.Background()
	const warm, measured = 20000, 20000
	for i := 0; i < warm; i++ {
		if err := s.Ingest(ctx, pipelineEvent(i)); err != nil {
			t.Fatal(err)
		}
	}
	settle := func(n int64) {
		waitFor(t, 10*time.Second, func() bool { return s.m.sequenced.Value() >= n })
	}
	// The reorder buffer holds the trailing tolerance window; wait for
	// everything releasable, then measure across a fixed event count.
	settle(warm - 100)

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	for i := warm; i < warm+measured; i++ {
		if err := s.Ingest(ctx, pipelineEvent(i)); err != nil {
			t.Fatal(err)
		}
	}
	settle(warm + measured - 100)
	runtime.GC()
	runtime.ReadMemStats(&ms1)

	perEvent := float64(ms1.Mallocs-ms0.Mallocs) / measured
	t.Logf("steady-state pipeline: %.2f allocs/event", perEvent)
	if perEvent > 8 {
		t.Fatal(fmt.Sprintf("pipeline allocates %.2f times per event, budget 8", perEvent))
	}
}

// TestDurableBatchAllocBudget pins the durable batch hot path: with the
// asynchronous commit pipeline the ticket machinery costs a handful of
// allocations per *batch* (the ack channel, the commit round and its
// done channel, the caller's event slice) and nothing per event — the
// WAL encoder, the group-commit frame scratch, and the bufio writer all
// reuse their buffers. The budget of 1 alloc/event is ~100x the measured
// steady state; it fails loudly if anyone reintroduces per-event frames,
// per-event tickets, or boxing on the commit path.
func TestDurableBatchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is distorted by the race detector")
	}
	cfg := Defaults()
	cfg.InitialTrain = 1 << 40 * time.Millisecond // never trains
	cfg.StateDir = t.TempDir()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctx := context.Background()
	const batchSize = 512
	const warm, measured = 20480, 20480 // multiples of batchSize
	feed := func(lo, hi int) {
		for i := lo; i < hi; i += batchSize {
			evs := make([]raslog.Event, batchSize)
			for j := range evs {
				evs[j] = pipelineEvent(i + j)
			}
			if _, err := s.IngestBatch(ctx, evs); err != nil {
				t.Fatal(err)
			}
		}
	}
	settle := func(n int64) {
		waitFor(t, 10*time.Second, func() bool { return s.m.sequenced.Value() >= n })
	}
	feed(0, warm)
	settle(warm - 100)

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	feed(warm, warm+measured)
	settle(warm + measured - 100)
	runtime.GC()
	runtime.ReadMemStats(&ms1)

	perEvent := float64(ms1.Mallocs-ms0.Mallocs) / measured
	t.Logf("durable batch path: %.3f allocs/event", perEvent)
	if perEvent > 1 {
		t.Fatal(fmt.Sprintf("durable batch path allocates %.3f times per event, budget 1", perEvent))
	}
}
