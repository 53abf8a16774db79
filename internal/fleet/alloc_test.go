package fleet

// Steady-state allocation budget for the routed hot path: the fleet adds
// one Acquire per request (a map lookup plus two mutex hops), never
// per-event work, so the budget matches the bare stream pipeline's. A
// per-event tenant lookup, label allocation, or handle boxing would blow
// it immediately.

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/raslog"
	"repro/internal/stream"
)

// pipelineEvent mirrors the stream package's fabricator: a deterministic
// in-order feed over a small set of chattering locations.
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

func TestFleetRoutedAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is distorted by the race detector")
	}
	scfg := stream.Defaults()
	scfg.InitialTrain = 1 << 40 * time.Millisecond // never trains
	reg, err := New(Config{Stream: scfg})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	ctx := context.Background()
	const warm, measured, chunk = 20000, 20000, 512
	feed := func(from, to int) {
		for base := from; base < to; base += chunk {
			h, err := reg.Acquire("bench", true)
			if err != nil {
				t.Fatal(err)
			}
			n := min(chunk, to-base)
			events := make([]raslog.Event, 0, n)
			for i := base; i < base+n; i++ {
				events = append(events, pipelineEvent(i))
			}
			if _, err := h.Service().IngestBatch(ctx, events); err != nil {
				t.Fatal(err)
			}
			h.Release()
		}
	}
	settle := func(n int64) {
		waitFor(t, 10*time.Second, func() bool {
			h, err := reg.Acquire("bench", false)
			if err != nil {
				t.Fatal(err)
			}
			defer h.Release()
			return h.Service().Stats().Sequenced >= n
		})
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
	t.Logf("routed steady state: %.2f allocs/event", perEvent)
	if perEvent > 8 {
		t.Fatal(fmt.Sprintf("routed path allocates %.2f times per event, budget 8", perEvent))
	}
}
