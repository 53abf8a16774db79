package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/raslog"
	"repro/internal/stream"
)

// TestIngestResponseDecodesDaemonAck pins the client-side mirror against
// the daemon's real batch endpoint: the happy-path ack is a hand-written
// {"accepted":N}, and the worker loop reads Accepted out of it exactly as
// done here.
func TestIngestResponseDecodesDaemonAck(t *testing.T) {
	svc, err := stream.New(stream.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := httptest.NewServer(stream.NewMux(svc))
	defer srv.Close()

	body := "1|RAS|10|0|R00-M0|KERNEL|INFO|ok\n2|RAS|20|0|R00-M0|KERNEL|INFO|ok\n"
	resp, err := http.Post(srv.URL+"/ingest/batch", "text/plain", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ir ingestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || ir != (ingestResponse{Accepted: 2}) {
		t.Fatalf("ack = %d %+v, want 200 with 2 accepted", resp.StatusCode, ir)
	}
}

// TestFeedBatchWrapsMonotone pins the epoch-wrap contract: a tenant's
// cursor walking straight through several copies of the feed must see
// strictly ordered batches — wire-decoded timestamps never go backwards
// across the wrap, or the replayed stream would self-inflict late
// drops.
func TestFeedBatchWrapsMonotone(t *testing.T) {
	f, err := newFeed(opts{seed: 3, weeks: 1, scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if f.spanMs%1000 != 0 {
		t.Fatalf("spanMs %d is not second-aligned", f.spanMs)
	}
	const batch = 100
	last := int64(-1 << 62)
	n := int64(len(f.events))
	for cursor := int64(0); cursor < 2*n+3*batch; cursor += batch {
		l, err := raslog.ReadLog(bytes.NewReader(f.batch(cursor, batch)), "wrap")
		if err != nil {
			t.Fatalf("cursor %d: batch does not decode: %v", cursor, err)
		}
		if l.Len() != batch {
			t.Fatalf("cursor %d: %d events, want %d", cursor, l.Len(), batch)
		}
		for _, e := range l.Events {
			if e.Time < last {
				t.Fatalf("cursor %d: time %d after %d — wrap broke ordering", cursor, e.Time, last)
			}
			last = e.Time
		}
	}
}

func TestParseRates(t *testing.T) {
	steps, err := parseRates("500, 1000,2000", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 4 {
		t.Fatalf("%d steps, want 4 (3 rates + overdrive)", len(steps))
	}
	od := steps[3]
	if !od.overdrive || od.rate != 4000 {
		t.Fatalf("overdrive step = %+v, want 2x the max rate", od)
	}
	for _, bad := range []string{"", "0", "-5", "abc", "100,,200"} {
		if _, err := parseRates(bad, false); err == nil {
			t.Errorf("parseRates(%q) accepted", bad)
		}
	}
}

// syntheticStats is a scripted statsSource: each call to totals pops
// the next counter snapshot, so a test can replay an exact server-side
// counter timeline without a daemon.
type syntheticStats struct {
	snaps []serverStats
	i     int
}

func (s *syntheticStats) totals() (serverStats, error) {
	if s.i < len(s.snaps)-1 {
		st := s.snaps[s.i]
		s.i++
		return st, nil
	}
	return s.snaps[len(s.snaps)-1], nil
}

func (s *syntheticStats) backpressure() (float64, error) { return 0, nil }

// TestStepDeltaNeverExceedsAccepted is the regression test for the
// BENCH_8 accounting bleed: step 3 reported sequenced 8196 against 8192
// accepted, because events accepted in step 2 were still in the reorder
// buffer at the step boundary and sequenced during step 3. Replaying
// the exact BENCH_8 counter timeline through a synthetic stats source,
// the attributed per-step sequenced delta must never exceed that step's
// accepted count, and the attribution must conserve events overall.
func TestStepDeltaNeverExceedsAccepted(t *testing.T) {
	// Cumulative server counters at each step boundary (start of sweep,
	// then after each step's drain), from BENCH_8.json: the pipeline
	// holds back a few events per step and releases them a step late.
	bounds := []serverStats{
		{},
		{Ingested: 2048, Sequenced: 2043},
		{Ingested: 6144, Sequenced: 6136},
		{Ingested: 14336, Sequenced: 14332},
	}
	accepted := []int64{2048, 4096, 8192}

	src := &syntheticStats{snaps: bounds}
	r := &runner{stats: src}
	var attributed, carry int64
	for i, acc := range accepted {
		before, err := r.stats.totals()
		if err != nil {
			t.Fatal(err)
		}
		outstanding := r.ledger.Accepted - before.Sequenced - before.LateDropped
		if outstanding < 0 {
			outstanding = 0
		}
		after := bounds[i+1]
		raw := after.Sequenced - before.Sequenced
		got := attributeSequenced(raw, outstanding, acc)
		if got > acc {
			t.Fatalf("step %d: attributed sequenced %d > accepted %d — the bleed is back", i+1, got, acc)
		}
		if got < 0 {
			t.Fatalf("step %d: attributed sequenced %d < 0", i+1, got)
		}
		attributed += got
		carry += raw - got
		r.ledger.Accepted += acc
	}
	// Conservation: own + carried-over + still-buffered == everything
	// the sweep accepted.
	final := bounds[len(bounds)-1]
	buffered := r.ledger.Accepted - final.Sequenced - final.LateDropped
	if attributed+carry+buffered != r.ledger.Accepted {
		t.Fatalf("attribution loses events: own %d + carry %d + buffered %d != accepted %d",
			attributed, carry, buffered, r.ledger.Accepted)
	}
}

func TestAttributeSequencedClamps(t *testing.T) {
	cases := []struct {
		raw, outstanding, accepted, want int64
	}{
		{8196, 8, 8192, 8188}, // the BENCH_8 step-3 shape
		{2043, 0, 2048, 2043}, // clean step: unchanged
		{9000, 0, 8192, 8192}, // over-attribution clamps to accepted
		{3, 10, 8192, 0},      // carry bigger than the delta
		{0, 0, 0, 0},          // idle step
	}
	for _, c := range cases {
		if got := attributeSequenced(c.raw, c.outstanding, c.accepted); got != c.want {
			t.Errorf("attributeSequenced(%d, %d, %d) = %d, want %d",
				c.raw, c.outstanding, c.accepted, got, c.want)
		}
	}
}

// TestCapacityVerdictKnee pins the open-ended-sweep fix: a sweep whose
// every step met the p99 target has no knee — the verdict must say so
// instead of silently reporting the top of the sweep as capacity.
func TestCapacityVerdictKnee(t *testing.T) {
	under := []stepResult{
		{AchievedEPS: 1000, P99Ms: 5},
		{AchievedEPS: 2000, P99Ms: 6},
		{AchievedEPS: 16000, P99Ms: 9},
	}
	if eps, knee := capacityVerdict(under, 50); knee {
		t.Fatalf("knee_found = true for a sweep that never breached the target (eps %.0f)", eps)
	} else if eps != 16000 {
		t.Fatalf("open-ended best = %.0f, want 16000", eps)
	}

	breached := append(append([]stepResult{}, under...), stepResult{AchievedEPS: 21000, P99Ms: 180})
	eps, knee := capacityVerdict(breached, 50)
	if !knee {
		t.Fatal("knee_found = false though the last step breached the target")
	}
	if eps != 16000 {
		t.Fatalf("capacity = %.0f, want 16000 (highest step under the target)", eps)
	}
	// The breaching step's achieved rate must never be the verdict, even
	// when it is the highest number in the sweep.
	if eps >= 21000 {
		t.Fatalf("capacity %.0f took the over-target step", eps)
	}
}

// TestClaimPartitionsCursor: concurrent connections of one tenant must
// carve the feed into disjoint, gap-free ranges.
func TestClaimPartitionsCursor(t *testing.T) {
	r := &runner{
		o:       opts{tenants: 1, connections: 8, batch: 64},
		curMu:   make([]sync.Mutex, 1),
		cursors: make([]int64, 1),
	}
	const perConn = 50
	starts := make(chan int64, 8*perConn)
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perConn; i++ {
				starts <- r.claim(0, r.o.batch)
			}
		}()
	}
	wg.Wait()
	close(starts)
	seen := make(map[int64]bool)
	for s := range starts {
		if s%int64(r.o.batch) != 0 {
			t.Fatalf("claim start %d not batch-aligned", s)
		}
		if seen[s] {
			t.Fatalf("range at %d claimed twice", s)
		}
		seen[s] = true
	}
	if len(seen) != 8*perConn {
		t.Fatalf("%d distinct ranges, want %d", len(seen), 8*perConn)
	}
	if r.cursors[0] != int64(8*perConn*r.o.batch) {
		t.Fatalf("cursor ended at %d, want %d (gap-free)", r.cursors[0], 8*perConn*r.o.batch)
	}
}
