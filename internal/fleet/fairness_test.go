package fleet

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/raslog"
	"repro/internal/stream"
)

// stormBody encodes one batch of n in-order events starting at event
// index `start` (1s spacing, so re-encoded bodies keep stream time
// monotone as long as start advances).
func stormBody(t testing.TB, start, n int) []byte {
	t.Helper()
	locs := [...]string{
		"R00-M0-N0-C:J01-U01", "R01-M1-N2-C:J05-U11",
		"R02-M0-N4-C:J12-U01", "R03-M1-N8-C:J18-U11",
	}
	l := raslog.NewLog("storm", n)
	for i := start; i < start+n; i++ {
		l.Append(raslog.Event{
			RecordID: int64(i),
			Type:     "RAS",
			Time:     int64(i) * 1000,
			JobID:    int64(i % 5),
			Location: locs[i%len(locs)],
			Entry:    "ddr: excessive soft failures",
			Facility: raslog.Kernel,
			Severity: raslog.Info,
		})
	}
	var buf bytes.Buffer
	if _, err := raslog.WriteLog(&buf, l); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStormingTenantCannotStarveQuietTenant is the fleet fairness pin:
// one tenant replaying a log storm from many connections at once must
// not push a quiet tenant's ingest p99 past the latency target. The
// per-tenant ingest-slot cap is what enforces it — the storm's excess
// requests are refused up front (429, counted), so they never camp in
// the shared admission path. The quiet tenant's events all land.
func TestStormingTenantCannotStarveQuietTenant(t *testing.T) {
	// Nearly bufferless pipeline: the storm's batch handlers park in the
	// admission slow path (channel wait) rather than finishing instantly,
	// so request concurrency actually builds — also on a single-core
	// runner, where CPU-bound handlers would serialize and never contend.
	scfg := stream.Defaults()
	scfg.InitialTrain = 1 << 40 * time.Millisecond // never trains
	scfg.QueueLen = 1
	scfg.ReorderWindow = time.Millisecond
	scfg.AdmitWait = 300 * time.Millisecond
	reg, err := New(Config{Stream: scfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	srv := httptest.NewServer(NewMux(reg))
	defer srv.Close()

	// A pool of pre-encoded storm batches with globally monotone
	// timestamps; workers cycle through it. A wrapped replay only
	// late-drops (admission still pays full price), so the request
	// pressure is sustained either way.
	const bodies, batchLines = 40, 4000
	pool := make([][]byte, bodies)
	for i := range pool {
		pool[i] = stormBody(t, i*batchLines, batchLines)
	}

	var (
		stop     atomic.Bool
		next     atomic.Int64
		storm429 atomic.Int64
		wg       sync.WaitGroup
	)
	const workers = 12
	client := srv.Client()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				body := pool[int(next.Add(1))%bodies]
				resp, err := client.Post(srv.URL+"/t/storm/ingest/batch",
					"text/plain", bytes.NewReader(body))
				if err != nil {
					continue // server shutting down at test end
				}
				if resp.StatusCode == http.StatusTooManyRequests {
					storm429.Add(1)
				}
				resp.Body.Close()
			}
		}()
	}

	// The quiet tenant: sequential single-event posts, each latency
	// recorded. Its own pipeline is idle, so any slowness it sees is
	// inflicted by the storm.
	const quietReqs = 100
	lat := make([]time.Duration, 0, quietReqs)
	for i := 0; i < quietReqs; i++ {
		line := fmt.Sprintf("%d|RAS|%d|0|R00-M0-N0-C:J01-U01|KERNEL|INFO|quiet probe\n", i, i)
		t0 := time.Now()
		resp, err := client.Post(srv.URL+"/t/quiet/ingest", "text/plain",
			bytes.NewReader([]byte(line)))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("quiet ingest %d: status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
		lat = append(lat, time.Since(t0))
		time.Sleep(2 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p99 := lat[len(lat)*99/100]
	target := 300 * time.Millisecond
	if raceEnabled {
		target = 1500 * time.Millisecond
	}
	if p99 > target {
		t.Errorf("quiet tenant ingest p99 = %v under storm, want <= %v", p99, target)
	}

	// Every 429 the storm tenant saw is either a fleet ingest-slot
	// throttle or its own pipeline's admission timeout, which counts in
	// stream_ingest_rejected_total instead.
	throttled := reg.m.throttled.Value()
	if throttled == 0 {
		t.Error("storm tenant was never throttled: the ingest-slot cap did not engage")
	}
	sh, err := reg.Acquire("storm", false)
	if err != nil {
		t.Fatal(err)
	}
	rejected := sh.Service().Stats().Rejected
	sh.Release()
	if throttled+rejected != storm429.Load() {
		t.Errorf("fleet_ingest_throttled_total %d + storm stream_ingest_rejected_total %d = %d, want the %d observed 429s",
			throttled, rejected, throttled+rejected, storm429.Load())
	}

	// The quiet tenant lost nothing to the storm.
	h, err := reg.Acquire("quiet", false)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	st := h.Service().Stats()
	if st.Ingested != quietReqs {
		t.Errorf("quiet tenant Ingested = %d, want %d", st.Ingested, quietReqs)
	}
}
