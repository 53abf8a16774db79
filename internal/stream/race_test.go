package stream

// Race-focused test: concurrent HTTP ingestion, stats/warnings polling,
// and retrain swaps all at once. Run under the race detector
// (`go test -race ./internal/stream/...`, part of `make verify`) to check
// the lock-free predictor swap and the counter paths.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/raslog"
)

func TestConcurrentIngestAndRetrainSwap(t *testing.T) {
	l := genLog(t, 11, 12)
	cfg := Defaults()
	cfg.InitialTrain = 2 * week
	cfg.RetrainEvery = 2 * week
	cfg.TrainWindow = 6 * week
	cfg.QueueLen = 64 // small queues: exercise backpressure
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewMux(s))
	defer srv.Close()

	// Split the log into many chunks posted from several goroutines.
	// Chunks interleave arbitrarily, so most of the stream lands beyond
	// the reorder tolerance — that's fine: this test is about data-race
	// freedom and accounting, not prediction quality.
	const posters = 4
	chunks := make([][]byte, 0, 64)
	for w := 0; w < l.Weeks(); w++ {
		wk := l.WeekSlice(w)
		for len(wk) > 0 {
			n := 512
			if n > len(wk) {
				n = len(wk)
			}
			var buf bytes.Buffer
			if _, err := raslog.WriteLog(&buf, &raslog.Log{Events: wk[:n]}); err != nil {
				t.Fatal(err)
			}
			chunks = append(chunks, buf.Bytes())
			wk = wk[n:]
		}
	}

	var wg sync.WaitGroup
	var accepted int64
	var acceptedMu sync.Mutex
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := p; i < len(chunks); i += posters {
				resp, err := http.Post(srv.URL+"/ingest", "text/plain", bytes.NewReader(chunks[i]))
				if err != nil {
					t.Error(err)
					return
				}
				var out ingestResponse
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				acceptedMu.Lock()
				accepted += int64(out.Accepted)
				acceptedMu.Unlock()
			}
		}(p)
	}

	// Pollers hammer the read endpoints while ingestion and retraining
	// are running.
	stopPoll := make(chan struct{})
	var pollWG sync.WaitGroup
	for i := 0; i < 2; i++ {
		pollWG.Add(1)
		go func() {
			defer pollWG.Done()
			for {
				select {
				case <-stopPoll:
					return
				default:
				}
				for _, path := range []string{"/stats", "/warnings?n=20", "/healthz"} {
					resp, err := http.Get(srv.URL + path)
					if err == nil {
						resp.Body.Close()
					}
				}
				s.Warnings(5)
				s.Rules()
				s.Stats()
				time.Sleep(time.Millisecond)
			}
		}()
	}

	// A manual retrainer competes with the scheduled ones for the swap.
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		for {
			select {
			case <-stopPoll:
				return
			default:
			}
			resp, err := http.Post(srv.URL+"/retrain", "", nil)
			if err == nil {
				resp.Body.Close()
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	wg.Wait()
	close(stopPoll)
	pollWG.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	st := s.Stats()
	if st.Ingested != accepted || st.Ingested != int64(l.Len()) {
		t.Errorf("ingested %d, accepted %d, log %d — accounting mismatch",
			st.Ingested, accepted, l.Len())
	}
	if st.Sequenced+st.LateDropped != st.Ingested {
		t.Errorf("sequenced %d + late %d != ingested %d",
			st.Sequenced, st.LateDropped, st.Ingested)
	}
	if st.Processed > st.AfterTemporal || st.AfterTemporal > st.Sequenced {
		t.Errorf("filter funnel violated: %d processed, %d after temporal, %d sequenced",
			st.Processed, st.AfterTemporal, st.Sequenced)
	}
	// History must still be time-sorted: the predictor's core invariant.
	var prev int64 = -1
	for _, te := range s.core.history {
		if te.Time < prev {
			t.Fatalf("history out of order after concurrent ingest: %d after %d", te.Time, prev)
		}
		prev = te.Time
	}
}
