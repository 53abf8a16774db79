package stream

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/raslog"
)

func newTestServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewMux(s))
	t.Cleanup(func() {
		srv.Close()
		s.Close()
	})
	return s, srv
}

func encodeLog(t *testing.T, l *raslog.Log) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := raslog.WriteLog(&buf, l); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postIngest(t *testing.T, url string, body []byte) ingestResponse {
	t.Helper()
	resp, err := http.Post(url+"/ingest", "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out ingestResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestHTTPIngestStatsWarnings(t *testing.T) {
	l := genLog(t, 7, 14)
	cfg := Defaults()
	cfg.InitialTrain = 4 * week
	cfg.RetrainEvery = 3 * week
	cfg.TrainWindow = 8 * week
	s, srv := newTestServer(t, cfg)

	// Ingest the whole log in week-sized HTTP batches. After the first
	// retrain boundary (4 weeks + reorder slack) wait for the background
	// swap so the remaining weeks are observed by a live predictor.
	for w := 0; w < l.Weeks(); w++ {
		batch := &raslog.Log{Name: l.Name, Events: l.WeekSlice(w)}
		resp := postIngest(t, srv.URL, encodeLog(t, batch))
		if resp.Error != "" {
			t.Fatalf("week %d: ingest error: %s", w, resp.Error)
		}
		if resp.Accepted != batch.Len() {
			t.Fatalf("week %d: accepted %d of %d", w, resp.Accepted, batch.Len())
		}
		if w == 5 {
			waitFor(t, 30*time.Second, func() bool { return s.Stats().Rules > 0 })
		}
	}

	// The pipeline is asynchronous; wait until it settles (counters
	// stable and no retrain in flight — the reorder buffer legitimately
	// withholds the last ReorderWindow of stream time until Close).
	settle(t, s)

	var st Stats
	getJSON(t, srv.URL+"/stats", &st)
	if st.Ingested != int64(l.Len()) {
		t.Errorf("stats ingested = %d, want %d", st.Ingested, l.Len())
	}
	if len(st.Retrains) == 0 {
		t.Error("no retrain completed during HTTP ingestion")
	}

	var warns []warningJSON
	getJSON(t, srv.URL+"/warnings?n=500", &warns)
	if len(warns) == 0 {
		t.Fatal("GET /warnings returned no predictions")
	}
	for _, w := range warns {
		if w.Rule == "" || w.Source == "" {
			t.Fatalf("warning missing trigger rule: %+v", w)
		}
	}
}

func TestHTTPIngestBadLine(t *testing.T) {
	_, srv := newTestServer(t, Defaults())
	body := "1|RAS|10|0|L|KERNEL|INFO|ok\ngarbage line\n"
	resp, err := http.Post(srv.URL+"/ingest", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	var out ingestResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Accepted != 1 || out.Error == "" {
		t.Fatalf("response = %+v; want 1 accepted and an error", out)
	}
	// The response names the failing input line so the client can resume
	// the batch from there.
	if out.Line != 2 {
		t.Errorf("response line = %d, want 2 (the garbage line)", out.Line)
	}
	if !strings.Contains(out.Error, "line 2") {
		t.Errorf("error %q does not name line 2", out.Error)
	}
}

// TestHTTPIngestClosedService pins the error mapping for a closed
// service: the batch is retryable elsewhere, so the status is 503, not a
// client-blaming 400 — and the check must survive error wrapping
// (errors.Is, never ==).
func TestHTTPIngestClosedService(t *testing.T) {
	s, srv := newTestServer(t, Defaults())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/ingest", "text/plain",
		strings.NewReader("1|RAS|10|0|L|KERNEL|INFO|ok\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 for a closed service", resp.StatusCode)
	}
	var out ingestResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Accepted != 0 || out.Line != 1 {
		t.Errorf("response = %+v; want 0 accepted, failed at line 1", out)
	}
}

// TestHTTPIngestBackpressureTimeout pins the other retryable case on the
// /ingest route: a request whose context expires against a saturated
// pipeline gets a 503 and the line to retry from, not a 400. Admission
// is per chunk, so the retry line sits at a chunk boundary.
func TestHTTPIngestBackpressureTimeout(t *testing.T) {
	cfg := Defaults()
	cfg.InitialTrain = 10000 * week
	cfg.QueueLen = 1
	cfg.ReorderLimit = 1 // force the sequencer to emit immediately
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Wedge the pipeline: the first chunk fills the length-1 queue, and
	// the second cannot be admitted.
	release := wedge(t, s)
	evs := make([]raslog.Event, 3*ingestBatchChunk)
	for i := range evs {
		evs[i] = pipelineEvent(i)
	}
	body := encodeLog(t, &raslog.Log{Events: evs})
	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	req := httptest.NewRequest("POST", "/ingest", bytes.NewReader(body)).WithContext(ctx)
	w := httptest.NewRecorder()
	NewMux(s).ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 on backpressure timeout: %s", w.Code, w.Body)
	}
	var out ingestResponse
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Accepted == 0 || out.Accepted >= len(evs) || out.Accepted%ingestBatchChunk != 0 {
		t.Errorf("accepted %d of %d; want a partial batch of whole %d-line chunks", out.Accepted, len(evs), ingestBatchChunk)
	}
	if out.Line != out.Accepted+1 {
		t.Errorf("failed at line %d with %d accepted; want line = accepted+1", out.Line, out.Accepted)
	}
	release()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestHTTPHealthz(t *testing.T) {
	_, srv := newTestServer(t, Defaults())
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz = %d %q", resp.StatusCode, body)
	}
}

func TestHTTPRetrain(t *testing.T) {
	l := genLog(t, 5, 6)
	cfg := Defaults()
	cfg.InitialTrain = 10000 * week // manual retrain only
	s, srv := newTestServer(t, cfg)
	postIngest(t, srv.URL, encodeLog(t, l))

	// Wait until the pipeline has applied every accepted event it can
	// release. The stream clock TrainNow checks is published once per
	// applied batch, after the batch's events reach history, so a
	// nonzero processed count alone can still precede it.
	waitFor(t, 30*time.Second, func() bool {
		st := s.Stats()
		return st.Processed > 0 && st.Sequenced+st.LateDropped+int64(st.Queues.Reorder) == st.Ingested
	})

	resp, err := http.Post(srv.URL+"/retrain", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /retrain = %d: %s", resp.StatusCode, b)
	}
	var rec RetrainRecord
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	if rec.TrainEvents == 0 || rec.RepoSize == 0 {
		t.Fatalf("retrain record = %+v; want nonzero training set and repo", rec)
	}
	if s.Stats().Rules == 0 {
		t.Error("no rules live after forced retrain")
	}
}

func getJSON(t *testing.T, url string, v interface{}) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, b)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

func TestHTTPWarningsBadN(t *testing.T) {
	_, srv := newTestServer(t, Defaults())
	resp, err := http.Get(srv.URL + "/warnings?n=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}
