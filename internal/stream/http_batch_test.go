package stream

// POST /ingest/batch protocol tests: same wire format and same resume
// protocol as /ingest, with chunk-granular acceptance.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/raslog"
)

func postIngestBatch(t *testing.T, url string, body []byte) (int, ingestResponse) {
	t.Helper()
	resp, err := http.Post(url+"/ingest/batch", "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out ingestResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func TestHTTPIngestBatchAccepts(t *testing.T) {
	l := genLog(t, 7, 4)
	cfg := Defaults()
	cfg.InitialTrain = 10000 * week
	s, srv := newTestServer(t, cfg)

	status, out := postIngestBatch(t, srv.URL, encodeLog(t, l))
	if status != http.StatusOK || out.Error != "" {
		t.Fatalf("batch ingest = %d %+v", status, out)
	}
	if out.Accepted != l.Len() {
		t.Fatalf("accepted %d of %d", out.Accepted, l.Len())
	}
	waitFor(t, 30*time.Second, func() bool {
		return s.Stats().Sequenced+s.Stats().LateDropped >= int64(l.Len())-200
	})
	if st := s.Stats(); st.Ingested != int64(l.Len()) {
		t.Errorf("stats ingested = %d, want %d", st.Ingested, l.Len())
	}
}

// TestHTTPIngestBatchBadLine pins the decode-error contract: the lines
// parsed before the bad one are still ingested, the status is 400, and
// Line names the failing input line.
func TestHTTPIngestBatchBadLine(t *testing.T) {
	s, srv := newTestServer(t, Defaults())
	body := "1|RAS|10|0|L|KERNEL|INFO|ok\ngarbage line\n2|RAS|20|0|L|KERNEL|INFO|ok\n"
	status, out := postIngestBatch(t, srv.URL, []byte(body))
	if status != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", status)
	}
	if out.Accepted != 1 {
		t.Errorf("accepted = %d, want 1 (the prefix before the garbage)", out.Accepted)
	}
	if out.Line != 2 || !strings.Contains(out.Error, "line 2") {
		t.Errorf("response = %+v; want failure named at line 2", out)
	}
	waitFor(t, 10*time.Second, func() bool { return s.Stats().Ingested == 1 })
}

func TestHTTPIngestBatchClosedService(t *testing.T) {
	s, srv := newTestServer(t, Defaults())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	status, out := postIngestBatch(t, srv.URL,
		[]byte("1|RAS|10|0|L|KERNEL|INFO|ok\n"))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 for a closed service", status)
	}
	if out.Accepted != 0 || out.Line != 1 {
		t.Errorf("response = %+v; want 0 accepted, resume from line 1", out)
	}
}

// TestHTTPIngestBatchMidBatch503 exercises the mid-batch resume path: a
// body spanning several chunks against a wedged pipeline accepts some
// whole chunks, then times out; the response reports the first line of
// the first unconsumed chunk so the client can resume exactly there.
func TestHTTPIngestBatchMidBatch503(t *testing.T) {
	cfg := Defaults()
	cfg.InitialTrain = 10000 * week
	cfg.QueueLen = 1
	cfg.ReorderLimit = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Wedge the pipeline (as the /ingest backpressure test does): the
	// first chunk fills the length-1 queue, and the second cannot be
	// admitted.
	release := wedge(t, s)
	evs := make([]raslog.Event, 2*ingestBatchChunk+52)
	for i := range evs {
		evs[i] = pipelineEvent(i)
	}
	body := encodeLog(t, &raslog.Log{Events: evs})
	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	req := httptest.NewRequest("POST", "/ingest/batch", bytes.NewReader(body)).WithContext(ctx)
	w := httptest.NewRecorder()
	s.handleIngestBatch(w, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 on backpressure timeout: %s", w.Code, w.Body)
	}
	var out ingestResponse
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Accepted == 0 || out.Accepted >= len(evs) {
		t.Errorf("accepted %d of %d; want some whole chunks, not all", out.Accepted, len(evs))
	}
	if out.Accepted%ingestBatchChunk != 0 {
		t.Errorf("accepted %d is not chunk-aligned (chunk %d)", out.Accepted, ingestBatchChunk)
	}
	if out.Line != out.Accepted+1 {
		t.Errorf("resume line %d with %d accepted; want accepted+1", out.Line, out.Accepted)
	}
	release()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestHTTPIngestBatchBadLineInLaterChunk pins the decode-error contract
// across chunk boundaries: the body is parsed and ingested a chunk at a
// time, so a bad line in the third chunk still ingests the two whole
// chunks and the partial one before it, and Line names the bad line —
// from which a client's resumed request lands the rest exactly once.
func TestHTTPIngestBatchBadLineInLaterChunk(t *testing.T) {
	cfg := Defaults()
	cfg.InitialTrain = 10000 * week
	s, srv := newTestServer(t, cfg)

	const good = 2*ingestBatchChunk + 300
	evs := make([]raslog.Event, good+50)
	for i := range evs {
		evs[i] = pipelineEvent(i)
	}
	lines := bytes.SplitAfter(encodeLog(t, &raslog.Log{Events: evs}), []byte("\n"))
	body := bytes.Join(lines[:good], nil)
	body = append(body, "garbage line\n"...)
	body = append(body, bytes.Join(lines[good:], nil)...)

	status, out := postIngestBatch(t, srv.URL, body)
	if status != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", status)
	}
	if out.Accepted != good {
		t.Errorf("accepted = %d, want %d (everything before the garbage, across chunks)", out.Accepted, good)
	}
	if out.Line != good+1 || !strings.Contains(out.Error, "line 2349") {
		t.Errorf("response = %+v; want failure named at line %d", out, good+1)
	}
	waitFor(t, 10*time.Second, func() bool { return s.Stats().Ingested == good })

	// Resume after the bad line, as a client would.
	status, out = postIngestBatch(t, srv.URL, bytes.Join(lines[good:], nil))
	if status != http.StatusOK || out.Accepted != len(evs)-good {
		t.Fatalf("resume = %d %+v, want 200 with %d accepted", status, out, len(evs)-good)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Sequenced != int64(len(evs)) || st.LateDropped != 0 {
		t.Errorf("sequenced %d (late %d), want all %d events exactly once", st.Sequenced, st.LateDropped, len(evs))
	}
}

// TestHTTPIngestAckBody pins the happy-path ack of both ingest endpoints
// byte for byte: it is written without the JSON encoder, and the clients
// (examples/livefeed, the cmd/serve crash harness, bench/) decode it with encoding/json
// into mirrors of ingestResponse.
func TestHTTPIngestAckBody(t *testing.T) {
	_, srv := newTestServer(t, Defaults())
	body := encodeLog(t, &raslog.Log{Events: []raslog.Event{pipelineEvent(0), pipelineEvent(1), pipelineEvent(2)}})
	for _, path := range []string{"/ingest", "/ingest/batch"} {
		resp, err := http.Post(srv.URL+path, "text/plain", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		const want = "{\"accepted\":3}\n"
		if resp.StatusCode != http.StatusOK || string(raw) != want {
			t.Errorf("POST %s = %d %q, want 200 %q", path, resp.StatusCode, raw, want)
		}
		if ct, cl := resp.Header.Get("Content-Type"), resp.Header.Get("Content-Length"); ct != "application/json" || cl != "15" {
			t.Errorf("POST %s: Content-Type %q, Content-Length %q; want application/json, 15", path, ct, cl)
		}
		var out ingestResponse
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&out); err != nil || out != (ingestResponse{Accepted: 3}) {
			t.Errorf("POST %s: body decodes to %+v (%v), want accepted 3 and nothing else", path, out, err)
		}
	}
}

// discardResponse is the cheapest possible ResponseWriter, so the handler
// budget below counts the handler and not a recorder.
type discardResponse struct{ h http.Header }

func (w *discardResponse) Header() http.Header         { return w.h }
func (w *discardResponse) WriteHeader(int)             {}
func (w *discardResponse) Write(p []byte) (int, error) { return len(p), nil }

// TestBatchHandlerAllocBudget pins the request scratch pooling: once the
// pools are warm, a POST /ingest/batch costs a small constant number of
// allocations per *request* however many lines it carries — the body
// limiter, the response header values — and none per event: no scanner
// buffer, no interner, no event slice.
func TestBatchHandlerAllocBudget(t *testing.T) {
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

	const lines, warm, measured = 256, 50, 200
	bodies := make([][]byte, warm+measured)
	for r := range bodies {
		evs := make([]raslog.Event, lines)
		for i := range evs {
			evs[i] = pipelineEvent(r*lines + i)
		}
		bodies[r] = encodeLog(t, &raslog.Log{Events: evs})
	}
	w := &discardResponse{h: make(http.Header)}
	rd := bytes.NewReader(nil)
	req := httptest.NewRequest("POST", "/ingest/batch", nil)
	req.Body = io.NopCloser(rd)
	post := func(r int) {
		rd.Reset(bodies[r])
		s.handleIngestBatch(w, req)
	}
	settle := func(n int64) {
		waitFor(t, 10*time.Second, func() bool { return s.m.sequenced.Value() >= n })
	}
	for r := 0; r < warm; r++ {
		post(r)
	}
	settle(warm*lines - 100)

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	for r := warm; r < warm+measured; r++ {
		post(r)
	}
	settle((warm+measured)*lines - 100)
	runtime.ReadMemStats(&ms1)

	perRequest := float64(ms1.Mallocs-ms0.Mallocs) / measured
	t.Logf("batch handler: %.1f allocs/request (%d lines each), %.0f bytes/request",
		perRequest, lines, float64(ms1.TotalAlloc-ms0.TotalAlloc)/measured)
	if perRequest > 12 {
		t.Fatalf("batch handler allocates %.1f times per request, budget 12", perRequest)
	}
}
