package stream

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/raslog"
)

// saturatedConfig is a pipeline with almost no internal buffering and a
// short admission wait, so a stalled pipeline saturates Ingest within a
// handful of events.
func saturatedConfig() Config {
	cfg := Defaults()
	cfg.Policy = engine.Whole
	cfg.InitialTrain = 1 << 40 * time.Millisecond // never trains
	cfg.QueueLen = 1
	cfg.ReorderWindow = time.Millisecond // release (and backpressure) immediately
	cfg.AdmitWait = 50 * time.Millisecond
	return cfg
}

// TestSaturationRejectsBoundedAndLosslessly drives Ingest past capacity
// against a deliberately wedged pipeline (parked inside a request, see
// wedge) and pins the overload contract:
//
//	(a) rejection is bounded-time — ErrSaturated lands within AdmitWait
//	    plus scheduling slack, never an unbounded block on ctx;
//	(b) stream_ingest_rejected_total counts exactly the rejections;
//	(c) no admitted event is dropped or reordered — after the stall
//	    clears, the drained history is byte-equal to the batch
//	    preprocessor over exactly the accepted events, and the
//	    late-drop/overflow counters stay zero.
//
// Before bounded-wait admission this test hung: Ingest had no timeout
// arm and blocked on a background context forever.
func TestSaturationRejectsBoundedAndLosslessly(t *testing.T) {
	cfg := saturatedConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// A request that parks the pipeline goroutine freezes it
	// deterministically.
	release := wedge(t, s)
	defer release()

	ctx := context.Background()
	accepted := raslog.NewLog("accepted", 600)
	i, rejections := 0, 0
	for rejections < 3 {
		if i >= 1000 {
			t.Fatal("pipeline absorbed 1000 events without saturating")
		}
		e := pipelineEvent(i)
		t0 := time.Now()
		err := s.Ingest(ctx, e)
		elapsed := time.Since(t0)
		if err == nil {
			accepted.Append(e)
			i++
			continue
		}
		if !errors.Is(err, ErrSaturated) {
			t.Fatalf("Ingest error = %v, want ErrSaturated", err)
		}
		if elapsed < cfg.AdmitWait {
			t.Fatalf("rejected after %v, before AdmitWait %v", elapsed, cfg.AdmitWait)
		}
		if max := cfg.AdmitWait + 3*time.Second; elapsed > max {
			t.Fatalf("rejection took %v, want bounded by %v", elapsed, max)
		}
		rejections++
		// Retry the same event next round: a rejected event must be
		// retryable without the service having half-consumed it.
	}

	// Clear the stall and feed the rest of the sequence, retrying
	// rejections, which must now succeed promptly.
	release()
	for ; i < 500; i++ {
		e := pipelineEvent(i)
		for {
			if err := s.Ingest(ctx, e); err == nil {
				break
			} else if !errors.Is(err, ErrSaturated) {
				t.Fatal(err)
			}
		}
		accepted.Append(e)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	st := s.Stats()
	if st.Rejected != int64(rejections) {
		t.Errorf("Rejected = %d, want the %d observed rejections", st.Rejected, rejections)
	}
	if st.Ingested != int64(accepted.Len()) {
		t.Errorf("Ingested = %d, want %d accepted events", st.Ingested, accepted.Len())
	}
	if st.Sequenced != st.Ingested {
		t.Errorf("Sequenced = %d, want %d: an admitted event went missing", st.Sequenced, st.Ingested)
	}
	if st.LateDropped != 0 || st.ReorderOverflow != 0 {
		t.Errorf("late=%d overflow=%d, want 0/0 on an in-order accepted stream",
			st.LateDropped, st.ReorderOverflow)
	}

	// Byte-equivalence: the drained pipeline must have processed exactly
	// the accepted events, in order, through the same filter decisions as
	// the batch preprocessor.
	want := batchPreprocess(accepted, cfg.Filter)
	if len(s.core.history) != len(want) {
		t.Fatalf("history has %d events, batch preprocess %d", len(s.core.history), len(want))
	}
	for j := range want {
		if s.core.history[j].Event != want[j].Event || s.core.history[j].Class != want[j].Class ||
			s.core.history[j].Fatal != want[j].Fatal {
			t.Fatalf("history[%d] = %+v, want %+v", j, s.core.history[j], want[j])
		}
	}
}

// TestHTTPSaturationReturns429WithResume pins the HTTP face of overload:
// a saturated pipeline turns into 429 + Retry-After with the line-resume
// contract (Line = Accepted+1), stream_ingest_rejected_total equals the
// observed 429 count, and resuming from Line after the stall clears
// delivers every remaining event exactly once.
func TestHTTPSaturationReturns429WithResume(t *testing.T) {
	cfg := saturatedConfig()
	s, srv := newTestServer(t, cfg)

	const batchLines = 2500
	l := raslog.NewLog("feed", batchLines)
	for i := 0; i < batchLines; i++ {
		l.Append(pipelineEvent(i))
	}
	body := encodeLog(t, l)

	release := wedge(t, s)
	defer release()

	status429 := 0

	// A big batch: some chunks are admitted before the pipeline wedges,
	// then the next chunk must come back 429 with the resume line.
	status, resp := postIngestBatch(t, srv.URL, body)
	if status != http.StatusTooManyRequests {
		t.Fatalf("batch against wedged pipeline: status %d, want 429 (resp %+v)", status, resp)
	}
	status429++
	if resp.Accepted >= batchLines {
		t.Fatalf("Accepted = %d, want < %d under saturation", resp.Accepted, batchLines)
	}
	if resp.Line != resp.Accepted+1 {
		t.Fatalf("Line = %d, want Accepted+1 = %d (resume contract)", resp.Line, resp.Accepted+1)
	}

	// A one-event request on /ingest is rejected the same way, with
	// Retry-After.
	extra := raslog.NewLog("extra", 1)
	extra.Append(pipelineEvent(batchLines))
	extraBody := encodeLog(t, extra)
	hresp, err := http.Post(srv.URL+"/ingest", "text/plain", bytes.NewReader(extraBody))
	if err != nil {
		t.Fatal(err)
	}
	var single ingestResponse
	if err := json.NewDecoder(hresp.Body).Decode(&single); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("single ingest: status %d, want 429", hresp.StatusCode)
	}
	status429++
	if hresp.Header.Get("Retry-After") == "" {
		t.Error("429 response is missing Retry-After")
	}
	if single.Accepted != 0 || single.Line != 1 {
		t.Errorf("single 429: accepted=%d line=%d, want 0/1", single.Accepted, single.Line)
	}

	// Clear the stall and resume the batch from Line, then retry the
	// single event; everything lands exactly once.
	release()
	lines := bytes.SplitAfter(body, []byte("\n"))
	remainder := bytes.Join(lines[resp.Line-1:], nil)
	for attempt := 0; ; attempt++ {
		status, r := postIngestBatch(t, srv.URL, remainder)
		if status == http.StatusOK {
			break
		}
		if status != http.StatusTooManyRequests || attempt > 100 {
			t.Fatalf("resume attempt %d: status %d (resp %+v)", attempt, status, r)
		}
		status429++
		remainder = bytes.Join(lines[r.Line-1:], nil)
		time.Sleep(10 * time.Millisecond)
	}
	if r := postIngest(t, srv.URL, extraBody); r.Accepted != 1 {
		t.Fatalf("retried single event: accepted = %d, want 1", r.Accepted)
	}

	// The newest event rides the reorder buffer until something newer
	// arrives; Close drains it.
	waitFor(t, 10*time.Second, func() bool {
		return s.Stats().Sequenced >= batchLines
	})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Sequenced != batchLines+1 {
		t.Errorf("Sequenced = %d, want %d", st.Sequenced, batchLines+1)
	}
	if st.Rejected != int64(status429) {
		t.Errorf("stream_ingest_rejected_total = %d, want the %d observed 429s", st.Rejected, status429)
	}
	if st.Ingested != batchLines+1 {
		t.Errorf("Ingested = %d, want %d (no duplicates from the resume)", st.Ingested, batchLines+1)
	}
	if st.LateDropped != 0 || st.ReorderOverflow != 0 {
		t.Errorf("late=%d overflow=%d, want 0/0: resume must not reorder", st.LateDropped, st.ReorderOverflow)
	}
}

// TestWarningsNotUnderServiceMu is the regression test for the
// warnings-ring lock split: reading warnings must never need the
// service mutex, so retrain bookkeeping holding s.mu cannot block
// /warnings readers — and, symmetrically, a warnings
// reader can never hold up the hot path. Before the split Warnings(n)
// locked s.mu and this test timed out.
func TestWarningsNotUnderServiceMu(t *testing.T) {
	cfg := saturatedConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	s.mu.Lock()
	done := make(chan struct{})
	go func() {
		s.Warnings(5)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Warnings blocked behind the service mutex")
	}
	s.mu.Unlock()
}

// wedge parks the pipeline goroutine inside a request until the returned
// release is called (calling it again is a no-op): intake queues behind
// it, and so saturates.
func wedge(t *testing.T, s *Service) (release func()) {
	t.Helper()
	entered, gate := make(chan struct{}), make(chan struct{})
	go s.do(func() {
		close(entered)
		<-gate
	})
	<-entered
	var once sync.Once
	return func() { once.Do(func() { close(gate) }) }
}

// stallWriter is an http.ResponseWriter whose first Write parks until
// released — a firehose reader on a congested socket.
type stallWriter struct {
	release <-chan struct{}
	header  http.Header
}

func (w *stallWriter) Header() http.Header {
	if w.header == nil {
		w.header = make(http.Header)
	}
	return w.header
}
func (w *stallWriter) WriteHeader(int) {}
func (w *stallWriter) Write(p []byte) (int, error) {
	<-w.release
	return len(p), nil
}

// TestWarningsReaderDoesNotStallPipeline pins the end-to-end property:
// a /warnings reader stuck mid-response holds no service lock, so
// ingestion and collection keep advancing underneath it.
func TestWarningsReaderDoesNotStallPipeline(t *testing.T) {
	cfg := Defaults()
	cfg.Policy = engine.Whole
	cfg.InitialTrain = 1 << 40 * time.Millisecond
	cfg.ReorderWindow = time.Millisecond
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctx := context.Background()
	for i := 0; i < 100; i++ {
		if err := s.Ingest(ctx, pipelineEvent(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, func() bool { return s.Stats().Processed > 0 })

	release := make(chan struct{})
	defer close(release)
	parked := make(chan struct{})
	go func() {
		close(parked)
		s.handleWarnings(&stallWriter{release: release},
			httptest.NewRequest("GET", "/warnings?n=5", nil))
	}()
	<-parked

	before := s.Stats().Processed
	for i := 100; i < 400; i++ {
		if err := s.Ingest(ctx, pipelineEvent(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, func() bool { return s.Stats().Processed > before })
}
