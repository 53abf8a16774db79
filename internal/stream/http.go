package stream

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/persist"
	"repro/internal/raslog"
)

// NewMux returns the service's HTTP API, one route per line below (README
// describes each). POST /ingest and /ingest/batch are one handler: text
// lines enter the pipeline in 1024-line chunks, each committed to the WAL
// as one frame and acked after its fsync. The replication routes
// (DESIGN.md §14) answer 404 without a StateDir.
func NewMux(s *Service) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", s.handleIngestBatch)
	mux.HandleFunc("POST /ingest/batch", s.handleIngestBatch)
	mux.HandleFunc("GET /warnings", s.handleWarnings)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.Handle("GET /metrics", s.Metrics().Handler())
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("POST /retrain", s.handleRetrain)
	mux.HandleFunc("GET /wal/segments", s.handleWALSegments)
	mux.HandleFunc("GET /wal/segment/{name}", s.handleWALSegment)
	mux.HandleFunc("POST /promote", s.handlePromote)
	mux.HandleFunc("POST /backfill", s.handleBackfill)
	return mux
}

// ingestResponse reports one POST /ingest or /ingest/batch request. On
// error, Line is the 1-based input line the request failed at: every
// line before it was accepted, so a client can resume the request from
// Line (decode errors) or retry from Line (backpressure timeouts,
// shutdown).
type ingestResponse struct {
	Accepted int    `json:"accepted"`
	Line     int    `json:"line,omitempty"`
	Error    string `json:"error,omitempty"`
}

// maxIngestBody bounds one ingest batch (64 MiB of log lines).
const maxIngestBody = 64 << 20

// ingestScratch is what one ingest request needs besides its body: the
// line decoder (64 KiB buffer plus interned vocabulary) and the channel a
// durable chunk's commit ticket comes back on. The pools are shared by
// every tenant of a fleet, so what stays resident follows the number of
// concurrent requests, not the number of tenants.
type ingestScratch struct {
	sc  *raslog.Scanner
	ack chan persist.Ticket
}

var scratchPool = sync.Pool{New: func() any {
	return &ingestScratch{sc: raslog.NewScanner(nil), ack: make(chan persist.Ticket, 1)}
}}

// chunkPool recycles the slices the batch endpoint parses chunks into.
// Ownership travels with the message: the handler gives a filled slice up
// on admission and the pipeline goroutine puts it back once the events
// are in the reorder buffer — no handler waits for the pipeline to get
// its buffer back, so a saturated pipeline still answers in bounded time.
var chunkPool = sync.Pool{New: func() any {
	chunk := make([]raslog.Event, 0, ingestBatchChunk)
	return &chunk
}}

// ingestStatus maps an ingest failure to its HTTP status, setting any
// status-specific headers on w (before the status is written). Malformed
// input is the client's fault (400). A saturated pipeline is overload:
// 429 plus Retry-After, and the line-resume contract applies — the
// client should back off, then resume the batch from Line. A closed
// service or an expired request context is 503, same resume contract.
// Ingest errors may arrive wrapped, so compare with errors.Is, never ==.
func ingestStatus(w http.ResponseWriter, err error) int {
	switch {
	case errors.Is(err, ErrSaturated):
		w.Header().Set("Retry-After", "1")
		return http.StatusTooManyRequests
	case errors.Is(err, ErrStandby):
		// A standby refuses ingest until promoted; the resume contract is
		// the 503 one — back off and retry, and once the replica takes
		// over the retry lands.
		w.Header().Set("Retry-After", "1")
		return http.StatusServiceUnavailable
	case errors.Is(err, errCommit):
		// Admitted but the covering WAL commit failed or was torn down:
		// nothing was acknowledged, so the client re-sends from Line
		// (at-least-once), same 503 resume contract as a restart.
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrClosed), errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// ingestBatchChunk caps one IngestBatch call (and therefore one WAL
// frame) from the ingest endpoints, and with it the memory a request holds
// however large its body. Chunking also gives the 429/503 resume
// protocol its granularity: a batch that fails against backpressure or
// shutdown reports the first line of the first unconsumed chunk, and
// everything before it is already accepted.
const ingestBatchChunk = 1024

// handleIngestBatch serves POST /ingest and POST /ingest/batch: the
// newline-delimited text codec, parsed and handed to the pipeline a
// chunk at a time, so each chunk shares one WAL group commit and, with
// durable state on, is admitted and acked only once that commit is on
// disk. On error, Line is the 1-based input line to resume from: lines
// before it were accepted, whether the failure was a decode error (400),
// a saturated pipeline (429), or an unavailable service (503). Admission
// is per chunk, so a 429 or 503 resumes at a chunk boundary; a decode
// error mid-body still ingests every line parsed before it.
func (s *Service) handleIngestBatch(w http.ResponseWriter, r *http.Request) {
	scr := scratchPool.Get().(*ingestScratch)
	sc := scr.sc
	sc.Reset(http.MaxBytesReader(w, r.Body, maxIngestBody))
	msg := ingestMsg{}
	if s.store != nil {
		msg.ack = scr.ack
	}
	resp := ingestResponse{}
	var err error
	for more := true; more && err == nil; {
		msg.recycle = chunkPool.Get().(*[]raslog.Event)
		chunk, first := (*msg.recycle)[:0], 0
		for len(chunk) < ingestBatchChunk {
			if more = sc.Scan(); !more {
				break
			}
			if len(chunk) == 0 {
				first = sc.Line()
			}
			chunk = append(chunk, sc.Event())
		}
		if len(chunk) == 0 {
			chunkPool.Put(msg.recycle)
			break
		}
		msg.batch = chunk
		n, ierr := s.submit(r.Context(), msg)
		resp.Accepted += n
		if ierr != nil {
			err = fmt.Errorf("ingest line %d: %w", first, ierr)
			resp.Line = first
		}
	}
	if err == nil {
		if err = sc.Err(); err != nil {
			resp.Line = sc.Line()
		}
	}
	if err != nil {
		// A chunk that failed after admission may still get its ticket sent
		// on the ack channel: this scratch is not ours to reuse. Failures
		// are rare; leave it to the garbage collector.
		resp.Error = err.Error()
		writeJSON(w, ingestStatus(w, err), resp)
		return
	}
	scratchPool.Put(scr)
	writeAccepted(w, resp.Accepted)
}

// warningJSON is one /warnings entry: the prediction interval plus the
// rule that triggered it.
type warningJSON struct {
	TimeMs     int64  `json:"time_ms"`
	Time       string `json:"time"`
	DeadlineMs int64  `json:"deadline_ms"`
	Source     string `json:"source"`
	Rule       string `json:"rule"`
	Target     int    `json:"target"`
}

func (s *Service) handleWarnings(w http.ResponseWriter, r *http.Request) {
	n := 50
	if v := r.URL.Query().Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed <= 0 {
			http.Error(w, fmt.Sprintf("bad n=%q", v), http.StatusBadRequest)
			return
		}
		n = parsed
	}
	warns := s.Warnings(n)
	out := make([]warningJSON, len(warns))
	for i, wr := range warns {
		out[i] = warningJSON{
			TimeMs:     wr.Time,
			Time:       time.UnixMilli(wr.Time).UTC().Format(time.RFC3339),
			DeadlineMs: wr.Deadline,
			Source:     wr.Source.String(),
			Rule:       wr.RuleID,
			Target:     wr.Target,
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Service) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Service) handleRetrain(w http.ResponseWriter, _ *http.Request) {
	rec, err := s.TrainNow()
	if err != nil {
		writeJSON(w, http.StatusConflict, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// maxSegmentPull caps one GET /wal/segment response. The body is staged
// in memory so the next-seq header can precede it; followers loop until
// caught up, so the cap bounds the leader's per-request memory, not the
// transfer.
const maxSegmentPull = 4 << 20

// handleWALSegments serves the replication listing: the WAL chain, the
// durable next sequence, and the leader's stream clock. A follower
// identifies itself with ?follower=<id>&acked=<seq>; the ack registers
// in the retention guard so pruning keeps everything the follower still
// needs (see persist.RetainFollower).
func (s *Service) handleWALSegments(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		http.Error(w, "no durable state (start with -state-dir)", http.StatusNotFound)
		return
	}
	q := r.URL.Query()
	if id := q.Get("follower"); id != "" {
		acked, err := strconv.ParseUint(q.Get("acked"), 10, 64)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad acked=%q", q.Get("acked")), http.StatusBadRequest)
			return
		}
		s.store.RetainFollower(id, acked)
	}
	segs, next, err := s.store.Segments()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, segmentsResponse{
		Role:        s.role(),
		NextSeq:     next,
		WatermarkMs: int64(s.m.watermark.Value()),
		Segments:    segs,
	})
}

// handleWALSegment streams one segment's records from ?from=<seq> on, in
// the WAL's own frame format (persist.CopySegment). The body is bounded
// by maxSegmentPull; X-Wal-Next-Seq names the sequence after the last
// record shipped, so a follower can tell progress without decoding.
func (s *Service) handleWALSegment(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		http.Error(w, "no durable state (start with -state-dir)", http.StatusNotFound)
		return
	}
	name := r.PathValue("name")
	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad from=%q", r.URL.Query().Get("from")), http.StatusBadRequest)
		return
	}
	var buf bytes.Buffer
	_, next, err := s.store.CopySegment(&buf, name, from, maxSegmentPull)
	switch {
	case errors.Is(err, persist.ErrNoSegment):
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Wal-Next-Seq", strconv.FormatUint(next, 10))
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	_, _ = w.Write(buf.Bytes())
}

// handlePromote turns a standby into the leader. Idempotent: promoting a
// service that is already the leader reports its role with a 200.
func (s *Service) handlePromote(w http.ResponseWriter, _ *http.Request) {
	if err := s.Promote(); err != nil {
		writeJSON(w, http.StatusConflict, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"role": s.role()})
}

// handleBackfill ingests the request body as a raw text log via the
// bounded-memory backfill path, behind live traffic. The call is
// synchronous: the response reports lines fed and skipped once the whole
// body is in the pipeline.
func (s *Service) handleBackfill(w http.ResponseWriter, r *http.Request) {
	res, err := s.Backfill(r.Context(), r.Body)
	switch {
	case errors.Is(err, ErrBackfillBusy):
		writeJSON(w, http.StatusConflict, map[string]string{"error": err.Error()})
		return
	case errors.Is(err, ErrStandby):
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
		return
	case err != nil:
		writeJSON(w, http.StatusBadRequest, map[string]any{
			"error": err.Error(), "lines": res.Lines, "skipped": res.Skipped,
		})
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// writeAccepted writes the ingest endpoints' happy-path body,
// {"accepted":N}, without the reflecting encoder: at 64-line batches the
// ack is a measurable share of the request.
func writeAccepted(w http.ResponseWriter, n int) {
	var buf [40]byte
	b := append(buf[:0], `{"accepted":`...)
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, '}', '\n')
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
