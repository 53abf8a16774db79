package stream

// Historical backfill (DESIGN.md §14): feed a multi-gigabyte raw text
// log through the live pipeline in file order, with bounded memory,
// behind live traffic at lower priority.
//
// One decode goroutine parses the input into ingestBatchChunk-event
// chunks and the caller's goroutine submits them: at most one line
// buffer (1 MiB) and three chunks are in flight. Before each submission
// the caller yields, for a bounded time, while live traffic keeps the
// intake queue busy, and ErrSaturated backs off. Backfilled events take
// the reorder path of any ingest: history older than the live watermark
// minus the reorder tolerance is late-dropped by design (see README).

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/raslog"
)

// ErrBackfillBusy is returned by Backfill while another backfill runs;
// one at a time keeps the memory bound and the ordering story simple.
var ErrBackfillBusy = errors.New("stream: a backfill is already running")

// backfillState tracks the singleton run (Service.backfill): ran is set
// by the first one.
type backfillState struct{ active, ran atomic.Bool }

// BackfillInfo reports backfill progress in Stats (nil until one runs).
type BackfillInfo struct {
	Active bool `json:"active"`
	// Lines counts events fed to the pipeline across all runs; Skipped
	// the lines that failed to parse.
	Lines   int64 `json:"lines"`
	Skipped int64 `json:"skipped"`
}

func (s *Service) backfillInfo() *BackfillInfo {
	if !s.backfill.ran.Load() && !s.backfill.active.Load() {
		return nil
	}
	return &BackfillInfo{
		Active:  s.backfill.active.Load(),
		Lines:   s.m.backfillLines.Value(),
		Skipped: s.m.backfillSkipped.Value(),
	}
}

// BackfillResult summarizes one completed Backfill call.
type BackfillResult struct {
	Lines      int64 `json:"lines"`
	Skipped    int64 `json:"skipped"`
	DurationMs int64 `json:"duration_ms"`
}

// backfillChunk is one hand-off from the decode goroutine: up to
// ingestBatchChunk events in file order, plus the lines skipped since
// the previous chunk.
type backfillChunk struct {
	events  []raslog.Event
	skipped int64
}

// Backfill streams a raw text log (the raslog text codec, one event per
// line) from r into the pipeline. It blocks until the whole input is
// ingested or ctx/an error stops it, returning how many lines were fed
// and skipped. Unparseable lines are counted and skipped, never fatal —
// a decade-old log with a few mangled lines should still backfill. A
// read error, or a line longer than 1 MiB, ends the run with an error
// naming the line; everything before it stays fed. Standby services
// refuse (ErrStandby): a replica's stream comes from its leader alone.
func (s *Service) Backfill(ctx context.Context, r io.Reader) (res BackfillResult, err error) {
	if s.standby.Load() {
		return res, ErrStandby
	}
	if !s.backfill.active.CompareAndSwap(false, true) {
		return res, ErrBackfillBusy
	}
	defer s.backfill.active.Store(false)
	s.backfill.ran.Store(true)

	t0 := time.Now()
	defer func() { res.DurationMs = time.Since(t0).Milliseconds() }()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	chunks := make(chan backfillChunk, 1)
	var readErr error // written before chunks closes, read after
	go func() {
		defer close(chunks)
		readErr = decodeBackfill(ctx, r, chunks)
	}()

	// Submit in file order, yielding to live traffic. The loop selects on
	// ctx itself: the decode goroutine may be parked inside r.Read (where
	// cancellation cannot reach it) and so never close chunks — it
	// unblocks and exits whenever r next returns.
	for {
		var c backfillChunk
		ok := true
		select {
		case c, ok = <-chunks:
		case <-ctx.Done():
			return res, ctx.Err()
		}
		if !ok {
			if readErr != nil {
				return res, fmt.Errorf("stream: backfill read: %w", readErr)
			}
			return res, ctx.Err()
		}
		res.Skipped += c.skipped
		s.m.backfillSkipped.Add(c.skipped)
		for events := c.events; len(events) > 0; {
			s.backfillYield(ctx)
			m, err := s.IngestBatch(ctx, events)
			res.Lines += int64(m)
			s.m.backfillLines.Add(int64(m))
			if err != nil && !errors.Is(err, ErrSaturated) {
				return res, fmt.Errorf("stream: backfill: %w", err)
			}
			// Admission is all or none: a saturated submit took nothing and
			// retries once the yield above has backed off.
			events = events[m:]
		}
	}
}

// backfillYield holds backfill submissions back while live traffic keeps
// the sequencer queue busy. Time-bounded: after ~100ms of sustained
// occupancy the submit loop goes ahead anyway, so backfill trickles under
// load instead of starving.
func (s *Service) backfillYield(ctx context.Context) {
	threshold := s.cfg.QueueLen / 4
	for i := 0; i < 50 && len(s.seqCh) > threshold; i++ {
		select {
		case <-ctx.Done():
			return
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// decodeBackfill is Backfill's decode goroutine. It scans r under
// raslog.Scanner's line limits (64 KiB buffer, growing to 1 MiB), parses
// each line with one interner so repeated vocabulary parses
// allocation-free, and sends the events on out a chunk at a time. A read
// error, an overlong line included, is returned once every chunk before
// it is sent; a canceled ctx stops it quietly.
func decodeBackfill(ctx context.Context, r io.Reader, out chan<- backfillChunk) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	in := raslog.NewInterner()
	line := 0
	for more := true; more; {
		c := backfillChunk{events: make([]raslog.Event, 0, ingestBatchChunk)}
		for len(c.events) < ingestBatchChunk {
			if more = sc.Scan(); !more {
				break
			}
			line++
			if len(sc.Bytes()) == 0 {
				continue
			}
			e, err := raslog.ParseLineBytes(sc.Bytes(), in)
			if err != nil {
				c.skipped++
				continue
			}
			c.events = append(c.events, e)
		}
		select {
		case out <- c:
		case <-ctx.Done():
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("line %d: %w", line+1, err)
	}
	return nil
}
