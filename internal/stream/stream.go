// Package stream is the online half of the framework: a long-running
// ingestion and prediction service wrapping the same machinery the batch
// engine replays offline (paper §4.3 — "an event-driven approach is well
// suited for online failure prediction").
//
// The event state machine is one core (core.go) with one owner: New
// drives it while it recovers, then the pipeline goroutine alone:
//
//		Ingest ─→ queue ─→ reorder buffer ─→ WAL frame ─→ core.apply, per released event:
//		(per batch)        (late drop,        (ticket →     temporal filter → spatial filter →
//		                    tolerance, cap)    the ack)      categorizer → predictor → retrain check
//
//	  - Everything that changes the core arrives over the bounded intake
//	    queue: client batches, a standby's replicated pulls (follower.go),
//	    TrainNow and promotion. Other goroutines read published copies.
//	  - The reorder buffer releases events in (time, arrival) order once
//	    the newest timestamp leads them by ReorderWindow (or the buffer
//	    overflows); older arrivals are counted and dropped.
//	  - A batch's releases are appended to the WAL as one frame and the
//	    commit ticket goes back first, so the fsync and the client's ack
//	    overlap the filtering of the same events.
//	  - core.apply is the only per-event state machine: live batches, WAL
//	    replay and replicated pulls all run through it, so live ≡ recovery
//	    ≡ follower by construction (TestOneStateMachineOracle).
//	  - Retraining runs in the background on a view of the append-only
//	    history. The pipeline installs each finished pass between two
//	    messages and logs an install mark there, where replay and a
//	    follower install it too.
//
// A busy pipeline exerts backpressure on Ingest rather than buffering
// without limit. Close drains everything in order.
package stream

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/learner"
	"repro/internal/learner/incr"
	"repro/internal/meta"
	"repro/internal/persist"
	"repro/internal/predictor"
	"repro/internal/preprocess"
	"repro/internal/raslog"
)

// ErrClosed is returned by Ingest after Close.
var ErrClosed = errors.New("stream: service closed")

// ErrSaturated is returned by Ingest/IngestBatch when the pipeline stayed
// full for the whole admission wait (Config.AdmitWait). The event was NOT
// accepted; the caller may retry. The HTTP layer maps it to 429 with a
// Retry-After header. Errors arrive wrapped — test with errors.Is.
var ErrSaturated = errors.New("stream: pipeline saturated")

// errCommit marks a batch admitted and sequenced whose WAL commit failed
// or could not be confirmed; it was NOT acked as durable. The HTTP layer
// maps it to 503 and the client re-sends (at-least-once).
var errCommit = errors.New("stream: durable commit failed")

// ErrStandby is returned by Ingest/IngestBatch/TrainNow on a standby
// (Config.Standby), whose events come only from the leader's WAL. The
// HTTP layer maps it to 503: clients retry, and after promotion it lands.
// Errors arrive wrapped — test with errors.Is.
var ErrStandby = errors.New("stream: standby replica (not accepting ingest; promote first)")

// Config parameterizes a Service. Durations are measured in *stream time*
// (event timestamps), so replayed or time-compressed feeds retrain on
// their own timeline, exactly like the offline engine.
type Config struct {
	// Filter is the preprocessing filter (threshold + tupling mode).
	Filter preprocess.Filter
	// Params carries the prediction window W_P.
	Params learner.Params
	// Policy selects the training-set evolution (engine.Static /
	// engine.Sliding / engine.Whole).
	Policy engine.Policy
	// InitialTrain is how much stream time must accumulate before the
	// first training (paper default 26 weeks).
	InitialTrain time.Duration
	// TrainWindow is the sliding training-set length (Policy == Sliding).
	TrainWindow time.Duration
	// RetrainEvery is W_R, the retraining cadence.
	RetrainEvery time.Duration
	// Meta supplies the learners and reviser; nil means meta.New().
	Meta *meta.MetaLearner
	// RetrainLimiter bounds concurrent training passes across every
	// service sharing it (fleet mode: thousands of tenants must not
	// rebuild rules simultaneously) once recovery is over. Nil means
	// unlimited.
	RetrainLimiter *RetrainLimiter

	// Shards is ignored: filtering runs on the pipeline goroutine itself.
	// The field remains so existing callers still compile.
	Shards int
	// QueueLen bounds the intake queue: how many admitted Ingest events or
	// IngestBatch batches may wait for the pipeline goroutine before
	// callers block in admission (see AdmitWait). Zero means 1024.
	QueueLen int
	// ReorderWindow is the out-of-order tolerance in stream time: an
	// event is released from the reorder buffer once the newest seen
	// timestamp exceeds it by this much. Zero means 60s.
	ReorderWindow time.Duration
	// ReorderLimit caps the reorder buffer; overflow releases the oldest
	// event early. Zero means 4096.
	ReorderLimit int
	// WarningsKeep is how many recent warnings GET /warnings can serve.
	// Zero means 256.
	WarningsKeep int
	// AdmitWait bounds how long Ingest/IngestBatch wait for a queue slot
	// before giving up with ErrSaturated, so an overdriven service sheds
	// load in bounded time. Zero means 30s; cmd/serve sets 2s.
	AdmitWait time.Duration

	// StateDir enables durable state: snapshots plus a write-ahead log in
	// this directory (DESIGN.md §9), recovered by New before intake
	// starts. Empty disables persistence.
	StateDir string
	// Standby starts the service as a hot-standby replica (DESIGN.md §14):
	// Ingest refuses with ErrStandby, and a Follower feeds the pipeline a
	// leader's WAL until Promote. Requires StateDir: a promoted replica
	// recovers from its own WAL.
	Standby bool
	// WALRotateBytes is the WAL segment rotation size. Zero means 8 MiB.
	WALRotateBytes int64
	// SyncMaxWait is how long the WAL syncer may linger after a batch so
	// more batches join its fsync (persist.Options.SyncMaxWait). Zero
	// syncs as soon as the disk is free.
	SyncMaxWait time.Duration
	// WALSyncExec, when set, bounds this service's background WAL fsyncs
	// under an executor shared with other services (fleet mode: many
	// tenant stores on one disk). Nil runs fsyncs directly.
	WALSyncExec *persist.SyncExecutor
}

// Defaults returns the paper's parameters: 300 s filter threshold,
// W_P = 300 s, dynamic retraining every 4 weeks on a sliding six-month
// window.
func Defaults() Config {
	const week = 7 * 24 * time.Hour
	return Config{
		Filter:       preprocess.Filter{Threshold: 300},
		Params:       learner.Params{WindowSec: 300},
		Policy:       engine.Sliding,
		InitialTrain: 26 * week,
		TrainWindow:  26 * week,
		RetrainEvery: 4 * week,
	}
}

func (c *Config) withDefaults() (Config, error) {
	out := *c
	if out.Params.WindowSec <= 0 {
		return out, fmt.Errorf("stream: WindowSec = %d, need > 0", out.Params.WindowSec)
	}
	if out.InitialTrain <= 0 {
		return out, errors.New("stream: InitialTrain must be > 0")
	}
	if out.Policy == engine.Sliding && out.TrainWindow <= 0 {
		return out, errors.New("stream: sliding policy needs TrainWindow > 0")
	}
	if out.Policy != engine.Static && out.RetrainEvery <= 0 {
		return out, errors.New("stream: dynamic policy needs RetrainEvery > 0")
	}
	if out.Meta == nil {
		out.Meta = meta.New()
	}
	if out.QueueLen <= 0 {
		out.QueueLen = 1024
	}
	if out.ReorderWindow <= 0 {
		out.ReorderWindow = time.Minute
	}
	if out.ReorderLimit <= 0 {
		out.ReorderLimit = 4096
	}
	if out.WarningsKeep <= 0 {
		out.WarningsKeep = 256
	}
	if out.AdmitWait <= 0 {
		out.AdmitWait = 30 * time.Second
	}
	return out, nil
}

// RetrainRecord is one (re)training pass, for /stats and tests.
type RetrainRecord struct {
	// At is the stream-time boundary (ms) the training set ends at.
	At int64 `json:"at_ms"`
	engine.Retraining
	// InstalledSeq is the sequence number of the first event the pass's
	// rules saw: where its install mark sits in the WAL.
	InstalledSeq uint64 `json:"installed_seq,omitempty"`
	// Err is non-empty when the pass failed (the previous rule set stays
	// live).
	Err string `json:"err,omitempty"`
}

// Service is the streaming prediction service. Create with New, feed with
// Ingest (safe for concurrent use), read Warnings/Stats at any time, and
// Close to drain.
type Service struct {
	cfg  Config
	core *core // New's during recovery, the pipeline goroutine's after
	// trainPass is the training call of every retrain: engine.TrainWindow,
	// which this package's tests replace with the learners' batch pass as
	// the reference. Set before the service applies its first event.
	trainPass func(*meta.MetaLearner, *meta.Repository, *incr.State, []preprocess.TaggedEvent, int64, int64, learner.Params) (engine.Retraining, error)

	seqCh   chan ingestMsg
	handoff chan pass       // trainer → pipeline goroutine; one pass at a time
	lim     *RetrainLimiter // Config.RetrainLimiter, nil during recovery

	// Durable-state plumbing; nil/zero when StateDir is empty. store stays
	// nil during WAL replay, which writes nothing.
	store      *persist.Store
	snapSlot   chan struct{} // capacity 1: held while a snapshot is written
	recovery   RecoveryInfo
	closeStore sync.Once

	closeMu sync.RWMutex // orders senders on seqCh against Close
	closed  bool
	done    chan struct{} // pipeline goroutine finished

	// standby mirrors Config.Standby until the promotion flips it on the
	// pipeline goroutine: intake that reads false queues behind it.
	standby atomic.Bool
	// leaderSeq and leaderWM are the leader's next sequence and watermark
	// at the follower's last poll, and gap the WAL gap that poll met (nil
	// when none).
	leaderSeq atomic.Uint64
	leaderWM  atomic.Int64
	gap       atomic.Pointer[string]
	// backfill is the bounded-memory historical intake (backfill.go); at
	// most one runs at a time.
	backfill backfillState

	// m holds every counter, gauge and histogram (see metrics.go).
	// Stats() and GET /metrics are two views over these instruments.
	m *metrics

	// Copies of the core that publish makes for other goroutines; nothing
	// reads state back out of them. pub is what it copied last, and
	// nowWait the TrainNow waiting for the record at index nowAt.
	pr         atomic.Pointer[predictor.Predictor] // the live predictor, for Rules
	retraining atomic.Bool
	mu         sync.Mutex
	retrains   []RetrainRecord
	// Warnings readers copy under their own mutex and format outside it.
	warnMu   sync.Mutex
	warnings []predictor.Warning
	pub      struct {
		n    persist.Counters
		seq  uint64
		recs int
		pr   *predictor.Predictor
	}
	nowWait chan RetrainRecord
	nowAt   int
}

// New validates cfg, recovers the durable state in StateDir if any, and
// starts the pipeline goroutine. With Config.Standby the service then
// waits to be fed by a Follower.
func New(cfg Config) (*Service, error) {
	full, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if full.Standby && full.StateDir == "" {
		return nil, errors.New("stream: Standby requires StateDir")
	}
	s := &Service{
		cfg:       full,
		trainPass: engine.TrainWindow,
		seqCh:     make(chan ingestMsg, full.QueueLen),
		handoff:   make(chan pass, 1),
		snapSlot:  make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
	s.core = newCore(full, s.train, s.mark)
	s.m = newMetrics(s) // after the queue exists: its depth gauge reads it
	s.standby.Store(full.Standby)

	if full.StateDir != "" {
		// Recovery runs before the pipeline goroutine exists: the snapshot
		// is restored and the WAL tail replayed through the core, then
		// intake resumes where the durable log ends.
		if err := s.recover(); err != nil {
			return nil, err
		}
	}
	s.lim = full.RetrainLimiter
	s.core.reseat()
	s.publish()
	go s.pipeline() // owns the core from here on
	return s, nil
}

// Ingest feeds one raw event: it is a one-event IngestBatch, with the
// same backpressure bound, errors and, with durable state on, the same
// ack-implies-durable receipt. The event is accepted iff the return is
// nil. Events may arrive modestly out of order (within ReorderWindow);
// later ones are dropped and counted.
func (s *Service) Ingest(ctx context.Context, e raslog.Event) error {
	_, err := s.IngestBatch(ctx, []raslog.Event{e})
	return err
}

// admit hands msg to the pipeline goroutine. The fast path is a
// non-blocking send, with no timer or allocation. With the queue full it
// waits up to AdmitWait, recording the stall in the backpressure
// histogram and a timeout in the rejected counter (one per HTTP 429).
// Caller holds closeMu.RLock, so seqCh cannot close under the send.
func (s *Service) admit(ctx context.Context, msg ingestMsg) error {
	select {
	case s.seqCh <- msg:
		return nil
	default:
	}
	t0 := time.Now()
	defer s.m.backpressure.Since(t0)
	timer := time.NewTimer(s.cfg.AdmitWait)
	defer timer.Stop()
	select {
	case s.seqCh <- msg:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		s.m.rejected.Inc()
		return fmt.Errorf("stream: no pipeline slot within %v: %w", s.cfg.AdmitWait, ErrSaturated)
	}
}

// IngestBatch feeds events as one unit: the batch enters the reorder
// buffer together, and what it releases commits to the WAL as one frame
// sharing its fsync with every batch in flight (DESIGN.md §15). With
// durable state on, a nil error means the released events are durable;
// the ones the reorder buffer keeps are accepted but buffered. The
// service owns the slice from here. Returns the whole batch's length, or
// zero when the service is closed, ctx expires, the pipeline stays
// saturated past Config.AdmitWait (ErrSaturated), or the commit could
// not be confirmed (errCommit).
func (s *Service) IngestBatch(ctx context.Context, events []raslog.Event) (int, error) {
	msg := ingestMsg{batch: events}
	if s.store != nil {
		// One small allocation per batch (not per event): the channel the
		// commit ticket comes back on. The store-less path stays
		// allocation-free (BenchmarkIngestBatch).
		msg.ack = make(chan persist.Ticket, 1)
	}
	return s.submit(ctx, msg)
}

// submit admits msg and returns how many of its events were accepted:
// all or none. With msg.ack set — a service that has a store — it
// returns only once the commit ticket coming back on ack has resolved:
// after a nil error the channel is empty and the caller's again, after
// an error the pipeline may still hold every part of msg.
func (s *Service) submit(ctx context.Context, msg ingestMsg) (int, error) {
	n := len(msg.batch)
	if n == 0 {
		return 0, nil
	}
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return 0, ErrClosed
	}
	if s.standby.Load() {
		return 0, ErrStandby
	}
	if err := s.admit(ctx, msg); err != nil {
		return 0, err
	}
	s.m.ingested.Add(int64(n))
	if msg.ack == nil {
		return n, nil
	}
	// The batch is admitted and will be sequenced; we only decide what to
	// tell the caller. Sequencing of later batches overlaps this wait —
	// the pipeline, not the request, owns the fsync.
	var t persist.Ticket
	select {
	case t = <-msg.ack:
	case <-ctx.Done():
		return 0, fmt.Errorf("stream: batch admitted but commit unconfirmed: %w", ctx.Err())
	}
	if err := t.Wait(ctx); err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return 0, fmt.Errorf("stream: batch admitted but commit unconfirmed: %w", err)
		}
		return 0, fmt.Errorf("%w: %v", errCommit, err)
	}
	return n, nil
}

// do runs fn on the pipeline goroutine between two batches, publishes
// what it changed, and returns once that is done; ErrClosed after Close.
func (s *Service) do(fn func()) error {
	done := make(chan struct{})
	msg := ingestMsg{serve: func() {
		fn()
		s.publish()
		close(done)
	}}
	s.closeMu.RLock()
	if s.closed {
		s.closeMu.RUnlock()
		return ErrClosed
	}
	s.seqCh <- msg
	s.closeMu.RUnlock()
	<-done
	return nil
}

// Close stops intake, drains the pipeline in order, installs any pass in
// flight, and returns. Safe to call more than once; a standby's Follower
// must be stopped first.
func (s *Service) Close() error {
	s.closeMu.Lock()
	if !s.closed {
		s.closed = true
		close(s.seqCh)
	}
	s.closeMu.Unlock()
	<-s.done
	var err error
	if s.store != nil { // a no-op after crash(), as a kill leaves it
		s.closeStore.Do(func() { err = s.store.Close() })
	}
	return err
}

// ---------------------------------------------------------------------------
// The pipeline goroutine: reorder, log, apply.
// ---------------------------------------------------------------------------

// ingestMsg travels to the pipeline goroutine: a batch, sequenced as one
// unit, or with serve set a request (do). ack, when non-nil, receives
// one commit ticket covering the batch's releases. recycle, when
// non-nil, is the chunkPool entry backing batch, put back once the
// events are in the reorder buffer.
type ingestMsg struct {
	batch   []raslog.Event
	ack     chan persist.Ticket
	recycle *[]raslog.Event
	serve   func()
}

// pipeline is the goroutine that owns the core. Per batch it sequences
// the events, appends the releases to the WAL as one frame, hands the
// ticket back, and only then applies them, so the fsync overlaps the
// filtering. A leader installs each finished pass between two messages;
// a standby leaves them to the leader's marks. At the end of intake it
// flushes the buffer, installs what is training (a TrainNow that got in
// before Close waits on it) and snapshots, so a restart replays nothing.
func (s *Service) pipeline() {
	defer close(s.done)
	c := s.core
	var release []raslog.Event // this round's releases, committed together
	for {
		var handoff chan pass
		if !s.standby.Load() {
			handoff = s.handoff
		}
		var msg ingestMsg
		var ok bool
		select {
		case p := <-handoff:
			c.install(p)
			s.publish()
			continue
		case msg, ok = <-s.seqCh:
		}
		if !ok {
			break
		}
		if msg.serve != nil {
			msg.serve()
			continue
		}
		t0 := time.Now()
		release = c.sequence(release[:0], msg.batch, false)
		if msg.recycle != nil {
			chunkPool.Put(msg.recycle)
		}
		t := s.logEvents(release)
		if msg.ack != nil {
			msg.ack <- t // buffered: never blocks the pipeline
		}
		t1 := time.Now()
		s.m.seqLatency.Observe(t1.Sub(t0).Seconds())
		s.applyRun(release, t1)
	}
	release = c.sequence(release[:0], nil, true)
	s.logEvents(release)
	s.applyRun(release, time.Now())
	if !s.standby.Load() {
		c.drain(s.awaitPass)
	} else if c.retraining {
		// A standby's pass installs at the leader's mark, which a restart
		// replays to: it is awaited, but neither installed nor cut.
		<-s.handoff
	}
	s.publish()
	if s.store != nil {
		s.writeSnapshot() // Close closes the store next
	}
}

// logEvents appends events to the WAL at core.next as one frame (group
// commit); the ticket resolves with the covering fsync.
func (s *Service) logEvents(events []raslog.Event) persist.Ticket {
	if s.store == nil || len(events) == 0 {
		return persist.Ticket{}
	}
	n, t, err := s.store.AppendBatch(s.core.next, events)
	if err != nil {
		s.m.walErrors.Inc()
		return persist.FailedTicket(err)
	}
	s.m.walBytes.Add(int64(n))
	return t
}

// applyRun applies events and publishes the result, once per run. t0 is
// when the run's sequencing ended.
func (s *Service) applyRun(events []raslog.Event, t0 time.Time) {
	for i := range events {
		s.core.apply(events[i])
	}
	s.publish()
	if len(events) > 0 {
		clear(events) // drop the string references
		s.m.collectLatency.Since(t0)
	}
}

// awaitPass waits for the pass in flight to finish.
func (s *Service) awaitPass() pass { return <-s.handoff }

// train is the core's pass-start exit: it runs the pass on a goroutine
// of its own, under the retrain limiter, and hands it back on handoff.
func (s *Service) train(p pass, view []preprocess.TaggedEvent, from int64) {
	c, lim := s.core, s.lim
	go func() {
		if lim != nil {
			lim.acquire()
		}
		rt, err := s.trainPass(s.cfg.Meta, c.repo, c.incrState, view, from, p.rec.At, s.cfg.Params)
		if err != nil {
			p.rec.Err = err.Error()
		} else {
			p.rec.Retraining = rt
			p.pr = c.newPredictor(c.repo.Rules())
		}
		if lim != nil {
			lim.release()
		}
		s.handoff <- p
	}()
}

// mark is the core's install-mark exit: it appends the mark to the WAL
// and, where a pass went live, cuts a snapshot. Without a store
// (memory-only, or during replay) it does nothing.
func (s *Service) mark(seq uint64, live bool) {
	if s.store == nil {
		return
	}
	if n, err := s.store.AppendMark(seq); err != nil {
		s.m.walErrors.Inc()
	} else {
		s.m.walBytes.Add(int64(n))
	}
	if live {
		s.cut()
	}
}

// publish copies the core to what other goroutines read: the metrics,
// the live predictor, the retrain records and the warnings. The
// sequenced counter goes last, so a reader that sees a run counted sees
// the rest of it too; a TrainNow waiting for its record gets it last.
func (s *Service) publish() {
	c, m, pub := s.core, s.m, &s.pub
	m.lateDropped.Add(c.n.LateDropped - pub.n.LateDropped)
	m.reorderOverflow.Add(c.n.Overflow - pub.n.Overflow)
	m.afterTemporal.Add(c.n.AfterTemporal - pub.n.AfterTemporal)
	m.processed.Add(c.n.Processed - pub.n.Processed)
	m.fatals.Add(c.n.Fatals - pub.n.Fatals)
	if c.n.Warnings != pub.n.Warnings {
		m.warningsTotal.Add(c.n.Warnings - pub.n.Warnings)
		s.warnMu.Lock()
		s.warnings = c.warnings[:len(c.warnings):len(c.warnings)]
		s.warnMu.Unlock()
	}
	if n := len(c.retrains); n != pub.recs {
		for _, rec := range c.retrains[pub.recs:] {
			if rec.Err != "" {
				m.training.RecordError()
			} else {
				m.training.Record(rec.Retraining)
			}
		}
		s.mu.Lock()
		s.retrains = c.retrains[:n:n]
		s.mu.Unlock()
	}
	if c.pr != pub.pr {
		s.pr.Store(c.pr)
		m.rules.Set(float64(len(c.pr.Rules())))
	}
	if s.standby.Load() {
		lead, lwm := s.leaderSeq.Load(), s.leaderWM.Load()
		m.standbyLagSeq.Set(float64(lead - min(lead, c.next)))
		m.standbyLagSeconds.Set(float64(max(lwm-c.wm, 0)) / 1000)
	}
	m.streamStart.Set(float64(c.start))
	m.watermark.Set(float64(c.wm))
	m.nextRetrain.Set(float64(c.nextRetrain))
	m.reorderDepth.Set(float64(c.buf.len()))
	s.retraining.Store(c.retraining)
	m.sequenced.Add(int64(c.next - pub.seq))
	pub.n, pub.seq, pub.recs, pub.pr = c.n, c.next, len(c.retrains), c.pr
	if s.nowWait != nil && len(c.retrains) > s.nowAt {
		s.nowWait <- c.retrains[s.nowAt]
		s.nowWait = nil
	}
}

// TrainNow runs a training pass over the history up to the current
// watermark and returns once it is installed. It is the manual override
// of the stream-time schedule (POST /retrain): a successful pass counts
// against the schedule, so the next automatic one comes a full cadence
// later. Nothing in the WAL says when it started, so neither a follower
// nor a replay without a later snapshot reproduces it.
func (s *Service) TrainNow() (RetrainRecord, error) {
	done := make(chan RetrainRecord, 1)
	var err error
	// publish sends done the pass's record once it is installed, which
	// the end of intake also waits for.
	if derr := s.do(func() {
		err = ErrStandby
		if !s.standby.Load() {
			err = s.core.trainNow()
		}
		if err == nil {
			s.nowWait, s.nowAt = done, len(s.core.retrains)
		}
	}); derr != nil {
		return RetrainRecord{}, derr
	}
	if err != nil {
		return RetrainRecord{}, err
	}
	rec := <-done
	if rec.Err != "" {
		return rec, errors.New(rec.Err)
	}
	return rec, nil
}

// ---------------------------------------------------------------------------
// Introspection.
// ---------------------------------------------------------------------------

// Warnings returns up to n of the most recent warnings, newest last. The
// copy is taken under the warnings ring's own short critical section —
// never under the service mutex — so callers that consume the result
// slowly (a firehose reader on a congested socket) cannot stall the
// pipeline (TestWarningsReaderDoesNotStallPipeline).
func (s *Service) Warnings(n int) []predictor.Warning {
	s.warnMu.Lock()
	defer s.warnMu.Unlock()
	if n <= 0 || n > len(s.warnings) {
		n = len(s.warnings)
	}
	return append([]predictor.Warning(nil), s.warnings[len(s.warnings)-n:]...)
}

// Rules returns the live predictor's rule set (nil before first training).
func (s *Service) Rules() []learner.Rule { return s.pr.Load().Rules() }

// QueueDepths reports the instantaneous occupancy of the intake queue
// (admitted messages awaiting the pipeline goroutine) and of the reorder
// buffer (events).
type QueueDepths struct {
	Sequencer int `json:"sequencer"`
	Reorder   int `json:"reorder"`
}

// Stats is a point-in-time snapshot of the service counters.
type Stats struct {
	// Ingested counts events accepted by Ingest; Sequenced the events
	// released in order (Ingested - Sequenced - LateDropped are still
	// buffered); LateDropped the events beyond the reorder tolerance.
	Ingested    int64 `json:"ingested"`
	Sequenced   int64 `json:"sequenced"`
	LateDropped int64 `json:"late_dropped"`
	// Rejected counts ingest calls that timed out against a saturated
	// pipeline (ErrSaturated — one per HTTP 429 the ingest handlers
	// returned). The events were never accepted and are not in Ingested.
	Rejected int64 `json:"ingest_rejected"`
	// ReorderOverflow counts events released early by the buffer cap while
	// still inside the reorder tolerance (disjoint from LateDropped: a
	// forced release increments exactly one of the two).
	ReorderOverflow int64 `json:"reorder_overflow"`
	// AfterTemporal / Processed are the filter's per-stage survivors;
	// CompressionRate is 1 - Processed/Sequenced.
	AfterTemporal   int64   `json:"after_temporal"`
	Processed       int64   `json:"processed"`
	CompressionRate float64 `json:"compression_rate"`
	Fatals          int64   `json:"fatals"`
	WarningsTotal   int64   `json:"warnings_total"`
	Rules           int64   `json:"rules"`
	Retraining      bool    `json:"retraining"`
	// StreamStart / Watermark / NextRetrain are stream-time (ms);
	// StreamStart is -1 before the first event and NextRetrain is -1 when
	// no training will ever be due again (static policy after its pass).
	StreamStart int64           `json:"stream_start_ms"`
	Watermark   int64           `json:"watermark_ms"`
	NextRetrain int64           `json:"next_retrain_ms"`
	Queues      QueueDepths     `json:"queues"`
	Retrains    []RetrainRecord `json:"retrains"`
	// Recovery describes the startup recovery pass; nil when the service
	// started without a StateDir or with an empty one.
	Recovery *RecoveryInfo `json:"recovery,omitempty"`
	// Role is "leader" for a live pipeline, "standby" for a replica
	// awaiting promotion. Standby holds the replica's replication state
	// while in standby; Backfill reports historical intake (both nil when
	// idle/irrelevant).
	Role     string        `json:"role"`
	Standby  *StandbyInfo  `json:"standby,omitempty"`
	Backfill *BackfillInfo `json:"backfill,omitempty"`
}

// StandbyInfo is a standby replica's replication position (Stats.Standby).
type StandbyInfo struct {
	// NextSeq is the next sequence the replica will apply; LeaderSeq the
	// leader's next append sequence at the last poll. LagSeq is their
	// difference, LagSeconds the stream-time distance between watermarks.
	NextSeq    uint64  `json:"next_seq"`
	LeaderSeq  uint64  `json:"leader_seq"`
	LagSeq     uint64  `json:"lag_seq"`
	LagSeconds float64 `json:"lag_seconds"`
	// Promotions counts standby→leader transitions (0 or 1 per process).
	Promotions int64 `json:"promotions"`
	// Gap is set while the leader no longer holds the records the replica
	// needs next (its oldest segment starts past them). A gap is an answer
	// from a live leader, so it never counts towards auto-promotion.
	Gap string `json:"gap,omitempty"`
}

// Stats snapshots the service's instruments — the same registry GET
// /metrics exposes, so the JSON and Prometheus views cannot disagree.
// Instruments are read individually, so a snapshot taken mid-flight may
// be momentarily inconsistent (e.g. Processed ahead of a just-read
// Sequenced); each number is accurate.
func (s *Service) Stats() Stats {
	st := Stats{
		Ingested:        s.m.ingested.Value(),
		Sequenced:       s.m.sequenced.Value(),
		LateDropped:     s.m.lateDropped.Value(),
		Rejected:        s.m.rejected.Value(),
		ReorderOverflow: s.m.reorderOverflow.Value(),
		AfterTemporal:   s.m.afterTemporal.Value(),
		Processed:       s.m.processed.Value(),
		Fatals:          s.m.fatals.Value(),
		WarningsTotal:   s.m.warningsTotal.Value(),
		Rules:           int64(s.m.rules.Value()),
		Retraining:      s.retraining.Load(),
		StreamStart:     int64(s.m.streamStart.Value()),
		Watermark:       int64(s.m.watermark.Value()),
		NextRetrain:     int64(s.m.nextRetrain.Value()),
		Queues: QueueDepths{
			Sequencer: len(s.seqCh),
			Reorder:   int(s.m.reorderDepth.Value()),
		},
	}
	if st.Sequenced > 0 {
		st.CompressionRate = 1 - float64(st.Processed)/float64(st.Sequenced)
	}
	s.mu.Lock()
	st.Retrains = append([]RetrainRecord(nil), s.retrains...)
	s.mu.Unlock()
	if s.store != nil {
		r := s.recovery
		st.Recovery = &r
	}
	// A promoted replica keeps reporting its standby block so the
	// promotion count survives the role flip.
	if st.Role = s.role(); st.Role == "standby" || s.m.promotions.Value() > 0 {
		st.Standby = &StandbyInfo{
			NextSeq:    uint64(st.Sequenced),
			LeaderSeq:  s.leaderSeq.Load(),
			LagSeq:     uint64(s.m.standbyLagSeq.Value()),
			LagSeconds: s.m.standbyLagSeconds.Value(),
			Promotions: s.m.promotions.Value(),
		}
		if g := s.gap.Load(); g != nil {
			st.Standby.Gap = *g
		}
	}
	st.Backfill = s.backfillInfo()
	return st
}

// role is "standby" until promotion, "leader" after it.
func (s *Service) role() string {
	if s.standby.Load() {
		return "standby"
	}
	return "leader"
}
