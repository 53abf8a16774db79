// Package stream is the online half of the framework: a long-running
// ingestion and prediction service wrapping the same machinery the batch
// engine replays offline (paper §4.3 — "an event-driven approach is well
// suited for online failure prediction").
//
// Events flow through one pipeline goroutine:
//
//		Ingest ─→ queue ─→ reorder buffer ─→ WAL frame ─→ apply, per released event:
//		(per batch)        (late drop,        (ticket →     temporal filter → spatial filter →
//		                    tolerance, cap)    the ack)      categorizer → predictor → retrain check
//
//	  - Intake hands whole batches over a bounded queue; that hand-off is the
//	    only channel hop an event takes.
//	  - The reorder buffer tolerates out-of-order arrivals: events are
//	    released in (time, arrival) order once the newest seen timestamp has
//	    advanced past them by ReorderWindow (or the buffer overflows its
//	    limit). Events older than the release point are counted and
//	    dropped, preserving the sorted-stream invariant every later step
//	    requires.
//	  - A batch's releases are appended to the WAL as one frame and the
//	    commit ticket goes back to the caller first, so the fsync and the
//	    client's ack overlap the filtering of the same events.
//	  - apply is the whole per-event state machine, and the only copy of
//	    it: WAL replay at startup and a standby's follower call the same
//	    function, so live ≡ recovery ≡ follower by construction.
//	    Equivalence with the batch preprocessor on in-order input is pinned
//	    by TestPipelineMatchesBatch.
//	  - Retraining runs in the background on a view of the append-only
//	    history's window (policies Static / Sliding / Whole, as in the
//	    engine) and swaps the refreshed predictor in via atomic.Pointer —
//	    the hot observe path takes no lock and never waits on a retrain.
//
// The intake queue is bounded; a busy pipeline exerts backpressure on
// Ingest rather than buffering without limit. Close drains everything in
// order.
package stream

import (
	"context"
	"errors"
	"fmt"
	"sort"
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

// errCommit marks a batch that was admitted and sequenced but whose WAL
// commit failed or could not be confirmed (write error, fsync error,
// store torn down mid-coalesce). The events were NOT acknowledged as
// durable; the HTTP layer maps it to 503 and the client re-sends under
// the resume contract — the at-least-once side of ack-implies-durable.
var errCommit = errors.New("stream: durable commit failed")

// ErrStandby is returned by Ingest/IngestBatch/TrainNow on a standby
// service (Config.Standby): a follower takes its events from the leader's
// WAL, never from clients — accepting direct ingest would fork the
// replicated stream. The HTTP layer maps it to 503 (the same resume
// contract as a restarting daemon: clients back off and retry, and after
// promotion the retry lands). Errors arrive wrapped — test with errors.Is.
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
	// RetrainLimiter bounds concurrent *background* training passes
	// across every service sharing it (fleet mode: thousands of tenants
	// must not rebuild rules simultaneously). Nil means unlimited.
	// Inline passes — SyncRetrain, WAL replay, TrainNow — bypass it.
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
	// AdmitWait bounds how long Ingest/IngestBatch block against a
	// saturated pipeline before giving up with ErrSaturated. Backpressure
	// still applies — callers wait up to this long for a queue slot — but
	// a wedged or overdriven service sheds load in bounded time instead of
	// holding every caller (and its request body) hostage. Zero means 30s,
	// a library-level backstop; cmd/serve sets a much lower 2s.
	AdmitWait time.Duration

	// StateDir enables durable state — snapshots plus a write-ahead log
	// rooted at this directory (see internal/persist and DESIGN.md §9).
	// On New, the newest valid snapshot is loaded and the WAL tail is
	// replayed through the pipeline before intake starts; empty disables
	// persistence entirely.
	StateDir string
	// Standby starts the service as a hot-standby replica (DESIGN.md §14):
	// recovery runs as usual, but the pipeline goroutine does not start and
	// Ingest/IngestBatch refuse with ErrStandby. Events arrive instead via
	// a Follower tailing a leader's WAL segments, applied exactly as WAL
	// replay applies them, so the replica's state tracks the leader's.
	// Promote() ends standby: the live pipeline starts at the replicated
	// position. Requires StateDir (the replica keeps its own durable WAL so
	// a promoted leader can itself recover).
	Standby bool
	// WALRotateBytes is the WAL segment rotation size. Zero means 8 MiB.
	WALRotateBytes int64
	// SyncMaxWait is the WAL commit pipeline's coalescing delay
	// (persist.Options.SyncMaxWait): how long the background syncer may
	// linger after a batch lands so more batches join the shared fsync.
	// Zero syncs as soon as the disk is free; coalescing still happens
	// whenever an fsync is already in flight.
	SyncMaxWait time.Duration
	// WALSyncExec, when set, bounds this service's background WAL fsyncs
	// under an executor shared with other services (fleet mode: many
	// tenant stores on one disk). Nil runs fsyncs directly.
	WALSyncExec *persist.SyncExecutor
	// SyncRetrain runs (re)training inline on the pipeline goroutine
	// instead of in the background. Ingestion stalls for the duration of
	// a pass, but the predictor swap then lands at a deterministic stream
	// position — which is what makes a crashed-and-recovered run
	// byte-identical to an uninterrupted one (WAL replay always trains
	// inline, so only a service that also *ran* synchronously can be
	// reproduced exactly; an async service recovers to an equivalent
	// state whose swap points may differ by a few events).
	SyncRetrain bool
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

// RetrainRecord is one background (re)training, for /stats and tests.
type RetrainRecord struct {
	// At is the stream-time boundary (ms) the training set ends at.
	At int64 `json:"at_ms"`
	engine.Retraining
	// Err is non-empty when the pass failed (the previous rule set stays
	// live).
	Err string `json:"err,omitempty"`
}

// Service is the streaming prediction service. Create with New, feed with
// Ingest (safe for concurrent use), read Warnings/Stats at any time, and
// Close to drain.
type Service struct {
	cfg  Config
	repo *meta.Repository
	zer  *preprocess.Categorizer
	// incrState maintains the windowed sufficient statistics that turn a
	// retrain into a delta-apply. Retrains are serialized by the
	// retraining flag, so Advance/Install never race; snapshot Export runs
	// under the state's own lock.
	incrState *incr.State
	// trainPass is the training call of every retrain: engine.TrainWindow,
	// which this package's tests replace with the learners' batch pass as
	// the reference. Set before the service applies its first event.
	trainPass func(*meta.MetaLearner, *meta.Repository, *incr.State, []preprocess.TaggedEvent, int64, int64, learner.Params) (engine.Retraining, error)

	pr        atomic.Pointer[predictor.Predictor]
	lastFatal atomic.Int64
	// lastWarn mirrors the live predictor's per-family dedup marks (every
	// emitted warning passes through process), so a swapped-in predictor
	// can be seeded without touching the old one across goroutines.
	lastWarn [3]atomic.Int64

	seqCh chan ingestMsg

	// State of apply, owned by whichever goroutine is applying events: New
	// during recovery, the follower while standby, the pipeline goroutine
	// when live. The hand-overs are ordered by closeMu and goroutine start,
	// so no lock. start/wm are the stream clock (start is -1 before the
	// first event); the like-named gauges are its per-batch published copy.
	temporal *preprocess.TemporalStage
	spatial  *preprocess.SpatialStage
	next     uint64 // sequence number the next released event takes
	start    int64
	wm       int64

	// Durable-state plumbing; nil/zero when StateDir is empty.
	store       *persist.Store
	replaying   bool
	snapPending atomic.Bool
	snapSlot    chan struct{} // capacity 1: held while a snapshot is written
	recovery    RecoveryInfo
	finalSnap   sync.Once

	closeMu    sync.RWMutex
	closed     bool
	pipelineOn bool          // pipeline goroutine running (false while standby)
	done       chan struct{} // pipeline goroutine finished

	// standby mirrors Config.Standby until promotion flips it; transitions
	// happen under closeMu.Lock (promote) so intake checks under RLock are
	// exact, and reads elsewhere (Stats) take the atomic view. promoteHook
	// lets a Follower interpose its orderly shutdown in front of the state
	// flip when POST /promote arrives through the service mux.
	standby     atomic.Bool
	promoteHook atomic.Pointer[func() error]
	// leaderSeq is the leader's next sequence at the follower's last poll
	// (the replica's own position is the sequenced counter).
	leaderSeq uint64
	// backfill is the bounded-memory historical intake (backfill.go); at
	// most one runs at a time.
	backfill backfillState

	retraining atomic.Bool
	retrainWG  sync.WaitGroup

	// m holds every counter, gauge and histogram (see metrics.go).
	// Stats() and GET /metrics are two views over these instruments.
	// The next-retrain gauge is special: its transitions are compound
	// (read-check-advance) and therefore guarded by mu.
	m *metrics

	mu       sync.Mutex
	history  []preprocess.TaggedEvent
	retrains []RetrainRecord

	// The warnings ring lives under its own mutex, NOT under mu: readers
	// (GET /warnings, the fleet firehose) copy the ring here and format it
	// outside any lock, so a slow reader can never hold the service mutex
	// against the pipeline's hot path. The pipeline takes warnMu only on
	// the rare event that actually emits warnings.
	warnMu   sync.Mutex
	warnings []predictor.Warning // ring of the last WarningsKeep
}

// Stream-time accessors over the metric gauges (ms). streamStart is -1
// until the first event; nextRetrain is -1 when no training will ever be
// due again.
func (s *Service) streamStartMs() int64 { return int64(s.m.streamStart.Value()) }
func (s *Service) watermarkMs() int64   { return int64(s.m.watermark.Value()) }
func (s *Service) nextRetrainMs() int64 { return int64(s.m.nextRetrain.Value()) }

// New validates cfg, starts the pipeline goroutine, and returns the
// running service. With Config.Standby the goroutine is deferred until
// Promote: the service recovers its durable state and then waits to be
// fed by a Follower.
func New(cfg Config) (*Service, error) {
	full, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if full.Standby && full.StateDir == "" {
		return nil, errors.New("stream: Standby requires StateDir")
	}
	s := &Service{
		cfg:  full,
		repo: meta.NewRepository(),
		zer:  preprocess.NewCategorizer(preprocess.NewCatalog()),
		// Before recover(): a persisted snapshot may carry incremental
		// state to restore, sparing the first post-recovery retrain a
		// cold rebuild.
		incrState: incr.New(meta.IncrConfig(full.Meta, full.Params)),
		trainPass: engine.TrainWindow,
		temporal:  preprocess.NewTemporalStage(full.Filter),
		spatial:   preprocess.NewSpatialStage(full.Filter),
		seqCh:     make(chan ingestMsg, full.QueueLen),
		start:     -1,
		snapSlot:  make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
	s.lastFatal.Store(-1)
	for i := range s.lastWarn {
		s.lastWarn[i].Store(-1)
	}
	s.m = newMetrics(s) // after the queue exists: its depth gauge reads it

	if full.StateDir != "" {
		// Recovery runs before the pipeline goroutine exists: the snapshot
		// is restored and the WAL tail replayed through apply, then intake
		// resumes where the durable log ends.
		if err := s.recover(); err != nil {
			return nil, err
		}
	}

	if full.Standby {
		// A standby stays in the recovery posture: replaying remains set so
		// replicated retrains run inline at deterministic stream positions
		// (exactly like WAL replay), and no pipeline goroutine exists until
		// promotion. The Follower feeds applyReplicated.
		s.standby.Store(true)
		s.replaying = true
		return s, nil
	}
	s.pipelineOn = true
	go s.pipeline() // owns the apply-side state from here on
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
// non-blocking send — no timer, no allocation, so an unsaturated pipeline
// keeps the zero-alloc budget. Only when the queue is full does it arm a timer and
// wait up to AdmitWait, recording the stall either way: admission waits
// feed the backpressure histogram, timeouts the rejected counter (whose
// value therefore equals the number of 429s the HTTP layer produced).
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
// buffer together, and everything it releases commits to the WAL as a
// single frame whose fsync is shared with every other batch in flight
// (cross-request group commit, DESIGN.md §15). With durable state on,
// the call returns only after that covering fsync lands — a nil error
// is an ack-implies-durable receipt for the batch's released events;
// events the reorder buffer retained (inside the tolerance window) stay
// in the accepted-but-buffered class exactly as before. The service
// takes ownership of the slice; the caller must not reuse it. Returns
// how many events were accepted — the whole batch, or zero when the
// service is closed, ctx expires, the pipeline stays saturated past
// Config.AdmitWait (ErrSaturated), or the commit could not be confirmed
// (errCommit → HTTP 503; the client re-sends, at-least-once).
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

// Close stops intake, drains the pipeline in order, waits for in-flight
// retraining, and returns. Safe to call more than once.
func (s *Service) Close() error {
	s.closeMu.Lock()
	already := s.closed
	pipelineOn := s.pipelineOn
	if !already {
		s.closed = true
		close(s.seqCh)
	}
	s.closeMu.Unlock()
	if pipelineOn {
		<-s.done
	}
	s.retrainWG.Wait()
	var err error
	if s.store != nil {
		// Graceful shutdown snapshots the fully-drained state, so the next
		// start replays no WAL at all. After crash() the store is dead and
		// both calls are no-ops — that is the point of the simulation.
		s.finalSnap.Do(func() {
			s.writeSnapshot()
			err = s.store.Close()
		})
	}
	return err
}

// ---------------------------------------------------------------------------
// The pipeline goroutine: reorder, log, apply.
// ---------------------------------------------------------------------------

// ingestMsg travels IngestBatch → pipeline. A batch is sequenced as one
// unit, so everything it releases shares one WAL group commit. ack, when
// non-nil, receives exactly one commit ticket, covering the events the
// batch released, once those are in the WAL. recycle, when non-nil, is
// the chunkPool entry backing batch: the pipeline puts it back once the
// events are copied into the reorder buffer, the last time it reads
// batch.
type ingestMsg struct {
	batch   []raslog.Event
	ack     chan persist.Ticket
	recycle *[]raslog.Event
}

// pipeline is the service's one event-processing goroutine. Per message
// it copies the events into the reorder buffer, appends what the buffer
// releases to the WAL as one frame, hands the commit ticket back, and
// only then applies the releases: WAL-before-processing holds, and the
// fsync (asynchronous, behind the ticket) and the caller's ack overlap
// the filter and predictor work. Applying ahead of the fsync is safe: a
// snapshot syncs the WAL first, so no durable state can claim a sequence
// the log might still lose.
func (s *Service) pipeline() {
	defer close(s.done)
	// After recovery or promotion the ordering floor continues at the
	// restored watermark (releases are nondecreasing in time, so that is
	// the last emitted time): re-fed events are not mistaken for late.
	floor := int64(-1 << 62)
	if s.start >= 0 {
		floor = s.wm
	}
	buf := newReorderBuf(s.cfg.ReorderLimit, s.cfg.ReorderWindow.Milliseconds(), floor)
	var release []raslog.Event // this round's releases, committed together
	for msg := range s.seqCh {
		t0 := time.Now()
		for i := range msg.batch {
			buf.push(msg.batch[i])
		}
		if msg.recycle != nil {
			chunkPool.Put(msg.recycle)
		}
		var late, overflow int64
		release, late, overflow = buf.release(release[:0], false)
		t := s.logReleases(release)
		if msg.ack != nil {
			msg.ack <- t // buffered: never blocks the pipeline
		}
		t1 := time.Now()
		s.m.seqLatency.Observe(t1.Sub(t0).Seconds())
		s.applyBatch(release, late, overflow, buf.len(), t1)
	}
	// Intake closed: flush the buffer in order.
	var late int64
	release, late, _ = buf.release(release[:0], true)
	s.logReleases(release)
	s.applyBatch(release, late, 0, 0, time.Now())
}

// logReleases appends one round of releases to the WAL at sequences
// s.next on as one frame whatever its size (group commit). The returned
// ticket resolves with the covering fsync.
func (s *Service) logReleases(release []raslog.Event) persist.Ticket {
	if s.store == nil || len(release) == 0 {
		return persist.Ticket{}
	}
	n, t, err := s.store.AppendBatch(s.next, release)
	if err != nil {
		s.m.walErrors.Inc()
		return persist.FailedTicket(err)
	}
	s.m.walBytes.Add(int64(n))
	return t
}

// applyBatch runs one round of releases through apply and publishes it to
// the instruments — per batch, not per event. t0 is when the round's
// sequencing ended.
func (s *Service) applyBatch(release []raslog.Event, late, overflow int64, depth int, t0 time.Time) {
	// The reorder tallies land before the events are applied and before
	// any snapshot below, so a snapshot's counters are exact at its cut.
	s.m.lateDropped.Add(late)
	s.m.reorderOverflow.Add(overflow)
	for i := range release {
		s.apply(release[i])
	}
	s.snapshotIfPending()
	s.publish(len(release))
	s.m.reorderDepth.Set(float64(depth))
	if len(release) > 0 {
		clear(release) // drop the string references
		s.m.collectLatency.Since(t0)
	}
}

// apply is the per-event state machine, and the only one: the live
// pipeline, WAL replay and the standby's follower all advance the
// service through this function, so the three agree by construction.
func (s *Service) apply(e raslog.Event) {
	s.next++
	if s.start < 0 {
		s.start = e.Time
		s.mu.Lock()
		s.m.nextRetrain.Set(float64(e.Time + s.cfg.InitialTrain.Milliseconds()))
		s.mu.Unlock()
	}
	if e.Time > s.wm {
		s.wm = e.Time
	}
	if s.temporal.Observe(e) {
		s.m.afterTemporal.Inc()
		if s.spatial.Observe(e) {
			class, fatal := s.zer.Categorize(e)
			s.process(preprocess.TaggedEvent{Event: e, Class: class, Fatal: fatal})
		}
	}
	s.maybeRetrain(s.wm)
}

// publish makes n applied events and the stream clock visible to everyone
// who is not the applying goroutine (TrainNow and the background
// trainer's catch-up read the clock here, at most one batch stale).
func (s *Service) publish(n int) {
	s.m.sequenced.Add(int64(n))
	s.m.streamStart.Set(float64(s.start))
	s.m.watermark.Set(float64(s.wm))
}

// process feeds one fully-filtered event to the history and the live
// predictor. Runs only on the applying goroutine; the predictor pointer
// is loaded once per event and never locked.
func (s *Service) process(te preprocess.TaggedEvent) {
	s.m.processed.Inc()
	var warns []predictor.Warning
	if pr := s.pr.Load(); pr != nil {
		warns = pr.Observe(te)
	}
	if te.Fatal {
		s.m.fatals.Inc()
		s.lastFatal.Store(te.Time)
	}

	for _, w := range warns {
		// Keep the dedup mirror current (see the lastWarn field comment).
		if i := int(w.Source); i >= 0 && i < len(s.lastWarn) && w.Time > s.lastWarn[i].Load() {
			s.lastWarn[i].Store(w.Time)
		}
	}

	s.mu.Lock()
	s.appendHistoryLocked(te)
	s.mu.Unlock()
	if len(warns) > 0 {
		s.m.warningsTotal.Add(int64(len(warns)))
		s.warnMu.Lock()
		s.warnings = append(s.warnings, warns...)
		if over := len(s.warnings) - s.cfg.WarningsKeep; over > 0 {
			s.warnings = append(s.warnings[:0], s.warnings[over:]...)
		}
		s.warnMu.Unlock()
	}
}

// appendHistoryLocked adds te to the history, bounded to what future
// retrainings can use: nothing once a Static service has trained, the
// sliding window (plus the untrained remainder) under Sliding. Whole
// keeps everything.
//
// The history is append-only: a trim reslices past the expired prefix
// (append's next reallocation frees it), and a reset starts a new
// slice, so no code writes an element below len and a view taken by
// trainingView stays intact while the history moves on.
func (s *Service) appendHistoryLocked(te preprocess.TaggedEvent) {
	if s.cfg.Policy == engine.Static && len(s.retrains) > 0 {
		return
	}
	s.history = append(s.history, te)
	if s.cfg.Policy != engine.Sliding || len(s.history)%1024 != 0 {
		return
	}
	cutoff := s.nextRetrainMs() - s.cfg.TrainWindow.Milliseconds()
	i := 0
	for i < len(s.history) && s.history[i].Time < cutoff {
		i++
	}
	s.history = s.history[i:]
}

// maybeRetrain starts a training pass when the stream clock wm has
// crossed the next boundary and none is in flight. The applying goroutine
// passes its own clock, which makes an inline pass land at a
// deterministic stream position; everyone else passes the published one.
func (s *Service) maybeRetrain(wm int64) {
	for {
		// A lone read of the gauge is atomic; mu guards only the compound
		// read-check-advance transitions of the schedule.
		at := s.nextRetrainMs()
		if at <= 0 || wm < at || !s.retraining.CompareAndSwap(false, true) {
			return
		}
		snapshot, from := s.trainingView(at)
		s.mu.Lock()
		if s.cfg.Policy == engine.Static {
			s.m.nextRetrain.Set(-1) // never again
		} else {
			s.m.nextRetrain.Set(float64(at + s.cfg.RetrainEvery.Milliseconds()))
		}
		s.mu.Unlock()
		if s.cfg.SyncRetrain || s.replaying {
			// Inline on the applying goroutine: the swap lands at a
			// deterministic stream position. WAL replay must train inline
			// whatever the configuration — the events that would have fed a
			// background pass are being replayed synchronously. Then loop:
			// the stream may already be past the next boundary too.
			s.retrain(at, from, snapshot)
			continue
		}
		s.retrainWG.Add(1)
		go func() {
			defer s.retrainWG.Done()
			if lim := s.cfg.RetrainLimiter; lim != nil {
				// Fleet mode: wait for a fleet-wide training slot off the hot
				// path. Ingestion and prediction continue on the old rules
				// while the pass queues; s.retraining stays set, so this
				// service cannot stack up a second pending pass behind it.
				lim.acquire()
				defer lim.release()
			}
			s.retrain(at, from, snapshot)
			// The stream may have crossed the next boundary while we trained
			// (or gone idle right after); catch up instead of waiting for the
			// next event. Any Add this makes precedes our own Done.
			s.maybeRetrain(s.watermarkMs())
		}()
		return
	}
}

// trainingView returns the policy's training slice ending at the
// stream-time boundary `at` (ms) and its window start (engine.TrainWindow
// needs both bounds). The slice is a view of the history, not a copy:
// the history is append-only (see appendHistoryLocked), and the view's cap
// ends at its len, so neither the history nor the trainer can write into
// the other's elements. The history is time-sorted, so the window's
// bounds are two binary searches.
func (s *Service) trainingView(at int64) ([]preprocess.TaggedEvent, int64) {
	var from int64 = -1 << 62
	if s.cfg.Policy == engine.Sliding {
		from = at - s.cfg.TrainWindow.Milliseconds()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	search := func(t int64) int {
		return sort.Search(len(s.history), func(i int) bool { return s.history[i].Time >= t })
	}
	lo, hi := search(from), search(at)
	return s.history[lo:hi:hi], from
}

// retrain runs one training pass (engine.TrainWindow over the snapshot)
// and atomically swaps the refreshed predictor in; it releases the
// retraining flag its caller took. On error the previous rule set stays
// live. The pass advances the sufficient-statistics window by the events
// that entered/expired since the last retrain, and the learners read the
// maintained counters instead of re-mining the snapshot. The snapshot
// slices differ call to call, but the stream content over any shared
// [time) range is identical, which is all the maintained state depends on.
func (s *Service) retrain(at, from int64, snapshot []preprocess.TaggedEvent) RetrainRecord {
	rec := RetrainRecord{At: at}
	rt, err := s.trainPass(s.cfg.Meta, s.repo, s.incrState, snapshot, from, at, s.cfg.Params)
	if err != nil {
		rec.Err = err.Error()
		s.m.training.RecordError()
	} else {
		rec.Retraining = rt
		s.swapPredictor()
		s.m.training.Record(rt)
		if s.store != nil {
			// Ask the applying goroutine to snapshot at the end of its
			// current (or next) batch, where the cut at s.next is exact.
			s.snapPending.Store(true)
		}
	}
	s.mu.Lock()
	s.retrains = append(s.retrains, rec)
	if s.cfg.Policy == engine.Static && err == nil {
		s.history = nil // a static service never trains again
	}
	s.mu.Unlock()
	s.retraining.Store(false)
	return rec
}

// swapPredictor builds a predictor over the repository's current rules
// and publishes it copy-on-write; the observe path picks it up on its
// next Load with no synchronization beyond the atomic pointer.
func (s *Service) swapPredictor() {
	rules := s.repo.Rules()
	pr := predictor.New(rules, s.cfg.Params)
	pr.GlobalDedup = true
	// Alarm spacing stays at the base rule-generation window even when
	// the service runs a wider prediction window, matching the offline
	// engine's counting exactly.
	engine.ClampDedup(pr, s.cfg.Params.WindowSec)
	if lf := s.lastFatal.Load(); lf >= 0 {
		pr.SeedLastFatal(lf)
	}
	// Seed the dedup marks from the service-level mirror, not from the old
	// predictor (which the pipeline may be mutating concurrently). Without
	// this, seeding lastFatal alone re-arms the distribution expert and it
	// re-warns off the pre-swap fatal — TestSwapPredictorKeepsWarnSpacing.
	pr.SeedLastWarn([3]int64{s.lastWarn[0].Load(), s.lastWarn[1].Load(), s.lastWarn[2].Load()})
	s.pr.Store(pr)
	s.m.rules.Set(float64(len(rules)))
}

// ErrNoEvents is returned by TrainNow before the first event has been
// applied: there is no history to train on and no stream clock to
// schedule against.
var ErrNoEvents = errors.New("stream: no events observed yet; nothing to train on")

// TrainNow runs a synchronous training pass over the accumulated history
// up to the current watermark and swaps the result in. It is the manual
// override of the stream-time schedule (exposed as POST /retrain): a
// successful pass counts against the schedule, so the next automatic
// training happens one full cadence later instead of re-firing on
// near-identical data.
func (s *Service) TrainNow() (RetrainRecord, error) {
	if s.standby.Load() {
		return RetrainRecord{}, ErrStandby
	}
	if s.streamStartMs() < 0 {
		return RetrainRecord{}, ErrNoEvents
	}
	if !s.retraining.CompareAndSwap(false, true) {
		return RetrainRecord{}, errors.New("stream: retraining already in flight")
	}
	at := s.watermarkMs() + 1
	// Claim the schedule before training, exactly like maybeRetrain: the
	// catch-up below must not see a stale boundary and immediately
	// re-fire the scheduled pass on the data we just used.
	s.mu.Lock()
	prev := s.nextRetrainMs()
	next := prev
	if s.cfg.Policy == engine.Static {
		next = -1 // a static service trains once; this was it
	} else if t := at + s.cfg.RetrainEvery.Milliseconds(); t > next {
		next = t
	}
	s.m.nextRetrain.Set(float64(next))
	s.mu.Unlock()
	snapshot, from := s.trainingView(at)
	s.retrainWG.Add(1)
	defer s.retrainWG.Done()
	rec := s.retrain(at, from, snapshot)
	if rec.Err != "" {
		// The pass failed: hand the schedule back (unless a concurrent
		// scheduled pass moved it in the meantime).
		s.mu.Lock()
		if s.nextRetrainMs() == next {
			s.m.nextRetrain.Set(float64(prev))
		}
		s.mu.Unlock()
		return rec, errors.New(rec.Err)
	}
	// The scheduled boundary may have been crossed meanwhile.
	s.maybeRetrain(s.watermarkMs())
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
func (s *Service) Rules() []learner.Rule {
	pr := s.pr.Load()
	if pr == nil {
		return nil
	}
	return pr.Rules()
}

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
		StreamStart:     s.streamStartMs(),
		Watermark:       s.watermarkMs(),
		Queues: QueueDepths{
			Sequencer: len(s.seqCh),
			Reorder:   int(s.m.reorderDepth.Value()),
		},
	}
	if st.Sequenced > 0 {
		st.CompressionRate = 1 - float64(st.Processed)/float64(st.Sequenced)
	}
	s.mu.Lock()
	st.NextRetrain = s.nextRetrainMs()
	st.Retrains = append([]RetrainRecord(nil), s.retrains...)
	s.mu.Unlock()
	if s.store != nil {
		r := s.recovery
		st.Recovery = &r
	}
	st.Role = "leader"
	if s.standby.Load() {
		st.Role = "standby"
	}
	// A promoted replica keeps reporting its standby block so the
	// promotion count survives the role flip.
	if st.Role == "standby" || s.m.promotions.Value() > 0 {
		st.Standby = &StandbyInfo{
			NextSeq:    uint64(st.Sequenced),
			LeaderSeq:  atomic.LoadUint64(&s.leaderSeq),
			LagSeq:     uint64(s.m.standbyLagSeq.Value()),
			LagSeconds: s.m.standbyLagSeconds.Value(),
			Promotions: s.m.promotions.Value(),
		}
	}
	if b := s.backfillInfo(); b != nil {
		st.Backfill = b
	}
	return st
}
