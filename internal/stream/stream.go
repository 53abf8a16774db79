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
//	    engine). The applying goroutine installs each finished pass
//	    between two events and logs an install mark there, where replay
//	    and a follower install it too. The hot observe path takes no lock
//	    and never waits on a retrain.
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
	// Ingest refuses with ErrStandby, and a Follower applies a leader's
	// WAL as replay would until Promote starts the live pipeline there.
	// Requires StateDir: a promoted replica recovers from its own WAL.
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
	repo *meta.Repository
	zer  *preprocess.Categorizer
	// incrState maintains the windowed sufficient statistics that turn a
	// retrain into a delta-apply. Passes are serialized by the retraining
	// flag, so Advance/Install never race, and a cut never runs beside one.
	incrState *incr.State
	// trainPass is the training call of every retrain: engine.TrainWindow,
	// which this package's tests replace with the learners' batch pass as
	// the reference. Set before the service applies its first event.
	trainPass func(*meta.MetaLearner, *meta.Repository, *incr.State, []preprocess.TaggedEvent, int64, int64, learner.Params) (engine.Retraining, error)

	// pr is the live predictor: only the applying goroutine observes
	// through it or replaces it. Before the first pass it has no rules and
	// keeps the last-fatal clock the first pass is seeded from.
	pr atomic.Pointer[predictor.Predictor]

	seqCh   chan ingestMsg
	handoff chan pass       // trainer → applying goroutine; one pass at a time
	lim     *RetrainLimiter // Config.RetrainLimiter, nil during recovery

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
	// marks counts the install marks at position markSeq the state holds:
	// a snapshot records them, and a follower skips them when shipped again.
	markSeq uint64
	marks   int

	// Durable-state plumbing; nil/zero when StateDir is empty (and during
	// WAL replay, which writes nothing).
	store     *persist.Store
	snapSlot  chan struct{} // capacity 1: held while a snapshot is written
	recovery  RecoveryInfo
	finalSnap sync.Once

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

	// retraining is held from a pass's start to its install: its holder
	// owns the repository and the schedule.
	retraining atomic.Bool

	// m holds every counter, gauge and histogram (see metrics.go).
	// Stats() and GET /metrics are two views over these instruments.
	// The next-retrain gauge is the schedule: after the first event only
	// the holder of the retraining flag moves it.
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
		handoff:   make(chan pass, 1),
		start:     -1,
		snapSlot:  make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
	s.pr.Store(s.newPredictor(nil))
	s.m = newMetrics(s) // after the queue exists: its depth gauge reads it

	if full.StateDir != "" {
		// Recovery runs before the pipeline goroutine exists: the snapshot
		// is restored and the WAL tail replayed through apply, then intake
		// resumes where the durable log ends.
		if err := s.recover(); err != nil {
			return nil, err
		}
	}

	s.lim = full.RetrainLimiter
	if full.Standby {
		// No pipeline goroutine exists until promotion: the Follower feeds
		// applyReplicated, which installs each pass at the leader's mark.
		s.standby.Store(true)
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

// Close stops intake, drains the pipeline in order, installs any pass in
// flight, and returns. Safe to call more than once; a standby's Follower
// must be stopped first.
func (s *Service) Close() error {
	s.closeMu.Lock()
	already := s.closed
	pipelineOn := s.pipelineOn
	if !already {
		s.closed = true
		close(s.seqCh)
	}
	s.closeMu.Unlock()
	// A standby's pass in flight installs at the leader's mark, which a
	// restart replays to: it is awaited, but neither installed nor cut.
	inFlight := !pipelineOn && s.retraining.Load()
	if pipelineOn {
		<-s.done
	} else if inFlight {
		<-s.handoff
	}
	var err error
	if s.store != nil {
		// Graceful shutdown snapshots the fully-drained state, so the next
		// start replays no WAL at all. After crash() the store is dead and
		// both calls are no-ops — that is the point of the simulation.
		s.finalSnap.Do(func() {
			if !inFlight {
				s.writeSnapshot()
			}
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
// it copies the events into the reorder buffer, appends what it releases
// to the WAL as one frame, hands the commit ticket back, and only then
// applies the releases, so the fsync overlaps the filter and predictor
// work. A snapshot syncs the WAL first, so no durable state can claim a
// sequence the log might still lose.
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
	for {
		// A finished pass goes live before the next batch, or when idle.
		var msg ingestMsg
		var ok bool
		select {
		case p := <-s.handoff:
			s.install(p)
			continue
		default:
		}
		select {
		case p := <-s.handoff:
			s.install(p)
			continue
		case msg, ok = <-s.seqCh:
		}
		if !ok {
			break
		}
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
	// Intake closed: flush the buffer in order, then install what is
	// still training (a TrainNow that got in before Close waits on it).
	var late int64
	release, late, _ = buf.release(release[:0], true)
	s.logReleases(release)
	s.applyBatch(release, late, 0, 0, time.Now())
	s.drain()
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
	// The reorder tallies land before the events are applied, so the
	// counters of a snapshot an install cuts are exact at its cut.
	s.m.lateDropped.Add(late)
	s.m.reorderOverflow.Add(overflow)
	for i := range release {
		s.apply(release[i])
	}
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
		s.m.nextRetrain.Set(float64(e.Time + s.cfg.InitialTrain.Milliseconds()))
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
	s.startDue()
}

// startDue starts the pass the schedule owes unless one is in flight.
func (s *Service) startDue() {
	if s.due() && s.retraining.CompareAndSwap(false, true) {
		s.startPass(s.nextRetrainMs(), pass{})
	}
}

// publish makes n applied events and the stream clock visible to everyone
// who is not the applying goroutine (TrainNow reads the clock here, at
// most one batch stale).
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
	warns := s.pr.Load().Observe(te)
	if te.Fatal {
		s.m.fatals.Inc()
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

// due reports whether the stream clock has crossed the next training
// boundary. Runs on the applying goroutine.
func (s *Service) due() bool {
	at := s.nextRetrainMs()
	return at > 0 && s.wm >= at
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

// pass is one training pass on its way to its install.
type pass struct {
	rec  RetrainRecord
	pr   *predictor.Predictor // over the pass's rules; nil when it failed
	done chan RetrainRecord   // TrainNow's: gets the record once installed
	prev int64                // the schedule the pass's start replaced
}

// startPass advances the schedule a cadence past `at` (a static service
// trains once) and runs the pass over the window ending at `at`
// (engine.TrainWindow, delta-applied) on a goroutine of its own, under
// the retrain limiter, handing it to the applying goroutine. The caller
// holds the retraining flag, which the install releases.
func (s *Service) startPass(at int64, p pass) {
	p.rec.At, p.prev = at, s.nextRetrainMs()
	next := int64(-1)
	if s.cfg.Policy != engine.Static {
		next = max(p.prev, at+s.cfg.RetrainEvery.Milliseconds())
	}
	s.m.nextRetrain.Set(float64(next))
	view, from := s.trainingView(at)
	lim := s.lim
	go func() {
		if lim != nil {
			lim.acquire()
		}
		rt, err := s.trainPass(s.cfg.Meta, s.repo, s.incrState, view, from, at, s.cfg.Params)
		if err != nil {
			p.rec.Err = err.Error()
		} else {
			p.rec.Retraining = rt
			p.pr = s.newPredictor(s.repo.Rules())
		}
		if lim != nil {
			lim.release()
		}
		s.handoff <- p
	}()
}

// newPredictor builds the service's predictor over rules: one open
// warning across the expert families, spaced at the base window even
// under a wider W_P, as the offline engine counts.
func (s *Service) newPredictor(rules []learner.Rule) *predictor.Predictor {
	pr := predictor.New(rules, s.cfg.Params)
	pr.GlobalDedup = true
	engine.ClampDedup(pr, s.cfg.Params.WindowSec)
	return pr
}

// install puts a finished pass into effect at s.next on the applying
// goroutine: its predictor takes over the old one's last fatal and dedup
// marks (TestSwapPredictorKeepsWarnSpacing), goes live, and is logged by
// an install mark and a cut taken before anything trains again. A failed
// pass is only recorded, a TrainNow's handing its schedule claim back.
// Then the pass already due starts, or the retraining flag is released.
// Reports whether p went live.
func (s *Service) install(p pass) bool {
	ok := p.pr != nil
	if ok {
		old := s.pr.Load()
		p.pr.SeedLastFatal(old.LastFatal())
		p.pr.SeedLastWarn(old.LastWarnTimes())
		s.pr.Store(p.pr)
		s.m.rules.Set(float64(len(p.pr.Rules())))
		s.m.training.Record(p.rec.Retraining)
		p.rec.InstalledSeq = s.next
		s.logMark()
	} else {
		s.m.training.RecordError()
		if p.done != nil {
			s.m.nextRetrain.Set(float64(p.prev))
		}
	}
	s.mu.Lock()
	s.retrains = append(s.retrains, p.rec)
	if s.cfg.Policy == engine.Static && ok {
		s.history = nil // a static service never trains again
	}
	s.mu.Unlock()
	if ok && s.store != nil {
		s.cut()
	}
	if s.due() {
		s.startPass(s.nextRetrainMs(), pass{}) // the flag passes to it
	} else {
		s.retraining.Store(false)
	}
	if p.done != nil {
		p.done <- p.rec
	}
	return ok
}

// logMark counts an install mark at s.next and writes it to the WAL.
func (s *Service) logMark() {
	if s.markSeq != s.next {
		s.markSeq, s.marks = s.next, 0
	}
	s.marks++
	if s.store == nil {
		return
	}
	if n, err := s.store.AppendMark(s.next); err != nil {
		s.m.walErrors.Inc()
	} else {
		s.m.walBytes.Add(int64(n))
	}
}

// marksAt counts the marks at s.next the state holds.
func (s *Service) marksAt() int {
	if s.markSeq != s.next {
		return 0
	}
	return s.marks
}

// applyMark installs, at a mark read from the log, the pass started but
// not installed (after recording a failed one ahead of it). With nothing
// started (a TrainNow's mark) the mark is only counted and logged.
func (s *Service) applyMark() {
	for s.retraining.Load() {
		if s.install(<-s.handoff) {
			return
		}
	}
	s.logMark()
}

// drain installs every pass in flight at s.next, with its mark: at the
// end of intake or of replay, at promotion and at shutdown.
func (s *Service) drain() {
	for s.retraining.Load() {
		s.install(<-s.handoff)
	}
}

// ErrNoEvents is returned by TrainNow before the first event has been
// applied: there is no history to train on and no stream clock to
// schedule against.
var ErrNoEvents = errors.New("stream: no events observed yet; nothing to train on")

// TrainNow runs a training pass over the history up to the current
// watermark and returns once it is installed. It is the manual override
// of the stream-time schedule (POST /retrain): a successful pass counts
// against the schedule, so the next automatic one comes a full cadence
// later. Nothing in the WAL says when it started, so neither a follower
// nor a replay without a later snapshot reproduces it.
func (s *Service) TrainNow() (RetrainRecord, error) {
	done := make(chan RetrainRecord, 1)
	if err := s.startNow(done); err != nil {
		return RetrainRecord{}, err
	}
	rec := <-done
	if rec.Err != "" {
		return rec, errors.New(rec.Err)
	}
	return rec, nil
}

// startNow starts TrainNow's pass, which claims the schedule, so the
// install's catch-up does not re-fire on the same data. The read lock
// keeps Close from ending the pipeline before the install TrainNow
// waits for.
func (s *Service) startNow(done chan RetrainRecord) error {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	switch {
	case s.closed:
		return ErrClosed
	case s.standby.Load():
		return ErrStandby
	case s.streamStartMs() < 0:
		return ErrNoEvents
	case !s.retraining.CompareAndSwap(false, true):
		return errors.New("stream: retraining already in flight")
	}
	s.startPass(s.watermarkMs()+1, pass{done: done})
	return nil
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
