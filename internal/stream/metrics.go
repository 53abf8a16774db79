package stream

import (
	"repro/internal/engine"
	"repro/internal/obsv"
)

// stageBuckets spans per-batch stage work: a microsecond for a lone
// event up to multi-second stalls.
var stageBuckets = obsv.ExpBuckets(1e-6, 4, 12)

// metrics is the service's instrument set, registered on one obsv
// registry. Stats() reads the very same instruments GET /metrics
// exposes, so the JSON snapshot and the Prometheus view cannot disagree
// — and the regression tests for the counting bugs assert against both.
type metrics struct {
	reg *obsv.Registry

	// Pipeline counters, one per stage boundary.
	ingested        *obsv.Counter // accepted by Ingest
	sequenced       *obsv.Counter // released in order and applied
	lateDropped     *obsv.Counter // beyond the reorder tolerance
	reorderOverflow *obsv.Counter // released early by the buffer cap, in tolerance
	afterTemporal   *obsv.Counter // survived the temporal filter
	processed       *obsv.Counter // survived the spatial filter
	fatals          *obsv.Counter
	warningsTotal   *obsv.Counter
	rejected        *obsv.Counter // admission timeouts (ErrSaturated / HTTP 429)

	// Durability instruments (all stay zero without a StateDir).
	walBytes        *obsv.Counter
	walErrors       *obsv.Counter
	snapshots       *obsv.Counter
	snapshotErrors  *obsv.Counter
	snapshotSkipped *obsv.Counter
	snapshotBytes   *obsv.Counter
	replayed        *obsv.Counter
	recoverySeconds *obsv.Gauge
	snapshotLatency *obsv.Histogram

	// Gauges, each a published copy (publish) that no code reads back as
	// state. Stream-time values are milliseconds; streamStart is -1 until
	// the first event, nextRetrain is -1 when no training is due ever
	// again (static policy after its one pass).
	reorderDepth *obsv.Gauge
	rules        *obsv.Gauge
	streamStart  *obsv.Gauge
	watermark    *obsv.Gauge
	nextRetrain  *obsv.Gauge

	// Replication + backfill instruments (DESIGN.md §14). The lag gauges
	// stay zero on a leader; the counters stay zero unless the feature ran.
	standbyLagSeq     *obsv.Gauge   // leader next_seq - replica next seq
	standbyLagSeconds *obsv.Gauge   // leader watermark - replica watermark
	promotions        *obsv.Counter // standby -> leader transitions
	standbyGaps       *obsv.Counter // follower polls that met a WAL gap
	backfillLines     *obsv.Counter // historical log lines fed by backfill
	backfillSkipped   *obsv.Counter // backfill lines that failed to parse

	// Per-stage latency, one observation per batch: "sequencer" covers the
	// reorder buffer and the WAL append, "collector" applying the batch's
	// releases (filters, predictor, retrain check).
	seqLatency     *obsv.Histogram
	collectLatency *obsv.Histogram
	// backpressure records admission slow-path waits: how long ingest
	// callers stalled on a full sequencer queue, whether the slot
	// eventually opened or the wait timed out into a rejection. The fast
	// path (queue had room) observes nothing.
	backpressure *obsv.Histogram

	// training carries the live Table 5: per-learner durations, reviser
	// time, retrain duration, rule churn (shared with the offline engine).
	training *engine.TrainingMetrics
}

// newMetrics registers every instrument on a fresh registry. Called after
// the intake queue exists: its depth gauge reads it at scrape time.
func newMetrics(s *Service) *metrics {
	reg := obsv.NewRegistry()
	m := &metrics{
		reg: reg,
		ingested: reg.Counter("stream_ingested_total",
			"Events accepted by Ingest."),
		sequenced: reg.Counter("stream_sequenced_total",
			"Events released in time order by the reorder buffer and applied."),
		lateDropped: reg.Counter("stream_late_dropped_total",
			"Events dropped for arriving beyond the reorder tolerance."),
		reorderOverflow: reg.Counter("stream_reorder_overflow_total",
			"Events released early by the reorder-buffer cap while still inside the tolerance."),
		afterTemporal: reg.Counter("stream_after_temporal_total",
			"Events surviving the temporal filter."),
		processed: reg.Counter("stream_processed_total",
			"Events surviving the spatial filter and fed to the predictor."),
		fatals: reg.Counter("stream_fatals_total",
			"Fatal events observed after filtering."),
		warningsTotal: reg.Counter("stream_warnings_total",
			"Failure warnings emitted by the live predictor."),
		rejected: reg.Counter("stream_ingest_rejected_total",
			"Ingest calls rejected after waiting AdmitWait on a saturated pipeline (HTTP 429s)."),
		reorderDepth: reg.Gauge("stream_reorder_depth",
			"Events currently held in the reorder buffer."),
		rules: reg.Gauge("stream_rules",
			"Rules in the live predictor."),
		streamStart: reg.Gauge("stream_start_ms",
			"Stream-time (ms) of the first event; -1 before any event."),
		watermark: reg.Gauge("stream_watermark_ms",
			"Stream-time (ms) of the newest applied event."),
		nextRetrain: reg.Gauge("stream_next_retrain_ms",
			"Stream-time (ms) of the next scheduled training; -1 when none is due ever again."),
		seqLatency: reg.Histogram("stream_stage_latency_seconds",
			"Per-batch wall time spent in each pipeline stage.", stageBuckets,
			obsv.Label{Key: "stage", Value: "sequencer"}),
	}
	m.collectLatency = reg.Histogram("stream_stage_latency_seconds", "", stageBuckets,
		obsv.Label{Key: "stage", Value: "collector"})
	// Admission waits run from sub-millisecond blips to the full
	// AdmitWait; start the buckets coarser than the stage latencies.
	m.backpressure = reg.Histogram("stream_ingest_backpressure_seconds",
		"Time ingest callers spent waiting on a full pipeline (slow-path admissions and rejections).",
		obsv.ExpBuckets(1e-4, 4, 10))

	m.walBytes = reg.Counter("stream_wal_bytes_total",
		"Bytes appended to the write-ahead log.")
	m.walErrors = reg.Counter("stream_wal_errors_total",
		"Failed WAL appends (the event still flows through the pipeline).")
	m.snapshots = reg.Counter("stream_snapshots_total",
		"Durable snapshots written.")
	m.snapshotErrors = reg.Counter("stream_snapshot_errors_total",
		"Failed snapshot writes (the previous snapshot stays authoritative).")
	m.snapshotSkipped = reg.Counter("stream_snapshot_skipped_total",
		"Snapshot cuts skipped because the previous write was still in flight (recovery replays a longer WAL tail).")
	m.snapshotBytes = reg.Counter("stream_snapshot_bytes_total",
		"Bytes written across all snapshots.")
	m.replayed = reg.Counter("stream_replayed_total",
		"WAL events replayed through the pipeline during startup recovery.")
	m.recoverySeconds = reg.Gauge("stream_recovery_seconds",
		"Wall time of the last startup recovery (snapshot load + WAL replay).")
	m.snapshotLatency = reg.Histogram("stream_snapshot_latency_seconds",
		"Wall time per durable snapshot write.", stageBuckets)

	m.standbyLagSeq = reg.Gauge("standby_lag_seq",
		"Sequence distance behind the leader (leader next_seq - replica next seq); 0 on a leader.")
	m.standbyLagSeconds = reg.Gauge("standby_lag_seconds",
		"Stream-time distance behind the leader's watermark in seconds; 0 on a leader.")
	m.promotions = reg.Counter("standby_promotions_total",
		"Standby-to-leader promotions performed by this process.")
	m.standbyGaps = reg.Counter("standby_wal_gaps_total",
		"Follower polls whose leader no longer holds the records the replica needs next.")
	m.backfillLines = reg.Counter("backfill_lines_total",
		"Historical raw-log lines parsed and fed to the pipeline by backfill.")
	m.backfillSkipped = reg.Counter("backfill_skipped_total",
		"Backfill lines skipped because they failed to parse.")

	reg.GaugeFunc("stream_retraining",
		"1 from a training pass's start to its install.", func() float64 {
			if s.retraining.Load() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("stream_compression_rate",
		"1 - processed/sequenced: the preprocessing filter's current reduction.", func() float64 {
			seq := m.sequenced.Value()
			if seq == 0 {
				return 0
			}
			return 1 - float64(m.processed.Value())/float64(seq)
		})
	reg.GaugeFunc("stream_queue_depth", "Admitted messages (events or batches) awaiting the pipeline goroutine.",
		func() float64 { return float64(len(s.seqCh)) }, obsv.Label{Key: "queue", Value: "sequencer"})

	m.training = engine.NewTrainingMetrics(reg)
	return m
}

// Metrics returns the service's metric registry — the backing store of
// both Stats() and GET /metrics. Useful for mounting the exposition
// handler elsewhere or registering extra gauges alongside the service's.
func (s *Service) Metrics() *obsv.Registry { return s.m.reg }
