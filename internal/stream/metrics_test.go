package stream

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/obsv"
	"repro/internal/raslog"
)

// settle waits until the asynchronous pipeline quiesces: counters stable
// over several polls and no retrain in flight. The reorder buffer
// legitimately withholds the last ReorderWindow of stream time until
// Close, so "settled" does not mean "fully drained".
func settle(t testing.TB, s *Service) Stats {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var prev Stats
	stable := 0
	for stable < 3 {
		if time.Now().After(deadline) {
			t.Fatal("pipeline did not settle in time")
		}
		st := s.Stats()
		if st.Ingested == prev.Ingested && st.Sequenced == prev.Sequenced &&
			st.Processed == prev.Processed && !st.Retraining {
			stable++
		} else {
			stable = 0
		}
		prev = st
		time.Sleep(25 * time.Millisecond)
	}
	return prev
}

// TestStatsMetricsConsistency ingests a known out-of-order stream and
// checks, at quiescence, that the counter identities hold and that GET
// /metrics reports the exact numbers Stats() does — both are views over
// the same registry, so they can never disagree.
func TestStatsMetricsConsistency(t *testing.T) {
	l := genLog(t, 11, 6)
	ev := append([]raslog.Event(nil), l.Events...)
	// Swap adjacent pairs: a modestly out-of-order arrival stream the
	// reorder buffer must restore.
	for i := 0; i+1 < len(ev); i += 2 {
		ev[i], ev[i+1] = ev[i+1], ev[i]
	}

	cfg := Defaults()
	cfg.Policy = engine.Whole
	cfg.InitialTrain = 10000 * week // no retrain: isolate the counting
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, e := range ev {
		if err := s.Ingest(ctx, e); err != nil {
			t.Fatal(err)
		}
	}
	// A straggler from right after the stream start is weeks beyond the
	// reorder tolerance by now: it must be dropped and counted, never
	// silently lost from the identities.
	stale := raslog.Event{Time: l.Start() + 1, Location: "LSTALE", Entry: "stale",
		Facility: raslog.Kernel, Severity: raslog.Info}
	if err := s.Ingest(ctx, stale); err != nil {
		t.Fatal(err)
	}

	st := settle(t, s)
	if st.LateDropped < 1 {
		t.Fatal("stream produced no late drops; the identity test needs the drop path exercised")
	}
	if st.Queues.Sequencer != 0 {
		t.Errorf("sequencer queue still holds %d events after settling", st.Queues.Sequencer)
	}
	buffered := int64(st.Queues.Reorder)
	if st.Ingested != st.Sequenced+st.LateDropped+buffered {
		t.Errorf("identity violated: ingested %d != sequenced %d + dropped %d + buffered %d",
			st.Ingested, st.Sequenced, st.LateDropped, buffered)
	}
	if want := 1 - float64(st.Processed)/float64(st.Sequenced); st.CompressionRate != want {
		t.Errorf("CompressionRate = %v, want 1 - %d/%d = %v",
			st.CompressionRate, st.Processed, st.Sequenced, want)
	}

	srv := httptest.NewServer(NewMux(s))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obsv.TextContentType {
		t.Errorf("Content-Type = %q, want %q", ct, obsv.TextContentType)
	}
	samples, err := obsv.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("/metrics is not valid text exposition: %v", err)
	}
	checks := map[string]float64{
		"stream_ingested_total":        float64(st.Ingested),
		"stream_sequenced_total":       float64(st.Sequenced),
		"stream_late_dropped_total":    float64(st.LateDropped),
		"stream_ingest_rejected_total": float64(st.Rejected),
		"stream_after_temporal_total":  float64(st.AfterTemporal),
		"stream_processed_total":       float64(st.Processed),
		"stream_fatals_total":          float64(st.Fatals),
		"stream_warnings_total":        float64(st.WarningsTotal),
		"stream_reorder_depth":         float64(st.Queues.Reorder),
		"stream_rules":                 float64(st.Rules),
		"stream_start_ms":              float64(st.StreamStart),
		"stream_watermark_ms":          float64(st.Watermark),
		"stream_next_retrain_ms":       float64(st.NextRetrain),
		"stream_compression_rate":      st.CompressionRate,
		"stream_retraining":            0,
	}
	for name, want := range checks {
		got, ok := samples[name]
		if !ok {
			t.Errorf("/metrics is missing %s", name)
			continue
		}
		if got != want {
			t.Errorf("%s = %v via /metrics, %v via Stats()", name, got, want)
		}
	}

	// After Close the reorder buffer flushes: the identity must close to
	// zero buffered.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.Queues.Reorder != 0 {
		t.Errorf("reorder depth = %d after Close, want 0", st.Queues.Reorder)
	}
	if st.Ingested != st.Sequenced+st.LateDropped {
		t.Errorf("identity violated after Close: ingested %d != sequenced %d + dropped %d",
			st.Ingested, st.Sequenced, st.LateDropped)
	}
}

// TestMetricsEndpointCoverage is the acceptance check for the /metrics
// endpoint: after streaming a log through HTTP and forcing a retrain, the
// exposition must parse and cover every pipeline stage (counters and
// latencies), the reorder depth, and the training timings + rule churn.
func TestMetricsEndpointCoverage(t *testing.T) {
	l := genLog(t, 5, 6)
	cfg := Defaults()
	cfg.InitialTrain = 10000 * week // retrain only on demand
	s, srv := newTestServer(t, cfg)
	postIngest(t, srv.URL, encodeLog(t, l))
	settle(t, s)

	resp, err := http.Post(srv.URL+"/retrain", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /retrain = %d", resp.StatusCode)
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	samples, err := obsv.ParseText(mresp.Body)
	if err != nil {
		t.Fatalf("/metrics is not valid text exposition: %v", err)
	}

	// Every stage boundary counted, every stage latency observed.
	positive := []string{
		"stream_ingested_total",
		"stream_sequenced_total",
		"stream_after_temporal_total",
		"stream_processed_total",
		"stream_fatals_total",
		`stream_stage_latency_seconds_count{stage="sequencer"}`,
		`stream_stage_latency_seconds_count{stage="collector"}`,
		"train_passes_total",
		"train_duration_seconds_count",
		"train_revise_duration_seconds_count",
		`train_learner_duration_seconds_count{learner="association"}`,
		`train_learner_duration_seconds_count{learner="statistical"}`,
		`train_learner_duration_seconds_count{learner="distribution"}`,
		"train_rules_added_total", // first pass: every rule is new
		"train_events",
		"train_repo_rules",
		"stream_rules",
		// The on-demand retrain above was the first pass: a full rebuild
		// of the incremental sufficient statistics, counted as such.
		"train_incr_applied_events_total",
		"train_incr_rebuilds_total",
		"train_incr_advance_duration_seconds_count",
		`train_pass_duration_seconds_count{mode="full"}`,
	}
	for _, name := range positive {
		if v, ok := samples[name]; !ok {
			t.Errorf("/metrics is missing %s", name)
		} else if v <= 0 {
			t.Errorf("%s = %v, want > 0", name, v)
		}
	}
	// Present with any value (possibly zero at this point).
	present := []string{
		"stream_late_dropped_total",
		"stream_reorder_depth",
		"stream_warnings_total",
		"stream_ingest_rejected_total",
		`stream_ingest_backpressure_seconds_bucket{le="+Inf"}`,
		"train_errors_total",
		"train_incr_expired_events_total",
		"train_rules_unchanged_total",
		"train_rules_removed_total",
		"stream_snapshot_skipped_total",
		`stream_queue_depth{queue="sequencer"}`,
		`stream_stage_latency_seconds_bucket{stage="collector",le="+Inf"}`,
	}
	for _, name := range present {
		if _, ok := samples[name]; !ok {
			t.Errorf("/metrics is missing %s", name)
		}
	}
}
