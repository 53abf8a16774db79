package stream

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/learner"
	"repro/internal/persist"
	"repro/internal/preprocess"
	"repro/internal/raslog"
)

// durableConfig is the configuration the recovery tests share: a few
// passes over a short log, and an oversized warnings ring (so full
// warning histories can be compared, not just tails). Ingest returns
// only once what its event released is fsynced, so everything sequenced
// before a kill is durable; tests feeding through ingestAll install each
// pass at a fixed stream position.
func durableConfig(dir string) Config {
	cfg := Defaults()
	cfg.InitialTrain = 3 * week
	cfg.RetrainEvery = 2 * week
	cfg.TrainWindow = 6 * week
	cfg.WarningsKeep = 1 << 20
	cfg.StateDir = dir
	return cfg
}

// referenceRun feeds the whole log uninterrupted and returns the closed
// service. StateDir is empty: persistence must not change behavior, so
// the reference is the plain in-memory service.
func referenceRun(t *testing.T, l *raslog.Log) *Service {
	t.Helper()
	s, err := New(durableConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, s, l)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return s
}

// compareServices asserts the recovered service ended in exactly the
// reference's state: rule set (including fitted distribution parameters,
// which must survive the JSON round trip bit-exactly), the full warning
// history, the retrain history, counters, clocks and the training window.
func compareServices(t *testing.T, got, want *Service) {
	t.Helper()
	if !reflect.DeepEqual(got.Rules(), want.Rules()) {
		t.Errorf("rule sets differ after recovery:\n got %d rules %+v\nwant %d rules %+v",
			len(got.Rules()), got.Rules(), len(want.Rules()), want.Rules())
	}
	gw, ww := got.Warnings(0), want.Warnings(0)
	if len(gw) != len(ww) {
		t.Fatalf("warning counts differ: got %d, want %d", len(gw), len(ww))
	}
	for i := range gw {
		if gw[i] != ww[i] {
			t.Fatalf("warning %d differs: got %+v, want %+v", i, gw[i], ww[i])
		}
	}
	gs, ws := got.Stats(), want.Stats()
	if len(gs.Retrains) != len(ws.Retrains) {
		t.Fatalf("retrain counts differ: got %d, want %d", len(gs.Retrains), len(ws.Retrains))
	}
	for i := range gs.Retrains {
		if gs.Retrains[i].At != ws.Retrains[i].At || gs.Retrains[i].Err != ws.Retrains[i].Err {
			t.Errorf("retrain %d differs: got %+v, want %+v", i, gs.Retrains[i], ws.Retrains[i])
		}
	}
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"ingested", gs.Ingested, ws.Ingested},
		{"sequenced", gs.Sequenced, ws.Sequenced},
		{"late_dropped", gs.LateDropped, ws.LateDropped},
		{"reorder_overflow", gs.ReorderOverflow, ws.ReorderOverflow},
		{"after_temporal", gs.AfterTemporal, ws.AfterTemporal},
		{"processed", gs.Processed, ws.Processed},
		{"fatals", gs.Fatals, ws.Fatals},
		{"warnings_total", gs.WarningsTotal, ws.WarningsTotal},
		{"rules", gs.Rules, ws.Rules},
	} {
		if c.got != c.want {
			t.Errorf("stat %s: got %d, want %d", c.name, c.got, c.want)
		}
	}
	if gs.Watermark != ws.Watermark || gs.StreamStart != ws.StreamStart || gs.NextRetrain != ws.NextRetrain {
		t.Errorf("stream clocks differ: got (%d, %d, %d), want (%d, %d, %d)",
			gs.StreamStart, gs.Watermark, gs.NextRetrain, ws.StreamStart, ws.Watermark, ws.NextRetrain)
	}
	got.mu.Lock()
	gh := append([]preprocess.TaggedEvent(nil), got.core.history...)
	got.mu.Unlock()
	want.mu.Lock()
	wh := append([]preprocess.TaggedEvent(nil), want.core.history...)
	want.mu.Unlock()
	if !reflect.DeepEqual(gh, wh) {
		t.Errorf("training histories differ: got %d events, want %d", len(gh), len(wh))
	}
}

// TestCrashRestartEquivalence is the tentpole acceptance test: a service
// killed at an arbitrary point and restarted over the same state
// directory must end with the same rule set and the same warnings as one
// that ran uninterrupted. Kill points cover before the first training
// (WAL-only recovery), around the first snapshot, and deep into the
// retrain cadence.
func TestCrashRestartEquivalence(t *testing.T) {
	l := genLog(t, 11, 8)
	events := l.Events
	ref := referenceRun(t, l)
	if len(ref.Rules()) == 0 || len(ref.Warnings(0)) == 0 {
		t.Fatalf("reference run is trivial: %d rules, %d warnings — test would prove nothing",
			len(ref.Rules()), len(ref.Warnings(0)))
	}

	for _, kill := range []int{100, len(events) / 3, len(events) / 2, 5 * len(events) / 6} {
		t.Run(fmt.Sprintf("kill=%d", kill), func(t *testing.T) {
			dir := t.TempDir()

			first, err := New(durableConfig(dir))
			if err != nil {
				t.Fatal(err)
			}
			ingestAll(t, first, &raslog.Log{Name: l.Name, Events: events[:kill]})
			// Let the sequencer drain its input queue; events still inside
			// the reorder tolerance stay buffered and die with the process,
			// exactly as a real kill -9 would lose them.
			waitFor(t, 30*time.Second, func() bool {
				st := first.Stats()
				return st.Sequenced+st.LateDropped+int64(st.Queues.Reorder) == int64(kill)
			})
			durable := first.Stats().Sequenced
			first.crash()

			second, err := New(durableConfig(dir))
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			rec := second.Recovery()
			// Every sequenced event was acked and so durable, and an
			// in-order feed means sequence i is input index i — so the
			// resume position is exactly the count of sequenced events, and
			// re-feeding events[ResumeSeq:] covers both the never-ingested
			// tail and the events the reorder buffer lost.
			if rec.ResumeSeq != uint64(durable) {
				t.Fatalf("resume seq %d, want %d (replayed %d from snapshot %d)",
					rec.ResumeSeq, durable, rec.Replayed, rec.SnapshotSeq)
			}
			ingestAll(t, second, &raslog.Log{Name: l.Name, Events: events[rec.ResumeSeq:]})
			if err := second.Close(); err != nil {
				t.Fatal(err)
			}
			compareServices(t, second, ref)
		})
	}
}

// TestCrashDuringRecoveredRun re-kills an already-recovered service: the
// second recovery reads the first recovery's own snapshots and WAL chain
// (generation-suffixed segment names keep the chains apart).
func TestCrashDuringRecoveredRun(t *testing.T) {
	l := genLog(t, 13, 8)
	events := l.Events
	ref := referenceRun(t, l)

	dir := t.TempDir()
	k1, k2 := len(events)/3, 2*len(events)/3

	first, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, first, &raslog.Log{Name: l.Name, Events: events[:k1]})
	first.crash()

	second, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, second, &raslog.Log{Name: l.Name, Events: events[second.Recovery().ResumeSeq:k2]})
	second.crash()

	third, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, third, &raslog.Log{Name: l.Name, Events: events[third.Recovery().ResumeSeq:]})
	if err := third.Close(); err != nil {
		t.Fatal(err)
	}
	compareServices(t, third, ref)
}

// TestGracefulRestartReplaysNothing pins the shutdown snapshot: Close
// leaves a snapshot of the fully drained state, so the next start replays
// zero WAL events and still matches the reference.
func TestGracefulRestartReplaysNothing(t *testing.T) {
	l := genLog(t, 17, 8)
	events := l.Events
	ref := referenceRun(t, l)

	dir := t.TempDir()
	half := len(events) / 2
	first, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, first, &raslog.Log{Name: l.Name, Events: events[:half]})
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	second, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	rec := second.Recovery()
	if rec.Replayed != 0 {
		t.Errorf("graceful restart replayed %d events; the shutdown snapshot should cover everything", rec.Replayed)
	}
	if rec.ResumeSeq != uint64(half) {
		t.Fatalf("resume seq %d, want %d", rec.ResumeSeq, half)
	}
	if st := second.Stats(); st.Recovery == nil {
		t.Error("Stats.Recovery missing for a durable service")
	}
	ingestAll(t, second, &raslog.Log{Name: l.Name, Events: events[rec.ResumeSeq:]})
	if err := second.Close(); err != nil {
		t.Fatal(err)
	}
	compareServices(t, second, ref)
}

// TestRecoveryIgnoresRetiredRetrainFields restores a snapshot whose
// retrain records carry "WindowSec", a field older versions wrote (the
// per-pass prediction window): recovery ignores it and restores every
// record intact.
func TestRecoveryIgnoresRetiredRetrainFields(t *testing.T) {
	l := genLog(t, 13, 8)
	dir := t.TempDir()
	first, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, first, &raslog.Log{Name: l.Name, Events: l.Window(l.Start(), l.Start()+6*week.Milliseconds())})
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	want := retrainRecords(t, first)
	if len(want) < 2 {
		t.Fatalf("%d retrains before the restart; want >= 2", len(want))
	}

	// Rewrite the shutdown snapshot as an older version wrote it.
	st, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := st.LoadSnapshot()
	if err != nil || snap == nil {
		t.Fatalf("shutdown snapshot: %v, %v", snap, err)
	}
	var old []map[string]json.RawMessage
	if err := json.Unmarshal(snap.Retrains, &old); err != nil {
		t.Fatal(err)
	}
	for _, rec := range old {
		rec["WindowSec"] = json.RawMessage("300")
	}
	if snap.Retrains, err = json.Marshal(old); err != nil {
		t.Fatal(err)
	}
	if _, err := st.WriteSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	second, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	got := second.Stats().Retrains
	if err := second.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("restored retrain records differ:\n got %+v\nwant %+v", got, want)
	}
}

// TestPersistenceDoesNotPerturbPipeline pins that turning StateDir on
// changes nothing about what the pipeline computes (the WAL append is a
// pure observer).
func TestPersistenceDoesNotPerturbPipeline(t *testing.T) {
	l := genLog(t, 19, 6)
	ref := referenceRun(t, l)

	s, err := New(durableConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, s, l)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	compareServices(t, s, ref)
}

// TestSwapPredictorKeepsWarnSpacing is the regression test for the
// rule-swap dedup bug: seeding only lastFatal re-armed the distribution
// expert, so the first warning-eligible event after every retraining
// could double-warn — once before the swap and once right after, inside
// the dedup interval.
func TestSwapPredictorKeepsWarnSpacing(t *testing.T) {
	cfg := Defaults()
	full, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	c := newCore(full, nil, func(uint64, bool) {})
	// swap installs a pass that re-learned the repository's rules, as the
	// pipeline goroutine does when a pass hands its predictor over.
	swap := func() {
		c.retraining = true
		c.install(pass{pr: c.newPredictor(c.repo.Rules())})
	}

	// One distribution rule: more than 60 s since the last fatal warns.
	// The fatal arrives before the first pass installs.
	c.repo.Restore([]learner.Rule{{Kind: learner.Distribution, ElapsedSec: 60, Confidence: 0.9}})
	const fatalAt = int64(1_000_000_000_000)
	c.process(preprocess.TaggedEvent{Event: raslog.Event{Time: fatalAt}, Class: 2, Fatal: true})
	swap()

	// 70 s after the fatal: the live predictor warns, through the normal
	// process path (which is what moves its dedup marks).
	warnAt := fatalAt + 70_000
	c.process(preprocess.TaggedEvent{Event: raslog.Event{Time: warnAt}, Class: 1})
	if got := c.n.Warnings; got != 1 {
		t.Fatalf("setup: expected exactly one warning, got %d", got)
	}

	// Retrain boundary: same rule set re-learned, fresh predictor swapped
	// in. Ten seconds later — well inside the dedup interval (W_P = 300 s)
	// and still past the elapsed threshold — the old predictor would have
	// stayed silent; the swapped-in one must too.
	swap()
	c.process(preprocess.TaggedEvent{Event: raslog.Event{Time: warnAt + 10_000}, Class: 1})
	if got := c.n.Warnings; got != 1 {
		t.Fatalf("swapped-in predictor re-warned (total %d) off the pre-swap fatal; dedup state was lost across the swap", got)
	}

	// The elapsed-failure clock carries too, and carries the latest
	// fatal. Only the old predictor sees this one (its warning there is
	// suppressed: 290 s after the last). 30 s after it, with the dedup
	// interval over, the swapped-in predictor must stay silent, which a
	// clock still at the first fatal would not; 400 s after it, the
	// distribution rule must fire, which an unseeded clock would not.
	fatal2 := warnAt + 290_000
	c.process(preprocess.TaggedEvent{Event: raslog.Event{Time: fatal2}, Class: 2, Fatal: true})
	swap()
	c.process(preprocess.TaggedEvent{Event: raslog.Event{Time: fatal2 + 30_000}, Class: 1})
	if got := c.n.Warnings; got != 1 {
		t.Fatalf("swapped-in predictor warned 30 s after a pre-swap fatal (total %d); its clock is not at the latest fatal", got)
	}
	c.process(preprocess.TaggedEvent{Event: raslog.Event{Time: fatal2 + 400_000}, Class: 1})
	if got := c.n.Warnings; got != 2 {
		t.Fatalf("warnings total %d after an event 400 s past a pre-swap fatal, want 2; the elapsed-failure clock was lost across the swap", got)
	}
}

// TestKillRecoverCountersExact pins that every counter a snapshot carries
// is exact at its cut, the reorder buffer's late-drop and forced-release
// tallies included: they move on the goroutine that takes the cut, so
// there is no skew to tolerate. A feed with stale events and bursts that
// overflow a small buffer runs through several training passes, each
// installed right after the batch that started it (applied) and leaving
// a snapshot behind, and is then killed. The
// recovered service must report the pipeline counters exactly as the
// killed one did, and the two reorder tallies — which no WAL record
// carries — exactly as the reference reorder buffer has them at the
// batch boundary the restored snapshot was cut at.
func TestKillRecoverCountersExact(t *testing.T) {
	l := genLog(t, 37, 8)
	cfg := durableConfig(t.TempDir())
	cfg.ReorderLimit = 8 // bursts overflow the buffer: forced releases
	cfg.ReorderWindow = time.Minute
	first, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Every batch carries fresh events (so it releases something and batch
	// boundaries have distinct sequence numbers) plus, once the stream is a
	// day old, two events from its first hour: late drops.
	ref := &refReorder{limit: cfg.ReorderLimit, tolMs: cfg.ReorderWindow.Milliseconds(), maxSeen: -1 << 62, floor: -1 << 62}
	type boundary struct{ seq, late, overflow int64 }
	var bounds []boundary
	var cut boundary
	ctx := context.Background()
	for i := 0; i < len(l.Events); i += 48 {
		batch := append([]raslog.Event(nil), l.Events[i:min(i+48, len(l.Events))]...)
		if batch[0].Time > l.Start()+24*3600*1000 {
			batch = append(batch, l.Events[i%20], l.Events[i%20+1])
		}
		for _, e := range batch {
			ref.push(e)
		}
		ids, late, overflow := ref.release(false)
		cut = boundary{cut.seq + int64(len(ids)), cut.late + late, cut.overflow + overflow}
		bounds = append(bounds, cut)
		if _, err := first.IngestBatch(ctx, batch); err != nil {
			t.Fatal(err)
		}
		applied(t, first)
		awaitSnapshotWrites(t, first, cut.seq)
	}
	before := settle(t, first)
	if before.LateDropped != cut.late || before.ReorderOverflow != cut.overflow || cut.late == 0 || cut.overflow == 0 {
		t.Fatalf("live tallies late=%d overflow=%d, reference %d/%d (both must be nonzero)",
			before.LateDropped, before.ReorderOverflow, cut.late, cut.overflow)
	}
	first.crash()

	second, err := New(durableConfig(cfg.StateDir))
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer second.Close()
	rec := second.Recovery()
	if rec.Replayed == 0 || rec.SnapshotSeq == 0 {
		t.Fatalf("recovery = %+v, want a snapshot plus a replayed tail", rec)
	}
	at := -1
	for i, b := range bounds {
		if b.seq == int64(rec.SnapshotSeq) {
			at = i
		}
	}
	if at < 0 {
		t.Fatalf("snapshot cut at seq %d is not a batch boundary", rec.SnapshotSeq)
	}
	after := second.Stats()
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"late_dropped", after.LateDropped, bounds[at].late},
		{"reorder_overflow", after.ReorderOverflow, bounds[at].overflow},
		{"sequenced", after.Sequenced, before.Sequenced},
		{"ingested", after.Ingested, after.Sequenced + after.LateDropped},
		{"after_temporal", after.AfterTemporal, before.AfterTemporal},
		{"processed", after.Processed, before.Processed},
		{"fatals", after.Fatals, before.Fatals},
		{"warnings_total", after.WarningsTotal, before.WarningsTotal},
		{"rules", after.Rules, before.Rules},
		{"watermark", after.Watermark, before.Watermark},
		{"stream_start", after.StreamStart, before.StreamStart},
		{"next_retrain", after.NextRetrain, before.NextRetrain},
	} {
		if c.got != c.want {
			t.Errorf("%s: %d after kill-and-recover, want exactly %d", c.name, c.got, c.want)
		}
	}
}

// awaitSnapshotWrites waits until the pipeline has applied the first seq
// released events and any snapshot write it started on the way has
// finished. Called after every batch, it keeps the snapshot slot free, so
// every install cuts its snapshot; a write still in flight would make an
// install skip its cut (by design).
func awaitSnapshotWrites(t *testing.T, s *Service, seq int64) {
	t.Helper()
	waitFor(t, 30*time.Second, func() bool { return s.m.sequenced.Value() >= seq })
	s.snapSlot <- struct{}{}
	<-s.snapSlot
}

// removeMiddleWAL deletes a WAL segment from the middle of the chain,
// returning false when the chain is too short to have a strict middle.
func removeMiddleWAL(t *testing.T, dir string) bool {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names) // the naming scheme makes lexical == logical order
	if len(names) < 3 {
		return false
	}
	if err := os.Remove(names[len(names)/2]); err != nil {
		t.Fatal(err)
	}
	return true
}

// TestRecoveryRejectsWALGap pins loud failure: a WAL chain with a missing
// middle segment must fail New, not silently replay a stream with a hole
// in it.
func TestRecoveryRejectsWALGap(t *testing.T) {
	l := genLog(t, 23, 4)
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.WALRotateBytes = 4096 // force many small segments
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, s, l)
	s.crash()

	if !removeMiddleWAL(t, dir) {
		t.Fatal("log produced fewer than 3 WAL segments; lower WALRotateBytes")
	}
	if _, err := New(durableConfig(dir)); err == nil {
		t.Fatal("New over a WAL with a missing segment succeeded")
	}
}

// TestCrashMidCoalesceDurability kills the store at an arbitrary point
// between commit enqueue and fsync while a client drives durable batch
// ingest through the asynchronous commit pipeline. The contract under
// test is ack-implies-durable: every batch whose IngestBatch returned
// nil must have its released events on disk after recovery, and recovery
// must never replay events that were never submitted. SyncMaxWait is
// nonzero so the kill reliably lands inside an open coalescing round.
func TestCrashMidCoalesceDurability(t *testing.T) {
	const batchSize = 8
	for _, ackTarget := range []int{1, 4, 9} {
		t.Run(fmt.Sprintf("ackTarget=%d", ackTarget), func(t *testing.T) {
			dir := t.TempDir()
			cfg := durableConfig(dir)
			// Events are 1 s apart, so a 10 ms tolerance retains exactly the
			// newest event: an acked batch k has released (k+1)*batchSize - 1
			// events, and each of those must survive the crash.
			cfg.ReorderWindow = 10 * time.Millisecond
			cfg.SyncMaxWait = 2 * time.Millisecond
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}

			type feed struct{ attempts, acked int }
			done := make(chan feed, 1)
			go func() {
				var f feed
				for {
					evs := make([]raslog.Event, batchSize)
					for j := range evs {
						evs[j] = pipelineEvent(f.attempts*batchSize + j)
					}
					f.attempts++
					if _, err := s.IngestBatch(context.Background(), evs); err != nil {
						done <- f
						return
					}
					f.acked++
				}
			}()
			// The sequenced counter moves only after the commit ticket was
			// handed back, so by here at least ackTarget rounds have opened;
			// the kill races the fsync of whichever round is in flight.
			waitFor(t, 30*time.Second, func() bool {
				return s.m.sequenced.Value() >= int64(ackTarget*batchSize)
			})
			s.crash()
			f := <-done

			second, err := New(durableConfig(dir))
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			defer second.Close()
			rec := second.Recovery()
			if f.acked > 0 {
				if min := uint64(f.acked*batchSize - 1); rec.ResumeSeq < min {
					t.Fatalf("recovered to seq %d; %d acked batches require at least %d durable events — an acked batch was lost",
						rec.ResumeSeq, f.acked, min)
				}
			}
			if max := uint64(f.attempts * batchSize); rec.ResumeSeq > max {
				t.Fatalf("recovered to seq %d but only %d events were ever submitted — replay fabricated events",
					rec.ResumeSeq, max)
			}
		})
	}
}

// TestSnapshotCutDuringBackgroundRetrain runs snapshot cuts on the
// pipeline goroutine while background passes retrain back to back (a
// one-day cadence over a fast feed makes each pass start the next as its
// catch-up). A cut must not read the rule repository a pass is
// rewriting: under -race any such read is reported, and without it the
// daemon could die of a concurrent map access.
func TestSnapshotCutDuringBackgroundRetrain(t *testing.T) {
	l := genLog(t, 11, 8)
	cfg := durableConfig(t.TempDir())
	cfg.RetrainEvery = 24 * time.Hour
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < l.Len(); i += 256 {
		batch := append([]raslog.Event(nil), l.Events[i:min(i+256, l.Len())]...)
		if _, err := s.IngestBatch(ctx, batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n, snaps := len(s.Stats().Retrains), s.m.snapshots.Value(); n < 10 || snaps < 2 {
		t.Fatalf("%d retrains, %d snapshots; want several of each", n, snaps)
	}
}

// TestIngestRouteAckImpliesDurable pins ack-implies-durable on both
// ingest routes, with the WAL at its defaults: once a POST returns 200,
// every event it released is on disk. Events one second apart under a
// 1 ms tolerance release all but the newest, so a crash right after the
// 200 must recover at least 99 of the 100.
func TestIngestRouteAckImpliesDurable(t *testing.T) {
	const n = 100
	evs := make([]raslog.Event, n)
	for i := range evs {
		evs[i] = pipelineEvent(i)
	}
	for _, route := range []string{"/ingest", "/ingest/batch"} {
		t.Run("route="+route, func(t *testing.T) {
			cfg := Defaults()
			cfg.StateDir = t.TempDir()
			cfg.ReorderWindow = time.Millisecond
			s, srv := newTestServer(t, cfg)
			resp, err := http.Post(srv.URL+route, "text/plain", bytes.NewReader(encodeLog(t, &raslog.Log{Events: evs})))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("POST %s: status %d, want 200", route, resp.StatusCode)
			}
			s.crash()

			second, err := New(cfg)
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			defer second.Close()
			if rec := second.Recovery(); rec.ResumeSeq < n-1 {
				t.Fatalf("recovered %d events after a 200 that released %d: an acked event was lost", rec.ResumeSeq, n-1)
			}
		})
	}
}

// TestCrashMidCoalesceNeverFalseAcks pins the other direction: a batch
// that was sequenced and staged in the WAL but whose round never reached
// an fsync (SyncMaxWait parks the syncer for a minute) must NOT be
// acknowledged when the process dies mid-coalesce. The waiter gets a
// commit error — the client re-sends, at-least-once — and recovery over
// the same directory still comes up clean.
func TestCrashMidCoalesceNeverFalseAcks(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.ReorderWindow = 10 * time.Millisecond
	cfg.SyncMaxWait = time.Minute // the fsync cannot win the race
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	const n = 64
	evs := make([]raslog.Event, n)
	for i := range evs {
		evs[i] = pipelineEvent(i)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := s.IngestBatch(context.Background(), evs)
		errc <- err
	}()
	// Sequenced moves only after the commit round was enqueued: the batch
	// is now exactly in the enqueue→fsync window the test targets.
	waitFor(t, 30*time.Second, func() bool { return s.m.sequenced.Value() >= n-1 })
	s.crash()
	err = <-errc
	if err == nil {
		t.Fatal("IngestBatch acked a batch whose commit round never reached an fsync")
	}
	if !errors.Is(err, errCommit) {
		t.Fatalf("mid-coalesce kill returned %v, want errCommit (the 503/re-send class)", err)
	}

	second, err := New(durableConfig(dir))
	if err != nil {
		t.Fatalf("recovery after mid-coalesce kill failed: %v", err)
	}
	defer second.Close()
	if rec := second.Recovery(); rec.ResumeSeq > n {
		t.Fatalf("recovered %d events from a feed of %d", rec.ResumeSeq, n)
	}
}

// TestReplayTailKeepsTemporalAnchors pins the recovery hand-off: the
// temporal filter state WAL replay builds past the snapshot cut is the
// state the live pipeline continues from. A pipeline starting from the
// stale snapshot rows would miss the replay tail's anchors and keep an
// event the original run suppressed at exactly the threshold (the sharded
// pipeline once did: its shards were seeded separately).
func TestReplayTailKeepsTemporalAnchors(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	probe := func(tms int64) raslog.Event {
		return raslog.Event{Time: tms, JobID: 7, Location: "R00-M0-N00-C00-U0",
			Entry: "temporal seed probe", Facility: raslog.Kernel, Severity: raslog.Info}
	}
	cfg := durableConfig(dir)
	thrMs := cfg.Filter.Threshold * 1000
	base := int64(1136073600000)

	// A is sequenced and durable (the pusher's ack waited for its commit)
	// but no snapshot ever covers it: the crash leaves a WAL-only tail for
	// recovery to replay.
	// The pusher event advances the sequencer's high-water mark past the
	// reorder tolerance so A is released; the pusher itself stays in the
	// reorder buffer and dies with the crash.
	first, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pusher := raslog.Event{Time: base + cfg.ReorderWindow.Milliseconds() + 60_000,
		JobID: 9, Location: "R77-M0-N00-C00-U0", Entry: "watermark pusher",
		Facility: raslog.Kernel, Severity: raslog.Info}
	if err := first.Ingest(ctx, probe(base)); err != nil {
		t.Fatal(err)
	}
	if err := first.Ingest(ctx, pusher); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, func() bool { return first.Stats().Sequenced == 1 })
	first.crash()

	second, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if rec := second.Recovery(); rec.Replayed != 1 || rec.ResumeSeq != 1 {
		t.Fatalf("recovery = %+v, want 1 replayed, resume at 1", rec)
	}
	// B repeats A's key exactly Threshold later — the inclusive boundary.
	// An uninterrupted run suppresses it; the recovered run must too.
	if err := second.Ingest(ctx, probe(base+thrMs)); err != nil {
		t.Fatal(err)
	}
	if err := second.Close(); err != nil {
		t.Fatal(err)
	}
	if got := second.Stats().AfterTemporal; got != 1 {
		t.Fatalf("after_temporal = %d, want 1 (the recovered pipeline lost the replayed anchor)", got)
	}

	// The premise, pinned on a plain service: A kept, B suppressed.
	ref, err := New(durableConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []raslog.Event{probe(base), probe(base + thrMs)} {
		if err := ref.Ingest(ctx, e); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	if got := ref.Stats().AfterTemporal; got != 1 {
		t.Fatalf("reference after_temporal = %d, want 1 — test premise broken", got)
	}
}
