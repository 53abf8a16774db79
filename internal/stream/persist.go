package stream

// Durable-state wiring: snapshot capture/restore and WAL replay over
// internal/persist. The applying goroutine owns WAL appends, install
// marks and snapshot cuts (its position s.next is the consistency cut);
// recovery runs before the pipeline goroutine exists and drives the same
// apply and install functions.

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/persist"
	"repro/internal/predictor"
	"repro/internal/preprocess"
	"repro/internal/raslog"
)

// RecoveryInfo summarizes one startup recovery pass (Stats.Recovery).
type RecoveryInfo struct {
	// SnapshotSeq is the cut position of the snapshot restored; 0 when the
	// service started from WAL alone (or from nothing).
	SnapshotSeq uint64 `json:"snapshot_seq"`
	// Replayed is how many WAL events were re-run through the pipeline.
	Replayed uint64 `json:"replayed"`
	// ResumeSeq is where live sequencing continues: the sequence number
	// the next ingested event will receive.
	ResumeSeq  uint64 `json:"resume_seq"`
	DurationMs int64  `json:"duration_ms"`
	// IncrRestored reports that incremental sufficient-statistics state
	// was recovered from the snapshot, so the next retrain delta-applies
	// instead of cold-rebuilding.
	IncrRestored bool `json:"incr_restored,omitempty"`
}

// Recovery returns the startup recovery summary (zero without a StateDir).
func (s *Service) Recovery() RecoveryInfo { return s.recovery }

// recover opens the state directory, restores the newest valid snapshot,
// replays the WAL tail through apply, and positions the WAL for new
// appends. Called from New before the pipeline goroutine starts. Replay
// starts passes as the original did, outside the retrain limiter, and
// installs each at its install mark; s.store stays nil until replay ends,
// so replay writes no mark and cuts no snapshot (nothing prunes the
// segments it reads). A leader installs the pass still in flight at the
// end; a standby leaves it to the leader's mark.
func (s *Service) recover() error {
	t0 := time.Now()
	store, err := persist.Open(s.cfg.StateDir, persist.Options{
		RotateBytes: s.cfg.WALRotateBytes,
		SyncMaxWait: s.cfg.SyncMaxWait,
		SyncExec:    s.cfg.WALSyncExec,
	})
	if err != nil {
		return err
	}

	snap, err := store.LoadSnapshot()
	if err != nil {
		return fmt.Errorf("stream: load snapshot: %w", err)
	}
	var from uint64
	if snap != nil {
		if err := s.restoreSnapshot(snap); err != nil {
			return err
		}
		from = snap.Seq
		s.recovery.SnapshotSeq = snap.Seq
		s.startDue() // the catch-up the cut's install went on to
	}

	var replayed uint64
	skip := s.marks // the marks at the cut that the snapshot holds
	end, err := store.ReplayMarks(from, func(seq uint64, e raslog.Event) error {
		s.apply(e)
		replayed++
		return nil
	}, func(seq uint64) error {
		if seq == from && skip > 0 {
			skip--
		} else {
			s.applyMark()
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("stream: wal replay: %w", err)
	}
	if err := store.StartAppend(end); err != nil {
		return err
	}
	s.store = store
	if !s.cfg.Standby {
		s.drain() // a pass still in flight goes live here, with its mark
	}
	s.m.ingested.Add(int64(replayed))
	s.publish(int(replayed))
	s.m.replayed.Add(int64(replayed))
	s.recovery.Replayed = replayed
	s.recovery.ResumeSeq = end
	if replayed > 0 && !s.retraining.Load() {
		// Re-anchor durability at the recovered position so the next crash
		// does not replay this tail again.
		s.writeSnapshot()
	}
	s.recovery.DurationMs = time.Since(t0).Milliseconds()
	s.m.recoverySeconds.Set(time.Since(t0).Seconds())
	return nil
}

// restoreSnapshot loads one snapshot into the service. Counter semantics:
// Ingested resumes at Sequenced + LateDropped — events that sat in the
// reorder buffer at the cut were never durable, so a recovered service has
// no buffered events and the Stats identity (ingested == sequenced +
// late_dropped + buffered) holds from the first scrape.
func (s *Service) restoreSnapshot(snap *persist.Snapshot) error {
	rules, err := persist.DecodeRules(snap.Rules)
	if err != nil {
		return fmt.Errorf("stream: snapshot rules: %w", err)
	}
	s.repo.Restore(rules)
	pr := s.newPredictor(rules)
	if snap.Predictor != nil {
		pr.RestoreState(*snap.Predictor)
	} else {
		pr.SeedLastFatal(snap.LastFatalMs)
	}
	s.pr.Store(pr)
	s.m.rules.Set(float64(len(rules)))

	s.temporal.Restore(snap.Temporal)
	s.spatial.Restore(snap.Spatial)

	var recs []RetrainRecord
	if len(snap.Retrains) > 0 {
		if err := json.Unmarshal(snap.Retrains, &recs); err != nil {
			return fmt.Errorf("stream: snapshot retrains: %w", err)
		}
	}
	s.mu.Lock()
	// A fresh slice: the history is append-only (appendHistoryLocked).
	s.history = append([]preprocess.TaggedEvent(nil), snap.History...)
	s.retrains = recs
	s.mu.Unlock()
	s.warnMu.Lock()
	s.warnings = append(s.warnings[:0], snap.Warnings...)
	s.warnMu.Unlock()
	for _, rec := range recs {
		// Feed the training metrics back so train_* counters continue
		// across restarts instead of resetting.
		if rec.Err != "" {
			s.m.training.RecordError()
		} else {
			s.m.training.Record(rec.Retraining)
		}
	}

	if len(snap.Incr) > 0 {
		// Best effort: a version or configuration mismatch just means the
		// next retrain falls back to a full rebuild (the same thing a
		// snapshot without incremental state means).
		if err := s.incrState.Restore(snap.Incr); err == nil {
			s.recovery.IncrRestored = true
		}
	}

	s.start, s.wm = snap.StreamStartMs, snap.WatermarkMs // published by recover
	s.m.nextRetrain.Set(float64(snap.NextRetrainMs))
	c := snap.Counters
	s.m.ingested.Add(c.Sequenced + c.LateDropped)
	s.m.sequenced.Add(c.Sequenced)
	s.m.lateDropped.Add(c.LateDropped)
	s.m.reorderOverflow.Add(c.Overflow)
	s.m.afterTemporal.Add(c.AfterTemporal)
	s.m.processed.Add(c.Processed)
	s.m.fatals.Add(c.Fatals)
	s.m.warningsTotal.Add(c.Warnings)
	s.next, s.markSeq, s.marks = snap.Seq, snap.Seq, snap.Marks
	return nil
}

// buildSnapshot captures the service state at the cut s.next. Caller must
// be the applying goroutine (or shutdown / promotion, when none runs)
// with no pass in flight: every counter below moves only on that
// goroutine, so all of them are exact at the cut, and the trained state
// (rules, incremental statistics, schedule) is the installed pass's.
func (s *Service) buildSnapshot() (*persist.Snapshot, error) {
	pr := s.pr.Load()
	rules, err := persist.EncodeRules(pr.Rules())
	if err != nil {
		return nil, err
	}
	st := pr.ExportState()
	snap := &persist.Snapshot{
		Seq:           s.next,
		Marks:         s.marksAt(),
		StreamStartMs: s.start,
		WatermarkMs:   s.wm,
		LastFatalMs:   pr.LastFatal(),
		Counters: persist.Counters{
			Sequenced:     int64(s.next),
			LateDropped:   s.m.lateDropped.Value(),
			Overflow:      s.m.reorderOverflow.Value(),
			AfterTemporal: s.m.afterTemporal.Value(),
			Processed:     s.m.processed.Value(),
			Fatals:        s.m.fatals.Value(),
			Warnings:      s.m.warningsTotal.Value(),
		},
		Rules:     rules,
		Predictor: &st,
		Temporal:  s.temporal.Export(),
		Spatial:   s.spatial.Export(),
	}
	s.mu.Lock()
	snap.NextRetrainMs = s.nextRetrainMs()
	snap.History = append([]preprocess.TaggedEvent(nil), s.history...)
	recs := append([]RetrainRecord(nil), s.retrains...)
	s.mu.Unlock()
	s.warnMu.Lock()
	snap.Warnings = append([]predictor.Warning(nil), s.warnings...)
	s.warnMu.Unlock()
	if len(recs) > 0 {
		raw, err := json.Marshal(recs)
		if err != nil {
			return nil, err
		}
		snap.Retrains = raw
	}
	if snap.Incr, err = s.incrState.Export(); err != nil {
		return nil, err
	}
	return snap, nil
}

// cut snapshots the state at s.next, but only builds the snapshot:
// encoding and writing — tens of milliseconds at a few MB of state —
// happen on a goroutine of their own, so the next batch's ack does not
// wait behind them. With a write still in flight it cuts nothing: the
// previous snapshot plus a slightly longer WAL tail recovers the same
// state, as they do when a write fails (counted, never fatal). The
// applying goroutine cuts only where no pass is in flight: at an install,
// before its catch-up, and with nothing applying (writeSnapshot).
func (s *Service) cut() {
	select {
	case s.snapSlot <- struct{}{}:
	default:
		return
	}
	t0 := time.Now()
	snap, err := s.buildSnapshot()
	if err != nil {
		s.m.snapshotErrors.Inc()
		<-s.snapSlot
		return
	}
	go func() {
		defer func() { <-s.snapSlot }()
		n, err := s.store.WriteSnapshot(snap)
		if err != nil {
			s.m.snapshotErrors.Inc()
		} else if n > 0 { // 0 bytes: store already abandoned (crash simulation)
			s.m.snapshots.Inc()
			s.m.snapshotBytes.Add(n)
			s.m.snapshotLatency.Since(t0)
		}
	}()
}

// writeSnapshot waits out a write in flight, then snapshots the current
// state and waits for that write too. For the moments no event is being
// applied: the end of recovery, promotion, shutdown.
func (s *Service) writeSnapshot() {
	s.snapSlot <- struct{}{}
	<-s.snapSlot
	s.cut()
	s.snapSlot <- struct{}{}
	<-s.snapSlot
}

// crash simulates abrupt process death for tests: the store discards its
// write buffer and goes dead (every later durable write is a no-op), then
// the pipeline is torn down through the normal path. What survives on
// disk is exactly what had reached the OS at the moment of the kill.
func (s *Service) crash() {
	s.store.Abandon()
	s.Close()
}
