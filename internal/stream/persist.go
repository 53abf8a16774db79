package stream

// Durable-state wiring: startup recovery and snapshot cuts over
// internal/persist. The goroutine driving the core owns WAL appends,
// install marks and snapshot cuts (the core's position is the
// consistency cut); recovery runs in New, before the pipeline goroutine
// exists, and drives the same core.

import (
	"fmt"
	"log/slog"
	"time"

	"repro/internal/persist"
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
// replays the WAL tail through the core, and positions the WAL for new
// appends. Replay starts passes as the original did, outside the retrain
// limiter, and installs each at its mark; s.store stays nil until replay
// ends, so replay writes no mark and cuts no snapshot. A leader installs
// the pass still in flight at the end; a standby leaves it to the
// leader's mark.
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

	c := s.core
	snap, err := store.LoadSnapshot()
	if err != nil {
		return fmt.Errorf("stream: load snapshot: %w", err)
	}
	var from uint64
	if snap != nil {
		if s.recovery.IncrRestored, err = c.restoreSnapshot(snap); err != nil {
			return err
		}
		// Events that sat in the reorder buffer at the cut were never
		// durable, so a recovered service has none buffered: Ingested
		// resumes at Sequenced + LateDropped.
		s.m.ingested.Add(snap.Counters.Sequenced + snap.Counters.LateDropped)
		from = snap.Seq
		s.recovery.SnapshotSeq = snap.Seq
		c.startDue() // the catch-up the cut's install went on to
	}

	var replayed uint64
	skip := c.marks // the marks at the cut that the snapshot holds
	end, err := store.ReplayMarks(from, func(seq uint64, e raslog.Event) error {
		c.apply(e)
		replayed++
		return nil
	}, func(seq uint64) error {
		if seq == from && skip > 0 {
			skip--
		} else {
			c.applyMark(s.awaitPass)
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
		c.drain(s.awaitPass) // a pass still in flight goes live here, with its mark
	}
	s.m.ingested.Add(int64(replayed))
	s.m.replayed.Add(int64(replayed))
	s.publish()
	s.recovery.Replayed = replayed
	s.recovery.ResumeSeq = end
	if replayed > 0 {
		// Re-anchor durability at the recovered position so the next crash
		// does not replay this tail again.
		s.writeSnapshot()
	}
	s.recovery.DurationMs = time.Since(t0).Milliseconds()
	s.m.recoverySeconds.Set(time.Since(t0).Seconds())
	return nil
}

// cut snapshots the core at its position, but only builds the snapshot:
// encoding and writing — tens of milliseconds at a few MB of state —
// happen on a goroutine of their own, so the next batch's ack does not
// wait behind them. With a write still in flight it cuts nothing
// (counted in stream_snapshot_skipped_total): the previous snapshot plus
// a longer WAL tail recovers the same state, as after a failed write
// (counted and logged, never fatal). Runs on the goroutine driving the
// core, with no pass in flight.
func (s *Service) cut() {
	select {
	case s.snapSlot <- struct{}{}:
	default:
		s.m.snapshotSkipped.Inc()
		return
	}
	t0, seq := time.Now(), s.core.next
	snap, err := s.core.buildSnapshot()
	go func() {
		defer func() { <-s.snapSlot }()
		var n int64
		if err == nil {
			n, err = s.store.WriteSnapshot(snap)
		}
		switch {
		case err != nil:
			s.m.snapshotErrors.Inc()
			slog.Error("stream: snapshot failed; the previous one stays authoritative", "seq", seq, "err", err)
		case n > 0: // 0 bytes: store already abandoned (crash simulation)
			s.m.snapshots.Inc()
			s.m.snapshotBytes.Add(n)
			s.m.snapshotLatency.Since(t0)
		}
	}()
}

// writeSnapshot waits out a write in flight, then, with no pass in
// flight, snapshots the current state and waits for that write too. For
// the moments no event is being applied: the end of recovery, promotion,
// the end of intake. Either way no write is left running behind it.
func (s *Service) writeSnapshot() {
	s.snapSlot <- struct{}{}
	<-s.snapSlot
	if !s.core.retraining {
		s.cut()
		s.snapSlot <- struct{}{}
		<-s.snapSlot
	}
}

// crash simulates abrupt process death for tests: the store discards its
// write buffer and goes dead (every later durable write is a no-op), then
// the pipeline is torn down through the normal path. What survives on
// disk is exactly what had reached the OS at the moment of the kill.
func (s *Service) crash() {
	s.store.Abandon()
	s.Close()
}
