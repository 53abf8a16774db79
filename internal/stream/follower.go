package stream

// Hot-standby replication (DESIGN.md §14). A Follower tails a leader's
// WAL over HTTP (GET /wal/segments for the chain, GET
// /wal/segment/{name}?from=seq for frames), appends every record and
// install mark to the replica's own WAL, and runs the events through
// apply, as live intake and replay do: the replica starts the leader's
// passes at the same positions and installs them at the leader's marks.
// Promotion is "stop pulling, install the pass in flight, start the
// pipeline": the promoted service equals a single node fed the same
// stream. A pulled batch is committed to the replica's WAL before it is
// applied, so a replica crash recovers a clean prefix and re-requests
// from its durable end.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/persist"
	"repro/internal/raslog"
)

// segmentsResponse is the leader's GET /wal/segments body — shared by
// the serving handler (http.go) and the follower's poll.
type segmentsResponse struct {
	Role        string                `json:"role"`
	NextSeq     uint64                `json:"next_seq"`
	WatermarkMs int64                 `json:"watermark_ms"`
	Segments    []persist.SegmentInfo `json:"segments"`
}

// FollowerConfig parameterizes a pull loop over one leader.
type FollowerConfig struct {
	// Leader is the leader daemon's base URL (e.g. http://host:8080).
	Leader string
	// ID names this follower to the leader's retention guard: segments
	// the follower has not acked are kept from pruning under this key.
	// Empty means "standby". Keep it stable across restarts so a replica
	// that crashes and resumes pins the same retention entry.
	ID string
	// Poll is the idle poll interval against the leader. Zero means 250ms.
	Poll time.Duration
	// PromoteAfter auto-promotes the replica once the leader has been
	// unreachable this long. Zero means manual promotion only (POST
	// /promote or Follower.Promote).
	PromoteAfter time.Duration
	// Client overrides the HTTP client (tests). Nil means a client with a
	// 30s request timeout.
	Client *http.Client
	// Logf receives operational messages (leader unreachable, promotion).
	// Nil discards them.
	Logf func(format string, args ...any)
}

// Follower drives one standby service from one leader. Create with
// NewFollower over a Service started with Config.Standby; the pull loop
// runs until Promote (or auto-promotion) stops it.
type Follower struct {
	svc    *Service
	cfg    FollowerConfig
	client *http.Client

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}

	batch []raslog.Event // decode scratch, reused across pulls
}

// NewFollower starts the pull loop for svc against cfg.Leader. svc must
// have been created with Config.Standby (and therefore a StateDir).
func NewFollower(svc *Service, cfg FollowerConfig) (*Follower, error) {
	if !svc.standby.Load() {
		return nil, errors.New("stream: NewFollower needs a service started with Config.Standby")
	}
	if cfg.Leader == "" {
		return nil, errors.New("stream: FollowerConfig.Leader is required")
	}
	if _, err := url.Parse(cfg.Leader); err != nil {
		return nil, fmt.Errorf("stream: leader URL: %w", err)
	}
	if cfg.ID == "" {
		cfg.ID = "standby"
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 250 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	f := &Follower{
		svc:    svc,
		cfg:    cfg,
		client: cfg.Client,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if f.client == nil {
		f.client = &http.Client{Timeout: 30 * time.Second}
	}
	// POST /promote on the standby's own mux routes through the hook so
	// the pull loop is stopped before the state flips.
	hook := f.Promote
	svc.promoteHook.Store(&hook)
	go f.run()
	return f, nil
}

// Promote stops the pull loop, waits for any in-flight apply to land,
// and turns the standby into a live leader. Idempotent; safe to call
// concurrently with auto-promotion.
func (f *Follower) Promote() error {
	f.stopOnce.Do(func() { close(f.stop) })
	<-f.done
	if f.svc.promoteStandalone() || !f.svc.standby.Load() {
		return nil
	}
	return ErrClosed
}

// Stop ends the pull loop without promoting (shutdown of a replica that
// stays a replica).
func (f *Follower) Stop() {
	f.stopOnce.Do(func() { close(f.stop) })
	<-f.done
}

// run is the pull loop: poll the leader, pull everything durable, sleep,
// repeat. Transient leader errors only back off (the whole point of a
// standby is to ride out the leader's restart window); once the leader
// has been unreachable past PromoteAfter the replica promotes itself.
func (f *Follower) run() {
	defer close(f.done)
	lastOK := time.Now()
	delay := f.cfg.Poll
	for {
		err := f.syncOnce()
		switch {
		case err == nil:
			lastOK = time.Now()
			delay = f.cfg.Poll
		default:
			f.cfg.Logf("follower: leader %s: %v", f.cfg.Leader, err)
			if f.cfg.PromoteAfter > 0 && time.Since(lastOK) > f.cfg.PromoteAfter {
				f.cfg.Logf("follower: leader silent for %s — promoting", time.Since(lastOK).Round(time.Millisecond))
				f.svc.promoteStandalone()
				return
			}
			// Back off on errors, capped well inside PromoteAfter so the
			// unreachability clock is actually observed.
			delay *= 2
			if max := 2 * f.cfg.Poll; delay > max {
				delay = max
			}
		}
		select {
		case <-f.stop:
			return
		case <-time.After(delay):
		}
	}
}

// syncOnce polls the leader's segment listing and pulls every durable
// record the replica does not yet have.
func (f *Follower) syncOnce() error {
	s := f.svc
	list, err := f.listSegments()
	if err != nil {
		return err
	}
	atomic.StoreUint64(&s.leaderSeq, list.NextSeq)
	if s.next > list.NextSeq {
		// The replica is ahead of the "leader": a fresh/rolled-back state
		// directory answered our poll. Applying it would fork history.
		return fmt.Errorf("leader behind replica (leader next %d, replica %d) — refusing to rewind", list.NextSeq, s.next)
	}
	for s.next < list.NextSeq {
		// The pull source is the newest segment whose records cover s.next:
		// a recovered leader may open a new segment at the torn tail of an
		// old one, and stop drops what the newer one supersedes, as Replay
		// does.
		src := -1
		stop := list.NextSeq
		for i, seg := range list.Segments {
			if seg.FirstSeq <= s.next {
				src = i
			} else if src >= 0 {
				stop = seg.FirstSeq
				break
			}
		}
		if src < 0 {
			return fmt.Errorf("WAL gap: replica needs seq %d, leader's oldest segment starts later", s.next)
		}
		advanced, err := f.pullSegment(list.Segments[src].Name, s.next, stop)
		if err != nil {
			return err
		}
		if !advanced {
			// Caught up to this segment's durable end (flushed-but-unrotated
			// tail): nothing more to read until the leader appends.
			break
		}
	}
	f.publishLag(list)
	return nil
}

// publishLag updates the standby lag gauges from the latest listing.
func (f *Follower) publishLag(list *segmentsResponse) {
	s := f.svc
	lag := uint64(0)
	if list.NextSeq > s.next {
		lag = list.NextSeq - s.next
	}
	s.m.standbyLagSeq.Set(float64(lag))
	secs := 0.0
	if wm := s.watermarkMs(); wm >= 0 && list.WatermarkMs > wm {
		secs = float64(list.WatermarkMs-wm) / 1000
	}
	s.m.standbyLagSeconds.Set(secs)
}

// listSegments polls GET /wal/segments, registering this follower's ack
// so the leader's retention guard keeps everything from s.next on.
func (f *Follower) listSegments() (*segmentsResponse, error) {
	u := fmt.Sprintf("%s/wal/segments?follower=%s&acked=%d",
		f.cfg.Leader, url.QueryEscape(f.cfg.ID), f.svc.next)
	resp, err := f.client.Get(u)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return nil, fmt.Errorf("GET /wal/segments: HTTP %d: %s", resp.StatusCode, b)
	}
	var list segmentsResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return nil, fmt.Errorf("GET /wal/segments: %w", err)
	}
	return &list, nil
}

// pullSegment fetches records [from, stop) of one leader segment and
// applies them. Returns whether the replica advanced. Any non-200 is an
// error; run backs off on its own schedule before the next attempt.
func (f *Follower) pullSegment(name string, from, stop uint64) (bool, error) {
	s := f.svc
	u := fmt.Sprintf("%s/wal/segment/%s?from=%d", f.cfg.Leader, url.PathEscape(name), from)
	resp, err := f.client.Get(u)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return false, fmt.Errorf("GET /wal/segment/%s: HTTP %d: %s", name, resp.StatusCode, b)
	}

	// The marks at `from` the replica holds come again (a re-poll, or a
	// newer segment restating them): they are skipped. At a new mark, the
	// events before it go in first.
	dup := s.marksAt()
	f.batch = f.batch[:0]
	next, derr := persist.DecodeFrames(resp.Body, from, func(seq uint64, e raslog.Event) error {
		if seq >= stop {
			return errPullDone
		}
		f.batch = append(f.batch, e)
		return nil
	}, func(seq uint64) error {
		if seq == from && dup > 0 {
			dup--
			return nil
		}
		run := f.batch
		f.batch = f.batch[:0]
		if err := s.applyReplicated(run); err != nil {
			return err
		}
		s.applyMark()
		return nil
	})
	if derr == errPullDone {
		derr = nil
		next = stop
	}
	// Apply whatever decoded cleanly even when the tail of the transfer
	// died: the prefix is valid, and the next pull resumes after it.
	if aerr := s.applyReplicated(f.batch); aerr != nil {
		return false, aerr
	}
	if derr != nil {
		return next > from, fmt.Errorf("GET /wal/segment/%s: %w", name, derr)
	}
	return next > from, nil
}

// errPullDone stops a pull at the segment's supersession boundary.
var errPullDone = errors.New("stream: pull reached boundary")

// applyReplicated commits pulled events: WAL first (one fsync), then
// apply, event by event. Runs on the follower goroutine only.
func (s *Service) applyReplicated(events []raslog.Event) error {
	if len(events) == 0 {
		return nil
	}
	_, ticket, err := s.store.AppendBatch(s.next, events)
	if err != nil {
		return err
	}
	// The replica's ack to the leader (?acked= on the next poll) promises
	// it can replay these records after a crash, so wait out the commit
	// pipeline's fsync before applying — the follower has no client to
	// overlap with, and the poll cadence dwarfs one disk flush.
	if err := ticket.Wait(context.Background()); err != nil {
		return err
	}
	for i := range events {
		s.apply(events[i])
	}
	s.m.ingested.Add(int64(len(events)))
	s.publish(len(events))
	return nil
}

// promoteStandalone flips a standby into a live leader: the pass in
// flight, if any, installs at the replicated position with its mark, a
// snapshot re-anchors durability there, and the pipeline goroutine
// starts at that position, as after recovery. Returns false if the
// service is closed or already a leader; closeMu serializes promoters,
// so exactly one call wins the flip.
func (s *Service) promoteStandalone() bool {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.closed || !s.standby.Load() {
		return false
	}
	// closeMu serializes promoters, so the load/store pair admits exactly
	// one winner. The counter is bumped before the role flips: a Stats()
	// racing the promotion must never see a leader with zero promotions,
	// or the standby block (and the failover history it carries) would
	// vanish for that read.
	s.m.promotions.Inc()
	s.standby.Store(false)
	s.drain()
	s.writeSnapshot()
	s.pipelineOn = true
	go s.pipeline() // owns the apply-side state from here on
	s.m.standbyLagSeq.Set(0)
	s.m.standbyLagSeconds.Set(0)
	return true
}

// Promote turns a standby service into a live leader. When a Follower
// drives the service its pull loop is stopped first (the registered
// hook); either way the call is idempotent — promoting a service that is
// already a leader returns nil. ErrClosed if the service was closed.
func (s *Service) Promote() error {
	if fn := s.promoteHook.Load(); fn != nil {
		return (*fn)()
	}
	if s.promoteStandalone() || !s.standby.Load() {
		return nil
	}
	return ErrClosed
}

// Standby reports whether the service is (still) a standby replica.
func (s *Service) Standby() bool { return s.standby.Load() }
