package stream

// Hot-standby replication (DESIGN.md §14). A Follower tails a leader's
// WAL over HTTP (GET /wal?from=seq, which the leader serves from
// persist.Store.Copy) and hands each pull to the standby's pipeline
// goroutine, which appends its events and install marks to the replica's
// WAL and applies them through the core, as it does live batches: the
// replica installs the leader's passes at the leader's marks. Promotion
// is a request the pipeline serves too. The follower acks a record, on
// its next pull, only once the replica's WAL holds it on disk.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"repro/internal/persist"
	"repro/internal/raslog"
)

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
	// PromoteAfter auto-promotes the replica once no HTTP response has
	// come from the leader for this long. A leader that answers — even
	// with an error, or with a WAL gap — is not silent. Zero means manual
	// promotion only (POST /promote or Follower.Promote).
	PromoteAfter time.Duration
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

	// next is the sequence the replica applies next, as the pipeline last
	// reported it, and acked the part below it that the replica's WAL
	// holds on disk: what the next pull acks.
	next, acked uint64
}

// leaderSilent is a sync failure with no HTTP response from the leader:
// the only kind that counts towards PromoteAfter.
type leaderSilent struct{ err error }

func (e leaderSilent) Error() string { return e.err.Error() }

// errWALGap: the leader answers 410 Gone, because its oldest segment
// starts past what the replica needs next.
var errWALGap = errors.New("stream: WAL gap")

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
	f := &Follower{
		svc:    svc,
		cfg:    cfg,
		client: &http.Client{Timeout: 30 * time.Second},
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	go f.run()
	return f, nil
}

// Promote stops the pull loop and turns the standby into a live leader
// (Service.Promote).
func (f *Follower) Promote() error {
	f.Stop()
	return f.svc.Promote()
}

// Stop ends the pull loop without promoting (shutdown of a replica that
// stays a replica).
func (f *Follower) Stop() {
	f.stopOnce.Do(func() { close(f.stop) })
	<-f.done
}

// run is the pull loop: poll the leader, pull everything durable, sleep,
// repeat, until the service is promoted or closed. Errors only back off;
// once no response has come from the leader for PromoteAfter the replica
// promotes itself. Sync errors are logged where a run of them starts and
// ends.
func (f *Follower) run() {
	defer close(f.done)
	if f.svc.do(func() { f.next = f.svc.core.next }) != nil {
		return // closed
	}
	f.acked = f.next
	lastHeard := time.Now()
	delay := f.cfg.Poll
	failing := 0
	for f.svc.standby.Load() {
		err := f.syncOnce()
		if errors.Is(err, ErrClosed) {
			return
		}
		var silent leaderSilent
		if !errors.As(err, &silent) {
			lastHeard = time.Now()
		}
		switch {
		case err == nil:
			f.svc.gap.Store(nil)
			if failing > 0 {
				slog.Info("stream: follower back in sync with the leader", "leader", f.cfg.Leader, "failed_polls", failing)
			}
			failing = 0
			delay = f.cfg.Poll
		default:
			if errors.Is(err, errWALGap) {
				msg := err.Error()
				f.svc.gap.Store(&msg)
				f.svc.m.standbyGaps.Inc()
			}
			if failing == 0 {
				slog.Warn("stream: follower cannot sync with the leader", "leader", f.cfg.Leader, "err", err)
			}
			failing++
			if quiet := time.Since(lastHeard); f.cfg.PromoteAfter > 0 && quiet > f.cfg.PromoteAfter {
				slog.Warn("stream: leader silent; promoting the standby", "leader", f.cfg.Leader, "silent", quiet.Round(time.Millisecond))
				f.svc.Promote()
				return
			}
			// Back off on errors, capped well inside PromoteAfter so the
			// silence clock is actually observed.
			delay = min(2*delay, 2*f.cfg.Poll)
		}
		select {
		case <-f.stop:
			return
		case <-time.After(delay):
		}
	}
}

// syncOnce pulls from the leader until the replica holds everything the
// leader had flushed when it answered, or a pull brings nothing new.
func (f *Follower) syncOnce() error {
	for {
		from := f.next
		lead, err := f.pull()
		if err != nil || f.next == from || f.next >= lead {
			return err
		}
	}
}

// pull fetches the leader's WAL from the replica's next sequence, with
// the ack of what the replica's WAL holds on disk, and hands the frames
// to the pipeline goroutine (replicate); once their commit ticket
// resolves, the next pull acks them. Returns the leader's flushed end.
func (f *Follower) pull() (uint64, error) {
	from := f.next
	resp, err := f.client.Get(fmt.Sprintf("%s/wal?from=%d&follower=%s&acked=%d",
		f.cfg.Leader, from, url.QueryEscape(f.cfg.ID), f.acked))
	if err != nil {
		return 0, leaderSilent{err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		err := fmt.Errorf("GET /wal: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
		if resp.StatusCode == http.StatusGone {
			err = fmt.Errorf("%w: %w", errWALGap, err)
		}
		return 0, err
	}
	lead, lerr := strconv.ParseUint(resp.Header.Get("X-Wal-Leader-Seq"), 10, 64)
	wm, werr := strconv.ParseInt(resp.Header.Get("X-Wal-Watermark-Ms"), 10, 64)
	if err := errors.Join(lerr, werr); err != nil {
		return 0, fmt.Errorf("GET /wal: %w", err)
	}
	f.svc.leaderSeq.Store(lead)
	f.svc.leaderWM.Store(wm)
	if from > lead {
		// A fresh or rolled-back state directory answered: applying it
		// would fork history.
		return lead, fmt.Errorf("leader behind replica (leader next %d, replica %d) — refusing to rewind", lead, from)
	}
	// A transfer cut short (or past twice the leader's cap) still yields
	// its whole frames: they go in, and the next pull resumes after them.
	frames, rerr := io.ReadAll(io.LimitReader(resp.Body, 2*maxWALPull))
	var t persist.Ticket
	if derr := f.svc.do(func() { f.next, t, err = f.svc.replicate(frames, from) }); derr != nil {
		return lead, derr
	}
	if werr := t.Wait(context.Background()); werr == nil {
		f.acked = f.next
	} else {
		err = errors.Join(err, werr)
	}
	if err = errors.Join(err, rerr); err != nil {
		err = fmt.Errorf("GET /wal?from=%d: %w", from, err)
	}
	return lead, err
}

// replicate decodes frames pulled from the leader, records `from` on, on
// the pipeline goroutine: each run of events is appended to the WAL at
// its sequence and applied, and each install mark after it installs the
// pass in flight. The marks at `from` the replica holds come again (a
// re-poll, or a newer segment restating them) and are skipped.
// Returns the replica's next sequence and the ticket of its last commit.
func (s *Service) replicate(frames []byte, from uint64) (uint64, persist.Ticket, error) {
	c := s.core
	switch {
	case !s.standby.Load():
		return c.next, persist.Ticket{}, errors.New("stream: promoted; no longer following")
	case from != c.next:
		return c.next, persist.Ticket{}, fmt.Errorf("stream: pull from seq %d, replica is at %d", from, c.next)
	}
	var run []raslog.Event
	var t persist.Ticket
	commit := func() error {
		defer func() { run = run[:0] }()
		if len(run) == 0 {
			return nil
		}
		if t = s.logEvents(run); t.Done() {
			// Resolved already: a failed append (or sync) is not applied;
			// the next pull fetches it again.
			if err := t.Wait(context.Background()); err != nil {
				return err
			}
		}
		s.m.ingested.Add(int64(len(run)))
		for i := range run {
			c.apply(run[i])
		}
		return nil
	}
	dup := c.marksAt()
	_, err := persist.DecodeFrames(bytes.NewReader(frames), from, func(_ uint64, e raslog.Event) error {
		run = append(run, e)
		return nil
	}, func(seq uint64) error {
		if seq == from && dup > 0 {
			dup--
			return nil
		}
		if err := commit(); err != nil {
			return err
		}
		c.applyMark(s.awaitPass)
		return nil
	})
	err = errors.Join(err, commit())
	return c.next, t, err
}

// Promote turns a standby into a live leader, as a request the pipeline
// goroutine serves: the pass in flight installs at the replicated
// position, a snapshot re-anchors durability there, and the reorder floor
// is reseated at the watermark. A Follower still feeding the service
// stops. Idempotent; ErrClosed if the service was closed as a standby.
func (s *Service) Promote() error {
	if err := s.do(s.promote); err != nil && s.standby.Load() {
		return err
	}
	return nil
}

func (s *Service) promote() {
	if !s.standby.Load() {
		return
	}
	// Counted before the flip: a Stats() racing it must not see a leader
	// with zero promotions, which would drop its standby block.
	s.m.promotions.Inc()
	c := s.core
	c.drain(s.awaitPass)
	s.writeSnapshot()
	c.reseat()
	s.standby.Store(false)
	s.m.standbyLagSeq.Set(0)
	s.m.standbyLagSeconds.Set(0)
	slog.Info("stream: standby promoted to leader", "seq", c.next)
}

// Standby reports whether the service is (still) a standby replica.
func (s *Service) Standby() bool { return s.standby.Load() }
