package stream

// The event state machine (DESIGN.md §16): everything a service computes
// from its released stream. One goroutine drives it — New during
// recovery, the pipeline goroutine after — so it takes no lock, and it
// starts no goroutine and touches no channel, file or clock
// (TestCoreIsPure): pass starts and install marks leave through two
// function values, finished passes come back through install.

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"repro/internal/engine"
	"repro/internal/learner"
	"repro/internal/learner/incr"
	"repro/internal/meta"
	"repro/internal/persist"
	"repro/internal/predictor"
	"repro/internal/preprocess"
	"repro/internal/raslog"
)

// ErrNoEvents is returned by TrainNow before the first event has been
// applied: there is no history to train on and no stream clock to
// schedule against.
var ErrNoEvents = errors.New("stream: no events observed yet; nothing to train on")

var errTraining = errors.New("stream: retraining already in flight")

// pass is one training pass on its way to its install.
type pass struct {
	rec  RetrainRecord
	pr   *predictor.Predictor // over the pass's rules; nil when it failed
	now  bool                 // TrainNow's
	prev int64                // the schedule the pass's start replaced
}

// core is the per-event state machine and all of its state.
type core struct {
	cfg Config
	// repo and incrState belong to the pass in flight while retraining is
	// set, and to the core otherwise.
	repo      *meta.Repository
	incrState *incr.State

	buf      *reorderBuf
	temporal *preprocess.TemporalStage
	spatial  *preprocess.SpatialStage
	zer      *preprocess.Categorizer
	pr       *predictor.Predictor

	// The stream clock: start is the first event's time (-1 before it),
	// wm the newest applied time, nextRetrain the schedule (-1 when no
	// training is due ever again).
	next        uint64 // sequence number the next applied event takes
	start, wm   int64
	nextRetrain int64
	// marks counts the install marks at position markSeq the state holds:
	// a snapshot records them, and a follower skips them when shipped again.
	markSeq uint64
	marks   int
	// retraining is set from a pass's start to its install. n holds the
	// tallies a snapshot carries (n.Sequenced unused: that is next).
	retraining bool
	n          persist.Counters

	// history, retrains and warnings are append-only (a trim reslices, a
	// reset starts a new slice), so a view of them stays intact.
	history  []preprocess.TaggedEvent
	retrains []RetrainRecord
	warnings []predictor.Warning // the last WarningsKeep

	// The exits: train runs a pass over view, the window [from, p.rec.At),
	// in the background; mark logs an install mark at seq, and live asks
	// for a snapshot cut there, before anything trains again.
	train func(p pass, view []preprocess.TaggedEvent, from int64)
	mark  func(seq uint64, live bool)
}

// newCore returns the state machine of a service with no events yet.
func newCore(cfg Config, train func(pass, []preprocess.TaggedEvent, int64), mark func(uint64, bool)) *core {
	c := &core{
		cfg:       cfg,
		repo:      meta.NewRepository(),
		incrState: incr.New(meta.IncrConfig(cfg.Meta, cfg.Params)),
		temporal:  preprocess.NewTemporalStage(cfg.Filter),
		spatial:   preprocess.NewSpatialStage(cfg.Filter),
		zer:       preprocess.NewCategorizer(preprocess.NewCatalog()),
		start:     -1,
		train:     train,
		mark:      mark,
	}
	c.pr = c.newPredictor(nil)
	c.reseat()
	return c
}

// newPredictor builds the service's predictor over rules: one open
// warning across the expert families, spaced at the base window even
// under a wider W_P, as the offline engine counts.
func (c *core) newPredictor(rules []learner.Rule) *predictor.Predictor {
	pr := predictor.New(rules, c.cfg.Params)
	pr.GlobalDedup = true
	engine.ClampDedup(pr, c.cfg.Params.WindowSec)
	return pr
}

// reseat starts an empty reorder buffer with its floor at the watermark,
// the last applied time: after recovery and at promotion.
func (c *core) reseat() {
	floor := int64(-1 << 62)
	if c.start >= 0 {
		floor = c.wm
	}
	c.buf = newReorderBuf(c.cfg.ReorderLimit, c.cfg.ReorderWindow.Milliseconds(), floor)
}

// sequence pushes a live batch into the reorder buffer and appends to
// dst, in order, what that releases (drain: everything). Its tallies
// land before the releases are applied, so a later cut holds them exact.
func (c *core) sequence(dst, batch []raslog.Event, drain bool) []raslog.Event {
	for i := range batch {
		c.buf.push(batch[i])
	}
	dst, late, overflow := c.buf.release(dst, drain)
	c.n.LateDropped += late
	c.n.Overflow += overflow
	return dst
}

// apply is the per-event state machine, and the only one: live batches,
// WAL replay and replicated runs all go through it.
func (c *core) apply(e raslog.Event) {
	c.next++
	if c.start < 0 {
		c.start = e.Time
		c.nextRetrain = e.Time + c.cfg.InitialTrain.Milliseconds()
	}
	if e.Time > c.wm {
		c.wm = e.Time
	}
	if c.temporal.Observe(e) {
		c.n.AfterTemporal++
		if c.spatial.Observe(e) {
			class, fatal := c.zer.Categorize(e)
			c.process(preprocess.TaggedEvent{Event: e, Class: class, Fatal: fatal})
		}
	}
	c.startDue()
}

// process feeds one fully-filtered event to the live predictor and the
// history, and keeps the warnings it raises.
func (c *core) process(te preprocess.TaggedEvent) {
	c.n.Processed++
	warns := c.pr.Observe(te)
	if te.Fatal {
		c.n.Fatals++
	}
	c.appendHistory(te)
	if len(warns) > 0 {
		c.n.Warnings += int64(len(warns))
		c.warnings = append(c.warnings, warns...)
		if over := len(c.warnings) - c.cfg.WarningsKeep; over > 0 {
			c.warnings = c.warnings[over:]
		}
	}
}

// appendHistory adds te to the history, bounded to what future
// retrainings can use: nothing once a Static service has trained, the
// sliding window (plus the untrained remainder) under Sliding. Whole
// keeps everything.
func (c *core) appendHistory(te preprocess.TaggedEvent) {
	if c.cfg.Policy == engine.Static && len(c.retrains) > 0 {
		return
	}
	c.history = append(c.history, te)
	if c.cfg.Policy != engine.Sliding || len(c.history)%1024 != 0 {
		return
	}
	cutoff := c.nextRetrain - c.cfg.TrainWindow.Milliseconds()
	i := 0
	for i < len(c.history) && c.history[i].Time < cutoff {
		i++
	}
	c.history = c.history[i:]
}

// startDue starts the pass the schedule owes, once the stream clock has
// crossed the boundary, unless one is in flight.
func (c *core) startDue() {
	if c.nextRetrain > 0 && c.wm >= c.nextRetrain && !c.retraining {
		c.startPass(c.nextRetrain, pass{})
	}
}

// trainNow starts TrainNow's pass, up to the watermark. It claims the
// schedule, so the install's catch-up does not re-fire on the same data.
func (c *core) trainNow() error {
	switch {
	case c.start < 0:
		return ErrNoEvents
	case c.retraining:
		return errTraining
	}
	c.startPass(c.wm+1, pass{now: true})
	return nil
}

// startPass sets the retraining flag, advances the schedule a cadence
// past `at` (a static service trains once) and hands the pass over the
// window ending at `at` to train. The install clears the flag.
func (c *core) startPass(at int64, p pass) {
	c.retraining = true
	p.rec.At, p.prev = at, c.nextRetrain
	next := int64(-1)
	if c.cfg.Policy != engine.Static {
		next = max(p.prev, at+c.cfg.RetrainEvery.Milliseconds())
	}
	c.nextRetrain = next
	view, from := c.trainingView(at)
	c.train(p, view, from)
}

// trainingView returns the policy's training slice ending at the
// stream-time boundary `at` (ms), and its window start. The slice is a
// view of the append-only history, capped at its len, so neither side
// can write into the other's elements.
func (c *core) trainingView(at int64) ([]preprocess.TaggedEvent, int64) {
	var from int64 = -1 << 62
	if c.cfg.Policy == engine.Sliding {
		from = at - c.cfg.TrainWindow.Milliseconds()
	}
	search := func(t int64) int {
		return sort.Search(len(c.history), func(i int) bool { return c.history[i].Time >= t })
	}
	lo, hi := search(from), search(at)
	return c.history[lo:hi:hi], from
}

// install puts a finished pass into effect at c.next: its predictor
// takes over the old one's last fatal and dedup marks
// (TestSwapPredictorKeepsWarnSpacing) and goes live, with an install
// mark and a cut. A failed pass is only recorded, a TrainNow's handing
// its schedule claim back. Then the pass already due starts. Reports
// whether p went live.
func (c *core) install(p pass) bool {
	ok := p.pr != nil
	if ok {
		p.pr.SeedLastFatal(c.pr.LastFatal())
		p.pr.SeedLastWarn(c.pr.LastWarnTimes())
		c.pr = p.pr
		p.rec.InstalledSeq = c.next
	} else if p.now {
		c.nextRetrain = p.prev
	}
	c.retrains = append(c.retrains, p.rec)
	if ok {
		if c.cfg.Policy == engine.Static {
			c.history = nil // a static service never trains again
		}
		c.logMark(true)
	}
	c.retraining = false
	c.startDue()
	return ok
}

// logMark counts an install mark at c.next and hands it to the mark exit.
func (c *core) logMark(live bool) {
	if c.markSeq != c.next {
		c.markSeq, c.marks = c.next, 0
	}
	c.marks++
	c.mark(c.next, live)
}

// marksAt counts the marks at c.next the state holds.
func (c *core) marksAt() int {
	if c.markSeq != c.next {
		return 0
	}
	return c.marks
}

// applyMark installs, at a mark read from a log, the pass in flight
// (recording failed ones ahead of it), taking finished passes from next.
// With nothing in flight (a TrainNow's mark) it only counts the mark.
func (c *core) applyMark(next func() pass) {
	for c.retraining {
		if c.install(next()) {
			return
		}
	}
	c.logMark(false)
}

// drain installs every pass in flight at c.next, taking them from next.
func (c *core) drain(next func() pass) {
	for c.retraining {
		c.install(next())
	}
}

// buildSnapshot captures the state at the cut c.next, with no pass in
// flight. The append-only history and warnings are shared, not copied.
func (c *core) buildSnapshot() (*persist.Snapshot, error) {
	rules, err := persist.EncodeRules(c.pr.Rules())
	if err != nil {
		return nil, err
	}
	st := c.pr.ExportState()
	snap := &persist.Snapshot{
		Seq:           c.next,
		Marks:         c.marksAt(),
		StreamStartMs: c.start,
		WatermarkMs:   c.wm,
		NextRetrainMs: c.nextRetrain,
		LastFatalMs:   c.pr.LastFatal(),
		Counters:      c.n,
		Rules:         rules,
		Predictor:     &st,
		Temporal:      c.temporal.Export(),
		Spatial:       c.spatial.Export(),
		History:       c.history[:len(c.history):len(c.history)],
		Warnings:      c.warnings[:len(c.warnings):len(c.warnings)],
	}
	snap.Counters.Sequenced = int64(c.next)
	if len(c.retrains) > 0 {
		if snap.Retrains, err = json.Marshal(c.retrains); err != nil {
			return nil, err
		}
	}
	if snap.Incr, err = c.incrState.Export(); err != nil {
		return nil, err
	}
	return snap, nil
}

// restoreSnapshot loads a snapshot into a core with no events yet. It
// reports whether the incremental state came back too: best effort, as
// without it the next retrain only rebuilds from scratch.
func (c *core) restoreSnapshot(snap *persist.Snapshot) (incrRestored bool, err error) {
	rules, err := persist.DecodeRules(snap.Rules)
	if err != nil {
		return false, fmt.Errorf("stream: snapshot rules: %w", err)
	}
	var recs []RetrainRecord
	if len(snap.Retrains) > 0 {
		if err := json.Unmarshal(snap.Retrains, &recs); err != nil {
			return false, fmt.Errorf("stream: snapshot retrains: %w", err)
		}
	}
	c.repo.Restore(rules)
	c.pr = c.newPredictor(rules)
	if snap.Predictor != nil {
		c.pr.RestoreState(*snap.Predictor)
	} else {
		c.pr.SeedLastFatal(snap.LastFatalMs)
	}
	c.temporal.Restore(snap.Temporal)
	c.spatial.Restore(snap.Spatial)
	c.history, c.retrains, c.warnings = snap.History, recs, snap.Warnings
	if len(snap.Incr) > 0 {
		incrRestored = c.incrState.Restore(snap.Incr) == nil
	}
	c.start, c.wm, c.nextRetrain = snap.StreamStartMs, snap.WatermarkMs, snap.NextRetrainMs
	c.n, c.next, c.markSeq, c.marks = snap.Counters, snap.Seq, snap.Seq, snap.Marks
	return incrRestored, nil
}
