// Package incr maintains the base learners' sufficient statistics
// incrementally over a sliding training window, so a retrain becomes a
// delta-apply plus reviser pass instead of a from-scratch mine.
//
// One State tracks, for the window [from, to):
//
//   - Apriori itemset counts: every subset (up to the body cap) of every
//     event-set transaction, with per-target splits — served to
//     assoc.MineCounts through learner.ItemsetCounts. Transactions are
//     themselves maintained by a learner.EventSetCache, whose Advance
//     delta (expired / boundary-changed / new sets) drives the count
//     updates.
//   - Statistical failure-run counters: per fatal event its run length
//     and followed flag, folded into occurrence/success arrays — served
//     through learner.FailureRunCounts.
//   - Fatal inter-arrival gaps (the MLE fit's sufficient statistic) —
//     served through Prepared.GapsFor.
//
// A learner it does not serve (a miner configured differently from the
// state) keeps its batch scans. The State also holds the reviser's replay
// of the previous pass (reviser.Carry) and installs it on each view, so
// the reviser rescores only the slide too; Advance never touches it, and
// it is not persisted.
//
// Every statistic is a sum of bounded-lookback per-event contributions,
// so Advance touches only the window boundaries and the appended tail:
// expired contributions are subtracted exactly as stored, start-boundary
// contributions (anchor within W_P of the new start) are recomputed, and
// end-provisional flags (a fatal's "followed") flip as successors
// arrive. The result is byte-equivalent to a batch rebuild over the same
// window — identical integer counts divide into identical float64
// statistics — pinned by the equivalence tests in this package.
//
// Concurrency: Advance, Export and Restore serialize on an internal
// mutex. The serving interfaces are read-only, provided no Advance runs
// while the learners do — engine.TrainWindow, the one training call, sequences
// Advance strictly before them. The learners' rules share no memory with
// the State, so the reviser may run during the next Advance (engine.Run
// overlaps them).
package incr

import (
	"sync"

	"repro/internal/learner"
	"repro/internal/reviser"
)

// maxClassBits mirrors the assoc packing: itemsets of up to four classes
// pack collision-free into a uint64 key.
const maxClassBits = 16

// DefaultVerifyEvery is the stat-drift audit cadence when Config leaves
// VerifyEvery zero: every Nth Advance cross-checks cheap invariants
// (event/fatal counts, fatal-time checksum) against the input slice and
// falls back to a full rebuild on mismatch.
const DefaultVerifyEvery = 64

// Config pins the learner shape one State serves. The values must match
// the ensemble's miners exactly (see meta.IncrConfig, which derives them
// from a MetaLearner); a learner asking for anything else is refused by
// the CanServe guards and falls back to its batch pass.
type Config struct {
	// WindowMs is the rule-generation window W_P in milliseconds.
	WindowMs int64
	// MaxItems is the assoc per-transaction item cap.
	MaxItems int
	// MaxBody is the assoc effective antecedent cap (≤ 4; subsets up to
	// this size are counted).
	MaxBody int
	// MaxK is the statistical learner's run-length cap.
	MaxK int
	// VerifyEvery is the drift-audit cadence in Advances (0 = the
	// package default, negative = never).
	VerifyEvery int
}

// fatalRec is one in-window fatal's stored contribution to the
// statistical counters: its (capped) run length and whether another
// fatal followed within the window. Subtracting exactly these values on
// expiry reverses the contribution bit-for-bit.
type fatalRec struct {
	T        int64 `json:"t"`
	Run      int   `json:"r"`
	Followed bool  `json:"f,omitempty"`
}

// gapRec is one fatal inter-arrival gap; T1 is the earlier fatal's
// timestamp (the gap expires with it).
type gapRec struct {
	T1  int64   `json:"t"`
	Gap float64 `json:"g"`
}

// itemsetEntry is one itemset's window count, split by target class.
type itemsetEntry struct {
	global   int
	byTarget []learner.TargetCount
}

// State is the incremental sufficient-statistics maintainer. Zero value
// is not usable; construct with New.
type State struct {
	mu  sync.Mutex
	cfg Config

	valid    bool
	from, to int64
	count    int // events in window
	advances int

	// Association: window transactions plus all-subset counts.
	cache      *learner.EventSetCache
	sets       []learner.EventSet
	itemsets   map[uint64]*itemsetEntry
	itemCounts []int32 // dense per-class transaction counts (level 1)

	// Statistical: fatal deque plus folded run counters.
	fatals []fatalRec
	occ    []int
	succ   []int

	// Distribution: gap deque plus its served materialization.
	gaps    []gapRec
	gapsOut []float64

	times []int64 // served materialization of the fatal deque

	// replay is the reviser's state, carried across the passes that
	// revise the views Install serves; only the reviser touches it.
	replay *reviser.Carry
}

// New returns an empty State for the given configuration. The first
// Advance performs a full build.
func New(cfg Config) *State {
	if cfg.MaxBody > 4 {
		cfg.MaxBody = 4 // the packed-key limit; assoc clamps identically
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 3
	}
	if cfg.MaxK <= 0 {
		cfg.MaxK = 8
	}
	if cfg.VerifyEvery == 0 {
		cfg.VerifyEvery = DefaultVerifyEvery
	}
	return &State{
		cfg:      cfg,
		cache:    learner.NewEventSetCache(),
		itemsets: make(map[uint64]*itemsetEntry),
		occ:      make([]int, cfg.MaxK+1),
		succ:     make([]int, cfg.MaxK+1),
		replay:   new(reviser.Carry),
	}
}

// Window returns the maintained window bounds [from, to) and whether the
// state currently holds a valid window.
func (s *State) Window() (from, to int64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.from, s.to, s.valid
}

// Install wires the state's serving hooks into a prepared training view.
// The view's Events must be exactly the window slice the last Advance
// maintained; learners whose configuration the state cannot serve fall
// back to batch passes over those events. It also hands the view the
// reviser's carried replay, which the reviser audits itself.
func (s *State) Install(pre *learner.Prepared) {
	pre.Itemsets = s
	pre.FailureRuns = s
	pre.GapsFor = s.Gaps
	pre.TimesFor = s.FatalTimes
	s.mu.Lock()
	pre.Replay = s.replay
	s.mu.Unlock()
	events := pre.Events
	pre.SetsFor = func(windowMs int64, maxItems int) []learner.EventSet {
		s.mu.Lock()
		if s.valid && windowMs == s.cfg.WindowMs && maxItems == s.cfg.MaxItems {
			sets := s.sets
			s.mu.Unlock()
			return sets
		}
		s.mu.Unlock()
		// A differently-configured miner (ablation runs): serve it the
		// batch way rather than refusing.
		return learner.BuildEventSets(events, learner.Params{WindowSec: windowMs / 1000}, maxItems)
	}
}

// ---------------------------------------------------------------------------
// learner.ItemsetCounts
// ---------------------------------------------------------------------------

// CanServeItemsets implements learner.ItemsetCounts.
func (s *State) CanServeItemsets(windowMs int64, maxItems, maxBody int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.valid && windowMs == s.cfg.WindowMs &&
		maxItems == s.cfg.MaxItems && maxBody <= s.cfg.MaxBody
}

// NumSets implements learner.ItemsetCounts.
func (s *State) NumSets() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sets)
}

// FrequentItems implements learner.ItemsetCounts.
func (s *State) FrequentItems(minCount int) []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []int
	for it, c := range s.itemCounts {
		if int(c) >= minCount {
			out = append(out, it)
		}
	}
	return out
}

// ItemsetCount implements learner.ItemsetCounts. Lock-free: the counts
// are immutable between Advances, and mining passes are sequenced after
// the Advance that produced them.
func (s *State) ItemsetCount(items []int) (int, []learner.TargetCount) {
	e := s.itemsets[packItems(items)]
	if e == nil {
		return 0, nil
	}
	return e.global, e.byTarget
}

// packItems mirrors assoc's packing of a sorted itemset into a uint64.
func packItems(items []int) uint64 {
	var key uint64
	for _, it := range items {
		key = key<<maxClassBits | uint64(it+1)
	}
	return key
}

// ---------------------------------------------------------------------------
// learner.FailureRunCounts
// ---------------------------------------------------------------------------

// CanServeRuns implements learner.FailureRunCounts.
func (s *State) CanServeRuns(windowMs int64, maxK int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.valid && windowMs == s.cfg.WindowMs && maxK <= s.cfg.MaxK
}

// RunCounts implements learner.FailureRunCounts.
func (s *State) RunCounts() (occurrences, successes []int, total int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.occ, s.succ, len(s.fatals)
}

// ---------------------------------------------------------------------------
// Prepared.GapsFor / Prepared.TimesFor
// ---------------------------------------------------------------------------

// Gaps serves the window's fatal inter-arrival gaps (seconds), exactly
// learner.FatalGaps over the window slice.
func (s *State) Gaps() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gapsOut == nil {
		s.gapsOut = make([]float64, len(s.gaps))
		for i := range s.gaps {
			s.gapsOut[i] = s.gaps[i].Gap
		}
	}
	return s.gapsOut
}

// FatalTimes serves the window's fatal timestamps, exactly
// learner.FatalTimes over the window slice.
func (s *State) FatalTimes() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.times == nil {
		s.times = make([]int64, len(s.fatals))
		for i := range s.fatals {
			s.times[i] = s.fatals[i].T
		}
	}
	return s.times
}
