package incr

import (
	"encoding/json"
	"fmt"

	"repro/internal/learner"
	"repro/internal/reviser"
)

// wireVersion guards the snapshot encoding; a version bump invalidates
// persisted incremental state (the restore fails closed and the next
// retrain falls back to a full rebuild — never to wrong statistics).
const wireVersion = 1

// wireSet is one persisted event-set transaction.
type wireSet struct {
	Items  []int `json:"i"`
	Target int   `json:"c"`
	Time   int64 `json:"t"`
}

// wire is the persisted incremental state: the configuration it was
// maintained under, the window bounds, and the per-record deques. Only
// deques are persisted — the folded counters (itemset counts, run
// occurrence arrays) re-derive deterministically on
// restore, keeping the format small and the invariants impossible to
// desynchronize.
type wire struct {
	Version  int        `json:"v"`
	WindowMs int64      `json:"window_ms"`
	MaxItems int        `json:"max_items"`
	MaxBody  int        `json:"max_body"`
	MaxK     int        `json:"max_k"`
	From     int64      `json:"from"`
	To       int64      `json:"to"`
	Count    int        `json:"count"`
	Sets     []wireSet  `json:"sets"`
	Fatals   []fatalRec `json:"fatals"`
	Gaps     []gapRec   `json:"gaps"`
}

// Export serializes the maintained window so a restart can resume
// delta-applies instead of cold-rebuilding. Returns (nil, nil) when the
// state holds no valid window yet.
func (s *State) Export() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.valid {
		return nil, nil
	}
	w := wire{
		Version:  wireVersion,
		WindowMs: s.cfg.WindowMs,
		MaxItems: s.cfg.MaxItems,
		MaxBody:  s.cfg.MaxBody,
		MaxK:     s.cfg.MaxK,
		From:     s.from,
		To:       s.to,
		Count:    s.count,
		Sets:     make([]wireSet, len(s.sets)),
		Fatals:   s.fatals,
		Gaps:     s.gaps,
	}
	for i := range s.sets {
		w.Sets[i] = wireSet{Items: s.sets[i].Items, Target: s.sets[i].Target, Time: s.sets[i].Time}
	}
	return json.Marshal(&w)
}

// Restore rehydrates a previously-Exported window into this state. The
// persisted configuration must match this state's exactly; any mismatch
// (or decode failure) returns an error and leaves the state untouched,
// so the caller's next Advance performs a full rebuild — the always-safe
// fallback. On success the folded counters are re-derived from the
// persisted deques and the event-set cache is seeded, so the next
// Advance is a delta-apply.
func (s *State) Restore(data []byte) error {
	var w wire
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("incr: decode state: %w", err)
	}
	if w.Version != wireVersion {
		return fmt.Errorf("incr: state version %d, want %d", w.Version, wireVersion)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if w.WindowMs != s.cfg.WindowMs || w.MaxItems != s.cfg.MaxItems ||
		w.MaxBody != s.cfg.MaxBody || w.MaxK != s.cfg.MaxK {
		return fmt.Errorf("incr: persisted config (window=%dms items=%d body=%d k=%d) does not match (window=%dms items=%d body=%d k=%d)",
			w.WindowMs, w.MaxItems, w.MaxBody, w.MaxK,
			s.cfg.WindowMs, s.cfg.MaxItems, s.cfg.MaxBody, s.cfg.MaxK)
	}

	sets := make([]learner.EventSet, len(w.Sets))
	for i := range w.Sets {
		sets[i] = learner.EventSet{Items: w.Sets[i].Items, Target: w.Sets[i].Target, Time: w.Sets[i].Time}
	}
	s.cache = learner.NewEventSetCache()
	s.cache.Seed(s.cfg.WindowMs, s.cfg.MaxItems, w.From, w.To, sets)
	s.sets = sets
	s.resetItemsets()
	for i := range sets {
		s.applySet(&sets[i], 1)
	}

	s.fatals = w.Fatals
	for k := range s.occ {
		s.occ[k] = 0
		s.succ[k] = 0
	}
	for i := range s.fatals {
		f := &s.fatals[i]
		for k := 1; k <= f.Run && k < len(s.occ); k++ {
			s.occ[k]++
			if f.Followed {
				s.succ[k]++
			}
		}
	}
	s.gaps = w.Gaps

	s.from, s.to = w.From, w.To
	s.count = w.Count
	s.valid = true
	s.invalidateServed()
	// The reviser's replay is not persisted: the first pass after a
	// restore replays in full.
	s.replay = new(reviser.Carry)
	return nil
}
