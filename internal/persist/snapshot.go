package persist

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/learner"
	"repro/internal/predictor"
	"repro/internal/preprocess"
	"repro/internal/stats"
)

// Snapshot is the service's full durable state at one consistent cut:
// every event with sequence < Seq is reflected in it, every later event
// is recovered from the WAL. Stream-time fields are milliseconds.
type Snapshot struct {
	// Seq is the cut position: WAL replay resumes here.
	Seq uint64 `json:"seq"`
	// Marks counts the install marks at Seq the state already holds;
	// replay skips that many there.
	Marks int `json:"marks,omitempty"`

	StreamStartMs int64 `json:"stream_start_ms"`
	WatermarkMs   int64 `json:"watermark_ms"`
	NextRetrainMs int64 `json:"next_retrain_ms"`
	LastFatalMs   int64 `json:"last_fatal_ms"`

	Counters Counters `json:"counters"`

	// Rules is the trained repository in wire form (Dist flattened).
	Rules []Rule `json:"rules,omitempty"`
	// Spatial is the spatial filter stage's resident keys.
	Spatial []preprocess.SpatialEntry `json:"spatial,omitempty"`
	// Predictor is the live predictor's runtime state; nil before the
	// first training pass.
	Predictor *predictor.State `json:"predictor,omitempty"`
	// Warnings is the recent-warnings ring.
	Warnings []predictor.Warning `json:"warnings,omitempty"`
	// Retrains carries the service's retrain records opaquely (their type
	// is private to the stream package).
	Retrains json.RawMessage `json:"retrains,omitempty"`
	// Incr carries the incremental sufficient-statistics state
	// (learner/incr wire form, versioned separately) so a recovered
	// service's first retrain is a delta-apply instead of a cold rebuild.
	// Optional: a snapshot without it — or with an incompatible version —
	// recovers fine, at the cost of one full rebuild.
	Incr json.RawMessage `json:"incr,omitempty"`

	// The two big arrays come last, in this order: WriteSnapshot streams
	// them element by element after one json.Marshal of everything above,
	// and the bytes equal json.Marshal of the whole only because no field
	// follows them.

	// Temporal is the temporal filter stage's resident keys.
	Temporal []preprocess.TemporalEntry `json:"temporal,omitempty"`
	// History is the retraining window.
	History []preprocess.TaggedEvent `json:"history,omitempty"`
}

// Counters are the pipeline counters consistent with the cut, so a
// recovered service's /stats continues instead of restarting from zero.
type Counters struct {
	Sequenced     int64 `json:"sequenced"`
	LateDropped   int64 `json:"late_dropped"`
	Overflow      int64 `json:"overflow"`
	AfterTemporal int64 `json:"after_temporal"`
	Processed     int64 `json:"processed"`
	Fatals        int64 `json:"fatals"`
	Warnings      int64 `json:"warnings"`
}

// Rule is the serialized form of learner.Rule: identical fields, with
// the Distribution interface flattened to a named parameter vector.
type Rule struct {
	Kind       int     `json:"kind"`
	Body       []int   `json:"body,omitempty"`
	Target     int     `json:"target"`
	Confidence float64 `json:"confidence"`
	Support    float64 `json:"support"`
	Count      int     `json:"count"`
	ElapsedSec int64   `json:"elapsed_sec"`
	Dist       *Dist   `json:"dist,omitempty"`
}

// Dist names a fitted distribution and its parameters, in the family's
// canonical order: weibull (scale, shape), exponential (scale),
// lognormal (mu, sigma). Float64 JSON round trips are exact, so a
// restored distribution is bit-identical to the fitted one.
type Dist struct {
	Name   string    `json:"name"`
	Params []float64 `json:"params"`
}

// EncodeRules converts repository rules to wire form. An unknown
// distribution type is a programming error (a new family was added
// without teaching the codec) and fails loudly.
func EncodeRules(rules []learner.Rule) ([]Rule, error) {
	out := make([]Rule, len(rules))
	for i, r := range rules {
		w := Rule{
			Kind:       int(r.Kind),
			Body:       r.Body,
			Target:     r.Target,
			Confidence: r.Confidence,
			Support:    r.Support,
			Count:      r.Count,
			ElapsedSec: r.ElapsedSec,
		}
		switch d := r.Dist.(type) {
		case nil:
		case stats.Weibull:
			w.Dist = &Dist{Name: d.Name(), Params: []float64{d.Scale, d.Shape}}
		case stats.Exponential:
			w.Dist = &Dist{Name: d.Name(), Params: []float64{d.Scale}}
		case stats.LogNormal:
			w.Dist = &Dist{Name: d.Name(), Params: []float64{d.Mu, d.Sigma}}
		default:
			return nil, fmt.Errorf("persist: rule %q: unsupported distribution type %T", r.ID(), r.Dist)
		}
		out[i] = w
	}
	return out, nil
}

// DecodeRules converts wire rules back. Unknown or malformed
// distributions fail loudly rather than reviving a rule that cannot
// predict.
func DecodeRules(wire []Rule) ([]learner.Rule, error) {
	out := make([]learner.Rule, len(wire))
	for i, w := range wire {
		r := learner.Rule{
			Kind:       learner.Kind(w.Kind),
			Body:       w.Body,
			Target:     w.Target,
			Confidence: w.Confidence,
			Support:    w.Support,
			Count:      w.Count,
			ElapsedSec: w.ElapsedSec,
		}
		if w.Dist != nil {
			d, err := decodeDist(*w.Dist)
			if err != nil {
				return nil, fmt.Errorf("persist: rule %d: %w", i, err)
			}
			r.Dist = d
		}
		out[i] = r
	}
	return out, nil
}

func decodeDist(w Dist) (stats.Distribution, error) {
	want := map[string]int{"weibull": 2, "exponential": 1, "lognormal": 2}[w.Name]
	if want == 0 {
		return nil, fmt.Errorf("unknown distribution family %q", w.Name)
	}
	if len(w.Params) != want {
		return nil, fmt.Errorf("distribution %q wants %d params, got %d", w.Name, want, len(w.Params))
	}
	switch w.Name {
	case "weibull":
		return stats.NewWeibull(w.Params[0], w.Params[1])
	case "exponential":
		return stats.NewExponential(w.Params[0])
	default:
		return stats.NewLogNormal(w.Params[0], w.Params[1])
	}
}

// WriteSnapshot persists s atomically and returns the bytes written. The
// sequence order is what makes recovery sound: the WAL is synced before
// the snapshot is published, so the snapshot's existence implies the log
// is durable through s.Seq; temp file + fsync + rename + directory fsync
// publish it all-or-nothing; only then are superseded snapshots and WAL
// segments wholly below s.Seq removed. Encoding and the temp-file write
// run without the store lock — they are most of the cost, and appends
// must not wait behind them; only the WAL sync and the publication hold
// it. The encoding streams into the temp file (snapenc.go), so a write
// never holds the whole snapshot in memory.
func (st *Store) WriteSnapshot(s *Snapshot) (int64, error) {
	st.mu.Lock()
	if gone, err := st.goneLocked(); gone {
		st.mu.Unlock()
		return 0, err
	}
	st.gen++
	final := filepath.Join(st.dir, snapName(s.Seq, st.gen))
	st.mu.Unlock()

	tmp := final + tmpSuffix
	n, err := writeSnapshotFile(tmp, s)
	if err != nil {
		return 0, err
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	if gone, err := st.goneLocked(); gone { // while the file was being written
		os.Remove(tmp)
		return 0, err
	}
	if err := st.syncLocked(); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, final); err != nil {
		return 0, err
	}
	if err := syncDir(st.dir); err != nil {
		return 0, err
	}
	if err := st.pruneLocked(s.Seq); err != nil {
		return 0, err
	}
	return n, nil
}

// goneLocked reports whether the store is dead or closed, and what a
// write returns then: nil after Abandon (every later call is a silent
// no-op), ErrClosed after Close.
func (st *Store) goneLocked() (bool, error) {
	switch {
	case st.dead:
		return true, nil
	case st.closed:
		return true, ErrClosed
	}
	return false, nil
}

// pruneLocked removes snapshots beyond the retention count and WAL
// segments every record of which predates the retention floor: the
// snapshot at snapSeq, lowered by any registered follower's ack and any
// in-flight segment read (segments.go). A segment's records end where
// the next segment's begin, so segment i is removable exactly when
// segment i+1 starts at or below the floor; the newest segment (possibly
// open for appending) is never removed. A slow follower therefore grows
// retention instead of tearing a hole in the chain it still has to pull.
func (st *Store) pruneLocked(snapSeq uint64) error {
	snaps, err := st.listRefs(snapPrefix)
	if err != nil {
		return err
	}
	for i := 0; i < len(snaps)-st.opt.KeepSnapshots; i++ {
		if err := os.Remove(filepath.Join(st.dir, snaps[i].name)); err != nil {
			return err
		}
	}
	floor := st.retainFloorLocked(snapSeq)
	segs, err := st.listRefs(walPrefix)
	if err != nil {
		return err
	}
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1].seq > floor {
			break
		}
		if err := os.Remove(filepath.Join(st.dir, segs[i].name)); err != nil {
			return err
		}
	}
	return nil
}

// LoadSnapshot returns the newest snapshot that reads back valid, or nil
// when none exists. An unreadable or corrupt newer file is skipped — the
// fallback retained by KeepSnapshots plus a longer WAL replay recover
// the same state.
func (st *Store) LoadSnapshot() (*Snapshot, error) {
	snaps, err := st.listRefs(snapPrefix)
	if err != nil {
		return nil, err
	}
	for i := len(snaps) - 1; i >= 0; i-- {
		s, err := readSnapshotFile(filepath.Join(st.dir, snaps[i].name))
		if err == nil {
			return s, nil
		}
	}
	return nil, nil
}

func readSnapshotFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	payload, err := readFrame(r)
	if err != nil {
		return nil, err
	}
	if _, err := r.ReadByte(); err != io.EOF {
		return nil, errors.New("persist: trailing bytes after snapshot frame")
	}
	var s Snapshot
	if err := json.Unmarshal(payload, &s); err != nil {
		return nil, err
	}
	// The JSON holds no hints: stamp the history, which also swaps each
	// event's freshly decoded strings for the vocabulary's copies.
	for i := range s.History {
		s.History[i].Stamp()
	}
	return &s, nil
}
