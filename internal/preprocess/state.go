package preprocess

import (
	"sort"

	"repro/internal/raslog"
)

// Export/Restore turn the streaming filter stages' resident key state
// into plain rows and back, for the durable snapshots of internal/persist.
// Rows are sorted so identical stage state always serializes identically.

// TemporalEntry is one resident key of a TemporalStage.
type TemporalEntry struct {
	Location string `json:"loc"`
	JobID    int64  `json:"job"`
	Entry    string `json:"entry"`
	// LastMs is the key's anchor timestamp: last kept event, or last seen
	// under Sliding.
	LastMs int64 `json:"last_ms"`
}

// Export returns the stage's resident keys, sorted. Syms are resolved
// back to strings: a Sym's number depends on what the process saw first,
// so the snapshot wire format holds none.
func (t *TemporalStage) Export() []TemporalEntry {
	out := make([]TemporalEntry, 0, len(t.last))
	for k, last := range t.last {
		out = append(out, TemporalEntry{Location: k.loc.String(), JobID: k.jobID, Entry: k.entry.String(), LastMs: last})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Location != b.Location {
			return a.Location < b.Location
		}
		if a.JobID != b.JobID {
			return a.JobID < b.JobID
		}
		return a.Entry < b.Entry
	})
	return out
}

// Restore replaces the stage's resident keys with rows, interning the
// row strings into the process vocabulary.
func (t *TemporalStage) Restore(rows []TemporalEntry) {
	t.last = make(map[tempIKey]int64, len(rows))
	for _, r := range rows {
		t.last[tempIKey{loc: sym(r.Location), entry: sym(r.Entry), jobID: r.JobID}] = r.LastMs
	}
	t.sinceSweep = 0
}

// SpatialEntry is one resident key of a SpatialStage.
type SpatialEntry struct {
	JobID int64  `json:"job"`
	Entry string `json:"entry"`
	// Location is the key's anchoring location; LastMs its timestamp.
	Location string `json:"loc"`
	LastMs   int64  `json:"last_ms"`
}

// Export returns the stage's resident keys, sorted.
func (s *SpatialStage) Export() []SpatialEntry {
	out := make([]SpatialEntry, 0, len(s.last))
	for k, st := range s.last {
		out = append(out, SpatialEntry{JobID: k.jobID, Entry: raslog.Sym(k.entry).String(), Location: st.loc.String(), LastMs: st.time})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.JobID != b.JobID {
			return a.JobID < b.JobID
		}
		return a.Entry < b.Entry
	})
	return out
}

// Restore replaces the stage's resident keys with rows, interning the
// row strings into the process vocabulary.
func (s *SpatialStage) Restore(rows []SpatialEntry) {
	s.last = make(map[spatIKey]spatState, len(rows))
	for _, r := range rows {
		s.last[spatIKey{jobID: r.JobID, entry: uint64(sym(r.Entry))}] = spatState{time: r.LastMs, loc: sym(r.Location)}
	}
	s.sinceSweep = 0
}

// sym is the vocabulary Sym of s.
func sym(s string) raslog.Sym {
	_, id := raslog.Intern(s)
	return id
}
