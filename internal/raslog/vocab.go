package raslog

import (
	"sync"
	"sync/atomic"
)

// Sym is a dense ID of the process vocabulary: the one append-only
// table, shared by every decoder, stage and tenant of the process, that
// names each distinct string it has seen (locations, entry texts, event
// types) with a small integer in first-seen order. Keys built from Syms
// hold no pointers, so the filter tables keyed on them are skipped by
// the GC scan, and a Sym compare replaces a string hash.
//
// A Sym's number depends on what the process saw first, so it is never
// persisted and no output may depend on it: exports resolve Syms back to
// strings.
type Sym uint32

// vocabulary is the table behind Sym. Adding takes mu; reading a Sym's
// string does not: strs is republished on every add, and a slot below a
// published length is never written again.
type vocabulary struct {
	mu   sync.Mutex
	ids  map[string]Sym
	strs atomic.Pointer[[]string]
	// misses counts Loc and Ent calls whose hint did not name the field.
	misses atomic.Int64
}

// vocab is the process vocabulary. The empty string is Sym 0, so the
// zero Event's hints are valid.
var vocab = newVocabulary()

func newVocabulary() *vocabulary {
	v := &vocabulary{ids: make(map[string]Sym, 1024)}
	v.strs.Store(&[]string{""})
	v.ids[""] = 0
	return v
}

// internBytes returns the vocabulary's copy of b and its Sym, adding b
// on first sight. Only the first sight allocates.
func (v *vocabulary) internBytes(b []byte) (string, Sym) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if id, ok := v.ids[string(b)]; ok {
		return (*v.strs.Load())[id], id
	}
	return v.addLocked(string(b))
}

// intern is internBytes for a string.
func (v *vocabulary) intern(s string) (string, Sym) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if id, ok := v.ids[s]; ok {
		return (*v.strs.Load())[id], id
	}
	return v.addLocked(s)
}

func (v *vocabulary) addLocked(s string) (string, Sym) {
	strs := append(*v.strs.Load(), s)
	id := Sym(len(strs) - 1)
	v.ids[s] = id
	v.strs.Store(&strs)
	return s, id
}

// names reports whether id is assigned to a string equal to s. For the
// vocabulary's own copy of s that is a length and pointer compare.
func (v *vocabulary) names(id Sym, s string) bool {
	strs := *v.strs.Load()
	return int(id) < len(strs) && strs[id] == s
}

// resolve returns hint when it names s and otherwise looks s up.
func (v *vocabulary) resolve(hint Sym, s string) Sym {
	if v.names(hint, s) {
		return hint
	}
	v.misses.Add(1)
	_, id := v.intern(s)
	return id
}

// Intern returns the process vocabulary's copy of s and its Sym, adding
// s on first sight. It is safe for concurrent use.
func Intern(s string) (string, Sym) { return vocab.intern(s) }

// String returns the vocabulary string id names, or "" for an ID not
// yet assigned.
func (id Sym) String() string {
	strs := *vocab.strs.Load()
	if int(id) < len(strs) {
		return strs[id]
	}
	return ""
}

// HintMisses returns how many Loc and Ent calls so far found a hint that
// did not name its field and looked the string up instead: an event
// source that does not stamp its events, or an event whose Location or
// Entry was rewritten after stamping.
func HintMisses() int64 { return vocab.misses.Load() }
