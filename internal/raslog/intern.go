package raslog

// Interner deduplicates the small string vocabularies of a RAS stream
// (event types, locations, catalog entry texts): repeated values share
// one heap copy, and the lookup itself is allocation-free because the
// compiler elides the []byte→string conversion used only as a map key.
// Interned fields also make later map probes cheaper downstream — equal
// strings are usually the *same* string, so comparisons short-circuit on
// the data pointer.
//
// An Interner is not safe for concurrent use; give each decoding stream
// its own (Scanner does).
type Interner struct {
	m map[string]string
	// last memoizes, per field of ParseLineBytes, the value interned
	// last. A RAS stream repeats its Type on every line and its Entry on
	// most, and a length and memory compare is cheaper than the map's hash.
	last [numFields]string
}

// The fields of ParseLineBytes that go through an Interner, indexing
// Interner.last.
const (
	typeField = iota
	locationField
	entryField
	numFields
)

// maxInternEntries caps resident entries so adversarial input with
// unbounded vocabulary degrades to plain copying instead of growing the
// table without limit. Real RAS vocabularies are a few hundred strings.
const maxInternEntries = 1 << 16

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{m: make(map[string]string, 64)}
}

// Intern returns a string equal to b, reusing the copy made the first
// time this value was seen. Only the first occurrence allocates.
func (in *Interner) Intern(b []byte) string {
	if s, ok := in.m[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(in.m) < maxInternEntries {
		in.m[s] = s
	}
	return s
}

// Len returns the number of resident entries (for tests).
func (in *Interner) Len() int { return len(in.m) }

// intern interns one field of ParseLineBytes, checking the field's last
// value before the map. A nil Interner copies.
func intern(in *Interner, field int, b []byte) string {
	if in == nil {
		return string(b)
	}
	if s := in.last[field]; s == string(b) {
		return s
	}
	s := in.Intern(b)
	in.last[field] = s
	return s
}
