package raslog

// Interner is one decoding stream's cache of the process vocabulary (see
// Sym): it hands out the vocabulary's copy of a field and its Sym, so
// repeated values share one heap copy and a decoded event carries its
// hints. A hit costs no lock and no allocation (the compiler elides the
// []byte→string conversion used only as a map key); a miss asks the
// vocabulary, which allocates only on the first sight in the process.
//
// An Interner is not safe for concurrent use; give each decoding stream
// its own (Scanner does).
type Interner struct {
	m map[string]interned
	// last memoizes, per field of ParseLineBytes, the value interned
	// last. A RAS stream repeats its Type on every line and its Entry on
	// most, and a length and memory compare is cheaper than the map's hash.
	last [numFields]interned
}

type interned struct {
	s  string
	id Sym
}

// The fields of ParseLineBytes that go through an Interner, indexing
// Interner.last.
const (
	typeField = iota
	locationField
	entryField
	numFields
)

// maxInternEntries caps one Interner's cache so adversarial input with
// unbounded vocabulary does not grow it without limit; values past the
// cap still intern, through the vocabulary. Real RAS vocabularies are a
// few thousand strings.
const maxInternEntries = 1 << 16

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{m: make(map[string]interned, 64)}
}

// Intern returns the vocabulary's copy of b and its Sym.
func (in *Interner) Intern(b []byte) (string, Sym) {
	if x, ok := in.m[string(b)]; ok {
		return x.s, x.id
	}
	s, id := vocab.internBytes(b)
	if len(in.m) < maxInternEntries {
		in.m[s] = interned{s, id}
	}
	return s, id
}

// Len returns the number of cached entries (for tests).
func (in *Interner) Len() int { return len(in.m) }

// intern interns one field of ParseLineBytes, checking the field's last
// value before the cache. A nil Interner goes to the vocabulary.
func intern(in *Interner, field int, b []byte) (string, Sym) {
	if in == nil {
		return vocab.internBytes(b)
	}
	if x := in.last[field]; x.s == string(b) {
		return x.s, x.id
	}
	s, id := in.Intern(b)
	in.last[field] = interned{s, id}
	return s, id
}
