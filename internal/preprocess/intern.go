package preprocess

// symTable maps a stage's string vocabulary (locations, entry texts) to
// dense uint32 IDs, so the filter tables key on pointer-free structs: a
// map whose keys and values contain no pointers is skipped entirely by
// the GC scan, which is what keeps large resident filter state cheap.
// IDs are assigned in first-seen order and live for the stage's lifetime
// — eviction sweeps drop table *keys*, not vocabulary, which is bounded
// by the machine topology and the event catalog rather than the stream
// length. Snapshots store the strings (the wire format is unchanged);
// Restore re-interns them, so IDs are private to one stage instance and
// never persisted.
type symTable struct {
	ids  map[string]uint32
	strs []string
}

func newSymTable() *symTable {
	return &symTable{ids: make(map[string]uint32, 64)}
}

// id returns the dense ID for s, assigning the next one on first sight.
func (t *symTable) id(s string) uint32 {
	if id, ok := t.ids[s]; ok {
		return id
	}
	id := uint32(len(t.strs))
	t.ids[s] = id
	t.strs = append(t.strs, s)
	return id
}

// symMemo is one call site's last symTable lookup. Consecutive events
// mostly repeat their Entry, and the decoder hands strings over
// interned, so a repeat costs a length and pointer compare instead of a
// hash.
type symMemo struct {
	s  string
	id uint32
	ok bool
}

// idAt is id behind the call site's memo m.
func (t *symTable) idAt(m *symMemo, s string) uint32 {
	if m.ok && m.s == s {
		return m.id
	}
	id := t.id(s)
	*m = symMemo{s: s, id: id, ok: true}
	return id
}

// str is the reverse mapping, for snapshot export.
func (t *symTable) str(id uint32) string { return t.strs[id] }
