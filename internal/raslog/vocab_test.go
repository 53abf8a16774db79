package raslog

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// TestEventSize pins the event at 88 bytes: the two 4-byte hints fit in
// the room int8 Facility and Severity leave, so every slab, ring and
// history of events stays the size it was before the hints.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 88 {
		t.Fatalf("unsafe.Sizeof(Event{}) = %d, want 88", got)
	}
}

// TestVocabularyConcurrentIntern has goroutines intern overlapping
// vocabularies at once, through Intern, their own Interner and Stamp,
// and requires exactly one Sym per string, naming that string. Run it
// under -race: the reverse table is read without the lock.
func TestVocabularyConcurrentIntern(t *testing.T) {
	const workers, words = 8, 2000
	word := func(i int) string { return fmt.Sprintf("race-vocab-%d", i) }
	got := make([]map[string]Sym, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			in := NewInterner()
			seen := make(map[string]Sym, words)
			// Each worker covers a window of the words that overlaps its
			// neighbours', starting at a different point.
			for k := 0; k < words; k++ {
				s := word((w*words/4 + k) % (2 * words))
				var id Sym
				switch k % 3 {
				case 0:
					_, id = Intern(s)
				case 1:
					_, id = in.Intern([]byte(s))
				default:
					e := Event{Location: strings.Clone(s)}
					e.Stamp()
					id = e.LocHint
				}
				if id.String() != s {
					t.Errorf("Sym %d names %q, want %q", id, id.String(), s)
					return
				}
				seen[s] = id
			}
			got[w] = seen
		}(w)
	}
	wg.Wait()
	owner := map[Sym]string{}
	first := map[string]Sym{}
	for _, seen := range got {
		for s, id := range seen {
			if prev, ok := first[s]; ok && prev != id {
				t.Fatalf("%q interned as Sym %d and as Sym %d", s, prev, id)
			}
			if o, ok := owner[id]; ok && o != s {
				t.Fatalf("Sym %d names both %q and %q", id, o, s)
			}
			first[s], owner[id] = id, s
		}
	}
	if len(first) == 0 {
		t.Fatal("no worker interned anything")
	}
}

// TestHintsNeverChangeLoc: Loc and Ent return the field's Sym whatever
// the hint says, and count a lookup for every hint that does not name
// the field.
func TestHintsNeverChangeLoc(t *testing.T) {
	_, loc := Intern("hint-test-location")
	_, ent := Intern("hint-test-entry")
	_, other := Intern("hint-test-other")
	fresh, err := ParseLine("1|RAS|1|0|hint-test-location|KERNEL|INFO|hint-test-entry")
	if err != nil {
		t.Fatal(err)
	}
	if fresh.LocHint != loc || fresh.EntHint != ent {
		t.Fatalf("decoded hints %d/%d, want %d/%d", fresh.LocHint, fresh.EntHint, loc, ent)
	}
	misses := HintMisses()
	if fresh.Loc() != loc || fresh.Ent() != ent || HintMisses() != misses {
		t.Fatal("a decoded event's hints were not taken")
	}
	zero := fresh
	zero.LocHint, zero.EntHint = 0, 0
	foreign := fresh
	foreign.LocHint, foreign.EntHint = other, 1<<31
	copied := fresh // equal strings, not the vocabulary's copies
	copied.Location, copied.Entry = strings.Clone(fresh.Location), strings.Clone(fresh.Entry)
	stale := fresh // the hints still name the old strings
	stale.Location, stale.Entry = "hint-test-other", "hint-test-location"
	for _, c := range []struct {
		name     string
		e        Event
		loc, ent Sym
		misses   int64
	}{
		{"zero", zero, loc, ent, 2},
		{"foreign", foreign, loc, ent, 2},
		{"copied", copied, loc, ent, 0},
		{"stale", stale, other, loc, 2},
	} {
		before := HintMisses()
		if l, e := c.e.Loc(), c.e.Ent(); l != c.loc || e != c.ent {
			t.Errorf("%s hints: Loc/Ent = %d/%d, want %d/%d", c.name, l, e, c.loc, c.ent)
		}
		if n := HintMisses() - before; n != c.misses {
			t.Errorf("%s hints: %d lookups counted, want %d", c.name, n, c.misses)
		}
	}
}
