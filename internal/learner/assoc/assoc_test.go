package assoc

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/learner"
	"repro/internal/preprocess"
	"repro/internal/raslog"
	"repro/internal/stats"
)

func set(target int, items ...int) learner.EventSet {
	return learner.EventSet{Items: learner.NormalizeBody(items), Target: target}
}

func findRule(rules []learner.Rule, id string) (learner.Rule, bool) {
	for _, r := range rules {
		if r.ID() == id {
			return r, true
		}
	}
	return learner.Rule{}, false
}

func TestMineSimpleRule(t *testing.T) {
	l := New()
	// 10 transactions; {1,2} => 99 in 8 of them; {3} => 98 in 2.
	var sets []learner.EventSet
	for i := 0; i < 8; i++ {
		sets = append(sets, set(99, 1, 2))
	}
	sets = append(sets, set(98, 3), set(98, 3))
	rules, err := l.Mine(sets)
	if err != nil {
		t.Fatal(err)
	}
	r, ok := findRule(rules, "assoc:1,2=>99")
	if !ok {
		t.Fatalf("rule {1,2}=>99 not mined; got %v", rules)
	}
	if r.Confidence != 1.0 {
		t.Errorf("confidence = %g, want 1.0", r.Confidence)
	}
	if r.Support != 0.8 {
		t.Errorf("support = %g, want 0.8", r.Support)
	}
	// Singleton sub-rules should exist too.
	if _, ok := findRule(rules, "assoc:1=>99"); !ok {
		t.Error("singleton rule 1=>99 missing")
	}
	if _, ok := findRule(rules, "assoc:3=>98"); !ok {
		t.Error("rule 3=>98 missing")
	}
}

func TestMineConfidenceAccountsForOtherTargets(t *testing.T) {
	l := New()
	l.MinConfidence = 0.0
	var sets []learner.EventSet
	// Item 5 precedes target 99 in 6 sets and target 98 in 4: conf 0.6/0.4.
	for i := 0; i < 6; i++ {
		sets = append(sets, set(99, 5))
	}
	for i := 0; i < 4; i++ {
		sets = append(sets, set(98, 5))
	}
	rules, err := l.Mine(sets)
	if err != nil {
		t.Fatal(err)
	}
	r99, _ := findRule(rules, "assoc:5=>99")
	r98, _ := findRule(rules, "assoc:5=>98")
	if r99.Confidence != 0.6 || r98.Confidence != 0.4 {
		t.Errorf("confidences %g/%g, want 0.6/0.4", r99.Confidence, r98.Confidence)
	}
}

func TestMineRespectsMinSupport(t *testing.T) {
	l := New()
	l.MinSupport = 0.3
	var sets []learner.EventSet
	for i := 0; i < 9; i++ {
		sets = append(sets, set(99, 1))
	}
	sets = append(sets, set(98, 2)) // support 0.1 < 0.3
	rules, err := l.Mine(sets)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := findRule(rules, "assoc:2=>98"); ok {
		t.Error("low-support rule survived")
	}
	if _, ok := findRule(rules, "assoc:1=>99"); !ok {
		t.Error("high-support rule missing")
	}
}

func TestMineRespectsMinConfidence(t *testing.T) {
	l := New()
	l.MinConfidence = 0.5
	var sets []learner.EventSet
	// Item 1 appears in 10 sets but leads to 99 only 3 times (conf 0.3).
	for i := 0; i < 3; i++ {
		sets = append(sets, set(99, 1))
	}
	for i := 0; i < 7; i++ {
		sets = append(sets, set(98, 1))
	}
	rules, err := l.Mine(sets)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := findRule(rules, "assoc:1=>99"); ok {
		t.Error("low-confidence rule survived")
	}
	if _, ok := findRule(rules, "assoc:1=>98"); !ok {
		t.Error("conf-0.7 rule missing")
	}
}

func TestMineMaxBodyCap(t *testing.T) {
	l := New()
	l.MaxBody = 2
	var sets []learner.EventSet
	for i := 0; i < 10; i++ {
		sets = append(sets, set(99, 1, 2, 3))
	}
	rules, err := l.Mine(sets)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rules {
		if len(r.Body) > 2 {
			t.Errorf("rule body exceeds cap: %v", r)
		}
	}
	if _, ok := findRule(rules, "assoc:1,2=>99"); !ok {
		t.Error("pair rule missing")
	}
}

func TestMineTripleBody(t *testing.T) {
	l := New()
	var sets []learner.EventSet
	for i := 0; i < 10; i++ {
		sets = append(sets, set(99, 1, 2, 3))
	}
	rules, err := l.Mine(sets)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := findRule(rules, "assoc:1,2,3=>99"); !ok {
		t.Error("triple rule missing with MaxBody=3")
	}
}

func TestMineEmptyInput(t *testing.T) {
	rules, err := New().Mine(nil)
	if err != nil || rules != nil {
		t.Errorf("Mine(nil) = %v, %v", rules, err)
	}
}

func TestMineDeterministicOrder(t *testing.T) {
	sets := []learner.EventSet{
		set(99, 1, 2), set(99, 1, 2), set(98, 3), set(98, 3),
		set(97, 1, 3), set(97, 1, 3),
	}
	a, _ := New().Mine(sets)
	b, _ := New().Mine(sets)
	if len(a) != len(b) {
		t.Fatal("nondeterministic rule count")
	}
	for i := range a {
		if a[i].ID() != b[i].ID() {
			t.Fatalf("order differs at %d: %s vs %s", i, a[i].ID(), b[i].ID())
		}
	}
}

func TestLearnEndToEnd(t *testing.T) {
	// A stream where classes {1, 2} precede fatal 99 twenty times.
	var events []preprocess.TaggedEvent
	mk := func(tSec int64, class int, fatal bool) preprocess.TaggedEvent {
		return preprocess.TaggedEvent{
			Event: raslog.Event{Time: tSec * 1000}, Class: class, Fatal: fatal,
		}
	}
	for i := int64(0); i < 20; i++ {
		base := i * 10_000
		events = append(events,
			mk(base, 1, false), mk(base+50, 2, false), mk(base+120, 99, true))
	}
	rules, err := New().Learn(learner.Prepare(events), learner.Params{WindowSec: 300})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := findRule(rules, "assoc:1,2=>99"); !ok {
		t.Fatalf("end-to-end rule missing; got %v", rules)
	}
}

func TestPackInjective(t *testing.T) {
	// Distinct sorted itemsets must pack to distinct keys across the full
	// class-ID range (catalog classes and unknown-event fallbacks).
	seen := make(map[uint64][]int)
	r := stats.NewRNG(3)
	for trial := 0; trial < 5000; trial++ {
		n := 1 + r.Intn(3)
		items := make([]int, n)
		for i := range items {
			items[i] = r.Intn(2000)
		}
		items = learner.NormalizeBody(items)
		key := pack(items)
		if prev, ok := seen[key]; ok && !equalInts(prev, items) {
			t.Fatalf("collision: %v and %v -> %d", prev, items, key)
		}
		seen[key] = append([]int(nil), items...)
	}
}

func TestMaxRulesCapKeepsBest(t *testing.T) {
	l := New()
	l.MaxRules = 2
	l.MinConfidence = 0
	var sets []learner.EventSet
	// Three disjoint patterns with confidences 1.0, 1.0, 0.5.
	for i := 0; i < 10; i++ {
		sets = append(sets, set(99, 1))
		sets = append(sets, set(98, 2))
	}
	for i := 0; i < 5; i++ {
		sets = append(sets, set(97, 3))
		sets = append(sets, set(96, 3))
	}
	rules, err := l.Mine(sets)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("cap ignored: %d rules", len(rules))
	}
	for _, r := range rules {
		if r.Confidence < 1.0 {
			t.Errorf("cap kept low-confidence rule %v", r)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPackSupportsFourItemBodies(t *testing.T) {
	// maxClassBits must accommodate MaxBody=4 without collisions (the
	// Apriori-depth ablation exercises depth 4).
	seen := make(map[uint64][]int)
	r := stats.NewRNG(9)
	for trial := 0; trial < 5000; trial++ {
		items := make([]int, 4)
		for i := range items {
			items[i] = r.Intn(1200) // catalog + unknown-fallback range
		}
		items = learner.NormalizeBody(items)
		key := pack(items)
		if prev, ok := seen[key]; ok && !equalInts(prev, items) {
			t.Fatalf("collision: %v and %v -> %d", prev, items, key)
		}
		seen[key] = append([]int(nil), items...)
	}
}

// allPairsJoin is the Apriori join tested pair by pair, the reference the
// prefix-run join in generateCandidates must reproduce.
func allPairsJoin(frequent []itemset) []itemset {
	known := make(map[uint64]bool, len(frequent))
	for _, f := range frequent {
		known[pack(f.items)] = true
	}
	var out []itemset
	for i := range frequent {
		for j := i + 1; j < len(frequent); j++ {
			a, b := frequent[i].items, frequent[j].items
			k := len(a) - 1
			if !equalInts(a[:k], b[:k]) || a[k] == b[k] {
				continue
			}
			merged := append(append([]int(nil), a[:k]...), min(a[k], b[k]), max(a[k], b[k]))
			if allSubsetsFrequent(merged, known) {
				out = append(out, itemset{items: merged})
			}
		}
	}
	return out
}

// TestGenerateCandidatesMatchesAllPairs pins the prefix-run join to the
// all-pairs join on random lexicographically sorted levels, dense enough
// over a small alphabet that prefix runs are long and subsets often known.
func TestGenerateCandidatesMatchesAllPairs(t *testing.T) {
	r := stats.NewRNG(17)
	for trial := 0; trial < 500; trial++ {
		k := 1 + r.Intn(3)
		var level []itemset
		for n := r.Intn(80); n > 0; n-- {
			items := make([]int, k)
			for i := range items {
				items[i] = r.Intn(10)
			}
			if items = learner.NormalizeBody(items); len(items) == k {
				level = append(level, itemset{items: items})
			}
		}
		slices.SortFunc(level, func(a, b itemset) int { return slices.Compare(a.items, b.items) })
		level = slices.CompactFunc(level, func(a, b itemset) bool { return equalInts(a.items, b.items) })

		got, want := generateCandidates(level), allPairsJoin(level)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (k=%d, %d itemsets): prefix-run join %v, all-pairs join %v",
				trial, k, len(level), got, want)
		}
	}
}

func TestMaxBodyClampedToPackLimit(t *testing.T) {
	l := New()
	l.MaxBody = 9 // beyond the packable limit
	var sets []learner.EventSet
	for i := 0; i < 10; i++ {
		sets = append(sets, set(99, 1, 2, 3, 4, 5))
	}
	rules, err := l.Mine(sets)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rules {
		if len(r.Body) > 4 {
			t.Fatalf("body of %d items escaped the pack limit", len(r.Body))
		}
	}
}

// synthSets builds n synthetic transactions with planted co-occurrence
// structure plus noise.
func synthSets(seed uint64, n int) []learner.EventSet {
	r := stats.NewRNG(seed)
	sets := make([]learner.EventSet, 0, n)
	for i := 0; i < n; i++ {
		var items []int
		// Planted pattern: {1,2} precedes target 99 in a third of sets.
		if i%3 == 0 {
			items = append(items, 1, 2)
		}
		if i%5 == 0 {
			items = append(items, 3, 4, 5)
		}
		for j := r.Intn(6); j > 0; j-- {
			items = append(items, 10+r.Intn(25))
		}
		if len(items) == 0 {
			items = append(items, 10+r.Intn(25))
		}
		target := 99
		if i%4 == 0 {
			target = 98
		}
		sets = append(sets, learner.EventSet{
			Items:  learner.NormalizeBody(items),
			Target: target,
		})
	}
	return sets
}

// BenchmarkMine measures the Apriori hot path with allocation reporting
// (run with -benchmem).
func BenchmarkMine(b *testing.B) {
	sets := synthSets(8, 5000)
	l := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Mine(sets); err != nil {
			b.Fatal(err)
		}
	}
}
