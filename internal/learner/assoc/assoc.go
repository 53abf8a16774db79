// Package assoc implements the association-rule base learner (paper §4.1):
// Apriori itemset mining over the event sets that precede fatal events,
// yielding rules of the form {e1, e2, ...} => f with support and
// confidence. Low thresholds (support 0.01, confidence 0.1) are used on
// purpose — failures are rare events — and the reviser later discards the
// rules that do not hold up.
package assoc

import (
	"math"
	"sort"

	"repro/internal/learner"
)

// maxClassBits is the field width used to pack an itemset into a uint64
// map key; class IDs (catalog ≤ 219, unknown fallbacks ≈ 1100) fit in 16
// bits, so bodies of up to maxPackedItems pack collision-free.
const (
	maxClassBits   = 16
	maxPackedItems = 64 / maxClassBits // 4
)

// Learner mines association rules {non-fatal classes} => fatal class.
type Learner struct {
	// MinSupport is the minimum fraction of event sets that must contain
	// body ∪ {target} (paper default 0.01).
	MinSupport float64
	// MinConfidence is the minimum P(target | body) over event sets
	// (paper default 0.1).
	MinConfidence float64
	// MaxBody caps the antecedent size (default 3; ablated in the bench
	// suite — deeper bodies cost time and add nothing on these logs).
	MaxBody int
	// MaxItems caps how many distinct classes one event set may hold
	// (default 30, keeping per-transaction subset enumeration bounded).
	MaxItems int
	// MaxRules caps the emitted rule count; the highest-confidence rules
	// win. Mining with permissive support floods the candidate set with
	// near-duplicates otherwise. 0 means unlimited.
	MaxRules int
}

// New returns a learner with the paper's parameters.
func New() *Learner {
	return &Learner{MinSupport: 0.01, MinConfidence: 0.1, MaxBody: 3,
		MaxItems: 30, MaxRules: 400}
}

// Name implements learner.Learner.
func (l *Learner) Name() string { return "association" }

// Learn implements learner.Learner: it mines the prepared view's event
// sets — shared with any other learner asking for the same transactions.
// When the view carries maintained itemset counts covering this
// configuration (incremental retraining), mining runs off the counts
// instead of rescanning the transactions; the output is byte-identical.
func (l *Learner) Learn(tr *learner.Prepared, p learner.Params) ([]learner.Rule, error) {
	if src := tr.Itemsets; src != nil &&
		src.CanServeItemsets(p.Window(), l.MaxItems, l.EffectiveMaxBody()) {
		return l.MineCounts(src)
	}
	return l.Mine(tr.EventSets(p, l.MaxItems))
}

// EffectiveMaxBody resolves the antecedent cap the miner actually uses:
// the MaxBody knob defaulted and clamped to the packed-key limit. The
// incremental maintainer sizes its subset enumeration from this.
func (l *Learner) EffectiveMaxBody() int {
	maxBody := l.MaxBody
	if maxBody <= 0 {
		maxBody = 3
	}
	if maxBody > maxPackedItems {
		// Itemset keys pack into a uint64; larger bodies would collide.
		maxBody = maxPackedItems
	}
	return maxBody
}

// Mine runs Apriori directly over prepared event sets (exposed separately
// so tests and tools can mine synthetic transactions).
func (l *Learner) Mine(sets []learner.EventSet) ([]learner.Rule, error) {
	n := len(sets)
	if n == 0 {
		return nil, nil
	}
	minCount := int(math.Ceil(l.MinSupport * float64(n)))
	if minCount < 1 {
		minCount = 1
	}
	maxBody := l.EffectiveMaxBody()

	var rules []learner.Rule
	// Level 1 is ascending, and every later level stays in lexicographic
	// order (kept preserves it; generateCandidates relies on it).
	frequent := frequentItems(sets, minCount)
	level := make([]itemset, 0, len(frequent))
	for _, it := range frequent {
		level = append(level, itemset{items: []int{it}})
	}
	for k := 1; k <= maxBody && len(level) > 0; k++ {
		counts := countItemsets(sets, level, frequent)
		var kept []itemset
		for i := range level {
			c := counts[i]
			if c.global < minCount {
				continue
			}
			kept = append(kept, level[i])
			for _, tc := range c.byTarget {
				if tc.count < minCount {
					continue
				}
				conf := float64(tc.count) / float64(c.global)
				if conf < l.MinConfidence {
					continue
				}
				body := append([]int(nil), level[i].items...)
				rules = append(rules, learner.Rule{
					Kind:       learner.Association,
					Body:       body,
					Target:     tc.target,
					Confidence: conf,
					Support:    float64(tc.count) / float64(n),
				})
			}
		}
		if k == maxBody {
			break
		}
		level = generateCandidates(kept)
	}

	return l.finishRules(rules), nil
}

// MineCounts runs the same level-wise Apriori as Mine, but against
// maintained itemset counts instead of rescanning transactions: candidate
// generation, thresholds and emission are shared logic over identical
// integers, so the rule set is byte-identical to Mine over the window's
// event sets — at a cost proportional to the candidate count, not the
// window size. The caller must have checked CanServeItemsets.
func (l *Learner) MineCounts(src learner.ItemsetCounts) ([]learner.Rule, error) {
	n := src.NumSets()
	if n == 0 {
		return nil, nil
	}
	minCount := int(math.Ceil(l.MinSupport * float64(n)))
	if minCount < 1 {
		minCount = 1
	}
	maxBody := l.EffectiveMaxBody()

	var rules []learner.Rule
	frequent := src.FrequentItems(minCount) // level 1, ascending, as in Mine
	level := make([]itemset, 0, len(frequent))
	for _, it := range frequent {
		level = append(level, itemset{items: []int{it}})
	}
	for k := 1; k <= maxBody && len(level) > 0; k++ {
		var kept []itemset
		for i := range level {
			global, byTarget := src.ItemsetCount(level[i].items)
			if global < minCount {
				continue
			}
			kept = append(kept, level[i])
			for _, tc := range byTarget {
				if tc.Count < minCount {
					continue
				}
				conf := float64(tc.Count) / float64(global)
				if conf < l.MinConfidence {
					continue
				}
				body := append([]int(nil), level[i].items...)
				rules = append(rules, learner.Rule{
					Kind:       learner.Association,
					Body:       body,
					Target:     tc.Target,
					Confidence: conf,
					Support:    float64(tc.Count) / float64(n),
				})
			}
		}
		if k == maxBody {
			break
		}
		level = generateCandidates(kept)
	}
	return l.finishRules(rules), nil
}

// finishRules caps by mining quality, then emits in a deterministic
// order. Both comparators are total orders (rule IDs are unique within
// one mining pass), so the result does not depend on the order rules were
// appended in — which is what lets Mine and MineCounts differ in
// per-candidate target order yet return identical slices.
func (l *Learner) finishRules(rules []learner.Rule) []learner.Rule {
	if l.MaxRules > 0 && len(rules) > l.MaxRules {
		sort.Slice(rules, func(i, j int) bool {
			if rules[i].Confidence != rules[j].Confidence {
				return rules[i].Confidence > rules[j].Confidence
			}
			if rules[i].Support != rules[j].Support {
				return rules[i].Support > rules[j].Support
			}
			return rules[i].ID() < rules[j].ID()
		})
		rules = rules[:l.MaxRules]
	}
	learner.SortByID(rules)
	return rules
}

type itemset struct {
	items []int // sorted
}

// targetCount is one (fatal class, count) pair of an itemsetCount. The
// handful of fatal classes an itemset precedes makes a linear-scan
// association list cheaper than a map — no per-candidate allocation until
// a target is actually seen.
type targetCount struct {
	target int
	count  int
}

type itemsetCount struct {
	global   int
	byTarget []targetCount
}

// addTarget counts one more event set preceding target.
func (c *itemsetCount) addTarget(target int) {
	for i := range c.byTarget {
		if c.byTarget[i].target == target {
			c.byTarget[i].count++
			return
		}
	}
	c.byTarget = append(c.byTarget, targetCount{target: target, count: 1})
}

// bitset is a dense membership set over class IDs.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

func (b bitset) has(i int) bool {
	return i>>6 < len(b) && b[i>>6]&(1<<(uint(i)&63)) != 0
}

// frequentItems returns the ascending non-fatal classes that appear in at
// least minCount event sets, counted in a dense array preallocated from
// the largest class ID present (the catalog plus the unknown-event
// fallback bound it).
func frequentItems(sets []learner.EventSet, minCount int) []int {
	maxID := -1
	for i := range sets {
		for _, it := range sets[i].Items {
			if it > maxID {
				maxID = it
			}
		}
	}
	if maxID < 0 {
		return nil
	}
	counts := make([]int32, maxID+1)
	for i := range sets {
		for _, it := range sets[i].Items {
			counts[it]++
		}
	}
	var out []int
	for it, c := range counts {
		if int(c) >= minCount {
			out = append(out, it)
		}
	}
	return out
}

// pack encodes a sorted itemset (≤ maxPackedItems items, IDs < 2^16) as
// a uint64 key.
func pack(items []int) uint64 {
	var key uint64
	for _, it := range items {
		key = key<<maxClassBits | uint64(it+1) // +1 so the empty field is 0
	}
	return key
}

// countItemsets counts, for each candidate, how many event sets contain it
// (global) and how many per target class. Candidates must share a size.
func countItemsets(sets []learner.EventSet, candidates []itemset, frequentItems []int) []itemsetCount {
	counts := make([]itemsetCount, len(candidates))
	if len(candidates) == 0 || len(sets) == 0 {
		return counts
	}
	k := len(candidates[0].items)
	index := make(map[uint64]int, len(candidates))
	for i, c := range candidates {
		index[pack(c.items)] = i
	}
	maxFreq := 0
	for _, it := range frequentItems {
		if it > maxFreq {
			maxFreq = it
		}
	}
	freq := newBitset(maxFreq + 1)
	for _, it := range frequentItems {
		freq.set(it)
	}

	combo := make([]int, k)
	var trimmed []int
	for si := range sets {
		s := &sets[si]
		// Restrict the transaction to globally frequent items first — the
		// standard Apriori transaction-trimming optimization.
		trimmed = trimmed[:0]
		for _, it := range s.Items {
			if freq.has(it) {
				trimmed = append(trimmed, it)
			}
		}
		if len(trimmed) < k {
			continue
		}
		enumerate(trimmed, combo, 0, 0, func(c []int) {
			if i, ok := index[pack(c)]; ok {
				counts[i].global++
				counts[i].addTarget(s.Target)
			}
		})
	}
	return counts
}

// enumerate visits every size-len(combo) combination of items (which are
// sorted), filling combo in place.
func enumerate(items, combo []int, start, depth int, visit func([]int)) {
	if depth == len(combo) {
		visit(combo)
		return
	}
	for i := start; i <= len(items)-(len(combo)-depth); i++ {
		combo[depth] = items[i]
		enumerate(items, combo, i+1, depth+1, visit)
	}
}

// generateCandidates joins frequent k-itemsets sharing their first k-1
// items into (k+1)-candidates, pruning any whose k-subsets are not all
// frequent (the Apriori property).
//
// frequent must be in strictly increasing lexicographic order. Every
// level is: level 1 is the ascending frequent items, the miners keep a
// level's order when they drop infrequent itemsets, and this join emits
// prefix+a.last+b.last for i < j in (i, j) order, which is again sorted.
// So the itemsets sharing frequent[i]'s prefix are the run right after
// it, and the join stops at the end of that run instead of testing every
// pair.
func generateCandidates(frequent []itemset) []itemset {
	known := make(map[uint64]bool, len(frequent))
	for _, f := range frequent {
		known[pack(f.items)] = true
	}
	var out []itemset
	for i := 0; i < len(frequent); i++ {
		a := frequent[i].items
		for j := i + 1; j < len(frequent) && samePrefix(a, frequent[j].items); j++ {
			merged := make([]int, len(a)+1)
			copy(merged, a)
			merged[len(a)] = frequent[j].items[len(a)-1]
			if allSubsetsFrequent(merged, known) {
				out = append(out, itemset{items: merged})
			}
		}
	}
	return out
}

// samePrefix reports whether two equal-length itemsets share all but
// their last element.
func samePrefix(a, b []int) bool {
	for i := 0; i < len(a)-1; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// allSubsetsFrequent checks the Apriori downward-closure property.
func allSubsetsFrequent(items []int, known map[uint64]bool) bool {
	if len(items) <= 2 {
		return true // subsets were the joined pair, frequent by construction
	}
	sub := make([]int, 0, len(items)-1)
	for skip := range items {
		sub = sub[:0]
		for i, it := range items {
			if i != skip {
				sub = append(sub, it)
			}
		}
		if !known[pack(sub)] {
			return false
		}
	}
	return true
}
