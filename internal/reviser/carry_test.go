package reviser

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/learner"
	"repro/internal/preprocess"
	"repro/internal/stats"
)

// burstStream is denseStream with ties: events often share a timestamp,
// and fatals arrive in bursts, so syncs and the previous pass's last
// event fall inside runs of equal times.
func burstStream(seed uint64, n int) []preprocess.TaggedEvent {
	r := stats.NewRNG(seed)
	var events []preprocess.TaggedEvent
	tm := int64(0)
	for len(events) < n {
		if r.Intn(3) != 0 {
			tm += int64(r.Intn(120))
		}
		switch {
		case r.Intn(8) == 0:
			for k := r.Intn(3); k >= 0; k-- {
				events = append(events, mk(tm, 99, true))
			}
		case r.Intn(15) == 0:
			events = append(events, mk(tm, 98, true))
		default:
			events = append(events, mk(tm, r.Intn(20), false))
		}
	}
	return events
}

// carryZoo is ruleZoo plus rules that share a scoring key with another
// (same body, another target) and distribution rules at trigger points
// Rule.ID buckets together.
func carryZoo() []learner.Rule {
	rules := ruleZoo()
	for a := 0; a < 20; a += 4 {
		rules = append(rules, assocRule(98, a))
	}
	for _, gap := range []int64{700, 701, 1500} {
		rules = append(rules, learner.Rule{
			Kind: learner.Distribution, Target: learner.AnyFatal, ElapsedSec: gap})
	}
	return rules
}

// window returns the events in [from, to) (ms).
func window(events []preprocess.TaggedEvent, from, to int64) []preprocess.TaggedEvent {
	idx := func(t int64) int {
		return sort.Search(len(events), func(i int) bool { return events[i].Time >= t })
	}
	return events[idx(from):idx(to)]
}

// TestCarryMatchesFreshScoring pins the carried reviser to the full
// replay: over random streams, at W_P below, at and above the 300 s alarm
// spacing, on sliding and whole-history schedules, every pass scores a
// random 80 % of the candidates with the carry and must equal ScoreAll
// over the same window. Mid-schedule a fresh Carry (a restore), a window
// that slides backwards, a W_P change and a window that disagrees with
// the last one on their overlap must fall back to the full replay and
// carry on from there.
func TestCarryMatchesFreshScoring(t *testing.T) {
	zoo := carryZoo()
	type stream struct {
		name   string
		events []preprocess.TaggedEvent
	}
	var streams []stream
	for _, seed := range []uint64{3, 8} {
		streams = append(streams,
			stream{fmt.Sprintf("dense%d", seed), denseStream(seed, 3000)},
			stream{fmt.Sprintf("burst%d", seed), burstStream(seed, 3000)})
	}
	carriedPasses := 0
	for _, st := range streams {
		span := st.events[len(st.events)-1].Time + 1
		for _, wp := range []int64{60, 300, 3600} {
			for _, whole := range []bool{false, true} {
				name := fmt.Sprintf("%s/W%d/whole=%v", st.name, wp, whole)
				r := stats.NewRNG(uint64(wp) + uint64(len(st.name)))
				p := learner.Params{WindowSec: wp}
				c := new(Carry)
				length := span / 4
				from, to := int64(0), span/5
				for pass := 0; to <= span+span/10; pass++ {
					if !whole {
						from = min(max(from, to-length), to-length/4)
					}
					switch pass {
					case 6:
						c = new(Carry) // a restore: nothing carried
					case 9:
						// A backwards slide.
						if whole {
							to -= span / 20
						} else {
							from -= span / 20
						}
					case 12:
						p = learner.Params{WindowSec: wp + 60} // a W_P change
					}
					events := window(st.events, from, to)
					if pass == 15 {
						// A stream that disagrees with the last pass on
						// their overlap: the audit must refuse to carry.
						drop := len(events) / 2
						for !events[drop].Fatal {
							drop++
						}
						events = append(events[:drop:drop], events[drop+1:]...)
					}
					var rules []learner.Rule
					for _, i := range r.Perm(len(zoo)) {
						if len(rules) < len(zoo)*8/10 {
							rules = append(rules, zoo[i])
						}
					}
					if _, _, ok := c.follows(events, p); ok {
						carriedPasses++
					}
					got := c.score(rules, events, p)
					want := ScoreAll(rules, events, p)
					for i := range rules {
						if got[i] != want[i] {
							t.Fatalf("%s pass %d [%d, %d): rule %s carried %+v, fresh %+v",
								name, pass, from, to, rules[i].ID(), got[i], want[i])
						}
					}
					to += int64(1 + r.Intn(int(span/12)))
					if !whole {
						from += int64(r.Intn(int(span / 12)))
					}
				}
			}
		}
	}
	if carriedPasses == 0 {
		t.Fatal("no pass carried the previous one")
	}
}
