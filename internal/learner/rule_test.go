package learner

import (
	"strings"
	"testing"

	"repro/internal/preprocess"
	"repro/internal/raslog"
	"repro/internal/stats"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		Association: "association", Statistical: "statistical",
		Distribution: "distribution", Kind(9): "Kind(9)",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestRuleIDStable(t *testing.T) {
	a := Rule{Kind: Association, Body: []int{3, 17}, Target: 40, Confidence: 0.9}
	b := Rule{Kind: Association, Body: []int{3, 17}, Target: 40, Confidence: 0.2}
	if a.ID() != b.ID() {
		t.Error("same pattern, different IDs")
	}
	c := Rule{Kind: Association, Body: []int{3, 18}, Target: 40}
	if a.ID() == c.ID() {
		t.Error("different bodies, same ID")
	}
	d := Rule{Kind: Association, Body: []int{3, 17}, Target: 41}
	if a.ID() == d.ID() {
		t.Error("different targets, same ID")
	}
}

func TestStatisticalRuleID(t *testing.T) {
	r := Rule{Kind: Statistical, Count: 4, Confidence: 0.99}
	if r.ID() != "stat:k=4" {
		t.Errorf("ID = %q", r.ID())
	}
}

func TestDistributionRuleIDBuckets(t *testing.T) {
	w := stats.Weibull{Scale: 19984.8, Shape: 0.508}
	// Trigger points within ~15% share a bucket; far apart ones differ.
	a := Rule{Kind: Distribution, Dist: w, ElapsedSec: 20000}
	b := Rule{Kind: Distribution, Dist: w, ElapsedSec: 20400}
	c := Rule{Kind: Distribution, Dist: w, ElapsedSec: 45000}
	if a.ID() != b.ID() {
		t.Errorf("near triggers split: %q vs %q", a.ID(), b.ID())
	}
	if a.ID() == c.ID() {
		t.Errorf("far triggers merged: %q", a.ID())
	}
	nilDist := Rule{Kind: Distribution}
	if !strings.Contains(nilDist.ID(), "none") {
		t.Errorf("nil-dist ID = %q", nilDist.ID())
	}
}

// TestRuleIDFormat pins the exact ID strings of every kind. They key the
// knowledge repository, order the predictor's rules and appear in every
// warning, so a byte that moves shifts churn accounting and predictions.
func TestRuleIDFormat(t *testing.T) {
	for _, tc := range []struct {
		rule Rule
		want string
	}{
		{Rule{Kind: Association, Body: []int{3, 17}, Target: 40}, "assoc:3,17=>40"},
		{Rule{Kind: Association, Body: []int{5}, Target: AnyFatal}, "assoc:5=>-1"},
		{Rule{Kind: Association, Body: []int{-3, 0, 12}, Target: -7}, "assoc:-3,0,12=>-7"},
		{Rule{Kind: Association, Target: 2}, "assoc:=>2"},
		{Rule{Kind: Statistical, Count: 4}, "stat:k=4"},
		{Rule{Kind: Statistical, Count: -2}, "stat:k=-2"},
		{Rule{Kind: Distribution}, "dist:none@0"},
		{Rule{Kind: Distribution, ElapsedSec: -5}, "dist:none@0"},
		{Rule{Kind: Distribution, Dist: stats.Weibull{Scale: 1, Shape: 1}, ElapsedSec: 20000}, "dist:weibull@18205"},
		{Rule{Kind: Distribution, Dist: stats.LogNormal{Mu: 1, Sigma: 1}, ElapsedSec: 60}, "dist:lognormal@40"},
		{Rule{Kind: Distribution, Dist: stats.Exponential{Scale: 1}, ElapsedSec: 1}, "dist:exponential@1"},
		{Rule{Kind: Kind(7)}, "unknown:7"},
	} {
		if got := tc.rule.ID(); got != tc.want {
			t.Errorf("%+v: ID = %q, want %q", tc.rule, got, tc.want)
		}
	}
}

func TestSortByID(t *testing.T) {
	rules := []Rule{
		{Kind: Statistical, Count: 3},
		{Kind: Association, Body: []int{9}, Target: 1},
		{Kind: Distribution, ElapsedSec: 100},
		{Kind: Association, Body: []int{10}, Target: 1},
		{Kind: Association, Body: []int{1, 2}, Target: 5},
	}
	SortByID(rules)
	want := []string{"assoc:1,2=>5", "assoc:10=>1", "assoc:9=>1", "dist:none@92", "stat:k=3"}
	for i, r := range rules {
		if r.ID() != want[i] {
			t.Fatalf("position %d: %q, want %q", i, r.ID(), want[i])
		}
	}
}

func TestRuleStringMentionsStats(t *testing.T) {
	r := Rule{Kind: Association, Body: []int{1}, Target: 2, Confidence: 0.5, Support: 0.02}
	if s := r.String(); !strings.Contains(s, "conf=0.50") {
		t.Errorf("String = %q", s)
	}
}

func TestNormalizeBody(t *testing.T) {
	got := NormalizeBody([]int{5, 1, 5, 3, 1})
	want := []int{1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("NormalizeBody = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NormalizeBody = %v, want %v", got, want)
		}
	}
}

func TestParamsWindow(t *testing.T) {
	if (Params{WindowSec: 300}).Window() != 300_000 {
		t.Error("Window conversion wrong")
	}
}

// tagged builds a minimal tagged event.
func tagged(tSec int64, class int, fatal bool) preprocess.TaggedEvent {
	return preprocess.TaggedEvent{
		Event: raslog.Event{Time: tSec * 1000, Facility: raslog.Kernel},
		Class: class, Fatal: fatal,
	}
}

func TestBuildEventSets(t *testing.T) {
	p := Params{WindowSec: 300}
	events := []preprocess.TaggedEvent{
		tagged(0, 10, false),
		tagged(100, 11, false),
		tagged(250, 99, true), // set: {10, 11} => 99
		tagged(1000, 12, false),
		tagged(1600, 98, true), // no precursor within 300 s: skipped
		tagged(2000, 10, false),
		tagged(2010, 10, false), // duplicate class: one item
		tagged(2100, 97, true),  // set: {10} => 97
	}
	sets := BuildEventSets(events, p, 0)
	if len(sets) != 2 {
		t.Fatalf("got %d sets, want 2: %v", len(sets), sets)
	}
	if sets[0].Target != 99 || len(sets[0].Items) != 2 {
		t.Errorf("set 0 = %+v", sets[0])
	}
	if sets[1].Target != 97 || len(sets[1].Items) != 1 || sets[1].Items[0] != 10 {
		t.Errorf("set 1 = %+v", sets[1])
	}
}

func TestBuildEventSetsExcludesFatalItems(t *testing.T) {
	p := Params{WindowSec: 300}
	events := []preprocess.TaggedEvent{
		tagged(0, 99, true),
		tagged(50, 10, false),
		tagged(100, 98, true), // window holds fatal 99 and non-fatal 10
	}
	sets := BuildEventSets(events, p, 0)
	if len(sets) != 1 {
		t.Fatalf("got %d sets", len(sets))
	}
	for _, it := range sets[0].Items {
		if it == 99 {
			t.Error("fatal event leaked into itemset")
		}
	}
}

func TestBuildEventSetsMaxItems(t *testing.T) {
	p := Params{WindowSec: 300}
	var events []preprocess.TaggedEvent
	for i := 0; i < 20; i++ {
		events = append(events, tagged(int64(i), 10+i, false))
	}
	events = append(events, tagged(30, 99, true))
	sets := BuildEventSets(events, p, 5)
	if len(sets) != 1 || len(sets[0].Items) != 5 {
		t.Fatalf("sets = %+v", sets)
	}
	// The cap keeps the most recent classes.
	for _, it := range sets[0].Items {
		if it < 25 {
			t.Errorf("kept old item %d instead of recent ones", it)
		}
	}
}

func TestFatalGapsAndTimes(t *testing.T) {
	events := []preprocess.TaggedEvent{
		tagged(0, 99, true),
		tagged(5, 1, false),
		tagged(10, 98, true),
		tagged(100, 97, true),
	}
	gaps := FatalGaps(events)
	if len(gaps) != 2 || gaps[0] != 10 || gaps[1] != 90 {
		t.Errorf("gaps = %v", gaps)
	}
	times := FatalTimes(events)
	if len(times) != 3 || times[0] != 0 || times[2] != 100_000 {
		t.Errorf("times = %v", times)
	}
	if FatalGaps(nil) != nil {
		t.Error("empty input gave gaps")
	}
}

func TestFatalGapsSkipsZeroGaps(t *testing.T) {
	events := []preprocess.TaggedEvent{
		tagged(10, 99, true),
		tagged(10, 98, true), // same second
		tagged(20, 97, true),
	}
	gaps := FatalGaps(events)
	for _, g := range gaps {
		if g <= 0 {
			t.Errorf("non-positive gap %g", g)
		}
	}
}
