// Package learner defines the common vocabulary of the framework's base
// learners: the Rule type stored in the knowledge repository, the Learner
// interface each predictive method implements, and helpers for building
// training views (event sets, fatal inter-arrival gaps) from a tagged
// event stream.
//
// Three base learners implement the interface, mirroring the paper:
// association rules (package assoc), statistical failure-count rules
// (package statrule), and the fatal inter-arrival probability distribution
// (package probdist).
package learner

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/stats"
)

// Kind discriminates the three rule families.
type Kind int

// The rule families, in the meta-learner's mixture-of-experts order.
const (
	Association Kind = iota
	Statistical
	Distribution
)

// String returns the family name.
func (k Kind) String() string {
	switch k {
	case Association:
		return "association"
	case Statistical:
		return "statistical"
	case Distribution:
		return "distribution"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// AnyFatal is the Target value of rules that predict "some failure" rather
// than a specific fatal class.
const AnyFatal = -1

// Rule is one learned failure pattern. A single concrete type covers all
// three families so the knowledge repository, the reviser, and the
// rule-churn tracker can treat rules uniformly; Kind selects which fields
// are meaningful.
type Rule struct {
	Kind Kind

	// Association: Body is the sorted antecedent (non-fatal class IDs) and
	// Target the predicted fatal class. Confidence and Support are the
	// mining statistics.
	Body       []int
	Target     int
	Confidence float64
	Support    float64

	// Statistical: Count is k in "k failures within W_P predict another";
	// Confidence is the estimated probability.
	Count int

	// Distribution: Dist is the fitted inter-arrival model and ElapsedSec
	// the trigger point — warn once the time since the last failure
	// exceeds it (equivalently, CDF(elapsed) > Confidence).
	Dist       stats.Distribution
	ElapsedSec int64
}

// ID returns the rule's stable identity, used for knowledge-repository
// deduplication and for the rule-churn accounting of Figure 12. Two rules
// with the same ID express the same pattern (their statistics may differ).
func (r Rule) ID() string {
	switch r.Kind {
	case Association:
		b := make([]byte, 0, 12+4*len(r.Body))
		b = append(b, "assoc:"...)
		for i, c := range r.Body {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(c), 10)
		}
		b = append(b, "=>"...)
		b = strconv.AppendInt(b, int64(r.Target), 10)
		return string(b)
	case Statistical:
		return "stat:k=" + strconv.Itoa(r.Count)
	case Distribution:
		name := "none"
		if r.Dist != nil {
			name = r.Dist.Name()
		}
		// Bucket the trigger point so refits that barely move do not count
		// as rule churn, while real shifts do.
		return "dist:" + name + "@" + strconv.FormatInt(bucket(r.ElapsedSec), 10)
	default:
		return "unknown:" + strconv.Itoa(int(r.Kind))
	}
}

// SortByID sorts rules by ID in place. Each ID is built once up front:
// rebuilding both IDs in every comparison made the sort the dominant cost
// of a training pass.
func SortByID(rules []Rule) {
	type keyed struct {
		id   string
		rule Rule
	}
	ks := make([]keyed, len(rules))
	for i := range rules {
		ks[i] = keyed{rules[i].ID(), rules[i]}
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].id < ks[j].id })
	for i := range ks {
		rules[i] = ks[i].rule
	}
}

// bucket quantizes seconds to a coarse geometric grid (~1.5× steps) for
// Distribution IDs, returning the largest grid point not above sec.
func bucket(sec int64) int64 {
	if sec <= 0 {
		return 0
	}
	b := int64(1)
	for next := b*3/2 + 1; next <= sec; next = b*3/2 + 1 {
		b = next
	}
	return b
}

// String formats the rule for reports.
func (r Rule) String() string {
	switch r.Kind {
	case Association:
		return fmt.Sprintf("%s (conf=%.2f sup=%.3f)", r.ID(), r.Confidence, r.Support)
	case Statistical:
		return fmt.Sprintf("%s (p=%.2f)", r.ID(), r.Confidence)
	case Distribution:
		return fmt.Sprintf("%s (theta=%.2f, %v)", r.ID(), r.Confidence, r.Dist)
	default:
		return r.ID()
	}
}

// NormalizeBody sorts and deduplicates an association-rule body in place,
// returning the normalized slice.
func NormalizeBody(body []int) []int {
	sort.Ints(body)
	out := body[:0]
	for i, v := range body {
		if i == 0 || v != body[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// Params carries the training-wide settings every learner needs.
type Params struct {
	// WindowSec is the rule-generation window W_P in seconds (the paper's
	// default is 300).
	WindowSec int64
}

// Window returns the window in milliseconds (the event timestamp unit).
func (p Params) Window() int64 { return p.WindowSec * 1000 }

// Learner is one predictive method: it studies a prepared training view
// (the time-sorted stream plus shared, lazily-built derivations of it —
// see Prepared) and produces candidate rules for the knowledge repository.
type Learner interface {
	// Name identifies the learner in reports ("association", ...).
	Name() string
	// Learn mines rules from the prepared training view. The learners of
	// an ensemble share the Prepared and run one after another.
	Learn(tr *Prepared, p Params) ([]Rule, error)
}
