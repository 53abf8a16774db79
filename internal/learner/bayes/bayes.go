// Package bayes implements an optional fourth base learner, following the
// paper's future-work note that "other data mining methods, such as
// decision tree and neural network", can popularize the base-learner set
// and that "other predictive methods can be easily incorporated into our
// framework".
//
// The learner is a naive-Bayes classifier over the rule-generation
// window: for every non-fatal class c it estimates
//
//	lr(c) = P(c in window | failure follows within W_P)
//	        -----------------------------------------------
//	        P(c in window | no failure follows within W_P)
//
// with Laplace smoothing, plus the prior odds of "a failure follows this
// event within W_P". At prediction time the posterior odds of the classes
// present in the current window decide whether to warn. Rules produced by
// this learner carry Kind learner.Association with a single-class body —
// one rule per strongly-indicative class — so the existing predictor,
// reviser and repository machinery consume them unchanged; the Bayes
// computation happens at mining time, not match time.
package bayes

import (
	"math"
	"sort"

	"repro/internal/learner"
	"repro/internal/preprocess"
)

// Learner mines single-class Bayesian indicator rules.
type Learner struct {
	// MinLikelihoodRatio is the minimum lr(c) for a class to become an
	// indicator rule (default 5: the class must be five times likelier
	// ahead of failures than elsewhere).
	MinLikelihoodRatio float64
	// MinOccurrences is the minimum number of pre-failure windows the
	// class must appear in (default 5).
	MinOccurrences int
	// MaxRules caps the output (default 100).
	MaxRules int
}

// New returns a learner with default parameters.
func New() *Learner {
	return &Learner{MinLikelihoodRatio: 5, MinOccurrences: 5, MaxRules: 100}
}

// Name implements learner.Learner.
func (l *Learner) Name() string { return "bayes" }

// classTally is one non-fatal class's occurrence split.
type classTally struct {
	followed    int // occurrences followed by a fatal within the window
	notFollowed int
	target      map[int]int // fatal class frequencies when followed
}

// Learn implements learner.Learner. It slides over the stream once,
// counting for every non-fatal class how many of its occurrences are
// followed by a fatal event within the window versus not, then emits an
// indicator rule per class whose likelihood ratio clears the threshold.
func (l *Learner) Learn(tr *learner.Prepared, p learner.Params) ([]learner.Rule, error) {
	events := tr.Events
	window := p.Window()

	// nextFatalAfter[i]: timestamp of the first fatal strictly after
	// events[i], or -1.
	nextFatal := make([]int64, len(events))
	next := int64(-1)
	for i := len(events) - 1; i >= 0; i-- {
		nextFatal[i] = next
		if events[i].Fatal {
			next = events[i].Time
		}
	}

	perClass := make(map[int]*classTally)
	positives, negatives := 0, 0
	for i := range events {
		if events[i].Fatal {
			continue
		}
		followed := nextFatal[i] >= 0 && nextFatal[i]-events[i].Time <= window
		c := perClass[events[i].Class]
		if c == nil {
			c = &classTally{target: make(map[int]int)}
			perClass[events[i].Class] = c
		}
		if followed {
			c.followed++
			positives++
			// Attribute the occurrence to the fatal class it preceded.
			c.target[classOfFatalAt(events, i, nextFatal[i])]++
		} else {
			c.notFollowed++
			negatives++
		}
	}

	return l.rulesFromTallies(perClass, positives, negatives), nil
}

// rulesFromTallies emits indicator rules from the per-class tallies. The
// output does not depend on map order: the target tie-break is
// deterministic — highest count, then smallest class ID — and the rules
// are sorted by ID.
func (l *Learner) rulesFromTallies(perClass map[int]*classTally, positives, negatives int) []learner.Rule {
	if positives == 0 || negatives == 0 {
		return nil
	}
	var rules []learner.Rule
	for class, c := range perClass {
		if c.followed < l.MinOccurrences {
			continue
		}
		// Laplace-smoothed likelihood ratio.
		pPos := (float64(c.followed) + 1) / (float64(positives) + 2)
		pNeg := (float64(c.notFollowed) + 1) / (float64(negatives) + 2)
		lr := pPos / pNeg
		if lr < l.MinLikelihoodRatio {
			continue
		}
		// The most frequent fatal class this indicator precedes; ties go
		// to the smallest class ID.
		target, best := learner.AnyFatal, 0
		for f, n := range c.target {
			if n > best || n == best && f < target {
				target, best = f, n
			}
		}
		confidence := float64(c.followed) / float64(c.followed+c.notFollowed)
		rules = append(rules, learner.Rule{
			Kind:       learner.Association,
			Body:       []int{class},
			Target:     target,
			Confidence: confidence,
			Support:    math.Min(1, float64(c.followed)/float64(positives)),
		})
	}
	sort.Slice(rules, func(i, j int) bool {
		if rules[i].Confidence != rules[j].Confidence {
			return rules[i].Confidence > rules[j].Confidence
		}
		return rules[i].ID() < rules[j].ID()
	})
	if l.MaxRules > 0 && len(rules) > l.MaxRules {
		rules = rules[:l.MaxRules]
	}
	learner.SortByID(rules)
	return rules
}

// classOfFatalAt finds the class of the fatal event at timestamp t,
// searching forward from index i.
func classOfFatalAt(events []preprocess.TaggedEvent, i int, t int64) int {
	for j := i + 1; j < len(events); j++ {
		if events[j].Fatal && events[j].Time == t {
			return events[j].Class
		}
		if events[j].Time > t {
			break
		}
	}
	return learner.AnyFatal
}
