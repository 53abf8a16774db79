package meta

import "repro/internal/learner"

// Repository is the knowledge repository of Figure 1: the rule set the
// predictor currently runs on, with churn accounting across retrainings.
type Repository struct {
	rules map[string]learner.Rule
}

// NewRepository returns an empty repository.
func NewRepository() *Repository {
	return &Repository{rules: make(map[string]learner.Rule)}
}

// Len returns the number of stored rules.
func (r *Repository) Len() int { return len(r.rules) }

// Rules returns the stored rules sorted by ID (a stable order for the
// predictor and for reports).
func (r *Repository) Rules() []learner.Rule {
	out := make([]learner.Rule, 0, len(r.rules))
	for _, rule := range r.rules {
		out = append(out, rule)
	}
	learner.SortByID(out)
	return out
}

// Restore replaces the repository contents with rules recovered from a
// durable snapshot, without churn accounting — the churn of the pass
// that produced them was recorded when that pass ran. The next Update
// therefore computes churn against the restored set, exactly as it
// would have against the original.
func (r *Repository) Restore(rules []learner.Rule) {
	r.rules = make(map[string]learner.Rule, len(rules))
	for _, rule := range rules {
		r.rules[rule.ID()] = rule
	}
}

// Churn reports what one retraining changed (the four curves of
// Figure 12).
type Churn struct {
	Unchanged        int // rules present before and re-learned now
	Added            int // new rules entering the repository
	RemovedByMeta    int // old rules the meta-learner no longer mined at all
	RemovedByReviser int // candidate rules the reviser rejected
}

// Update replaces the repository contents with a training report's kept
// rules and returns the churn relative to the previous contents.
func (r *Repository) Update(report *TrainReport) Churn {
	var c Churn
	keptIDs := make(map[string]bool, len(report.Kept))
	for _, rule := range report.Kept {
		keptIDs[rule.ID()] = true
	}
	candidateIDs := make(map[string]bool, len(report.Candidates))
	for _, rule := range report.Candidates {
		candidateIDs[rule.ID()] = true
	}
	for id := range candidateIDs {
		if !keptIDs[id] {
			c.RemovedByReviser++
		}
	}
	for id := range r.rules {
		switch {
		case keptIDs[id]:
			c.Unchanged++
		case candidateIDs[id]:
			// Re-mined but rejected: already counted against the reviser.
		default:
			c.RemovedByMeta++
		}
	}
	c.Added = len(report.Kept) - c.Unchanged

	r.rules = make(map[string]learner.Rule, len(report.Kept))
	for _, rule := range report.Kept {
		r.rules[rule.ID()] = rule
	}
	return c
}
