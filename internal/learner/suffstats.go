package learner

// Windowed sufficient-statistic interfaces: the contract between the base
// learners and an incremental maintainer (internal/learner/incr) that
// keeps per-window counts up to date as events enter and expire from the
// sliding training window. Each interface serves exactly the integer
// counts the corresponding learner's batch pass would derive from the raw
// stream, so mining from them is byte-identical to mining from scratch
// (identical integers divide into identical float64 statistics).
//
// Every interface carries a CanServe guard: the maintainer was configured
// for one (window, learner-shape) combination, and a learner asking with
// different parameters must fall back to its batch path. All methods are
// read-only, provided no Advance runs during the training pass (the
// retrain flow sequences them).

// TargetCount is one (fatal class, count) pair of a per-target tally.
type TargetCount struct {
	Target int
	Count  int
}

// ItemsetCounts serves Apriori sufficient statistics: for any itemset up
// to the maintained body size, how many transactions (event sets) of the
// current window contain it, globally and per fatal target class.
type ItemsetCounts interface {
	// CanServeItemsets reports whether the maintained counts match this
	// mining configuration exactly: same rule-generation window, same
	// per-transaction item cap, and a maintained body size at least
	// maxBody (subset counts of larger bodies include the smaller ones).
	CanServeItemsets(windowMs int64, maxItems, maxBody int) bool
	// NumSets is the number of transactions in the window.
	NumSets() int
	// FrequentItems returns, ascending, the items contained in at least
	// minCount transactions — the Apriori level-1 pass.
	FrequentItems(minCount int) []int
	// ItemsetCount returns how many transactions contain the (sorted)
	// itemset, globally and split by target class. The returned slice is
	// shared state: callers must not mutate or retain it past the pass.
	ItemsetCount(items []int) (global int, byTarget []TargetCount)
}

// FailureRunCounts serves the statistical learner's sufficient
// statistics: for each run length k, how many fatal events closed a run
// of at least k fatals within the window (occurrences) and how many of
// those were followed by another fatal within the window (successes).
type FailureRunCounts interface {
	// CanServeRuns reports whether the maintained counters cover this
	// configuration: same window, and a maintained run cap of at least
	// maxK (counts for k ≤ maxK are cap-independent below the cap).
	CanServeRuns(windowMs int64, maxK int) bool
	// RunCounts returns the occurrence/success counters (index k, valid
	// for 1 ≤ k ≤ the maintained cap) and the total number of fatals in
	// the window. The slices are shared state: read-only, do not retain.
	RunCounts() (occurrences, successes []int, total int)
}
