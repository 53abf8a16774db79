package meta

import (
	"repro/internal/learner"
	"repro/internal/learner/incr"
)

// IncrConfig derives the incremental sufficient-statistics configuration
// that serves this ensemble exactly: the maintainer's caps mirror what
// each base learner's effective knobs ask for. A State built from this
// config answers every CanServe guard positively, so no core learner
// silently falls back to its batch pass.
func IncrConfig(m *MetaLearner, p learner.Params) incr.Config {
	cfg := incr.Config{WindowMs: p.Window()}
	if m.Assoc != nil {
		cfg.MaxItems = m.Assoc.MaxItems
		cfg.MaxBody = m.Assoc.EffectiveMaxBody()
	}
	if m.Stat != nil {
		cfg.MaxK = m.Stat.EffectiveMaxK()
	}
	return cfg
}
