package stream

import "sync/atomic"

// RetrainLimiter bounds how many training passes may run at once across
// every Service sharing the limiter. One process serving thousands of
// tenants (internal/fleet) would otherwise rebuild rules for all of them
// simultaneously whenever their schedules align. Each pass runs on one
// goroutine, so the limiter is the training concurrency: a queue in front
// of a fixed number of passes. Every pass takes a slot — scheduled,
// TrainNow, and those a follower starts — except the ones startup
// recovery starts, so activating a tenant never queues behind the rest of
// the fleet's training. A service whose pass is waiting for a slot keeps
// ingesting and predicting on its old rules; only the rebuild is deferred
// (a follower waits for it at the pass's install mark).
type RetrainLimiter struct {
	sem    chan struct{}
	active atomic.Int64
	peak   atomic.Int64
}

// NewRetrainLimiter returns a limiter admitting n concurrent passes
// (n < 1 is clamped to 1).
func NewRetrainLimiter(n int) *RetrainLimiter {
	if n < 1 {
		n = 1
	}
	return &RetrainLimiter{sem: make(chan struct{}, n)}
}

// Cap returns the admission bound.
func (l *RetrainLimiter) Cap() int { return cap(l.sem) }

// Active returns how many passes hold a slot right now.
func (l *RetrainLimiter) Active() int64 { return l.active.Load() }

// Peak returns the high-water mark of concurrent passes — the number the
// fleet tests (and the fleet_retrain_peak gauge) assert the bound with.
func (l *RetrainLimiter) Peak() int64 { return l.peak.Load() }

func (l *RetrainLimiter) acquire() {
	l.sem <- struct{}{}
	a := l.active.Add(1)
	for {
		p := l.peak.Load()
		if a <= p || l.peak.CompareAndSwap(p, a) {
			return
		}
	}
}

func (l *RetrainLimiter) release() {
	l.active.Add(-1)
	<-l.sem
}
