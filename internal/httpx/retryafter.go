// Package httpx holds small HTTP client helpers shared by the repo's
// clients (examples/livefeed, the cmd/serve crash harness) and the
// standby follower's pull loop. It exists because the Retry-After
// parsing those clients originally duplicated had quietly diverged: one
// accepted only positive integer seconds, the other any integer, neither
// capped the wait or understood the HTTP-date form the header is equally
// allowed to carry (RFC 9110 §10.2.3).
package httpx

import (
	"net/http"
	"strconv"
	"time"
)

// RetryAfter interprets a Retry-After header as a wait duration.
//
// Both header forms are accepted: delta-seconds ("120") and HTTP-date
// ("Fri, 08 Aug 2026 17:00:00 GMT", any format http.ParseTime knows).
// The result is clamped to [0, max] — a server must not be able to park
// a client for an hour with one header — with zero meaning "retry now"
// (a date in the past reads the same way). A missing, empty, negative,
// or unparseable header yields fallback: the caller's own backoff
// schedule, unmodified.
func RetryAfter(h http.Header, fallback, max time.Duration) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return fallback
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return fallback
		}
		return clampWait(time.Duration(secs)*time.Second, max)
	}
	if t, err := http.ParseTime(v); err == nil {
		return clampWait(time.Until(t), max)
	}
	return fallback
}

func clampWait(d, max time.Duration) time.Duration {
	if d < 0 {
		return 0
	}
	if max > 0 && d > max {
		return max
	}
	return d
}
