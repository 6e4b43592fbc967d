package serveclient

import (
	"sync"
	"time"

	"rpm/internal/obs"
)

// Breaker states as recorded in the per-model state gauge.
const (
	stateClosed   = 0
	stateOpen     = 1
	stateHalfOpen = 2
)

// breaker is one model's circuit breaker: closed (normal service,
// counting consecutive failures), open (rejecting instantly until the
// cool-off elapses), half-open (admitting a single probe; its success
// closes the breaker, its failure re-opens it).
//
// The state machine advances only on allow/record calls — no background
// goroutine, no timers; "open long enough" is evaluated lazily against
// the clock the caller passes in (which is how tests drive it without
// sleeping).
type breaker struct {
	mu       sync.Mutex
	state    int
	failures int       // consecutive failures while closed
	until    time.Time // while open: when the probe may be admitted

	opened *obs.Counter
	closed *obs.Counter
	gauge  *obs.Gauge
}

func newBreaker(opened, closed *obs.Counter, gauge *obs.Gauge) *breaker {
	return &breaker{opened: opened, closed: closed, gauge: gauge}
}

// allow reports whether a call may proceed now. An open breaker whose
// cool-off elapsed transitions to half-open and admits exactly one
// probe; further calls are rejected until that probe is recorded.
func (b *breaker) allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case stateClosed:
		return true
	case stateOpen:
		if now.Before(b.until) {
			return false
		}
		b.state = stateHalfOpen
		b.gauge.Set(stateHalfOpen)
		return true
	default: // half-open: the single probe is in flight
		return false
	}
}

// record reports the outcome of an admitted call.
func (b *breaker) record(ok bool, now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case stateClosed:
		if ok {
			b.failures = 0
			return
		}
		b.failures++
		if b.failures >= breakerThreshold {
			b.trip(now)
		}
	case stateHalfOpen:
		if !ok {
			b.trip(now)
			return
		}
		b.state = stateClosed
		b.failures = 0
		b.closed.Inc()
		b.gauge.Set(stateClosed)
	case stateOpen:
		// A call admitted before the trip finishing after it: its outcome
		// carries no information about the post-trip server, ignore it.
	}
}

// trip opens the breaker until now+breakerOpenFor. Caller holds b.mu.
func (b *breaker) trip(now time.Time) {
	b.state = stateOpen
	b.until = now.Add(breakerOpenFor)
	b.failures = 0
	b.opened.Inc()
	b.gauge.Set(stateOpen)
}
