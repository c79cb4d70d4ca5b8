// Package breaker is the three-state circuit breaker that both the
// crawler's browser (one per search endpoint) and the cluster router (one
// per shard replica) consult before contacting a node: closed (traffic
// flows, consecutive failures are counted), open (traffic fails fast until
// a cooldown elapses), half-open (exactly one probe is admitted; success
// closes the breaker, failure reopens it).
//
// The contract every caller follows: each attempt Allow admits ends in
// exactly one of Success, Failure or Pushback. Pushback is explicit
// server backpressure — a 429, a 503 shed — or any outcome that says
// nothing about the node's health; it never trips the breaker, and its
// only effect is to hand a half-open probe slot back. An attempt that
// reports nothing would hold that slot forever.
//
// A Breaker never reads a clock: it is driven entirely by the instants its
// owner passes in, so under a Manual campaign clock its transitions are a
// pure function of the deterministic failure sequence, and same-seed chaos
// runs replay identical breaker timelines.
package breaker

import (
	"sync"
	"time"
)

type state int

const (
	closed state = iota
	open
	halfOpen
)

// Transition labels passed to the onTransition hook. "open" counts trips
// from closed, "reopen" failed half-open probes; at quiescence (every node
// healthy again) open == close, which the soak harness asserts.
const (
	transOpen     = "open"
	transReopen   = "reopen"
	transHalfOpen = "half_open"
	transClose    = "close"
)

// Breaker is one node's circuit breaker. It is safe for concurrent use:
// many scatter-gather fan-outs consult the same replica's breaker at once,
// and in half-open state exactly one of them may carry the probe.
type Breaker struct {
	threshold    int           // consecutive failures that trip the breaker
	cooldown     time.Duration // open-state dwell before a half-open probe
	onTransition func(label string)

	mu        sync.Mutex
	state     state
	failures  int       // consecutive failures while closed
	openedAt  time.Time // instant of the most recent trip or reopen
	trippedAt time.Time // instant of the most recent closed→open trip
	probing   bool      // half-open: a probe is in flight
}

// New returns a closed breaker that trips after threshold consecutive
// failures and stays open for cooldown. onTransition, when non-nil,
// observes every state change by label (a metric hook); it runs under the
// breaker lock, so keep it to a counter bump.
func New(threshold int, cooldown time.Duration, onTransition func(label string)) *Breaker {
	return &Breaker{threshold: threshold, cooldown: cooldown, onTransition: onTransition}
}

func (b *Breaker) transition(s state, label string) {
	b.state = s
	if b.onTransition != nil {
		b.onTransition(label)
	}
}

// Allow reports whether a request may be issued at instant now. Open fails
// fast with the remaining cooldown until it elapses, then moves to
// half-open and admits a single probe; while that probe is outstanding
// every other caller fails fast (wait is then the cooldown, a conservative
// hint). Requests sharing the trip's own clock instant are still admitted
// — the trip becomes visible at the next instant — so admission is a pure
// function of (state-before-now, now), never of how concurrent
// same-instant callers interleave.
func (b *Breaker) Allow(now time.Time) (wait time.Duration, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case closed:
		return 0, true
	case open:
		// A trip takes effect strictly AFTER the clock instant it happened
		// at. Callers sharing the tripping request's instant were already
		// committed when the threshold failure landed, so they are admitted
		// (their failures are no-ops — the breaker is already open).
		// Without the deferral, whether a same-instant sibling contacts the
		// node or fails fast would depend on goroutine interleaving.
		// Reopens after a failed probe do NOT defer: same-instant siblings
		// were denied both before the reopen (half-open, probe slot taken)
		// and after it (cooldown restarted), so there is nothing to hide.
		if now.Equal(b.trippedAt) {
			return 0, true
		}
		if remaining := b.openedAt.Add(b.cooldown).Sub(now); remaining > 0 {
			return remaining, false
		}
		b.transition(halfOpen, transHalfOpen)
		b.probing = true
		return 0, true
	default: // half-open
		if b.probing {
			return b.cooldown, false
		}
		b.probing = true
		return 0, true
	}
}

// Success records a request the node answered usefully. A successful
// half-open probe closes the breaker; in the closed state it resets the
// failure streak.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == halfOpen {
		b.probing = false
		b.transition(closed, transClose)
	}
	b.failures = 0
}

// Failure records a breaker-eligible failure at instant now: transport
// errors, timeouts, 5xx other than sheds, unparsable pages. A failed
// half-open probe reopens the breaker for another full cooldown.
func (b *Breaker) Failure(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case halfOpen:
		b.probing = false
		b.openedAt = now
		b.transition(open, transReopen)
	case closed:
		b.failures++
		if b.failures >= b.threshold {
			b.openedAt = now
			b.trippedAt = now
			b.transition(open, transOpen)
		}
	}
}

// Pushback records an admitted attempt that says nothing about the node's
// health — explicit backpressure (a 429 or 503 shed, where the node is
// alive and asking for patience) or an error that is not the node's
// fault. It neither trips the breaker nor counts as success; it only frees
// a half-open probe slot so the next caller can try again.
func (b *Breaker) Pushback() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == halfOpen {
		b.probing = false
	}
}

// ProbeDue reports whether the breaker has sat open for at least its
// cooldown at instant now — an out-of-band health prober's admission test.
// Half-open breakers are not due (a search-path probe already owns the
// slot), and closed breakers need no re-admission.
func (b *Breaker) ProbeDue(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == open && now.Sub(b.openedAt) >= b.cooldown
}

// ProbeClose closes an open breaker on the strength of an out-of-band
// health probe, reporting whether it transitioned. It emits the same
// "close" label as a successful half-open probe, so the open/close ledger
// stays balanced no matter which path re-admitted the node. A breaker that
// moved on since ProbeDue (a concurrent caller took it half-open) is left
// alone — the in-flight probe decides.
func (b *Breaker) ProbeClose() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != open {
		return false
	}
	b.failures = 0
	b.transition(closed, transClose)
	return true
}

// State renders the state for spans, errors and /statz surfaces:
// "closed", "open" or "half-open".
func (b *Breaker) State() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case open:
		return "open"
	case halfOpen:
		return "half-open"
	default:
		return "closed"
	}
}
