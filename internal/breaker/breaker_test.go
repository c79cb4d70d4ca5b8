package breaker

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var epoch = time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)

// step is one call on the breaker under test, at epoch+at, and what it
// must report. Allow checks ok and (when refused) wait; ProbeDue and
// ProbeClose check ok; elect runs 32 concurrent Allow calls at the same
// instant and checks that exactly admitted of them got through. state,
// when set, is the State() expected after the step.
type step struct {
	op       string
	at       time.Duration
	ok       bool
	wait     time.Duration
	admitted int
	state    string
}

func TestBreaker(t *testing.T) {
	const minute = time.Minute
	tests := []struct {
		name      string
		threshold int
		cooldown  time.Duration
		steps     []step
		// transitions is the exact onTransition label sequence.
		transitions string
	}{
		{
			name: "success breaks the failure streak", threshold: 2, cooldown: minute,
			steps: []step{
				{op: "allow", ok: true},
				{op: "failure"},
				{op: "success"},
				{op: "failure", state: "closed"},
				{op: "failure", state: "open"},
			},
			transitions: "open",
		},
		{
			name: "trip takes effect after its own instant", threshold: 3, cooldown: 45 * time.Second,
			steps: []step{
				{op: "failure"},
				{op: "failure"},
				{op: "allow", ok: true, state: "closed"},
				{op: "failure", state: "open"},
				{op: "allow", ok: true, state: "open"},
				{op: "allow", at: time.Millisecond, wait: 45*time.Second - time.Millisecond, state: "open"},
			},
			transitions: "open",
		},
		{
			name: "open fails fast until one half-open probe; failed probe reopens", threshold: 2, cooldown: minute,
			steps: []step{
				{op: "failure"},
				{op: "failure", state: "open"},
				{op: "allow", at: 20 * time.Second, wait: 40 * time.Second},
				{op: "allow", at: minute, ok: true, state: "half-open"},
				{op: "allow", at: minute, wait: minute},
				{op: "failure", at: minute, state: "open"},
				// A reopen is not deferred like a trip: the cooldown restarts
				// from the failed probe's instant at once.
				{op: "allow", at: minute, wait: minute},
				{op: "allow", at: 90 * time.Second, wait: 30 * time.Second},
				{op: "allow", at: 2 * minute, ok: true, state: "half-open"},
				{op: "success", state: "closed"},
				{op: "allow", at: 2 * minute, ok: true},
			},
			transitions: "open,half_open,reopen,half_open,close",
		},
		{
			name: "pushback frees the probe slot without closing or reopening", threshold: 1, cooldown: minute,
			steps: []step{
				{op: "failure", state: "open"},
				{op: "allow", at: minute, ok: true},
				{op: "pushback", state: "half-open"},
				{op: "allow", at: minute, ok: true},
				{op: "allow", at: minute, wait: minute},
				{op: "pushback", state: "half-open"},
				{op: "allow", at: 2 * minute, ok: true},
				{op: "success", state: "closed"},
			},
			transitions: "open,half_open,close",
		},
		{
			name: "pushback while closed does not count toward the streak", threshold: 3, cooldown: minute,
			steps: []step{
				{op: "failure"},
				{op: "failure"},
				{op: "pushback", state: "closed"},
				{op: "failure", state: "open"},
			},
			transitions: "open",
		},
		{
			name: "concurrent callers elect exactly one probe", threshold: 1, cooldown: 45 * time.Second,
			steps: []step{
				{op: "failure", state: "open"},
				{op: "elect", at: 45 * time.Second, admitted: 1, state: "half-open"},
				{op: "failure", at: 45 * time.Second, state: "open"},
				{op: "elect", at: 89 * time.Second, admitted: 0},
				{op: "elect", at: 90 * time.Second, admitted: 1},
				// The out-of-band prober must not interfere with an in-flight
				// search-path probe: half-open is neither due nor closable.
				{op: "probeDue", at: 2 * time.Hour},
				{op: "probeClose", state: "half-open"},
				{op: "success", state: "closed"},
				{op: "elect", at: 90 * time.Second, admitted: 32},
			},
			transitions: "open,half_open,reopen,half_open,close",
		},
		{
			name: "out-of-band probe re-closes an open breaker", threshold: 1, cooldown: 30 * time.Second,
			steps: []step{
				{op: "failure", state: "open"},
				{op: "probeDue", at: 29 * time.Second},
				{op: "probeDue", at: 30 * time.Second, ok: true},
				{op: "probeClose", ok: true, state: "closed"},
				{op: "probeClose"},
				{op: "probeDue", at: time.Hour},
				{op: "allow", at: time.Hour, ok: true},
			},
			transitions: "open,close",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			var labels []string
			br := New(tc.threshold, tc.cooldown, func(l string) {
				mu.Lock()
				labels = append(labels, l)
				mu.Unlock()
			})
			for i, s := range tc.steps {
				now := epoch.Add(s.at)
				switch s.op {
				case "allow":
					wait, ok := br.Allow(now)
					if ok != s.ok || (!ok && wait != s.wait) {
						t.Fatalf("step %d: Allow(+%s) = (%s, %v), want (%s, %v)", i, s.at, wait, ok, s.wait, s.ok)
					}
				case "elect":
					if n := elect(br, now); n != s.admitted {
						t.Fatalf("step %d: %d of 32 concurrent callers admitted at +%s, want %d", i, n, s.at, s.admitted)
					}
				case "success":
					br.Success()
				case "failure":
					br.Failure(now)
				case "pushback":
					br.Pushback()
				case "probeDue":
					if got := br.ProbeDue(now); got != s.ok {
						t.Fatalf("step %d: ProbeDue(+%s) = %v, want %v", i, s.at, got, s.ok)
					}
				case "probeClose":
					if got := br.ProbeClose(); got != s.ok {
						t.Fatalf("step %d: ProbeClose() = %v, want %v", i, got, s.ok)
					}
				default:
					t.Fatalf("step %d: unknown op %q", i, s.op)
				}
				if s.state != "" && br.State() != s.state {
					t.Fatalf("step %d (%s): state = %q, want %q", i, s.op, br.State(), s.state)
				}
			}
			if got := strings.Join(labels, ","); got != tc.transitions {
				t.Fatalf("transitions = %s, want %s", got, tc.transitions)
			}
		})
	}
}

// elect races 32 callers through Allow at one instant and returns how many
// were admitted; under -race it also exercises the breaker's locking.
func elect(br *Breaker, now time.Time) int {
	const callers = 32
	var admitted atomic.Int32
	var wg sync.WaitGroup
	start := make(chan struct{})
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func() {
			defer wg.Done()
			<-start
			if _, ok := br.Allow(now); ok {
				admitted.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	return int(admitted.Load())
}
