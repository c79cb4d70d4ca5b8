package httpheader

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
)

// Attempts numbers request attempts for deterministic fault injection:
// the browser's chaos transport and serpd's chaos middleware both key
// their fault draws on it, so a given (trace, attempt) pair always draws
// the same fault on either side of the wire. The zero value is ready to
// use.
type Attempts struct {
	mu      sync.Mutex
	byTrace map[string]int // header-less traced requests only
	seq     atomic.Uint64  // untraced requests
}

// maxTrackedTraces bounds the per-trace attempt map: once it holds this
// many traces it is reset wholesale. The bound only matters for traced
// clients that omit X-Trace-Attempt; the repo's browser always sends it,
// so campaign-length runs never grow the map at all.
const maxTrackedTraces = 4096

// Next identifies one request attempt from its headers: its trace ID (""
// untraced), its 1-based per-trace attempt number (a global sequence
// number untraced), and the key that feeds the fault draws ("<trace>-<n>",
// or "seq-<n>" untraced). Retries of one trace must be able to draw
// differently, or a retried fault would repeat forever. The attempt
// number is read from the TraceAttempt header the browser sends with
// every try — a growth-free, arrival-order-independent key; header-less
// traced requests fall back to a bounded counting map.
func (a *Attempts) Next(h http.Header) (trace string, n int, key string) {
	trace = h.Get(TraceID)
	if trace == "" {
		n = int(a.seq.Add(1))
		return "", n, fmt.Sprintf("seq-%d", n)
	}
	if v := h.Get(TraceAttempt); v != "" {
		if an, err := strconv.Atoi(v); err == nil && an > 0 {
			return trace, an, fmt.Sprintf("%s-%d", trace, an)
		}
	}
	a.mu.Lock()
	if a.byTrace == nil || len(a.byTrace) >= maxTrackedTraces {
		// An unbounded map would grow one entry per trace for the whole
		// campaign (~140k in a full study run). Resetting restarts attempt
		// numbering for in-flight traces, which at worst replays a fault —
		// acceptable for the header-less path.
		a.byTrace = make(map[string]int)
	}
	a.byTrace[trace]++
	n = a.byTrace[trace]
	a.mu.Unlock()
	return trace, n, fmt.Sprintf("%s-%d", trace, n)
}
