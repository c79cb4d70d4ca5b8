package httpheader

import (
	"fmt"
	"net/http"
	"testing"
)

func TestAttemptsNext(t *testing.T) {
	var a Attempts
	hdr := func(kv ...string) http.Header {
		h := http.Header{}
		for i := 0; i < len(kv); i += 2 {
			h.Set(kv[i], kv[i+1])
		}
		return h
	}
	check := func(h http.Header, wantTrace string, wantN int, wantKey string) {
		t.Helper()
		trace, n, key := a.Next(h)
		if trace != wantTrace || n != wantN || key != wantKey {
			t.Fatalf("Next(%v) = (%q, %d, %q), want (%q, %d, %q)", h, trace, n, key, wantTrace, wantN, wantKey)
		}
	}
	// Untraced requests share one global sequence.
	check(hdr(), "", 1, "seq-1")
	check(hdr(), "", 2, "seq-2")
	// The browser's attempt header is taken as is, never counted.
	check(hdr(TraceID, "t1", TraceAttempt, "3"), "t1", 3, "t1-3")
	check(hdr(TraceID, "t1", TraceAttempt, "3"), "t1", 3, "t1-3")
	// Header-less (or malformed-header) traced requests count per trace.
	check(hdr(TraceID, "t1"), "t1", 1, "t1-1")
	check(hdr(TraceID, "t1", TraceAttempt, "0"), "t1", 2, "t1-2")
	check(hdr(TraceID, "t2", TraceAttempt, "x"), "t2", 1, "t2-1")
	check(hdr(), "", 3, "seq-3")

	// The per-trace map is bounded: at capacity it restarts numbering.
	for i := len(a.byTrace); i < maxTrackedTraces; i++ {
		a.Next(hdr(TraceID, fmt.Sprintf("fill-%d", i)))
	}
	if len(a.byTrace) != maxTrackedTraces {
		t.Fatalf("map holds %d traces, want %d", len(a.byTrace), maxTrackedTraces)
	}
	check(hdr(TraceID, "t1"), "t1", 1, "t1-1")
	if len(a.byTrace) != 1 {
		t.Fatalf("map holds %d traces after the reset, want 1", len(a.byTrace))
	}
}
