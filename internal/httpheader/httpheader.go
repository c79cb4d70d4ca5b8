// Package httpheader is the single home of every custom X-* HTTP header
// name the cluster protocol rides on. The geoserplint headerkey analyzer
// forbids raw "X-*" string literals everywhere else in the module, so a
// header name can only be spelled through these constants — the compiler
// catches a misspelled identifier, whereas a typo'd literal silently
// reads as an absent header: the trace degrades to orphan roots, the
// deadline stops propagating, the partial-page marker vanishes.
//
// Constants are named after the header's suffix (X-Trace-Id -> TraceID)
// so call sites read as the wire protocol does. Add new headers here,
// never inline. Attempts, the attempt numbering both chaos injectors key
// their fault draws on, lives here too because it is read off these
// headers.
package httpheader

const (
	// TraceID carries the request's trace ID: the stable identity that
	// joins a browser-side fetch span, the router's fan-out legs, and
	// each shard's server spans into one cross-process trace.
	TraceID = "X-Trace-Id"

	// TraceAttempt carries the client's 1-based fetch attempt number
	// beside TraceID. The server folds it into its span IDs so each
	// retry of a request yields distinct, attributable server spans.
	TraceAttempt = "X-Trace-Attempt"

	// ParentSpan carries the caller's span ID across a process boundary
	// beside TraceID, so a server can mint its span as a remote child of
	// the caller's leg and the stitcher can hang it under the right
	// parent.
	ParentSpan = "X-Parent-Span"

	// DeadlineMs carries the client's absolute request deadline as unix
	// milliseconds on the shared virtual clock, letting every hop shed
	// work that cannot finish in time.
	DeadlineMs = "X-Deadline-Ms"

	// Datacenter pins a request to a named replica, emulating a client
	// whose DNS resolved the search frontend to a specific datacenter.
	Datacenter = "X-Datacenter"

	// SerpPartial marks a 200 response whose named vertical was
	// assembled fail-soft after a dependency fault ("web": organic
	// results degraded).
	SerpPartial = "X-Serp-Partial"

	// StatzRing names the ring-buffer window a /statz snapshot was
	// computed over, so scrapers can detect a truncated audit window.
	StatzRing = "X-Statz-Ring"

	// ServedBy echoes the replica that actually served the page, for
	// datacenter-pinning assertions and scatter-gather attribution.
	ServedBy = "X-Served-By"

	// ForwardedFor carries the emulated client IP driving server-side
	// geolocation — the independent variable of the whole study.
	ForwardedFor = "X-Forwarded-For"
)
