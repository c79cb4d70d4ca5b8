package engine

import (
	"errors"
	"time"

	"geoserp/internal/index"
	"geoserp/internal/telemetry"
	"geoserp/internal/webcorpus"
)

// ErrRetrievalUnavailable is returned when the engine's web-vertical
// retrieval backend cannot answer at all — in a sharded cluster, when
// every shard failed, timed out, or sat behind an open breaker. The HTTP
// front end answers it as a 503 shed so clients back off and retry; a
// PARTIAL backend failure is not an error (see RetrieveResult.Partial).
var ErrRetrievalUnavailable = errors.New("engine: retrieval backend unavailable")

// RetrieveRequest is one web-vertical retrieval as the backend sees it.
type RetrieveRequest struct {
	// Query is the raw search term (backends tokenize it themselves, so
	// every backend applies the single index.Tokenize pipeline).
	Query string
	// K bounds how many hits the engine wants back.
	K int
	// Web is the coordinator's static web. A remote backend whose shards
	// answer with doc ordinals resolves them in Web.All(); the local
	// index holds its own table and ignores it.
	Web *webcorpus.Web
	// TraceID is the request's X-Trace-Id ("" = untraced); remote
	// backends propagate it so shard spans join the request's timeline.
	TraceID string
	// Deadline is the request's absolute deadline (zero = none); remote
	// backends propagate it via X-Deadline-Ms so a shard can refuse work
	// the client has already given up on.
	Deadline time.Time
	// Span, when non-nil, is the engine's retrieve-stage span; backends
	// may hang per-shard child spans off it. A nil Span costs nothing.
	Span *telemetry.Span
	// Wide, when non-nil, is the request's wide-event record; distributed
	// backends append one leg per shard contacted (outcome + duration). A
	// nil Wide costs nothing.
	Wide *telemetry.WideEvent
}

// RetrieveResult is a retrieval backend's answer.
type RetrieveResult struct {
	// Hits are the top-K documents, ordered by score descending with
	// URL-ascending tie-break (index.MergeHits order).
	Hits []index.Hit
	// Partial reports that one or more shards of a distributed backend
	// did not contribute (shed, timed out, or breaker-open) and Hits
	// covers only the reachable partition. The engine still assembles a
	// page — degraded results beat an error page — and the front end
	// marks it with the X-Serp-Partial header.
	Partial bool
}

// Retriever is the engine's web-vertical retrieval dependency. The
// default is the in-process inverted index; the cluster router swaps in a
// scatter-gather client over N shard nodes (internal/router). Retrieve
// must be safe for concurrent use.
type Retriever interface {
	Retrieve(req RetrieveRequest) (RetrieveResult, error)
}

// localRetriever adapts the in-process inverted index: never partial,
// never fails.
type localRetriever struct {
	idx *index.Index
}

func (l localRetriever) Retrieve(req RetrieveRequest) (RetrieveResult, error) {
	return RetrieveResult{Hits: l.idx.Search(req.Query, req.K)}, nil
}
