package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"geoserp/internal/engine"
	"geoserp/internal/httpheader"
	"geoserp/internal/telemetry"
)

// Span names, one per public seam the benchmark wraps. The benchmark
// records them from its own wrappers around the calls into each layer;
// it relies on no span the program itself emits.
const (
	spanQueue     = "loadgen.queue"        // open-loop due instant → send
	spanRequest   = "loadgen.request"      // send → last body byte (serve)
	spanFetch     = "browser.fetch"        // crawler transport → body close
	spanAdmission = "serpserver.admission" // admission gate → handler done
	spanHandler   = "serpserver.handler"   // serpserver.Handler.ServeHTTP
	spanRetrieve  = "router.retrieve"      // engine.Retriever over router.Client
	spanLeg       = "router.leg"           // one shard leg, to body close
	spanShard     = "router.shard_server"  // router.ShardHandler.ServeHTTP
	spanSave      = "storage.save"
	spanLoad      = "storage.load"
	spanDataset   = "analysis.dataset"
	spanFigures   = "analysis.figures"
	spanDemog     = "analysis.demographics"
	spanScorecard = "analysis.scorecard"
)

// spanParent is the fixed layer nesting the wrappers sit in; a handler
// span's parent depends on the workload (tracer.handlerParent), and the
// other spans are roots.
var spanParent = map[string]string{
	spanAdmission: spanRequest,
	spanRetrieve:  "engine.retrieve",
	spanLeg:       spanRetrieve,
	spanShard:     spanLeg,
}

// engineStages are the engine's pipeline stages in the order
// engine.Search runs them; their durations come from the request's wide
// event (telemetry.WideEvent), not from spans.
var engineStages = [...]string{"parse", "noise", "history", "retrieve", "rerank", "assemble"}

const stageRetrieve = 3

// spanRec is one finished span. Req is shared by every span of one
// request (trace ID + "#" + attempt); Key names the shard node of a leg.
type spanRec struct {
	Req, Name, Key string
	Start, End     time.Time
	Bytes          int64
}

func (s spanRec) iv() interval { return interval{s.Start, s.End} }

// stageRec is one request's engine stage durations read from its wide
// event.
type stageRec struct {
	Req    string
	Stages [len(engineStages)]time.Duration
}

func (s stageRec) total() time.Duration {
	var t time.Duration
	for _, d := range s.Stages {
		t += d
	}
	return t
}

// tracer keeps spans in memory while on. Wrappers are installed only in
// traced runs; while the tracer is off they pass straight through, so one
// process can time the same servers with and without tracing.
type tracer struct {
	on     atomic.Bool
	mu     sync.Mutex
	spans  []spanRec
	stages []stageRec
	// bodies are response bodies captured at the seams for the serp
	// render/parse re-runs; every bodyEvery-th traced body is kept.
	bodies    []string
	bodyEvery int64
	bodySeen  atomic.Int64
	// handlerParent is the span enclosing serpserver.handler: the
	// admission gate when serving, the crawler's fetch in the campaign.
	handlerParent string
}

func newTracer(handlerParent string) *tracer {
	return &tracer{bodyEvery: 97, handlerParent: handlerParent}
}

func (t *tracer) active() bool { return t != nil && t.on.Load() }

func (t *tracer) record(s spanRec) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) keepBody() bool {
	return t.bodySeen.Add(1)%t.bodyEvery == 0
}

func (t *tracer) addBody(b string) {
	t.mu.Lock()
	if len(t.bodies) < 256 {
		t.bodies = append(t.bodies, b)
	}
	t.mu.Unlock()
}

func reqID(h http.Header) string {
	return h.Get(httpheader.TraceID) + "#" + h.Get(httpheader.TraceAttempt)
}

// writeSpans writes the recorded spans and wide-event stages as JSON
// lines, times in nanoseconds since origin.
func (t *tracer) writeSpans(path string, origin time.Time) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		parent := spanParent[s.Name]
		if s.Name == spanHandler {
			parent = t.handlerParent
		}
		if err := enc.Encode(struct {
			Req     string `json:"req"`
			Name    string `json:"name"`
			Parent  string `json:"parent,omitempty"`
			Key     string `json:"key,omitempty"`
			StartNs int64  `json:"start_ns"`
			EndNs   int64  `json:"end_ns"`
			Bytes   int64  `json:"bytes,omitempty"`
		}{s.Req, s.Name, parent, s.Key, s.Start.Sub(origin).Nanoseconds(), s.End.Sub(origin).Nanoseconds(), s.Bytes}); err != nil {
			f.Close()
			return err
		}
	}
	for _, s := range t.stages {
		stages := map[string]int64{}
		for i, d := range s.Stages {
			stages[engineStages[i]] = d.Nanoseconds()
		}
		if err := enc.Encode(struct {
			Req    string           `json:"req"`
			Name   string           `json:"name"`
			Stages map[string]int64 `json:"stage_ns"`
		}{s.Req, "engine.wide_event", stages}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanHandler wraps next with one span per /search (or /shard/search)
// request, keyed by the Host the caller addressed (a shard leg's node).
func (t *tracer) spanHandler(name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.active() || (r.URL.Path != "/search" && r.URL.Path != "/shard/search") {
			next.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(cw, r)
		t.record(spanRec{Req: reqID(r.Header), Name: name, Key: r.Host, Start: start, End: time.Now(), Bytes: cw.n})
	})
}

// handlerSpan wraps a serpserver.Handler: besides the span it installs a
// wide event in the request context (the handler installs none of its
// own without a wide-event logger), so engine.Search reports its stage
// durations into it.
func (t *tracer) handlerSpan(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.active() || r.URL.Path != "/search" {
			next.ServeHTTP(w, r)
			return
		}
		var ev telemetry.WideEvent
		r = r.WithContext(telemetry.WithWideEvent(r.Context(), &ev))
		start := time.Now()
		next.ServeHTTP(w, r)
		end := time.Now()
		rec := stageRec{Req: reqID(r.Header)}
		for _, st := range ev.Stages() {
			for i, name := range engineStages {
				if st.Name == name {
					rec.Stages[i] += st.Dur
				}
			}
		}
		t.mu.Lock()
		t.spans = append(t.spans, spanRec{Req: rec.Req, Name: spanHandler, Start: start, End: end})
		t.stages = append(t.stages, rec)
		t.mu.Unlock()
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += int64(n)
	return n, err
}

// tracedRetriever is the engine's retrieval seam in the cluster: it
// times router.Client.Retrieve as the coordinator engine calls it.
type tracedRetriever struct {
	t     *tracer
	inner engine.Retriever
}

func (r tracedRetriever) Retrieve(req engine.RetrieveRequest) (engine.RetrieveResult, error) {
	if !r.t.active() {
		return r.inner.Retrieve(req)
	}
	start := time.Now()
	res, err := r.inner.Retrieve(req)
	r.t.record(spanRec{Req: req.TraceID + "#", Name: spanRetrieve, Start: start, End: time.Now()})
	return res, err
}

// spanTransport records one span per round trip, from the call until the
// caller closes the response body, so it covers the whole body transfer.
type spanTransport struct {
	t     *tracer
	name  string
	inner http.RoundTripper
}

func (s spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if !s.t.active() {
		return s.inner.RoundTrip(r)
	}
	start := time.Now()
	resp, err := s.inner.RoundTrip(r)
	rec := spanRec{Req: reqID(r.Header), Name: s.name, Key: r.URL.Host, Start: start}
	if err != nil {
		rec.End = time.Now()
		s.t.record(rec)
		return resp, err
	}
	resp.Body = &closeHook{ReadCloser: resp.Body, onClose: func(*bytes.Buffer) {
		rec.End = time.Now()
		s.t.record(rec)
	}}
	return resp, nil
}

// closeHook calls onClose once, when the body is first closed, with the
// bytes read so far if capture is set.
type closeHook struct {
	io.ReadCloser
	capture *bytes.Buffer
	once    sync.Once
	onClose func(*bytes.Buffer)
}

func (c *closeHook) Read(p []byte) (int, error) {
	n, err := c.ReadCloser.Read(p)
	if c.capture != nil {
		c.capture.Write(p[:n])
	}
	return n, err
}

func (c *closeHook) Close() error {
	err := c.ReadCloser.Close()
	c.once.Do(func() { c.onClose(c.capture) })
	return err
}

// byReq groups spans and stage records by request.
type reqSpans struct {
	spans  map[string][]spanRec // by name
	stages *stageRec
}

func (t *tracer) byRequest() map[string]*reqSpans {
	out := map[string]*reqSpans{}
	get := func(req string) *reqSpans {
		r := out[req]
		if r == nil {
			r = &reqSpans{spans: map[string][]spanRec{}}
			out[req] = r
		}
		return r
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		r := get(s.Req)
		r.spans[s.Name] = append(r.spans[s.Name], s)
	}
	for i := range t.stages {
		get(t.stages[i].Req).stages = &t.stages[i]
	}
	return out
}

func (r *reqSpans) one(name string) (spanRec, bool) {
	s := r.spans[name]
	if len(s) != 1 {
		return spanRec{}, false
	}
	return s[0], true
}

// layerTimes accumulates the per-layer samples of a traced run.
type layerTimes struct {
	admWait, handler, renderWrite sample
	stage                         [len(engineStages)]sample
	stageSum                      [len(engineStages)]time.Duration
	retrieve, leg, shard          sample
	legOverhead, skew             sample
	legs, wireBytes               int64
	// self holds each layer's self time per request along the blocking
	// path. The self times add up to e2e, the matching end-to-end time, by
	// construction: client_net is the residual of the client span no
	// server span covers. measured is the part of e2e that seam spans
	// other than the generator's own request span recorded.
	self     map[string]time.Duration
	selfN    int
	e2e      time.Duration
	measured time.Duration
	requests int
}

// Self-time layers, in blocking order from the client inwards.
var selfLayers = []string{"loadgen_lag", "client_net", "serpserver", "engine", "router", "router_wire", "index"}

func nonNeg(d time.Duration) time.Duration { return max(d, 0) }

// analyzeRequests turns the recorded spans into per-layer samples. outer
// is the client-side root span name (loadgen.request or browser.fetch).
// Along the blocking path, each layer's self time is its span minus the
// child interval it waited on; for the fan-out the blocking child is the
// leg that finished last.
func (t *tracer) analyzeRequests(outer string) *layerTimes {
	lt := &layerTimes{self: map[string]time.Duration{}}
	for _, r := range t.byRequest() {
		out, ok := r.one(outer)
		h, hok := r.one(spanHandler)
		if !ok || !hok || r.stages == nil {
			continue
		}
		lt.requests++
		st := *r.stages
		stages := st.total()
		lt.handler = append(lt.handler, us(h.iv().dur()))
		lt.renderWrite = append(lt.renderWrite, us(h.iv().dur()-stages))
		for i, d := range st.Stages {
			lt.stage[i] = append(lt.stage[i], us(d))
			lt.stageSum[i] += d
		}
		self := map[string]time.Duration{}
		e2e := out.iv()
		var seen []interval
		if q, ok := r.one(spanQueue); ok {
			e2e.start = q.Start
			self["loadgen_lag"] = nonNeg(q.iv().dur())
			seen = append(seen, q.iv())
		}
		server := h
		if a, ok := r.one(spanAdmission); ok {
			server = a
			lt.admWait = append(lt.admWait, us(h.Start.Sub(a.Start)))
			self["serpserver"] += nonNeg(selfTime(a.iv(), []interval{h.iv()}))
		}
		seen = append(seen, server.iv())
		self["client_net"] = nonNeg(selfTime(out.iv(), []interval{server.iv()}))
		self["serpserver"] += nonNeg(h.iv().dur() - stages)
		if ret, ok := r.one(spanRetrieve); ok {
			lt.retrieve = append(lt.retrieve, us(ret.iv().dur()))
			self["engine"] = nonNeg(stages - ret.iv().dur())
			legs := r.spans[spanLeg]
			var ivs []interval
			var crit spanRec
			minLeg, maxLeg := time.Duration(1<<62), time.Duration(0)
			shards := map[string]spanRec{}
			for _, s := range r.spans[spanShard] {
				shards[s.Key] = s
			}
			for _, l := range legs {
				ivs = append(ivs, l.iv())
				lt.leg = append(lt.leg, us(l.iv().dur()))
				minLeg, maxLeg = min(minLeg, l.iv().dur()), max(maxLeg, l.iv().dur())
				if l.End.After(crit.End) {
					crit = l
				}
				if s, ok := shards[l.Key]; ok {
					lt.legOverhead = append(lt.legOverhead, us(l.iv().dur()-s.iv().dur()))
				}
			}
			for _, s := range r.spans[spanShard] {
				lt.shard = append(lt.shard, us(s.iv().dur()))
				lt.legs++
				lt.wireBytes += s.Bytes
			}
			if len(legs) > 0 {
				lt.skew = append(lt.skew, us(maxLeg-minLeg))
			}
			u := covered(ret.iv(), ivs)
			self["router"] = nonNeg(ret.iv().dur() - u)
			idx := shards[crit.Key].iv().dur()
			self["router_wire"] = nonNeg(u - idx)
			self["index"] = nonNeg(idx)
		} else {
			self["engine"] = nonNeg(stages - st.Stages[stageRetrieve])
			self["index"] = nonNeg(st.Stages[stageRetrieve])
		}
		for k, v := range self {
			lt.self[k] += v
		}
		lt.selfN++
		lt.e2e += e2e.dur()
		lt.measured += covered(e2e, seen)
	}
	return lt
}

// coverage is the share of the end-to-end time, in percent, that the
// generator's queue span and the server's outermost span measured. The
// rest is the loopback transfer and both HTTP stacks, which no seam
// wraps.
func (lt *layerTimes) coverage() float64 {
	if lt.e2e == 0 {
		return 0
	}
	return 100 * float64(lt.measured) / float64(lt.e2e)
}

// fill writes the per-request layer metrics into m.
func (lt *layerTimes) fill(m *metricSet) {
	m.set("serpserver.admission_wait_p50_us", lt.admWait.median(), len(lt.admWait))
	m.set("serpserver.admission_wait_p99_us", lt.admWait.percentile(99), len(lt.admWait))
	m.set("serpserver.handler_p50_us", lt.handler.median(), len(lt.handler))
	m.set("serpserver.render_write_p50_us", lt.renderWrite.median(), len(lt.renderWrite))
	var busy time.Duration
	for _, d := range lt.stageSum {
		busy += d
	}
	for i, name := range engineStages {
		m.set("engine."+name+"_p50_us", lt.stage[i].median(), len(lt.stage[i]))
		if busy > 0 {
			m.set("engine."+name+"_share", float64(lt.stageSum[i])/float64(busy), len(lt.stage[i]))
		}
	}
	m.set("router.retrieve_p50_us", lt.retrieve.median(), len(lt.retrieve))
	m.set("router.retrieve_p99_us", lt.retrieve.percentile(99), len(lt.retrieve))
	m.set("router.leg_p50_us", lt.leg.median(), len(lt.leg))
	m.set("router.leg_p99_us", lt.leg.percentile(99), len(lt.leg))
	m.set("router.shard_server_p50_us", lt.shard.median(), len(lt.shard))
	m.set("router.leg_overhead_p50_us", lt.legOverhead.median(), len(lt.legOverhead))
	if lt.legs > 0 {
		m.set("router.wire_bytes_per_leg", float64(lt.wireBytes)/float64(lt.legs), int(lt.legs))
	}
	m.set("router.fanout_skew_p99_us", lt.skew.percentile(99), len(lt.skew))
	if lt.selfN > 0 {
		for _, l := range selfLayers {
			m.set("self."+l+"_us", us(lt.self[l])/float64(lt.selfN), lt.selfN)
		}
	}
	m.note("traced requests", fmt.Sprintf("%d (legs %d)", lt.requests, len(lt.leg)))
}
