package main

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"geoserp/internal/browser"
	"geoserp/internal/detrand"
	"geoserp/internal/geo"
	"geoserp/internal/httpheader"
	"geoserp/internal/queries"
	"geoserp/internal/telemetry"
)

// spec is one generated /search request: a study-corpus term (so terms
// follow the corpus's category proportions), a GPS fix near one of the 59
// study locations, and a client IP. The program under test sees only
// these generated inputs.
type spec struct {
	path string
	term string
	gps  geo.Point
	ip   string
}

// specPool is how many distinct requests a run cycles through. Every
// spec has its own client IP, so an IP repeats once per pool cycle: far
// below the engine's per-IP rate limit (burst 30) at any run length here.
const specPool = 8192

func makeSpecs(seed uint64) []spec {
	rng := detrand.NewKeyed(seed, "perfbench", "specs")
	qs := queries.StudyQueries()
	locs := geo.StudyLocations()
	ipBase := rng.Intn(1 << 10)
	out := make([]spec, specPool)
	for i := range out {
		q := qs[rng.Intn(len(qs))]
		loc := locs[rng.Intn(len(locs))]
		ll := geo.Point{Lat: loc.Point.Lat + rng.Range(-0.05, 0.05), Lon: loc.Point.Lon + rng.Range(-0.05, 0.05)}.String()
		gps, err := geo.ParsePoint(ll)
		if err != nil {
			panic(err) // geo.Point.String always parses back
		}
		n := ipBase<<13 | i
		out[i] = spec{
			path: "/search?q=" + url.QueryEscape(q.Term) + "&ll=" + ll,
			term: q.Term,
			gps:  gps,
			ip:   fmt.Sprintf("10.%d.%d.%d", n>>16&255, n>>8&255, n&255),
		}
	}
	return out
}

var mobileUA = browser.IOSSafari8().UserAgent

// captured is a response kept for the byte-for-byte output check.
type captured struct {
	spec  spec
	trace string
	body  string
}

// loadgen drives /search over keep-alive loopback connections. Request i
// of a run carries its own trace ID (so the engine's noise is keyed per
// request and a reference engine can replay it) and spec i mod pool.
type loadgen struct {
	base   string
	client *http.Client
	specs  []spec
	seed   uint64
	next   atomic.Int64
	tr     *tracer

	// Every sampleEvery-th request (by index, offset by the seed) keeps
	// its body for the output check.
	sampleEvery, sampleOff int64
	mu                     sync.Mutex
	samples                []captured
}

func newLoadgen(base string, seed uint64, conns int, tr *tracer) *loadgen {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = conns
	t.MaxConnsPerHost = conns
	t.DisableCompression = true
	return &loadgen{
		base: base, client: &http.Client{Transport: t}, specs: makeSpecs(seed), seed: seed, tr: tr,
		sampleEvery: 53, sampleOff: int64(seed % 53),
	}
}

func (g *loadgen) close() { g.client.CloseIdleConnections() }

func (g *loadgen) traceID(i int64) string {
	return telemetry.MintTraceID(g.seed, "perfbench", strconv.FormatInt(i, 10))
}

// answer classifies one response.
type answer int

const (
	answerOK        answer = iota
	answerTransport        // no response, or the body could not be read
	answerNon200           // a refusal or error status, 429 and 503 included
	answerPartial          // a 200 page the server marked degraded
)

// do sends request i and reads the whole body.
func (g *loadgen) do(i int64) answer {
	sp := g.specs[i%int64(len(g.specs))]
	trace := g.traceID(i)
	req, err := http.NewRequest(http.MethodGet, g.base+sp.path, nil)
	if err != nil {
		return answerTransport
	}
	req.Header.Set("User-Agent", mobileUA)
	req.Header.Set(httpheader.ForwardedFor, sp.ip)
	req.Header.Set(httpheader.TraceID, trace)
	resp, err := g.client.Do(req)
	if err != nil {
		return answerTransport
	}
	defer resp.Body.Close()
	keep := i%g.sampleEvery == g.sampleOff
	if keep || (g.tr.active() && g.tr.keepBody()) {
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return answerTransport
		}
		if keep && resp.StatusCode == http.StatusOK {
			g.mu.Lock()
			g.samples = append(g.samples, captured{spec: sp, trace: trace, body: string(body)})
			g.mu.Unlock()
		} else if resp.StatusCode == http.StatusOK {
			g.tr.addBody(string(body))
		}
	} else if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return answerTransport
	}
	switch {
	case resp.StatusCode != http.StatusOK:
		return answerNon200
	case resp.Header.Get(httpheader.SerpPartial) != "":
		return answerPartial
	}
	return answerOK
}

// phase is the outcome of one load phase.
type phase struct {
	out     outcomes
	lat     sample // ms: from the due instant (open loop) or the send (closed)
	lag     sample // ms: open-loop send lateness, in due order
	ok      int64
	elapsed time.Duration
}

func (p phase) rps() float64 { return float64(p.ok) / p.elapsed.Seconds() }

func (p *phase) merge(q phase) {
	p.out.add(q.out)
	p.lat = append(p.lat, q.lat...)
	p.lag = append(p.lag, q.lag...)
	p.ok += q.ok
}

// call sends one request and records its outcome and, when tracing, the
// generator's spans.
func (g *loadgen) call(p *phase, due time.Time) {
	i := g.next.Add(1) - 1
	sent := time.Now()
	a := g.do(i)
	done := time.Now()
	p.out.attempted++
	switch a {
	case answerTransport:
		p.out.transport++
	case answerNon200:
		p.out.non200++
	case answerPartial:
		p.out.wrong++
	default:
		p.ok++
	}
	if due.IsZero() {
		p.lat = append(p.lat, ms(done.Sub(sent)))
	} else {
		t := openLoopTiming{due: due, sent: sent, done: done}
		p.lat = append(p.lat, ms(t.latency()))
		p.lag = append(p.lag, ms(t.lag()))
	}
	if g.tr.active() {
		req := g.traceID(i) + "#"
		if !due.IsZero() {
			g.tr.record(spanRec{Req: req, Name: spanQueue, Start: due, End: sent})
		}
		g.tr.record(spanRec{Req: req, Name: spanRequest, Start: sent, End: done})
	}
}

// openLoop offers rate requests/s for d on a seeded Poisson schedule over
// at most conns connections. A request whose due instant passes while
// every connection is busy waits for one, and that wait counts in its
// latency.
func (g *loadgen) openLoop(rate float64, d time.Duration, conns int, rng *detrand.RNG) phase {
	n := int(rate * d.Seconds())
	due := make([]time.Duration, n)
	var at float64
	for k := range due {
		at += -math.Log(1-rng.Float64()) / rate
		due[k] = time.Duration(at * float64(time.Second))
	}
	start := time.Now().Add(time.Millisecond)
	var next atomic.Int64
	lat, lag := make(sample, n), make(sample, n)
	parts := make([]phase, conns)
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := next.Add(1) - 1
				if k >= int64(n) {
					return
				}
				at := start.Add(due[k])
				if wait := time.Until(at); wait > 0 {
					sleepUntilDue(wait)
				}
				g.call(&parts[w], at)
				q := &parts[w]
				lat[k], lag[k] = q.lat[len(q.lat)-1], q.lag[len(q.lag)-1]
			}
		}()
	}
	wg.Wait()
	var p phase
	for _, q := range parts {
		p.merge(q)
	}
	p.lat, p.lag = lat, lag
	p.elapsed = time.Since(start)
	return p
}

// closedLoop keeps conns requests in flight (each connection sends its
// next request when the previous answer is read) for d, or until count
// requests were sent when count > 0.
func (g *loadgen) closedLoop(d time.Duration, count int64, conns int) phase {
	start := time.Now()
	end := start.Add(d)
	var sent atomic.Int64
	parts := make([]phase, conns)
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if count > 0 {
					if sent.Add(1) > count {
						return
					}
				} else if !time.Now().Before(end) {
					return
				}
				g.call(&parts[w], time.Time{})
			}
		}()
	}
	wg.Wait()
	var p phase
	for _, q := range parts {
		p.merge(q)
	}
	p.elapsed = time.Since(start)
	return p
}

func (g *loadgen) takeSamples() []captured {
	g.mu.Lock()
	defer g.mu.Unlock()
	s := g.samples
	g.samples = nil
	return s
}
