package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"geoserp"
	"geoserp/internal/analysis"
	"geoserp/internal/crawler"
	"geoserp/internal/engine"
	"geoserp/internal/geo"
	"geoserp/internal/queries"
	"geoserp/internal/report"
	"geoserp/internal/serpserver"
	"geoserp/internal/simclock"
	"geoserp/internal/storage"
)

// cmd/repro's default scale: 12 terms per category, 3 days, 50
// validation vantages.
const (
	campaignTerms      = 12
	campaignDays       = 3
	validationVantages = 50
)

// study is the in-process deployment geoserp.NewStudy builds — virtual
// clock, engine, serpserver on a loopback socket, crawler — wired from
// the same constructors so the benchmark can put its seam wrappers in.
// The geoserp.Study around them runs the validation and the campaign as
// cmd/repro does.
type study struct {
	gs  *geoserp.Study
	srv *serpserver.Server
}

func newStudy(seed uint64, tr *tracer, fetch http.RoundTripper, sink crawler.SweepSink) (*study, error) {
	cfg := geoserp.DefaultStudyConfig()
	cfg.Engine.Seed = seed
	clk := simclock.NewManual(cfg.Epoch)
	eng := engine.New(cfg.Engine, clk)
	var h http.Handler = serpserver.NewHandler(eng)
	if tr != nil {
		h = tr.handlerSpan(h)
	}
	srv, err := serpserver.Listen(cfg.ListenAddr, h)
	if err != nil {
		return nil, err
	}
	srv.Start()
	cr, err := crawler.New(cfg.Crawler, clk, srv.URL(), geo.StudyDataset(), queries.StudyCorpus())
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	cr.Transport = fetch
	cr.Sink = sink
	return &study{gs: &geoserp.Study{Clock: clk, Engine: eng, Crawler: cr}, srv: srv}, nil
}

func (s *study) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // teardown; nothing to report
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// fetchTimer is the crawler's transport: it times every fetch from the
// call until the browser closes the body and counts the answers. While
// its tracer is on it also records each fetch as a browser.fetch span
// and captures sampled bodies.
type fetchTimer struct {
	inner   http.RoundTripper
	tr      *tracer
	mu      sync.Mutex
	fetches []fetchRec
	n       atomic.Int64
	errs    atomic.Int64
	non200  atomic.Int64
	last    atomic.Int64 // UnixNano of the latest body close
}

type fetchRec struct {
	iv interval // call → body close
	ok bool
}

func (f *fetchTimer) RoundTrip(r *http.Request) (*http.Response, error) {
	f.n.Add(1)
	traced := f.tr.active()
	span := spanRec{Req: reqID(r.Header), Name: spanFetch, Key: r.URL.Host, Start: time.Now()}
	resp, err := f.inner.RoundTrip(r)
	if err != nil {
		f.errs.Add(1)
		if traced {
			span.End = time.Now()
			f.tr.record(span)
		}
		return nil, err
	}
	ok := resp.StatusCode == http.StatusOK
	if !ok {
		f.non200.Add(1)
	}
	var capture *bytes.Buffer
	if traced && f.tr.keepBody() {
		capture = &bytes.Buffer{}
	}
	resp.Body = &closeHook{ReadCloser: resp.Body, capture: capture, onClose: func(b *bytes.Buffer) {
		span.End = time.Now()
		f.last.Store(span.End.UnixNano())
		f.mu.Lock()
		f.fetches = append(f.fetches, fetchRec{iv: span.iv(), ok: ok})
		f.mu.Unlock()
		if traced {
			f.tr.record(span)
			if b != nil {
				f.tr.addBody(b.String())
			}
		}
	}}
	return resp, nil
}

// since returns the fetches sent at or after from, by completion.
func (f *fetchTimer) since(from time.Time) []fetchRec {
	f.mu.Lock()
	var recs []fetchRec
	for _, r := range f.fetches {
		if !r.iv.start.Before(from) {
			recs = append(recs, r)
		}
	}
	f.mu.Unlock()
	slices.SortFunc(recs, func(a, b fetchRec) int { return a.iv.end.Compare(b.iv.end) })
	return recs
}

// windowFetches is the campaign's unit of summary: that many consecutive
// fetches (by completion), enough that a window's p99 rests on ten
// fetches beyond it.
const windowFetches = 1000

// windows cuts a pass's fetches into windows and returns each window's
// successful fetches per second and latency percentiles. A window's wall
// time runs from the previous window's last completion (the crawl start
// for the first), so the crawler's time between rounds counts.
func (f *fetchTimer) windows(from time.Time) (rps, p50, p99 sample) {
	recs := f.since(from)
	prev := from
	for i := 0; i+windowFetches <= len(recs); i += windowFetches {
		w := recs[i : i+windowFetches]
		var lat sample
		ok := 0
		for _, r := range w {
			lat = append(lat, ms(r.iv.dur()))
			if r.ok {
				ok++
			}
		}
		end := w[len(w)-1].iv.end
		rps = append(rps, float64(ok)/end.Sub(prev).Seconds())
		p50 = append(p50, lat.median())
		p99 = append(p99, lat.percentile(99))
		prev = end
	}
	return rps, p50, p99
}

// rounds splits the fetches sent from `from` on into lock-step rounds at
// the sweep marks and returns each round's span: first send to last body
// close.
func (f *fetchTimer) rounds(from time.Time, marks []time.Time) sample {
	recs := f.since(from)
	var out sample
	prev := from
	for _, m := range marks {
		var round []interval
		for _, r := range recs {
			if r.iv.start.After(prev) && !r.iv.start.After(m) {
				round = append(round, r.iv)
			}
		}
		if len(round) > 0 {
			out = append(out, ms(hull(round).dur()))
		}
		prev = m
	}
	return out
}

// sweepMarks is the crawler's sweep sink: the wall instant each lock-step
// round (one term sweep) completed.
type sweepMarks struct {
	mu    sync.Mutex
	marks []time.Time
}

func (s *sweepMarks) ObserveSweep(crawler.SweepInfo, []storage.Observation) {
	s.mu.Lock()
	s.marks = append(s.marks, time.Now())
	s.mu.Unlock()
}

// The scorecard check. All of the paper's claims must be evaluated, and
// at most one may fail: at this scale a close comparison can flip with
// the engine seed (seed 206: controversial noise 0.41 vs politicians
// 0.50, so claim 1 fails there).
const (
	scorecardClaims = 12
	minClaimsPassed = 11
)

// pass is one full pipeline run: set-up, validation, campaign, analysis.
type pass struct {
	setup, crawl, analyze time.Duration
	crawlStart            time.Time
	campaign              interval // campaign start → last analysis step's end
	analysisSteps         []interval
	pages, obs, failedObs int
	// obsDigest hashes the reloaded observations, reportDigest the
	// rendered figures, demographics and scorecard.
	obsDigest, reportDigest string
	claims, passed          int // scorecard claims evaluated and reproduced
	heapMB                  float64
	fileBytes               int64
	marks                   []time.Time
	stageMs                 map[string]float64
	fetch                   *fetchTimer
	ratelimited             uint64
	retries                 uint64
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func runPass(rc runConfig, tr *tracer, measureHeap bool) (*pass, error) {
	ft := &fetchTimer{inner: http.DefaultTransport, tr: tr}
	marks := &sweepMarks{}
	start := time.Now()
	s, err := newStudy(rc.seed, tr, ft, marks)
	if err != nil {
		return nil, err
	}
	defer s.close()
	p := &pass{setup: time.Since(start), fetch: ft, stageMs: map[string]float64{}}

	p.crawlStart = time.Now()
	terms := queries.StudyCorpus().Category(queries.Controversial)[:campaignTerms]
	val, err := s.gs.RunValidation(terms, geo.Point{Lat: 41.4993, Lon: -81.6944}, validationVantages)
	if err != nil {
		return nil, fmt.Errorf("validation: %w", err)
	}
	p.campaign.start = time.Now()
	obs, err := s.gs.RunPhases(s.gs.ScaledPhases(campaignTerms, campaignDays))
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	p.crawl = time.Since(p.crawlStart)
	p.marks = marks.marks
	for _, o := range obs {
		if o.Failed {
			p.failedObs++
		}
	}
	p.obs = len(obs)
	p.pages = len(terms)*validationVantages + len(obs) - p.failedObs
	p.ratelimited = s.gs.Engine.RateLimited()
	p.retries = s.gs.Crawler.Telemetry.CounterVec("crawler_fetch_retries_total", "", "phase").Total()
	if measureHeap {
		p.heapMB = liveHeapMB()
	}

	// Analysis: the cmd/crawl → cmd/analyze path (JSONL save and reload),
	// then everything cmd/repro prints after the campaign.
	anStart := time.Now()
	if last := ft.last.Load(); last > 0 {
		anStart = time.Unix(0, last)
	}
	step := func(name string, fn func() error) error {
		t0 := time.Now()
		err := fn()
		t1 := time.Now()
		p.stageMs[name] = ms(t1.Sub(t0))
		p.analysisSteps = append(p.analysisSteps, interval{t0, t1})
		if tr != nil {
			tr.record(spanRec{Req: "analysis", Name: name, Start: t0, End: t1})
		}
		return err
	}
	path := filepath.Join(rc.outDir, fmt.Sprintf("campaign-%d.jsonl", rc.seed))
	var loaded []storage.Observation
	var d *analysis.Dataset
	var out bytes.Buffer
	steps := []struct {
		name string
		fn   func() error
	}{
		{spanSave, func() error { return storage.SaveJSONL(path, obs) }},
		{spanLoad, func() (err error) { loaded, err = storage.LoadJSONL(path); return err }},
		{spanDataset, func() (err error) { d, err = analysis.NewDataset(loaded); return err }},
		{spanFigures, func() error {
			fmt.Fprintln(&out, report.Validation(val))
			fmt.Fprintln(&out, report.Table1(queries.Table1Terms()))
			fmt.Fprintln(&out, report.Figure2(d.NoiseByGranularity()))
			fmt.Fprintln(&out, report.Figure3(d.NoisePerTerm("local")))
			fmt.Fprintln(&out, report.Figure4(d.NoiseByResultType("local", "county")))
			fmt.Fprintln(&out, report.Figure5(d.PersonalizationByGranularity()))
			fmt.Fprintln(&out, report.Figure6(d.PersonalizationPerTerm("local")))
			fmt.Fprintln(&out, report.Figure7(d.PersonalizationByResultType()))
			fmt.Fprintln(&out, report.Figure8(d.ConsistencyOverTime("local")))
			return nil
		}},
		{spanDemog, func() error {
			fmt.Fprintln(&out, report.Demographics(d.DemographicCorrelations(geo.StudyDataset(), "local")))
			return nil
		}},
		{spanScorecard, func() error {
			checks := d.Scorecard()
			fmt.Fprintln(&out, report.Scorecard(checks))
			p.claims = len(checks)
			for _, c := range checks {
				if c.Pass {
					p.passed++
				}
			}
			return nil
		}},
	}
	for _, st := range steps {
		if err := step(st.name, st.fn); err != nil {
			return nil, fmt.Errorf("%s: %w", st.name, err)
		}
	}
	p.campaign.end = p.analysisSteps[len(p.analysisSteps)-1].end
	p.analyze = p.campaign.end.Sub(anStart)
	if fi, err := os.Stat(path); err == nil {
		p.fileBytes = fi.Size()
	}
	if err := os.Remove(path); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := storage.WriteJSONL(&buf, loaded); err != nil {
		return nil, err
	}
	p.obsDigest = digest(buf.Bytes())
	p.reportDigest = digest(out.Bytes())
	return p, nil
}

func runCampaign(rc runConfig) (*runResult, error) {
	rep := newReport(rc)
	var setupS sample
	var total outcomes
	var first *pass
	check := func(p *pass) {
		total.attempted += p.fetch.n.Load()
		total.transport += p.fetch.errs.Load()
		total.non200 += p.fetch.non200.Load()
		// Failed checks count as wrong outputs: failed observations, a
		// short scorecard, a rate-limited fetch, and any pass whose
		// observations or rendered analysis differ from the run's first
		// pass of the same seed.
		total.wrong += int64(p.failedObs)
		if p.claims != scorecardClaims || p.passed < minClaimsPassed {
			total.wrong++
		}
		if p.ratelimited > 0 {
			total.wrong++
		}
		if first == nil {
			first = p
		} else if p.obsDigest != first.obsDigest || p.reportDigest != first.reportDigest {
			total.wrong++
		}
		setupS = append(setupS, p.setup.Seconds())
		rep.note("scorecard", fmt.Sprintf("%d/%d claims reproduced (need %d/%d)", p.passed, p.claims, minClaimsPassed, scorecardClaims))
	}
	sec := time.Duration(rc.seconds) * time.Second

	if !rc.trace {
		// Whole pipelines until the run's time is spent, at least two so
		// the same-seed digests are compared.
		var passes []*pass
		start := time.Now()
		for len(passes) < 2 || time.Since(start) < sec {
			p, err := runPass(rc, nil, len(passes) == 0)
			if err != nil {
				return nil, err
			}
			check(p)
			passes = append(passes, p)
		}
		// More set-ups, torn down at once, so setup_s is a median of
		// several even when few passes fit.
		for len(setupS) < setups {
			t0 := time.Now()
			s, err := newStudy(rc.seed, nil, http.DefaultTransport, nil)
			if err != nil {
				return nil, err
			}
			setupS = append(setupS, time.Since(t0).Seconds())
			s.close()
		}
		// The median window, as on the serve workloads: outside load on a
		// shared machine spoils a window or two, not the run.
		var rps, p50, p99 sample
		var pages int
		for _, p := range passes {
			r, a, b := p.fetch.windows(p.crawlStart)
			rps, p50, p99 = append(rps, r...), append(p50, a...), append(p99, b...)
			pages += p.pages
		}
		rep.set("setup_s", setupS.median(), len(setupS))
		rep.set("heap_mb", passes[0].heapMB, 1)
		rep.set("throughput_rps", rps.median(), pages)
		rep.set("p50_ms", p50.median(), len(p50)*windowFetches)
		rep.note("campaign", fmt.Sprintf("%d passes in %d windows of %d fetches, p99 %.3f ms (median window); observation digest %s, report digest %s",
			len(passes), len(rps), windowFetches, p99.median(), first.obsDigest[:16], first.reportDigest[:16]))
	} else {
		// One untraced pass as the overhead baseline, then a traced one.
		base, err := runPass(rc, nil, false)
		if err != nil {
			return nil, err
		}
		check(base)
		tr := newTracer(spanFetch)
		tr.on.Store(true)
		p, err := runPass(rc, tr, false)
		tr.on.Store(false)
		if err != nil {
			return nil, err
		}
		check(p)
		tr.analyzeRequests(spanFetch).fill(rep.m)
		// The campaign's blocking chain is sequential: lock-step rounds of
		// fetches with the crawler's own work between them, then the
		// analysis steps. Coverage is the share of that chain's wall time
		// the fetch and analysis spans measured; the rest is the crawler's
		// time with no fetch in flight, which no seam sees.
		var fetches []interval
		for _, r := range p.fetch.since(p.campaign.start) {
			fetches = append(fetches, r.iv)
		}
		measured := slices.Concat(fetches, p.analysisSteps)
		rep.set("trace.coverage_pct", 100*float64(covered(p.campaign, measured))/float64(p.campaign.dur()), len(measured))
		roundMs := p.fetch.rounds(p.campaign.start, p.marks)
		rep.set("crawler.round_p50_ms", roundMs.median(), len(roundMs))
		rep.set("crawler.round_p99_ms", roundMs.percentile(99), len(roundMs))
		if len(roundMs) > 0 {
			crawl := interval{p.campaign.start, p.analysisSteps[0].start}
			idle := crawl.dur() - covered(crawl, fetches)
			rep.set("self.crawler_us", us(idle)/float64(len(roundMs)), len(roundMs))
		}
		var fetchUs sample
		for _, r := range p.fetch.since(p.crawlStart) {
			fetchUs = append(fetchUs, us(r.iv.dur()))
		}
		rep.set("browser.fetch_p50_us", fetchUs.median(), len(fetchUs))
		rep.set("browser.fetch_p99_us", fetchUs.percentile(99), len(fetchUs))
		rep.set("browser.retries", float64(p.retries), 1)
		rep.set("loadgen.sent", float64(p.fetch.n.Load()), 1)
		_, _, baseP99 := base.fetch.windows(base.crawlStart)
		rep.set("loadgen.p99_ms", baseP99.median(), len(baseP99)*windowFetches)
		rep.set("engine.ratelimited", float64(p.ratelimited), 1)
		rep.set("trace.overhead_pct", 100*(p.crawl.Seconds()/base.crawl.Seconds()-1), 1)
		for _, name := range []string{spanSave, spanLoad, spanDataset, spanFigures, spanDemog, spanScorecard} {
			rep.set(name+"_ms", p.stageMs[name], 1)
		}
		rep.set("storage.bytes_per_obs", float64(p.fileBytes)/float64(p.obs), p.obs)
		rep.set("analysis.analyze_s", p.analyze.Seconds(), 1)
		rep.serpReruns(tr.bodies)
		if err := rep.writeSpans(tr); err != nil {
			return nil, err
		}
	}
	rep.out = total
	rep.correct = total.failed() == 0
	return rep, nil
}
