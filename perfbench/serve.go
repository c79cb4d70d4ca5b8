package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"geoserp/internal/detrand"
	"geoserp/internal/engine"
	"geoserp/internal/router"
	"geoserp/internal/serp"
	"geoserp/internal/serpserver"
	"geoserp/internal/simclock"
	"geoserp/internal/telemetry"
)

// Fixed per-workload load settings, chosen on a 2-vCPU Intel Xeon
// (go1.24). openRate is about a tenth (mono) and a fifth (cluster) of the
// workload's throughput_rps there. That machine's speed drifts by 20–30%
// over minutes, and at higher offered load the two-connection open loop
// turns each drift into queueing: at half of throughput_rps the
// serve-cluster p99 ranged from 19 to 53 ms over five seeds, at a third
// the p50 spread across ten seeds reached 0.31, and at 1000 req/s the
// serve-mono p50 spread reached 0.30 while its throughput spread was
// 0.17. The ladder brackets the knee.
// The values are constants so that two commits are always measured at
// the same offered load.
type serveLoad struct {
	openRate float64   // req/s offered in the p50/p99 phase
	ladder   []float64 // req/s rungs for max_rate_rps, ascending
	limit    time.Duration
}

var serveLoads = map[string]serveLoad{
	"serve-mono":    {openRate: 500, ladder: []float64{1000, 2000, 3000, 4000, 4500, 5000, 5500, 6000, 6500}, limit: 25 * time.Millisecond},
	"serve-cluster": {openRate: 300, ladder: []float64{300, 500, 700, 900, 1000, 1100, 1200, 1300, 1400, 1500}, limit: 50 * time.Millisecond},
}

// Cluster shape: 3 shards × 2 replicas behind one router.
const (
	clusterShards   = 3
	clusterReplicas = 2
)

// admission is the /search gate every serve front end and shard node
// runs with: one executing request per CPU, a short FIFO queue behind
// them, the cmd/serpd default service-time estimate.
func admission() serpserver.AdmissionConfig {
	n := runtime.GOMAXPROCS(0)
	return serpserver.AdmissionConfig{MaxInflight: n, QueueDepth: 4 * n, ServiceTime: time.Second}
}

// deployment is a running serve topology inside the benchmark process,
// every node on its own loopback socket.
type deployment struct {
	url     string
	eng     *engine.Engine
	reg     *telemetry.Registry
	servers []*serpserver.Server
	stop    func()
}

func (d *deployment) close() {
	if d.stop != nil {
		d.stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, s := range d.servers {
		_ = s.Shutdown(ctx) // teardown between set-ups; nothing to report
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

func engineConfig(seed uint64) engine.Config {
	cfg := engine.DefaultConfig()
	cfg.Seed = seed
	return cfg
}

// frontEnd wires a serpserver front end as cmd/serpd and cmd/serprouter
// do with their default flags (request tracing into a /tracez ring on),
// plus the admission gate. With a tracer, the benchmark's seam wrappers
// sit outside the gate and around the handler.
func frontEnd(eng *engine.Engine, node string, tr *tracer) (http.Handler, *telemetry.SpanRecorder) {
	spans := telemetry.NewSpanRecorder(telemetry.DefaultSpanCapacity, simclock.Wall())
	h := serpserver.NewHandler(eng, serpserver.WithNode(node), serpserver.WithSpans(spans))
	var inner http.Handler = h
	if tr != nil {
		inner = tr.handlerSpan(h)
	}
	root := serpserver.WithAdmission(admission(), h, inner)
	if tr != nil {
		root = tr.spanHandler(spanAdmission, root)
	}
	return root, spans
}

func buildMono(seed uint64, tr *tracer) (*deployment, error) {
	reg := telemetry.NewRegistry()
	eng := engine.NewCustom(engineConfig(seed), simclock.Wall(), engine.WithTelemetry(reg))
	root, _ := frontEnd(eng, "serpd", tr)
	srv, err := serpserver.Listen("127.0.0.1:0", root)
	if err != nil {
		return nil, err
	}
	srv.Start()
	return &deployment{url: srv.URL(), eng: eng, reg: reg, servers: []*serpserver.Server{srv}}, nil
}

// shardNode builds one shard-mode node as cmd/serpd -shard-count does.
func shardNode(seed uint64, shard, replica int, tr *tracer) (*serpserver.Server, error) {
	view := router.BuildShardIndex(seed, nil, shard, clusterShards, 0)
	reg := telemetry.NewRegistry()
	spans := telemetry.NewSpanRecorder(telemetry.DefaultSpanCapacity, simclock.Wall())
	sh := router.NewShardHandler(shard, view,
		router.WithShardTelemetry(reg), router.WithShardReplica(replica), router.WithShardSpans(spans))
	var inner http.Handler = sh
	if tr != nil {
		inner = tr.spanHandler(spanShard, sh)
	}
	root := serpserver.NewAdmission(admission(), reg, spans, inner)
	if g, ok := root.(*serpserver.Admission); ok {
		sh.SetRetryAfter(g.RetryAfter)
	}
	srv, err := serpserver.Listen("127.0.0.1:0", root)
	if err != nil {
		return nil, err
	}
	srv.Start()
	return srv, nil
}

// buildCluster starts 3 shards × 2 replicas (built concurrently, as the
// node processes of a deployment boot) and then the router, wired as
// cmd/serprouter does with its default flags.
func buildCluster(seed uint64, tr *tracer) (*deployment, error) {
	d := &deployment{}
	nodes := make([]*serpserver.Server, clusterShards*clusterReplicas)
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			nodes[i], errs[i] = shardNode(seed, i/clusterReplicas, i%clusterReplicas, tr)
		}()
	}
	wg.Wait()
	shards := make([][]string, clusterShards)
	for _, n := range nodes {
		if n != nil {
			d.servers = append(d.servers, n)
		}
	}
	if err := errors.Join(errs...); err != nil {
		d.close()
		return nil, err
	}
	for i, n := range nodes {
		shards[i/clusterReplicas] = append(shards[i/clusterReplicas], n.URL())
	}
	reg := telemetry.NewRegistry()
	ccfg := router.ClientConfig{
		Shards:           shards,
		Timeout:          2 * time.Second,
		BreakerThreshold: 3,
		BreakerCooldown:  45 * time.Second,
		ProbeInterval:    45 * time.Second,
	}
	if tr != nil {
		ccfg.Transport = spanTransport{t: tr, name: spanLeg, inner: http.DefaultTransport}
	}
	client := router.NewClient(ccfg, reg)
	var ret engine.Retriever = client
	if tr != nil {
		ret = tracedRetriever{t: tr, inner: client}
	}
	eng := engine.NewCustom(engineConfig(seed), simclock.Wall(), engine.WithTelemetry(reg), engine.WithRetriever(ret))
	root, spans := frontEnd(eng, "router", tr)
	mux := http.NewServeMux()
	mux.Handle("GET "+router.ClusterTracezPath, router.NewClusterTracez(spans, client))
	mux.Handle("/", root)
	srv, err := serpserver.Listen("127.0.0.1:0", mux)
	if err != nil {
		d.close()
		return nil, err
	}
	srv.Start()
	d.servers = append(d.servers, srv)
	d.stop = client.StartProber()
	d.url, d.eng, d.reg = srv.URL(), eng, reg
	return d, nil
}

// setUp builds a deployment and waits until its front end answers
// /healthz: the instant the first request can be served.
func setUp(workload string, seed uint64, tr *tracer, c *http.Client) (*deployment, time.Duration, error) {
	start := time.Now()
	build := buildMono
	if workload == "serve-cluster" {
		build = buildCluster
	}
	d, err := build(seed, tr)
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.Get(d.url + "/healthz")
	if err != nil {
		d.close()
		return nil, 0, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		d.close()
		return nil, 0, fmt.Errorf("healthz: %s", resp.Status)
	}
	return d, time.Since(start), nil
}

// checkPages compares captured responses byte for byte with
// serp.RenderHTML of a reference monolith's engine.Search for the same
// query, GPS fix, client IP and trace ID. It returns the mismatches.
func checkPages(seed uint64, samples []captured) (wrong int64, err error) {
	ref := engine.NewCustom(engineConfig(seed), simclock.Wall(), engine.WithTelemetry(telemetry.NewRegistry()))
	for i, c := range samples {
		gps := c.spec.gps
		resp, err := ref.Search(engine.Request{
			Query: c.spec.term, GPS: &gps, ClientIP: c.spec.ip,
			// A session nobody used before: the server mints one per
			// cookieless request, so neither side has search history.
			SessionID: "ref-" + strconv.Itoa(i),
			UserAgent: mobileUA, TraceID: c.trace,
		})
		if err != nil {
			return 0, fmt.Errorf("reference search %q: %w", c.spec.term, err)
		}
		resp.Page.TraceID = c.trace
		if serp.RenderHTML(resp.Page) != c.body {
			wrong++
		}
	}
	return wrong, nil
}

// liveHeapMB is the heap still reachable after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.HeapAlloc) / (1 << 20)
}

const (
	setups       = 5
	warmRequests = 2000
)

func runServe(rc runConfig) (*runResult, error) {
	load := serveLoads[rc.workload]
	conns := runtime.NumCPU()
	rep := newReport(rc)
	var tr *tracer
	if rc.trace {
		tr = newTracer(spanAdmission)
	}
	// Set up several times and keep the last deployment: setup_s is the
	// median, so one slow build does not move it.
	probe := &http.Client{Timeout: 10 * time.Second}
	var d *deployment
	var setupS sample
	for i := range setups {
		dep, took, err := setUp(rc.workload, rc.seed, tr, probe)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, took.Seconds())
		if i < setups-1 {
			dep.close()
		} else {
			d = dep
		}
	}
	defer d.close()
	g := newLoadgen(d.url, rc.seed, conns, tr)
	defer g.close()
	rng := detrand.NewKeyed(rc.seed, "perfbench", "arrivals")
	sec := time.Duration(rc.seconds) * time.Second

	warm := g.closedLoop(0, warmRequests, conns)
	heap := liveHeapMB()
	var total outcomes
	total.add(warm.out)

	// Each open-loop window holds at least 500 requests and lasts at least
	// half a second.
	window := max(time.Second/2, time.Duration(500/load.openRate*float64(time.Second)))
	if !rc.trace {
		// Alternate short open- and closed-loop windows and report the
		// median window: a burst of outside load on a shared machine
		// spoils a window or two, not the run.
		rounds := max(int(sec*11/20/window), 3)
		var p50, p99, rps, lag sample
		n, support := 0, math.MaxInt
		for range rounds {
			open := g.openLoop(load.openRate, window, conns, rng)
			closed := g.closedLoop(sec*8/20/time.Duration(rounds), 0, conns)
			total.add(open.out)
			total.add(closed.out)
			p50 = append(p50, open.lat.median())
			p99 = append(p99, open.lat.percentile(99))
			lag = append(lag, open.lag.percentile(99))
			rps = append(rps, closed.rps())
			n += len(open.lat)
			support = min(support, open.lat.beyond(99))
		}
		rep.set("setup_s", setupS.median(), len(setupS))
		rep.set("heap_mb", heap, 1)
		rep.set("throughput_rps", rps.median(), len(rps))
		rep.set("p50_ms", p50.median(), n)
		rep.note("windows", fmt.Sprintf("%d open-loop windows of %v at %.0f req/s over %d connections; p99 %.3f ms (median window, each resting on >= %d samples beyond it); generator lag p99 %.3f ms (median window); %d closed-loop windows",
			rounds, window, load.openRate, conns, p99.median(), support, lag.median(), rounds))
	} else {
		// Untraced: the ladder, then the fixed-rate phase as the
		// baseline for the tracing overhead; traced: the same phase again.
		maxRate := 0.0
		for _, rate := range load.ladder {
			p := g.openLoop(rate, window, conns, rng)
			total.add(p.out)
			backlog := p.lag[len(p.lag)*4/5:]
			if p.out.failed() > 0 || p.lat.percentile(99) > ms(load.limit) || backlog.median() > ms(load.limit)/2 {
				break
			}
			maxRate = rate
		}
		base := g.openLoop(load.openRate, sec/4, conns, rng)
		tr.on.Store(true)
		traced := g.openLoop(load.openRate, sec/4, conns, rng)
		tr.on.Store(false)
		total.add(base.out)
		total.add(traced.out)
		lt := tr.analyzeRequests(spanRequest)
		lt.fill(rep.m)
		rep.set("trace.coverage_pct", lt.coverage(), lt.selfN)
		rep.set("loadgen.max_rate_rps", maxRate, len(load.ladder))
		rep.set("loadgen.p99_ms", base.lat.percentile(99), len(base.lat))
		rep.set("loadgen.lag_p99_ms", traced.lag.percentile(99), len(traced.lag))
		rep.set("loadgen.sent", float64(traced.out.attempted), 1)
		rep.set("trace.overhead_pct", 100*(traced.lat.median()/base.lat.median()-1), len(traced.lat))
		shed := d.reg.CounterVec("serpd_admission_shed_total", "", "reason").Total()
		rep.set("serpserver.shed", float64(shed), 1)
		rep.set("router.failovers", float64(d.reg.Counter("router_replica_failovers_total", "").Value()), 1)
		rep.set("router.hedges", float64(d.reg.CounterVec("router_hedges_total", "", "result").Total()), 1)
		rep.serpReruns(tr.bodies)
		if err := rep.writeSpans(tr); err != nil {
			return nil, err
		}
	}
	// Every client IP stays under the engine's rate limit, so a limited
	// request is a failed check even though its 429 already counts.
	limited := d.eng.RateLimited()
	rep.set("engine.ratelimited", float64(limited), 1)
	if limited > 0 {
		total.wrong++
	}

	samples := g.takeSamples()
	wrong, err := checkPages(rc.seed, samples)
	if err != nil {
		return nil, err
	}
	total.wrong += wrong
	rep.note("output check", fmt.Sprintf("%d sampled pages compared byte for byte with the reference monolith, %d differ", len(samples), wrong))
	rep.out = total
	rep.correct = total.failed() == 0 && len(samples) > 0
	return rep, nil
}
