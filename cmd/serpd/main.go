// Command serpd runs the synthetic personalized search engine as a
// standalone HTTP service — the stand-in for Google Search that crawlers
// (cmd/crawl, the examples, or your own tooling) measure.
//
// Usage:
//
//	serpd [-addr 127.0.0.1:8080] [-seed 1] [-datacenters 3] [-rate-burst 30]
//	      [-verbose] [-log-format text|json] [-pprof-addr 127.0.0.1:6060]
//	      [-chaos-abort-rate 0] [-chaos-5xx-rate 0] [-chaos-truncate-rate 0]
//	      [-chaos-latency 0] [-chaos-seed 1]
//	      [-max-inflight 0] [-queue-depth 0] [-admission-service-time 1s]
//	      [-shard-count 0] [-shard-id 0] [-shard-replica 0] [-virtual-nodes 0]
//
// The -chaos-* flags make /search deliberately unreliable (fault
// injection) so crawler deployments can rehearse retries, failure budgets,
// and checkpoint resume against a real wire.
//
// The -max-inflight and -queue-depth flags arm admission control: at most
// max-inflight /search requests execute at once, queue-depth more wait in
// FIFO order, and the rest are shed with 503 plus a Retry-After hint
// derived from the backlog and -admission-service-time.
//
// With -shard-count N (and -shard-id K), serpd runs as one retrieval
// shard of an N-node cluster instead of a full engine: it regenerates the
// deterministic corpus from -seed, keeps the document slice the
// consistent-hash ring assigns shard K, and serves GET /shard/search for
// a cmd/serprouter coordinator to scatter-gather. With -shard-replica R
// the node additionally identifies as replica R of shard K — replicas
// serve byte-identical slices, so a router can spread load and fail over
// between them without changing any page. -virtual-nodes tunes the hash
// ring's virtual-node count.
// The chaos, admission, and tracez flags apply to the shard endpoint
// unchanged; engine flags (-datacenters, -rate-burst, ...) are ignored in
// shard mode.
//
// Endpoints:
//
//	GET /search?q=<term>&ll=<lat>,<lon>[&format=json]
//	GET /healthz
//	GET /statz         JSON counters (backward-compatible shape)
//	GET /metricsz      Prometheus text exposition
//	GET /tracez        recent request spans (JSON; ?format=html for a
//	                   browsable view, ?limit=N to cap traces)
//
// With -pprof-addr, the net/http/pprof endpoints are served on a separate
// listener under /debug/pprof/.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"geoserp/internal/engine"
	"geoserp/internal/router"
	"geoserp/internal/serpserver"
	"geoserp/internal/telemetry"
)

func main() {
	var opts options
	flag.StringVar(&opts.Addr, "addr", "127.0.0.1:8080", "listen address")
	flag.Uint64Var(&opts.Seed, "seed", 1, "root seed for the synthetic web and noise")
	flag.IntVar(&opts.Datacenters, "datacenters", 3, "number of replica datacenters")
	flag.IntVar(&opts.Buckets, "buckets", 8, "number of A/B experiment buckets")
	flag.IntVar(&opts.RateBurst, "rate-burst", 30, "per-IP rate limit burst")
	flag.Float64Var(&opts.RatePerMin, "rate-per-minute", 10, "per-IP sustained requests per minute")
	flag.BoolVar(&opts.Quiet, "quiet", false, "disable all noise mechanisms (deterministic serving)")
	flag.StringVar(&opts.CorpusPath, "corpus", "", "custom query corpus JSON (default: the study's 240 terms)")
	flag.StringVar(&opts.PprofAddr, "pprof-addr", "", "serve net/http/pprof on this address (off when empty)")
	flag.Uint64Var(&opts.Chaos.Seed, "chaos-seed", 1, "seed for fault-injection draws")
	flag.Float64Var(&opts.Chaos.AbortRate, "chaos-abort-rate", 0, "probability a /search connection is severed before responding")
	flag.Float64Var(&opts.Chaos.ServerErrorRate, "chaos-5xx-rate", 0, "probability a /search request is answered 500")
	flag.Float64Var(&opts.Chaos.TruncateRate, "chaos-truncate-rate", 0, "probability a /search response body is cut off mid-stream")
	flag.DurationVar(&opts.Chaos.Latency, "chaos-latency", 0, "extra latency added to every /search request")
	flag.IntVar(&opts.Admission.MaxInflight, "max-inflight", 0, "max concurrent /search requests admitted (0 disables admission control)")
	flag.IntVar(&opts.Admission.QueueDepth, "queue-depth", 0, "how many /search requests may queue for an admission slot")
	flag.DurationVar(&opts.Admission.ServiceTime, "admission-service-time", time.Second, "per-request service-time estimate behind Retry-After hints")
	flag.IntVar(&opts.TracezCapacity, "tracez-capacity", telemetry.DefaultSpanCapacity, "span ring capacity behind GET /tracez (0 disables tracing)")
	flag.IntVar(&opts.ShardCount, "shard-count", 0, "run as one shard of an N-shard cluster instead of a full engine (0 disables shard mode)")
	flag.IntVar(&opts.ShardID, "shard-id", 0, "this node's shard ID (0-based, requires -shard-count)")
	flag.IntVar(&opts.ShardReplica, "shard-replica", 0, "this node's replica ID within its shard's replica set (0-based; replicas serve identical slices)")
	flag.IntVar(&opts.VirtualNodes, "virtual-nodes", 0, "consistent-hash virtual nodes per shard (0 selects the default; all cluster nodes must agree)")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	verbose := flag.Bool("verbose", false, "log every request")
	wideEvents := flag.Bool("wide-events", false, "emit one wide-event request log line per /search")
	flag.Parse()

	logger := telemetry.NewLogger(os.Stderr, *logFormat)
	if *verbose {
		opts.Logger = logger
	}
	if *wideEvents {
		opts.WideLogger = logger
	}

	var (
		srv *serpserver.Server
		eng *engine.Engine
		err error
	)
	if opts.ShardCount > 0 {
		var sh *router.ShardHandler
		srv, sh, err = buildShardServer(opts)
		if err == nil {
			logger.Info("serving retrieval shard",
				"url", srv.URL(), "seed", opts.Seed,
				"shard", opts.ShardID, "of", opts.ShardCount, "docs", sh.Docs())
			logger.Info("endpoints ready",
				"try", srv.URL()+"/healthz",
				"metrics", srv.URL()+"/metricsz")
		}
	} else {
		srv, eng, err = buildServer(opts)
		if err == nil {
			logger.Info("serving synthetic search",
				"url", srv.URL(), "seed", opts.Seed, "datacenters", opts.Datacenters)
			logger.Info("endpoints ready",
				"try", srv.URL()+"/search?q=Coffee&ll=41.4993,-81.6944",
				"metrics", srv.URL()+"/metricsz")
		}
	}
	if err != nil {
		logger.Error("startup failed", "err", err)
		os.Exit(1)
	}

	if opts.PprofAddr != "" {
		pprofSrv, pprofAddr, perr := telemetry.ServePprof(opts.PprofAddr)
		if perr != nil {
			logger.Error("pprof startup failed", "err", perr)
			os.Exit(1)
		}
		defer pprofSrv.Close()
		logger.Info("pprof enabled", "addr", "http://"+pprofAddr+"/debug/pprof/")
	}

	done := make(chan os.Signal, 1)
	signal.Notify(done, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		if err := srv.Serve(); err != nil {
			logger.Error("serve", "err", err)
		}
	}()
	<-done
	fmt.Fprintln(os.Stderr)
	if eng != nil {
		logger.Info("shutting down",
			"served", eng.Served(), "rate_limited", eng.RateLimited())
	} else {
		logger.Info("shutting down")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Error("shutdown", "err", err)
		os.Exit(1)
	}
}
