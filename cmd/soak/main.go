// Command soak is the chaos soak harness: it runs a virtual-time crawl
// campaign against the replicated cluster — a serprouter-style coordinator
// behind a tight admission gate, scatter-gathering over 3 in-process
// shards x 2 replicas — while a seeded, multi-phase client fault schedule
// (calm, error burst, latency spike, recovery; one virtual day each)
// batters the wire and replica 0 of every shard goes dark (retrieval and
// /healthz) for a 26-hour window spanning the error-burst day. It then
// asserts the overload-resilience invariants held:
//
//   - the rig never deadlocks (a wall-clock watchdog crashes a wedged run);
//   - the admission gate sheds under overload, within the shed budget;
//   - every circuit-breaker trip is matched by a re-close once faults clear;
//   - no fetch fails terminally: retries, Retry-After backoff, and breaker
//     cooldowns recover every fault inside its lock-step round;
//   - the live /statz audit surface, polled from a wall-clock goroutine
//     for the whole campaign, always parses and its streaming scorecard
//     exactly matches the batch pipeline's verdicts at campaign end;
//
// plus the replication invariants: ZERO partial pages (every leg fails
// over to the surviving replica), per-replica breakers trip and are
// re-admitted by the background health prober (balanced ledger), and
// same-seed runs stay byte-identical. When spans are recorded (any trace
// artifact flag), the soak also stitches every node's /spanz export into
// cross-process traces and asserts the observability invariants: every
// sampled request yields a complete stitched trace (router plus all
// contacted shards), critical-path attribution matches the injected fault
// schedule, and the post-campaign probes' /clustertracez and Chrome bodies
// reproduce byte-identically across same-seed runs.
//
// Usage:
//
//	soak [-seed 1] [-out obs.jsonl] [-trace-out soak-trace.json]
//	     [-clustertracez-out probes.json] [-cluster-trace-out cluster.json]
//	     [-log-format text|json] [-v]
//
// -out writes the campaign's observations as JSONL, -clustertracez-out the
// probes' stitched critical-path reports and -cluster-trace-out their
// stitched multi-process Chrome trace (one lane per node): all three are
// byte-identical across same-seed runs. -trace-out dumps the router's full
// span timeline (admission sheds included) in Chrome trace-event format;
// it is a diagnostic, not byte-stable, because which attempts the gate
// sheds depends on wall-clock overlap. The rig's sizing, retry and breaker
// budgets are fixed constants (see soak.go). Exit status is non-zero when
// any invariant fails.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"geoserp/internal/simclock"
	"geoserp/internal/telemetry"
)

func main() {
	opts := defaultSoakOptions()
	flag.Uint64Var(&opts.Seed, "seed", opts.Seed, "seed for the engine and the fault schedule")
	out := flag.String("out", "", "write the campaign observations as JSONL")
	traceOut := flag.String("trace-out", "", "write the router's span timeline as Chrome trace-event JSON (diagnostic; not byte-stable)")
	clusterTracezOut := flag.String("clustertracez-out", "", "write the post-campaign probes' stitched /clustertracez JSON")
	clusterTraceOut := flag.String("cluster-trace-out", "", "write the probes' stitched multi-process Chrome trace")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	verbose := flag.Bool("v", false, "debug logging: one record per fetch")
	flag.Parse()

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	logger := slog.New(telemetry.NewLogHandler(os.Stderr, *logFormat, level))
	opts.Logger = logger
	if *traceOut != "" || *clusterTracezOut != "" || *clusterTraceOut != "" {
		opts.TraceCapacity = 1 << 17
	}

	wall := simclock.Wall()
	start := wall.Now()
	sum, err := runSoak(opts)
	if sum != nil {
		logger.Info("soak complete",
			"observations", sum.Observations,
			"failed", sum.FailedObs,
			"shed_observations", sum.ShedObs,
			"admitted", sum.Admitted,
			"shed_by_reason", fmt.Sprint(sum.ShedByReason),
			"shed_fraction", fmt.Sprintf("%.3f", sum.ShedFraction),
			"breaker_open", sum.BreakerOpen,
			"breaker_reopen", sum.BreakerReopen,
			"breaker_close", sum.BreakerClose,
			"faults_injected", sum.FaultsDrawn,
			"retries", sum.Retries,
			"router_retrievals", sum.RouterRetrievals,
			"router_partial", sum.RouterPartial,
			"router_unavailable", sum.RouterUnavailable,
			"router_outcomes", fmt.Sprint(sum.RouterOutcomes),
			"router_breaker_open", sum.RouterBreakerOpen,
			"router_breaker_reopen", sum.RouterBreakerReopen,
			"router_breaker_close", sum.RouterBreakerClose,
			"router_replica_outcomes", fmt.Sprint(sum.RouterReplicaOutcomes),
			"router_failovers", sum.RouterFailovers,
			"router_probes", fmt.Sprint(sum.RouterProbes),
			"router_readmissions", sum.RouterReadmissions,
			"statz_polls", sum.StatzPolls,
			"statz_poll_errors", sum.StatzPollErrors,
			"virtual_elapsed", sum.VirtualTime.String(),
			"wall_elapsed", wall.Now().Sub(start).Round(time.Millisecond).String())
	}
	if err != nil {
		logger.Error("soak failed", "err", err)
		os.Exit(1)
	}
	write := func(path, what string, body []byte) {
		if path == "" {
			return
		}
		if werr := os.WriteFile(path, body, 0o644); werr != nil {
			logger.Error("write "+what, "err", werr)
			os.Exit(1)
		}
		logger.Info(what+" written", "path", path, "bytes", len(body))
	}
	write(*out, "observations", sum.JSONL)
	if *traceOut != "" {
		var chrome bytes.Buffer
		if werr := telemetry.WriteChromeTrace(&chrome, sum.Spans.Snapshot()); werr != nil {
			logger.Error("write soak trace", "err", werr)
			os.Exit(1)
		}
		write(*traceOut, "soak trace", chrome.Bytes())
	}
	write(*clusterTracezOut, "clustertracez export", sum.ClusterTracezJSON)
	write(*clusterTraceOut, "stitched cluster trace", sum.ClusterChrome)
}
