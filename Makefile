# Convenience targets; everything is plain `go` underneath.

.PHONY: all build vet test check lint lint-sarif chaos soak bench bench-json bench-check repro repro-full examples clean

all: build vet test

# check is the CI gate: formatting, vet, the project linter, build, and
# the full suite under the race detector (the telemetry layer is
# lock-free by design — prove it).
check: lint
	go build ./...
	go test -race ./...

# lint runs gofmt, go vet, and geoserplint — the project analyzer suite
# that machine-enforces the determinism, clock, concurrency, and span
# invariants (docs/LINTING.md). Any finding, or any stale //lint:allow,
# fails. `make lint-sarif` writes the same findings as a SARIF 2.1.0 log
# (lint.sarif) for code-scanning uploads; CI publishes it on every run.
lint:
	@fmt_out="$$(gofmt -l .)"; if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi
	go vet ./...
	go run ./cmd/geoserplint ./...

lint-sarif:
	go run ./cmd/geoserplint -format sarif ./... > lint.sarif || true
	@echo "wrote lint.sarif"

# soak runs the chaos soak harness under the race detector against the
# replicated cluster topology — a serprouter-style coordinator
# scatter-gathering over 3 in-process shards x 2 replicas — through a
# multi-phase client fault schedule plus a deterministic 26-hour outage of
# replica 0 on every shard, asserting the overload-resilience invariants
# (no deadlock, breakers re-close, shed fraction within budget, zero
# terminal failures, live /statz parity), the replication invariants (zero
# partial pages — failover absorbs every replica fault — background
# health probes re-admit the replicas, breaker ledger balanced) and the
# trace-stitching invariants (every sampled request stitches completely,
# fault attribution matches the schedule). It writes the observations
# (soak-obs.jsonl), the post-campaign probes' stitched critical-path
# reports and multi-process Chrome trace — all three byte-identical across
# same-seed runs — and the router's full span timeline (soak-trace.json, a
# diagnostic that is not byte-stable: which attempts the gate sheds depends
# on wall-clock overlap).
soak:
	go run -race ./cmd/soak -out soak-obs.jsonl -trace-out soak-trace.json \
		-clustertracez-out soak-clustertracez.json -cluster-trace-out soak-cluster-trace.json

# chaos runs the fault-injection suite under the race detector: chaos
# transport/middleware, retry classification, failure budgets, and
# checkpoint resume (see docs/RELIABILITY.md).
chaos:
	go test -race -run 'Chaos|Retry|FailSoft|FailureBudget|Resume|Transient|SearchContext' \
		./internal/browser/ ./internal/crawler/ ./internal/serpserver/

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

test-output:
	go test ./... 2>&1 | tee test_output.txt

bench:
	go test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

# bench-json runs the benchmarks and writes machine-readable results to
# BENCH_core.json (name -> ns/op, B/op, allocs/op; sorted keys, so
# successive runs diff cleanly). Override BENCHTIME for a quick smoke:
#   make bench-json BENCHTIME=10x
BENCHTIME ?= 1s
bench-json:
	go test -bench=. -benchmem -benchtime=$(BENCHTIME) -run='^$$' ./... 2>&1 | tee bench_output.txt
	go run ./cmd/benchjson -in bench_output.txt -out BENCH_core.json

# bench-check is the benchmark regression gate: it re-runs the benchmarks
# briefly and fails when any allocs/op or B/op exceeds the committed
# BENCH_core.json baseline beyond tolerance. Allocation metrics are
# machine-independent, so the committed baseline holds on any hardware;
# wall-time gating stays opt-in (benchjson -check-ns). After an
# intentional perf change, regenerate the baseline with `make bench-json`
# and commit the diff. 1000x keeps one-time setup well amortized (at 100x
# the RunParallel benchmarks over-report allocs/op) while staying much
# quicker than the baseline's 1s-per-benchmark run. At 1000x the root
# package's figure and ablation benchmarks run 11-14 minutes on a 2-vCPU
# host, past go test's 10-minute default, hence the explicit -timeout.
CHECK_BENCHTIME ?= 1000x
bench-check:
	go test -bench=. -benchmem -benchtime=$(CHECK_BENCHTIME) -timeout 60m -run='^$$' ./... 2>&1 | tee bench_check_output.txt
	go run ./cmd/benchjson -in bench_check_output.txt -check BENCH_core.json

repro:
	go run ./cmd/repro

repro-full:
	go run ./cmd/repro -full -extended

examples:
	go run ./examples/quickstart
	go run ./examples/noiseaudit
	go run ./examples/geosweep
	go run ./examples/filterbubble
	go run ./examples/customworld
	go run ./examples/ipmethodology

clean:
	rm -f campaign.jsonl test_output.txt bench_output.txt bench_check_output.txt trace.json \
		soak-obs.jsonl soak-trace.json soak-clustertracez.json soak-cluster-trace.json
