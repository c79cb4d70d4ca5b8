package main

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"geoserp/internal/geo"
	"geoserp/internal/telemetry"
)

// stitchedSpan builds one span of a synthetic stitched trace; attrs are
// key/value pairs.
func stitchedSpan(trace, id, parent, name string, at time.Time, attrs ...string) telemetry.StitchedSpan {
	s := telemetry.StitchedSpan{SpanRecord: telemetry.SpanRecord{
		TraceID: trace, SpanID: id, ParentID: parent, Name: name,
		Start: at, End: at.Add(time.Millisecond),
	}}
	for i := 0; i < len(attrs); i += 2 {
		s.Attrs = append(s.Attrs, telemetry.Attr{Key: attrs[i], Val: attrs[i+1]})
	}
	return s
}

// stitchedTrace is a complete trace of one coordinator request: a
// retrieval with an ok leg per shard, each served by replica 1 and joined
// to its shard-side server span. With failover, shard 0's leg first tries
// replica 0 and gets an error, as it does inside the outage window.
func stitchedTrace(trace string, at time.Time, failover bool) telemetry.StitchedTrace {
	tr := telemetry.StitchedTrace{TraceID: trace, Spans: []telemetry.StitchedSpan{
		stitchedSpan(trace, "req", "", "serpd.request", at),
		stitchedSpan(trace, "ret", "req", "engine.retrieve", at),
	}}
	for shard := 0; shard < soakShards; shard++ {
		leg := "leg" + strconv.Itoa(shard)
		tr.Spans = append(tr.Spans, stitchedSpan(trace, leg, "ret", "router.shard", at,
			"shard", strconv.Itoa(shard), "outcome", "ok"))
		if failover && shard == 0 {
			tr.Spans = append(tr.Spans, stitchedSpan(trace, leg+"a0", leg, "router.attempt", at,
				"replica", "0", "outcome", "error"))
		}
		tr.Spans = append(tr.Spans,
			stitchedSpan(trace, leg+"a1", leg, "router.attempt", at, "replica", "1", "outcome", "ok"),
			stitchedSpan(trace, leg+"srv", leg+"a1", "shard.search", at))
	}
	return tr
}

// passingSummary is a summary of a traced soak run that holds every
// invariant, shaped like a real run's.
func passingSummary(opts soakOptions) *soakSummary {
	vantages := len(geo.StudyDataset().At(geo.County))
	inOutage := soakEpoch.Add(replicaOutageStart + time.Hour)
	healed := soakEpoch.Add(replicaOutageEnd + time.Hour)
	sum := &soakSummary{
		Observations:  opts.Terms * vantages * 2 * len(soakPhases(opts.Seed, nil)),
		Admitted:      480,
		ShedByReason:  map[string]uint64{shedQueueFullLabel: 303},
		ShedFraction:  0.387,
		BreakerOpen:   13,
		BreakerReopen: 12,
		BreakerClose:  13,
		FaultsDrawn:   117,
		StatzPolls:    266,

		RouterRetrievals:      480,
		RouterOutcomes:        map[string]uint64{"ok": 1440},
		RouterBreakerOpen:     3,
		RouterBreakerReopen:   36,
		RouterBreakerClose:    3,
		RouterReplicaOutcomes: map[string]uint64{"ok": 1440, "error": 54, "breaker_open": 305},
		RouterFailovers:       359,
		RouterProbes:          map[string]uint64{"ok": 3, "error": 930},
		RouterReadmissions:    3,

		ObsTraceIDs:       []string{"obs-0", "obs-1"},
		ClusterTracezJSON: []byte(`{"traces":[]}`),
		ClusterChrome:     []byte(`{"traceEvents":[]}`),
	}
	sum.ClusterTraces = []telemetry.StitchedTrace{
		stitchedTrace("obs-0", inOutage, true),
		stitchedTrace("obs-1", healed, false),
	}
	for i := 0; i < clusterProbes; i++ {
		sum.ProbeTraceIDs = append(sum.ProbeTraceIDs, probeTraceID(i))
		sum.ClusterTraces = append(sum.ClusterTraces, stitchedTrace(probeTraceID(i), healed, false))
	}
	return sum
}

// setErrorAttempt applies f to the synthetic summary's one error attempt.
func setErrorAttempt(sum *soakSummary, f func(*telemetry.StitchedSpan)) {
	for _, tr := range sum.ClusterTraces {
		for i := range tr.Spans {
			if tr.Spans[i].Name == "router.attempt" && tr.Spans[i].Attr("outcome") == "error" {
				f(&tr.Spans[i])
				return
			}
		}
	}
	panic("synthetic summary has no error attempt")
}

// TestCheckInvariantsNamesEachViolation breaks one invariant of an
// otherwise passing soak summary per row: the checker must fail with
// exactly one violation, and that violation must name the invariant.
func TestCheckInvariantsNamesEachViolation(t *testing.T) {
	opts := defaultSoakOptions()
	opts.TraceCapacity = 1 << 17
	if err := checkInvariants(opts, passingSummary(opts)); err != nil {
		t.Fatalf("baseline summary must pass: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(*soakSummary)
		want   string
	}{
		{"partial page", func(s *soakSummary) { s.RouterPartial = 1 },
			"1 retrievals went partial despite a surviving replica per shard"},
		{"unbalanced browser breaker ledger", func(s *soakSummary) { s.BreakerClose-- },
			"- breaker ledger unbalanced: 13 opens vs 12 closes"},
		{"unbalanced replica breaker ledger", func(s *soakSummary) { s.RouterBreakerClose-- },
			"- replica breaker ledger unbalanced: 3 opens vs 2 closes"},
		{"shed observation", func(s *soakSummary) { s.ShedObs = 1 },
			"terminal failures: 0 failed, 1 shed observations"},
		{"statz poll error", func(s *soakSummary) { s.StatzPollErrors = 1 },
			"live /statz served unparseable responses: 1 of 266 polls"},
		{"parity violation", func(s *soakSummary) { s.ParityViolation = "scorecards differ" },
			"streaming/batch parity: scorecards differ"},
		{"error attempt on the surviving replica", func(s *soakSummary) {
			setErrorAttempt(s, func(sp *telemetry.StitchedSpan) { sp.Attrs[0].Val = "1" })
		}, "1 attempts attribute faults outside the injected schedule"},
		{"error attempt outside the outage window", func(s *soakSummary) {
			setErrorAttempt(s, func(sp *telemetry.StitchedSpan) { sp.Start = soakEpoch })
		}, "1 attempts attribute faults outside the injected schedule"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sum := passingSummary(opts)
			tc.mutate(sum)
			err := checkInvariants(opts, sum)
			if err == nil {
				t.Fatal("checkInvariants passed a broken summary")
			}
			msg := err.Error()
			if !strings.Contains(msg, "soak: 1 invariant(s) violated") || !strings.Contains(msg, tc.want) {
				t.Fatalf("want exactly one violation naming %q, got:\n%s", tc.want, msg)
			}
		})
	}
}
