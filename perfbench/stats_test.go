package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	s := sample{}
	for i := 1; i <= 100; i++ {
		s = append(s, float64(101-i)) // unsorted input
	}
	cases := []struct {
		p          float64
		want       float64
		wantBeyond int
	}{
		{50, 50, 50},
		{99, 99, 1},
		{100, 100, 0},
		{1, 1, 99},
	}
	for _, c := range cases {
		if got := s.percentile(c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
		if got := s.beyond(c.p); got != c.wantBeyond {
			t.Errorf("beyond(p%v) = %d, want %d", c.p, got, c.wantBeyond)
		}
	}
	if s[0] != 100 {
		t.Error("percentile sorted the caller's sample in place")
	}
}

func TestPercentileSmallSamples(t *testing.T) {
	if got := (sample{}).percentile(99); got != 0 {
		t.Errorf("empty p99 = %v, want 0", got)
	}
	s := sample{3, 1, 2}
	if got := s.percentile(99); got != 3 {
		t.Errorf("p99 of 3 samples = %v, want the maximum 3", got)
	}
	if got := s.beyond(99); got != 0 {
		t.Errorf("p99 of 3 samples rests on %d samples beyond it, want 0", got)
	}
	if got := s.median(); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := (sample{1000, 10}).percentile(50); got != 10 {
		t.Errorf("median of two = %v, want the lower (nearest rank)", got)
	}
}

func TestOpenLoopLatencyCountsGeneratorStall(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	// Three requests due every 10 ms; the server stalls for 50 ms on the
	// first, so the next two leave late. Timing from the send instant would
	// report 1 ms for both; timing from the due instant charges the stall.
	reqs := []openLoopTiming{
		{due: at(0), sent: at(0), done: at(50)},
		{due: at(10), sent: at(50), done: at(51)},
		{due: at(20), sent: at(51), done: at(52)},
	}
	wantLat := []time.Duration{50 * time.Millisecond, 41 * time.Millisecond, 32 * time.Millisecond}
	wantLag := []time.Duration{0, 40 * time.Millisecond, 31 * time.Millisecond}
	for i, r := range reqs {
		if got := r.latency(); got != wantLat[i] {
			t.Errorf("request %d latency = %v, want %v", i, got, wantLat[i])
		}
		if got := r.lag(); got != wantLag[i] {
			t.Errorf("request %d lag = %v, want %v", i, got, wantLag[i])
		}
	}
}

func TestSelfTimeSubtractsCoveredChildInterval(t *testing.T) {
	t0 := time.Unix(0, 0)
	iv := func(a, b int) interval {
		return interval{t0.Add(time.Duration(a) * time.Microsecond), t0.Add(time.Duration(b) * time.Microsecond)}
	}
	parent := iv(0, 100)
	cases := []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"no children", nil, 100 * time.Microsecond},
		{"one child", []interval{iv(10, 30)}, 80 * time.Microsecond},
		{"disjoint children", []interval{iv(10, 20), iv(50, 70)}, 70 * time.Microsecond},
		// Parallel legs: the union counts once, not the sum.
		{"overlapping children", []interval{iv(10, 60), iv(20, 40), iv(30, 80)}, 30 * time.Microsecond},
		{"nested children", []interval{iv(10, 90), iv(20, 30)}, 20 * time.Microsecond},
		// Time a child spent outside its parent is not the parent's.
		{"child spills over", []interval{iv(-20, 10), iv(90, 130)}, 80 * time.Microsecond},
		{"child outside", []interval{iv(200, 300)}, 100 * time.Microsecond},
		{"touching children", []interval{iv(10, 20), iv(20, 30)}, 80 * time.Microsecond},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestFailRatioCountsRefusals(t *testing.T) {
	var o outcomes
	o.add(outcomes{attempted: 90})
	// A 429 rate limit and a 503 admission shed are refusals: both count.
	o.add(outcomes{attempted: 6, non200: 2})
	o.add(outcomes{attempted: 3, transport: 1})
	o.add(outcomes{attempted: 1, wrong: 1})
	if o.attempted != 100 || o.failed() != 4 {
		t.Fatalf("attempted=%d failed=%d, want 100 and 4", o.attempted, o.failed())
	}
	if got := o.failRatio(); got != 0.04 {
		t.Errorf("fail ratio = %v, want 0.04", got)
	}
	if got := (outcomes{}).failRatio(); got != 0 {
		t.Errorf("fail ratio of nothing = %v, want 0", got)
	}
}

func TestCoverageCountsOnlyMeasuredTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	tr := newTracer(spanAdmission)
	// Due at 0, sent at 10, answered at 100. The server's spans cover
	// 20–90, so the 20 µs of loopback and HTTP stacks around them are
	// seen by no seam: 80% coverage, while the self times still add up
	// to the whole 100 µs.
	req := "t#"
	for _, s := range []spanRec{
		{Req: req, Name: spanQueue, Start: at(0), End: at(10)},
		{Req: req, Name: spanRequest, Start: at(10), End: at(100)},
		{Req: req, Name: spanAdmission, Start: at(20), End: at(90)},
		{Req: req, Name: spanHandler, Start: at(25), End: at(85)},
	} {
		tr.record(s)
	}
	st := stageRec{Req: req}
	st.Stages[0], st.Stages[stageRetrieve] = 10*time.Microsecond, 30*time.Microsecond
	tr.stages = append(tr.stages, st)

	lt := tr.analyzeRequests(spanRequest)
	if got := lt.coverage(); got != 80 {
		t.Errorf("coverage = %v%%, want 80%%", got)
	}
	var sum time.Duration
	for _, d := range lt.self {
		sum += d
	}
	if sum != 100*time.Microsecond {
		t.Errorf("self times add up to %v, want the end-to-end 100µs", sum)
	}
	if got := lt.self["client_net"]; got != 20*time.Microsecond {
		t.Errorf("client_net = %v, want the 20µs no server span covers", got)
	}
}
