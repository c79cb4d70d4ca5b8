package browser

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"geoserp/internal/serp"
	"geoserp/internal/simclock"
	"geoserp/internal/telemetry"
)

// shedServer answers 503 (with Retry-After ra when non-empty) for the first
// n requests, then serves a valid page. n < 0 sheds forever.
func shedServer(t *testing.T, n int, ra string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var count atomic.Int64
	ok := okHandler(t)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if c := count.Add(1); n < 0 || c <= int64(n) {
			if ra != "" {
				w.Header().Set("Retry-After", ra)
			}
			http.Error(w, "server overloaded, request shed (queue_full)", http.StatusServiceUnavailable)
			return
		}
		ok.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv, &count
}

// driveSearch runs Search in a goroutine while advancing the virtual clock
// through its sleeps, returning the search error.
func driveSearch(t *testing.T, b *Browser, clk *simclock.Manual) error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := b.Search("x")
		done <- err
	}()
	for {
		select {
		case err := <-done:
			return err
		default:
			if next, ok := clk.NextDeadline(); ok {
				clk.AdvanceTo(next)
			} else {
				time.Sleep(50 * time.Microsecond)
			}
		}
	}
}

func TestRetryAfterOverridesLinearBackoff(t *testing.T) {
	// One 503 naming a 7-second wait, then success. The linear policy would
	// sleep a full minute; honouring the server means exactly 7s elapse.
	srv, count := shedServer(t, 1, "7")
	epoch := time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)
	clk := simclock.NewManual(epoch)
	b, err := New(srv.URL, WithRetry(3, time.Minute), WithClock(clk))
	if err != nil {
		t.Fatal(err)
	}
	if serr := driveSearch(t, b, clk); serr != nil {
		t.Fatalf("search failed despite the shed clearing: %v", serr)
	}
	if got := count.Load(); got != 2 {
		t.Fatalf("requests = %d, want 2", got)
	}
	if got := clk.Now().Sub(epoch); got != 7*time.Second {
		t.Fatalf("virtual time advanced %s, want the server-named 7s (linear policy would sleep 1m)", got)
	}
}

func TestRetryAfterHonouredOn429(t *testing.T) {
	// The same override applies to rate-limit pushback: flakyServer names a
	// 1-second wait on its 429s, which must beat the 1-minute linear base.
	srv, count := flakyServer(t, 2)
	epoch := time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)
	clk := simclock.NewManual(epoch)
	b, err := New(srv.URL, WithRetry(4, time.Minute), WithClock(clk))
	if err != nil {
		t.Fatal(err)
	}
	if serr := driveSearch(t, b, clk); serr != nil {
		t.Fatalf("search failed despite retries: %v", serr)
	}
	if got := count.Load(); got != 3 {
		t.Fatalf("requests = %d, want 3", got)
	}
	if got := clk.Now().Sub(epoch); got != 2*time.Second {
		t.Fatalf("virtual time advanced %s, want 2 server-named seconds", got)
	}
}

func TestShedsAreExemptFromRetryAttempts(t *testing.T) {
	// Five shed waves then success, with only two attempts in the failure
	// budget: sheds must not consume it.
	srv, count := shedServer(t, 5, "")
	reg := telemetry.NewRegistry()
	b, err := New(srv.URL, WithRetry(2, 0), WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	if _, serr := b.Search("x"); serr != nil {
		t.Fatalf("search failed despite shed-exempt retries: %v", serr)
	}
	if got := count.Load(); got != 6 {
		t.Fatalf("requests = %d, want 6", got)
	}
	if got := reg.Counter("browser_shed_total", "").Value(); got != 5 {
		t.Fatalf("browser_shed_total = %d, want 5", got)
	}
}

func TestShedRetriesBoundSustainedOverload(t *testing.T) {
	// A server that never stops shedding: the separate shed cap is what
	// terminates the search, and the error keeps its shed classification.
	srv, count := shedServer(t, -1, "")
	b, err := New(srv.URL, WithRetry(2, 0), WithShedRetries(3))
	if err != nil {
		t.Fatal(err)
	}
	_, serr := b.Search("x")
	if serr == nil {
		t.Fatal("search succeeded against a permanently shedding server")
	}
	if !IsShed(serr) || !IsTransient(serr) {
		t.Fatalf("terminal shed error lost its classification: %v", serr)
	}
	if got := count.Load(); got != 4 {
		t.Fatalf("requests = %d, want 4 (1 + 3 shed retries)", got)
	}

	// WithShedRetries(0): the first 503 is terminal even with attempts left.
	srv0, count0 := shedServer(t, -1, "")
	b0, err := New(srv0.URL, WithRetry(5, 0), WithShedRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, serr := b0.Search("x"); !IsShed(serr) {
		t.Fatalf("err = %v, want a shed", serr)
	}
	if got := count0.Load(); got != 1 {
		t.Fatalf("requests = %d, want 1", got)
	}
}

func TestOversizeBodyFailsPermanently(t *testing.T) {
	var count atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		count.Add(1)
		w.Write(bytes.Repeat([]byte("x"), 4096))
	}))
	defer srv.Close()
	b, err := New(srv.URL, WithRetry(5, 0), WithMaxBodySize(1024))
	if err != nil {
		t.Fatal(err)
	}
	_, serr := b.Search("x")
	if !errors.Is(serr, ErrBodyTooLarge) {
		t.Fatalf("err = %v, want ErrBodyTooLarge", serr)
	}
	if IsTransient(serr) {
		t.Fatalf("oversize body classified transient: %v", serr)
	}
	// Permanent: re-downloading would overflow the cap every time.
	if got := count.Load(); got != 1 {
		t.Fatalf("oversize body was re-fetched: %d requests", got)
	}
}

func TestBodyExactlyAtCapIsAccepted(t *testing.T) {
	page := &serp.Page{
		Query:    "x",
		Location: "1.000000,2.000000",
		Cards: []serp.Card{{
			Type:    serp.Organic,
			Results: []serp.Result{{URL: "https://a/", Title: "A"}},
		}},
	}
	html := serp.RenderHTML(page)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, html)
	}))
	defer srv.Close()
	b, err := New(srv.URL, WithMaxBodySize(int64(len(html))))
	if err != nil {
		t.Fatal(err)
	}
	if _, serr := b.Search("x"); serr != nil {
		t.Fatalf("a body exactly at the cap was rejected: %v", serr)
	}
}

// TestBreakerStateMachine drives the breaker a WithBreaker browser guards
// its search endpoint with, step by step, and checks what the browser
// reports for it: BreakerState and the transition counter.
func TestBreakerStateMachine(t *testing.T) {
	reg := telemetry.NewRegistry()
	b, err := New("http://search.invalid", WithBreaker(2, time.Minute), WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	br := b.breakerFor(b.base.Host + "/search")
	transitions := reg.CounterVec("browser_breaker_transitions_total", "", "transition")
	now := time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)

	if _, ok := br.Allow(now); !ok {
		t.Fatal("new breaker refused traffic")
	}
	// A success between failures resets the consecutive-failure streak.
	br.Failure(now)
	br.Success()
	br.Failure(now)
	if b.BreakerState() != "closed" {
		t.Fatalf("state = %s after a broken streak, want closed", b.BreakerState())
	}
	br.Failure(now)
	if b.BreakerState() != "open" {
		t.Fatalf("state = %s after %d consecutive failures, want open", b.BreakerState(), 2)
	}
	// Open: traffic fails fast with the remaining cooldown.
	wait, ok := br.Allow(now.Add(20 * time.Second))
	if ok || wait != 40*time.Second {
		t.Fatalf("allow mid-cooldown = (%s, %v), want (40s, false)", wait, ok)
	}
	// Cooldown elapsed: a single half-open probe is admitted.
	if _, ok := br.Allow(now.Add(time.Minute)); !ok {
		t.Fatal("probe refused after the cooldown elapsed")
	}
	if b.BreakerState() != "half-open" {
		t.Fatalf("state = %s, want half-open", b.BreakerState())
	}
	// A failing probe reopens and restarts the cooldown from its instant.
	br.Failure(now.Add(time.Minute))
	if _, ok := br.Allow(now.Add(90 * time.Second)); ok {
		t.Fatal("reopened breaker admitted traffic mid-cooldown")
	}
	if _, ok := br.Allow(now.Add(2 * time.Minute)); !ok {
		t.Fatal("second probe refused")
	}
	// A succeeding probe closes the breaker for good.
	br.Success()
	if b.BreakerState() != "closed" {
		t.Fatalf("state = %s after a successful probe, want closed", b.BreakerState())
	}
	want := map[string]uint64{"open": 1, "half_open": 2, "reopen": 1, "close": 1}
	if got := transitions.Values(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("transitions = %v, want %v", got, want)
	}
}

func TestBreakerOpensFailsFastAndRecloses(t *testing.T) {
	var healthy atomic.Bool
	var count atomic.Int64
	ok := okHandler(t)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		count.Add(1)
		if !healthy.Load() {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		ok.ServeHTTP(w, r)
	}))
	defer srv.Close()
	clk := simclock.NewManual(time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC))
	reg := telemetry.NewRegistry()
	b, err := New(srv.URL, WithBreaker(2, time.Minute), WithClock(clk), WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, serr := b.Search("x"); serr == nil {
			t.Fatal("500 accepted")
		}
	}
	if b.BreakerState() != "open" {
		t.Fatalf("state = %s after threshold failures, want open", b.BreakerState())
	}
	// Open: from the instant after the trip, fail fast without touching
	// the wire, naming the remaining cooldown.
	clk.Advance(time.Second)
	_, serr := b.Search("x")
	if !errors.Is(serr, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", serr)
	}
	if ra, ok := RetryAfter(serr); !ok || ra != 59*time.Second {
		t.Fatalf("RetryAfter = (%s, %v), want the remaining 59s of cooldown", ra, ok)
	}
	if got := count.Load(); got != 2 {
		t.Fatalf("open breaker let a request through: %d requests", got)
	}
	// Cooldown elapses; the half-open probe still fails, so it reopens.
	clk.Advance(time.Minute)
	if _, serr := b.Search("x"); serr == nil {
		t.Fatal("failing probe accepted")
	}
	if got := count.Load(); got != 3 {
		t.Fatalf("half-open admitted %d probes, want exactly 1", count.Load()-2)
	}
	if b.BreakerState() != "open" {
		t.Fatalf("state = %s after a failed probe, want open", b.BreakerState())
	}
	// Faults clear; the next probe closes the breaker.
	clk.Advance(time.Minute)
	healthy.Store(true)
	if _, serr := b.Search("x"); serr != nil {
		t.Fatalf("search failed after recovery: %v", serr)
	}
	if b.BreakerState() != "closed" {
		t.Fatalf("state = %s after recovery, want closed", b.BreakerState())
	}
	got := reg.CounterVec("browser_breaker_transitions_total", "", "transition").Values()
	want := map[string]uint64{"open": 1, "half_open": 2, "reopen": 1, "close": 1}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("transitions = %v, want %v", got, want)
	}
}

func TestPushbackDoesNotTripBreaker(t *testing.T) {
	// 429s and 503 sheds are explicit pushback from a live server; even a
	// hair-trigger breaker must stay closed through them.
	for _, status := range []int{http.StatusTooManyRequests, http.StatusServiceUnavailable} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			http.Error(w, "pushback", status)
		}))
		b, err := New(srv.URL, WithBreaker(1, time.Minute), WithShedRetries(0))
		if err != nil {
			srv.Close()
			t.Fatal(err)
		}
		if _, serr := b.Search("x"); serr == nil {
			t.Fatalf("status %d accepted", status)
		}
		if b.BreakerState() != "closed" {
			t.Fatalf("status %d tripped the breaker", status)
		}
		srv.Close()
	}
}

func TestHalfOpenPushbackFreesProbeSlot(t *testing.T) {
	// A half-open probe that draws explicit pushback (a 429, or a 503
	// shed) must hand its probe slot back: the next Search after the
	// Retry-After reaches the server instead of failing fast with
	// ErrCircuitOpen.
	for _, status := range []int{http.StatusTooManyRequests, http.StatusServiceUnavailable} {
		t.Run(http.StatusText(status), func(t *testing.T) {
			var answer atomic.Int64
			var count atomic.Int64
			answer.Store(http.StatusInternalServerError)
			ok := okHandler(t)
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				count.Add(1)
				switch code := int(answer.Load()); code {
				case http.StatusOK:
					ok.ServeHTTP(w, r)
				default:
					w.Header().Set("Retry-After", "5")
					http.Error(w, "no", code)
				}
			}))
			defer srv.Close()
			clk := simclock.NewManual(time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC))
			b, err := New(srv.URL, WithBreaker(1, time.Minute), WithShedRetries(0), WithClock(clk))
			if err != nil {
				t.Fatal(err)
			}
			if _, serr := b.Search("x"); serr == nil || b.BreakerState() != "open" {
				t.Fatalf("500 did not trip the breaker: err=%v state=%s", serr, b.BreakerState())
			}
			clk.Advance(time.Minute)
			answer.Store(int64(status))
			if _, serr := b.Search("x"); serr == nil || errors.Is(serr, ErrCircuitOpen) {
				t.Fatalf("half-open probe err = %v, want the server's %d", serr, status)
			}
			if b.BreakerState() != "half-open" {
				t.Fatalf("state = %s after a pushed-back probe, want half-open", b.BreakerState())
			}
			clk.Advance(5 * time.Second)
			answer.Store(http.StatusOK)
			if _, serr := b.Search("x"); serr != nil {
				t.Fatalf("search after Retry-After: %v", serr)
			}
			if got := count.Load(); got != 3 {
				t.Fatalf("server saw %d requests, want 3", got)
			}
			if b.BreakerState() != "closed" {
				t.Fatalf("state = %s after a successful probe, want closed", b.BreakerState())
			}
		})
	}
}

func TestBreakerChaosDeterminism(t *testing.T) {
	// Same seed, same clock schedule: the whole breaker timeline — outcome
	// and state after every query — must replay exactly.
	srv := httptest.NewServer(okHandler(t))
	defer srv.Close()
	run := func() ([]string, map[string]uint64) {
		clk := simclock.NewManual(time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC))
		reg := telemetry.NewRegistry()
		ct := NewChaosTransport(ChaosConfig{Seed: 11, ServerErrorRate: 0.4}, nil)
		b, err := New(srv.URL, WithTransport(ct), WithBreaker(2, 30*time.Second),
			WithClock(clk), WithTelemetry(reg))
		if err != nil {
			t.Fatal(err)
		}
		var timeline []string
		for i := 0; i < 60; i++ {
			b.SetTraceID(fmt.Sprintf("det-%d", i))
			outcome := "ok"
			if _, serr := b.Search("x"); serr != nil {
				outcome = "err"
			}
			timeline = append(timeline, outcome+"/"+b.BreakerState())
			clk.Advance(10 * time.Second)
		}
		return timeline, reg.CounterVec("browser_breaker_transitions_total", "", "transition").Values()
	}
	tl1, tr1 := run()
	tl2, tr2 := run()
	if fmt.Sprint(tl1) != fmt.Sprint(tl2) {
		t.Fatalf("same-seed breaker timelines diverged:\n%v\nvs\n%v", tl1, tl2)
	}
	if fmt.Sprint(tr1) != fmt.Sprint(tr2) {
		t.Fatalf("same-seed transition counts diverged: %v vs %v", tr1, tr2)
	}
	if tr1["open"] == 0 {
		t.Fatalf("breaker never opened at a 40%% injected error rate: %v", tr1)
	}
}
