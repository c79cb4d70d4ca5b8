package telemetry

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"

	"geoserp/internal/simclock"
)

func TestMintTraceIDDeterministic(t *testing.T) {
	a := MintTraceID(1, "phase", "term", "loc")
	b := MintTraceID(1, "phase", "term", "loc")
	if a != b {
		t.Fatalf("same key minted different IDs: %s vs %s", a, b)
	}
	if a == MintTraceID(1, "phase", "term", "other") {
		t.Fatal("different keys minted the same ID")
	}
	if a == MintTraceID(2, "phase", "term", "loc") {
		t.Fatal("different seeds minted the same ID")
	}
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(a) {
		t.Fatalf("trace ID %q is not 16 hex digits", a)
	}
}

// TestMintTraceIDCrossPhaseUnique pins the campaign-wide uniqueness
// property the crawler relies on: every (phase, granularity, day, term,
// location, role) tuple a campaign mints must get its own trace ID, or two
// different requests would share noise keys and span timelines.
func TestMintTraceIDCrossPhaseUnique(t *testing.T) {
	seen := make(map[string]string)
	for _, phase := range []string{"state", "city", "validation"} {
		for _, gran := range []string{"st", "ci"} {
			for day := 0; day < 3; day++ {
				for _, term := range []string{"gay marriage", "obamacare", "walmart"} {
					for _, loc := range []string{"US-TX", "US-MA", "US-OH"} {
						for _, role := range []string{"control", "treatment"} {
							key := phase + "/" + gran + "/" + fmt.Sprint(day) + "/" + term + "/" + loc + "/" + role
							id := MintTraceID(0, phase, gran, fmt.Sprint(day), term, loc, role)
							if prev, dup := seen[id]; dup {
								t.Fatalf("trace ID %s collides: %s and %s", id, prev, key)
							}
							seen[id] = key
							if id != MintTraceID(0, phase, gran, fmt.Sprint(day), term, loc, role) {
								t.Fatalf("re-mint of %s differs", key)
							}
						}
					}
				}
			}
		}
	}
	if len(seen) != 3*2*3*3*3*2 {
		t.Fatalf("minted %d IDs, want %d", len(seen), 3*2*3*3*3*2)
	}
}

func TestTraceContext(t *testing.T) {
	ctx := context.Background()
	if TraceID(ctx) != "" {
		t.Fatal("empty context carries a trace ID")
	}
	ctx = WithTraceID(ctx, "abc123")
	if TraceID(ctx) != "abc123" {
		t.Fatalf("trace ID = %q", TraceID(ctx))
	}
}

func TestPprofMuxServes(t *testing.T) {
	srv, addr, err := ServePprof("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("pprof index status = %d", resp.StatusCode)
	}
	if len(body) == 0 {
		t.Fatal("pprof index empty")
	}
	if _, _, err := ServePprof(addr); err == nil {
		t.Fatal("second listener bound an address already in use")
	}
}

func TestMountDebug(t *testing.T) {
	get := func(mux *http.ServeMux, path string) int {
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		return w.Code
	}
	bare := http.NewServeMux()
	MountDebug(bare, nil, nil, "n")
	for _, path := range []string{"/metricsz", "/tracez", SpanzPath} {
		if code := get(bare, path); code != http.StatusNotFound {
			t.Fatalf("%s without a registry or spans = %d, want 404", path, code)
		}
	}
	full := http.NewServeMux()
	MountDebug(full, NewRegistry(), NewSpanRecorder(8, simclock.NewManual(testEpoch)), "n")
	for _, path := range []string{"/metricsz", "/tracez", SpanzPath} {
		if code := get(full, path); code != http.StatusOK {
			t.Fatalf("%s = %d, want 200", path, code)
		}
	}
}
