package router

import (
	"bytes"
	"errors"
	"math"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"geoserp/internal/detrand"
	"geoserp/internal/engine"
	"geoserp/internal/index"
	"geoserp/internal/queries"
	"geoserp/internal/simclock"
)

// wrongSeed replaces the chosen replicas with nodes built from seed 2: a
// shard that indexes another corpus. Its ordinals name other documents,
// so the router must refuse its answers.
func wrongSeed(shards int, bad func(shard, replica int) bool) func(int, int, http.Handler) http.Handler {
	return func(shard, replica int, next http.Handler) http.Handler {
		if !bad(shard, replica) {
			return next
		}
		return NewShardHandler(shard, BuildShardIndex(2, nil, shard, shards, 0), WithShardReplica(replica))
	}
}

// TestWrongSeedReplicaIsRefused: one replica of shard 0 indexes another
// seed's corpus. Every page stays byte-identical to the monolith, served
// by the healthy replica, and each refusal is counted as a corpus
// mismatch and a replica error (breaker-eligible).
func TestWrongSeedReplicaIsRefused(t *testing.T) {
	cfg := testConfig(7)
	monoClock := simclock.NewManual(epoch)
	mono := NewLocalCluster(ClusterConfig{Shards: 1, Engine: cfg, Clock: monoClock})
	clock := simclock.NewManual(epoch)
	cl := NewLocalCluster(ClusterConfig{
		Shards:           3,
		Replicas:         2,
		Engine:           cfg,
		Clock:            clock,
		BreakerThreshold: 3,
		BreakerCooldown:  45 * time.Second,
		ShardMiddleware:  wrongSeed(3, func(s, r int) bool { return s == 0 && r == 0 }),
	})
	for i, q := range clusterQueries {
		monoClock.Advance(time.Second)
		clock.Advance(time.Second)
		trace := "trace-" + strconv.Itoa(i)
		_, _, want := fetch(t, mono.Handler, q, trace, "10.1.2.3")
		code, partial, body := fetch(t, cl.Handler, q, trace, "10.1.2.3")
		if code != http.StatusOK || partial != "" {
			t.Fatalf("query %q: status %d, partial %q", q, code, partial)
		}
		if body != want {
			t.Fatalf("query %q: page differs from monolith\ncluster:  %s\nmonolith: %s", q, body, want)
		}
	}
	mismatches := cl.Client.corpusMismatch.Value()
	if mismatches == 0 {
		t.Fatal("router_corpus_mismatch_total is 0: no leg ever reached the wrong-seed replica")
	}
	if errs := cl.Client.perReplica.Values()["error"]; errs != mismatches {
		t.Fatalf("replica errors = %d, corpus mismatches = %d; every error should be a mismatch", errs, mismatches)
	}
	if legs := cl.Client.perShard.Values(); len(legs) != 1 || legs["ok"] == 0 {
		t.Fatalf("leg outcomes = %v, want only ok", legs)
	}
}

// TestWrongSeedShardGoesPartial: when every replica of shard 1 indexes
// another seed's corpus, the router has no trustworthy answer for that
// partition, so the page degrades to X-Serp-Partial instead of serving
// wrong documents.
func TestWrongSeedShardGoesPartial(t *testing.T) {
	cl := NewLocalCluster(ClusterConfig{
		Shards:          3,
		Replicas:        2,
		Engine:          testConfig(7),
		Clock:           simclock.NewManual(epoch),
		ShardMiddleware: wrongSeed(3, func(s, r int) bool { return s == 1 }),
	})
	for i, q := range clusterQueries {
		code, partial, body := fetch(t, cl.Handler, q, "trace-"+strconv.Itoa(i), "10.1.2.3")
		if code != http.StatusOK || partial != "web" {
			t.Fatalf("query %q: status %d, partial %q, want 200 partial \"web\": %s", q, code, partial, body)
		}
	}
	if cl.Client.corpusMismatch.Value() < 2*uint64(len(clusterQueries)) {
		t.Fatalf("corpus mismatches = %d, want both replicas refused on every query", cl.Client.corpusMismatch.Value())
	}
}

// TestShardCountMismatchIsRefused: a node cut for a 2-shard cluster serves
// another document slice than shard 0 of 3, even from the right seed.
func TestShardCountMismatchIsRefused(t *testing.T) {
	cl := NewLocalCluster(ClusterConfig{
		Shards: 3,
		Engine: testConfig(7),
		Clock:  simclock.NewManual(epoch),
		ShardMiddleware: func(shard, replica int, next http.Handler) http.Handler {
			if shard != 0 {
				return next
			}
			return NewShardHandler(0, BuildShardIndex(7, nil, 0, 2, 0))
		},
	})
	if _, partial, _ := fetch(t, cl.Handler, "coffee", "t-0", "10.1.2.3"); partial != "web" {
		t.Fatalf("partial = %q, want \"web\"", partial)
	}
	if cl.Client.corpusMismatch.Value() != 1 {
		t.Fatalf("corpus mismatches = %d, want 1", cl.Client.corpusMismatch.Value())
	}
}

// TestDecodeShardResponseRejects covers the decoder's distrust of the
// body: each malformed input must fail, and none may panic.
func TestDecodeShardResponseRejects(t *testing.T) {
	web := BuildWeb(1, nil)
	good := ShardResponse{
		Fingerprint: web.Fingerprint(), Shard: 1, Shards: 3, Replica: 1,
		Hits: []index.Hit{{Ord: 7, Score: 0.5}, {Ord: 3, Score: 0.25}},
	}
	body := AppendShardResponse(nil, good)
	if _, err := DecodeShardResponse(body, web); err != nil {
		t.Fatalf("valid body refused: %v", err)
	}
	patch := func(off int, b ...byte) []byte {
		out := append([]byte(nil), body...)
		copy(out[off:], b)
		return out
	}
	u32 := func(v uint32) []byte { return []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)} }
	nan := math.Float64bits(math.NaN())
	cases := map[string][]byte{
		"empty":             nil,
		"short header":      body[:wireHeaderLen-1],
		"json body":         []byte(`{"shard":1,"replica":1,"hits":[]}` + strings.Repeat(" ", 40)),
		"bad version":       patch(3, '2'),
		"truncated record":  body[:len(body)-1],
		"trailing byte":     append(append([]byte(nil), body...), 0),
		"count too high":    patch(24, u32(3)...),
		"count over cap":    patch(24, u32(maxShardK+1)...),
		"ordinal past end":  patch(wireHeaderLen, u32(uint32(web.Size()))...),
		"ordinal max":       patch(wireHeaderLen, 0xff, 0xff, 0xff, 0xff),
		"NaN score":         patch(wireHeaderLen+4, byte(nan), byte(nan>>8), byte(nan>>16), byte(nan>>24), byte(nan>>32), byte(nan>>40), byte(nan>>48), byte(nan>>56)),
		"wrong fingerprint": patch(4, 0x01),
	}
	for name, b := range cases {
		if _, err := DecodeShardResponse(b, web); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := DecodeShardResponse(cases["wrong fingerprint"], web); !errors.Is(err, errCorpusMismatch) {
		t.Errorf("wrong fingerprint: err = %v, want errCorpusMismatch", err)
	}
	if _, err := readShardResponse(bytes.NewReader(body), web); err != nil {
		t.Errorf("valid body refused by the reader: %v", err)
	}
	if _, err := readShardResponse(bytes.NewReader(make([]byte, maxWireBody+10)), web); err == nil {
		t.Error("oversized body read without error")
	}
}

// FuzzDecodeShardResponse: no input panics the decoder, and every body it
// accepts re-encodes to exactly the same bytes, with each hit's document
// resolved at its ordinal. Seed inputs live in testdata/fuzz.
func FuzzDecodeShardResponse(f *testing.F) {
	web := BuildWeb(1, nil)
	f.Add(AppendShardResponse(nil, ShardResponse{Fingerprint: web.Fingerprint(), Shards: 1}))
	f.Add(AppendShardResponse(nil, ShardResponse{
		Fingerprint: web.Fingerprint(), Shard: 2, Shards: 3, Replica: 1,
		Hits: []index.Hit{{Ord: 0, Score: 1.5}, {Ord: uint32(web.Size() - 1), Score: math.Copysign(0, -1)}},
	}))
	f.Add([]byte(`{"shard":0,"replica":0,"hits":[]}`))
	docs := web.All()
	f.Fuzz(func(t *testing.T, body []byte) {
		r, err := DecodeShardResponse(body, web)
		if err != nil {
			return
		}
		if got := AppendShardResponse(nil, r); !bytes.Equal(got, body) {
			t.Fatalf("accepted body re-encodes differently:\n in  %x\n out %x", body, got)
		}
		for i, h := range r.Hits {
			if h.Doc != docs[h.Ord] {
				t.Fatalf("hit %d: ordinal %d resolved to %s, table has %s", i, h.Ord, h.Doc.URL, docs[h.Ord].URL)
			}
		}
	})
}

// oracleQueries generates n seeded queries of every shape the tokenizer
// must treat identically on a shard and in the monolith: corpus terms in
// several casings, random mixes of corpus words and noise tokens,
// repeated tokens, stopword-only strings, and non-ASCII (including
// invalid UTF-8). The empty query is left out: the engine refuses it
// before retrieval, and a shard answers it with 400.
func oracleQueries(n int) []string {
	rng := detrand.NewKeyed(11, "router.oracle")
	var terms, words []string
	for _, q := range queries.StudyCorpus().All() {
		terms = append(terms, q.Term)
		words = append(words, strings.Fields(q.Term)...)
	}
	noise := []string{"zzyzx", "2015", "near", "café", "Zürich", "東京", "naïve", "x", "\xff\xfe", "–", "O'Neil"}
	stop := []string{"the", "of", "and", "a", "in", "near", "for", "to"}
	pick := func(s []string) string { return s[rng.Intn(len(s))] }
	out := make([]string, 0, n)
	for len(out) < n {
		var q string
		switch rng.Intn(6) {
		case 0:
			q = pick(terms)
		case 1:
			q = strings.ToUpper(pick(terms))
		case 2: // random token mix
			parts := make([]string, 1+rng.Intn(4))
			for i := range parts {
				if rng.Bool(0.7) {
					parts[i] = pick(words)
				} else {
					parts[i] = pick(noise)
				}
			}
			q = strings.Join(parts, " ")
		case 3: // repeated tokens
			w := pick(words)
			q = strings.Repeat(w+" ", 2+rng.Intn(3)) + pick(words)
		case 4: // stopwords only
			q = pick(stop) + " " + pick(stop)
		default: // non-ASCII around a corpus word
			q = pick(noise) + pick(words) + " " + pick(noise)
		}
		out = append(out, q)
	}
	return out
}

// TestClusterRetrieveMatchesIndexSearch is the differential oracle for the
// ordinal wire: for generated queries at 1-5 shards x 1-2 replicas, the
// cluster client's Retrieve returns exactly the monolithic index's hits —
// the same documents at the same ordinals, with bit-identical scores.
func TestClusterRetrieveMatchesIndexSearch(t *testing.T) {
	mono := index.BuildFromWeb(BuildWeb(7, nil))
	qs := oracleQueries(60)
	ks := []int{1, 5, 10, 48, 100}
	matched := 0
	for i, q := range qs {
		if len(mono.Search(q, ks[i%len(ks)])) > 0 {
			matched++
		}
	}
	if matched < len(qs)/2 {
		t.Fatalf("only %d of %d generated queries match any document; the oracle would prove little", matched, len(qs))
	}
	for shards := 1; shards <= 5; shards++ {
		for replicas := 1; replicas <= 2; replicas++ {
			cl := NewLocalCluster(ClusterConfig{
				Shards: shards, Replicas: replicas, Engine: testConfig(7), Clock: simclock.NewManual(epoch),
			})
			for i, q := range qs {
				k := ks[i%len(ks)]
				want := mono.Search(q, k)
				got, err := cl.Client.Retrieve(engine.RetrieveRequest{
					Query: q, K: k, Web: cl.Web, TraceID: "oracle-" + strconv.Itoa(i),
				})
				if err != nil || got.Partial {
					t.Fatalf("%dx%d %q: err %v, partial %v", shards, replicas, q, err, got.Partial)
				}
				if len(got.Hits) != len(want) {
					t.Fatalf("%dx%d %q k=%d: %d hits, monolith %d", shards, replicas, q, k, len(got.Hits), len(want))
				}
				for j := range want {
					g, w := got.Hits[j], want[j]
					if g.Doc != w.Doc || g.Ord != w.Ord || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
						t.Fatalf("%dx%d %q k=%d rank %d: cluster {%d %s %v}, monolith {%d %s %v}",
							shards, replicas, q, k, j, g.Ord, g.Doc.URL, g.Score, w.Ord, w.Doc.URL, w.Score)
					}
				}
			}
		}
	}
}
