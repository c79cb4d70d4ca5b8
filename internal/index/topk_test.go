package index

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"geoserp/internal/detrand"
	"geoserp/internal/webcorpus"
)

// sortTruncate is the reference top-k: a full sort under Search's order,
// then truncation (a negative k keeps everything).
func sortTruncate(hits []Hit, k int) []Hit {
	ref := append([]Hit(nil), hits...)
	sort.Slice(ref, func(i, j int) bool {
		if ref[i].Score != ref[j].Score {
			return ref[i].Score > ref[j].Score
		}
		return ref[i].Doc.URL < ref[j].Doc.URL
	})
	if k >= 0 && len(ref) > k {
		ref = ref[:k]
	}
	return ref
}

// sameHits fails t unless got and want agree exactly: URL, ordinal, and
// score bits at every rank.
func sameHits(t *testing.T, label string, got, want []Hit) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d hits, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Doc.URL != want[i].Doc.URL || got[i].Ord != want[i].Ord ||
			math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: rank %d is (%s, %d, %v), want (%s, %d, %v)", label, i,
				got[i].Doc.URL, got[i].Ord, got[i].Score, want[i].Doc.URL, want[i].Ord, want[i].Score)
		}
	}
}

// TestMergeHitsMatchesFullSort is the differential oracle for the bounded
// selector: over seeded hit lists drawn from a handful of score values
// (so most comparisons fall through to the URL tie-break), MergeHits
// must equal a full sort plus truncation for every k, including 0, k
// equal to and beyond the list length, and a negative k.
func TestMergeHitsMatchesFullSort(t *testing.T) {
	rng := detrand.New(42)
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300)
		if trial < 4 {
			n = trial
		}
		levels := 1 + rng.Intn(6)
		hits := make([]Hit, n)
		for i := range hits {
			hits[i] = Hit{
				Doc:   webcorpus.Doc{URL: fmt.Sprintf("https://d%04d.example/", rng.Intn(1<<20)*1000+i)},
				Score: float64(rng.Intn(levels)) / 4,
				Ord:   uint32(i),
			}
		}
		for _, k := range []int{0, 1, 5, 48, n, n + 10, -1} {
			want := sortTruncate(hits, k)
			got := MergeHits(append([]Hit(nil), hits...), k)
			sameHits(t, fmt.Sprintf("trial %d n=%d k=%d", trial, n, k), got, want)
		}
	}
}

// mapSearch is the reference Search: the map-accumulating, fully sorting
// implementation the dense accumulators and the selector replaced.
func mapSearch(ix *Index, query string, k int) []Hit {
	if k <= 0 {
		return nil
	}
	qTokens := distinct(Tokenize(query))
	if len(qTokens) == 0 {
		return nil
	}
	n := float64(ix.numDocs())
	scores := make(map[int32]float64)
	matched := make(map[int32]int)
	for _, t := range qTokens {
		plist := ix.postings[t]
		docFreq := ix.docFreq(t, len(plist))
		if docFreq == 0 {
			continue
		}
		idf := math.Log(1 + n/float64(docFreq))
		for _, p := range plist {
			scores[p.docID] += idf * float64(p.weight)
			matched[p.docID]++
		}
	}
	if len(scores) == 0 {
		return nil
	}
	hits := make([]Hit, 0, len(scores))
	for id, s := range scores {
		if matched[id]*2 < len(qTokens) || ix.docNorm[id] == 0 {
			continue
		}
		coverage := float64(matched[id]) / float64(len(qTokens))
		hits = append(hits, Hit{
			Doc:   ix.docs[id],
			Score: (s / ix.docNorm[id]) * (0.5 + 0.5*coverage) * coverage,
			Ord:   uint32(id),
		})
	}
	return sortTruncate(hits, k)
}

// oracleQueries draws seeded queries of one to five tokens from the study
// corpus's titles, mixed with words no document contains.
func oracleQueries(ix *Index, count int) []string {
	var vocab []string
	seen := map[string]bool{}
	for _, d := range ix.Docs() {
		for _, tok := range Tokenize(d.Title) {
			if !seen[tok] {
				seen[tok] = true
				vocab = append(vocab, tok)
			}
		}
	}
	sort.Strings(vocab)
	rng := detrand.New(7)
	out := make([]string, count)
	for i := range out {
		words := make([]string, 1+rng.Intn(5))
		for j := range words {
			if rng.Bool(0.15) {
				words[j] = "zzqx"
			} else {
				words[j] = detrand.Pick(rng, vocab)
			}
		}
		out[i] = strings.Join(words, " ")
	}
	return out
}

// TestSearchMatchesMapReference checks the dense-accumulator Search
// against the map-based reference on the study corpus, score bits
// included, for a full index and for shard views.
func TestSearchMatchesMapReference(t *testing.T) {
	ix, _ := buildStudyIndex(t)
	views := append([]*Index{ix}, shardBy(ix, 3)...)
	for _, q := range oracleQueries(ix, 80) {
		for _, k := range []int{1, 5, 48, 1000} {
			for v, view := range views {
				sameHits(t, fmt.Sprintf("view %d %q k=%d", v, q, k), view.Search(q, k), mapSearch(view, q, k))
			}
		}
	}
}

// TestPooledAccumulatorReuse interleaves queries of different lengths on
// one index from several goroutines, so pooled accumulators are reused
// across queries that touch different documents; every answer must equal
// a never-searched index's. Run it under -race.
func TestPooledAccumulatorReuse(t *testing.T) {
	ix, w := buildStudyIndex(t)
	queries := oracleQueries(ix, 40)
	want := make([][]Hit, len(queries))
	for i, q := range queries {
		want[i] = BuildFromWeb(w).Search(q, 48)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				for j := range queries {
					i := (j*7 + g*11 + rep) % len(queries)
					got := ix.Search(queries[i], 48)
					if len(got) != len(want[i]) {
						errs <- fmt.Sprintf("goroutine %d %q: %d hits, want %d", g, queries[i], len(got), len(want[i]))
						return
					}
					for r := range got {
						if got[r].Ord != want[i][r].Ord ||
							math.Float64bits(got[r].Score) != math.Float64bits(want[i][r].Score) {
							errs <- fmt.Sprintf("goroutine %d %q: rank %d differs from a fresh index", g, queries[i], r)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
