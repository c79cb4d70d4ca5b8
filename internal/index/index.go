// Package index implements the retrieval substrate for the Web vertical: a
// tokenizer and an in-memory inverted index with TF-IDF scoring. The engine
// queries it for candidate documents and then applies its own
// personalization and authority layers on top — mirroring the separation
// between retrieval and ranking in production engines.
package index

import (
	"math"
	"sort"
	"strings"
	"sync"
	"unicode"

	"geoserp/internal/webcorpus"
)

// stopwords are dropped during tokenization.
var stopwords = map[string]bool{
	"a": true, "an": true, "the": true, "of": true, "in": true, "on": true,
	"for": true, "to": true, "and": true, "or": true, "is": true, "at": true,
	"by": true, "with": true, "near": true, "from": true, "as": true,
}

// Tokenize lowercases s, splits on non-letter/non-digit runes, and drops
// stopwords and empty tokens. It is the single tokenization used for both
// documents and queries. Letters are recognized by Unicode class, not the
// ASCII range, so accented place and business names in custom worlds
// ("Café", "Zürich") survive as whole tokens instead of being split into
// garbage at every accent.
func Tokenize(s string) []string {
	var out []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() == 0 {
			return
		}
		tok := cur.String()
		cur.Reset()
		if !stopwords[tok] {
			out = append(out, tok)
		}
	}
	for _, r := range s {
		switch {
		case unicode.IsLetter(r), unicode.IsDigit(r):
			cur.WriteRune(unicode.ToLower(r))
		default:
			flush()
		}
	}
	flush()
	return out
}

// posting records one document's weight for a token.
type posting struct {
	docID  int32
	weight float32
}

// Hit is one retrieval result.
type Hit struct {
	// Doc is the matched document.
	Doc webcorpus.Doc
	// Score is the TF-IDF relevance (higher is better).
	Score float64
	// Ord is the document's ordinal: its position in the order documents
	// were added, which for BuildFromWeb is its ordinal in the Web's doc
	// table (webcorpus.Web.All).
	Ord uint32
}

// Index is an in-memory inverted index. Add all documents first, then call
// Freeze; Search may then be used concurrently.
type Index struct {
	mu       sync.RWMutex
	frozen   bool
	docs     []webcorpus.Doc
	postings map[string][]posting
	docNorm  []float64 // per-doc weight norm for length normalization
	// df, when non-nil, marks this index as a document-partitioned shard
	// view (see Shard): it carries the FULL corpus's per-token document
	// frequencies while postings holds only the shard's documents, so IDF
	// — and therefore every score — is identical to the unsharded
	// index's. nDocs likewise preserves the full corpus size.
	df    map[string]int
	nDocs int
	// ownedDocs is the number of documents a shard view actually serves
	// (its partition size); unused in a full index.
	ownedDocs int
	// shardID and shardCount name a shard view's partition (0 of 1 for a
	// full index).
	shardID, shardCount int
	// accums pools Search's scratch accumulators (see accum).
	accums sync.Pool
}

// New returns an empty index.
func New() *Index {
	return &Index{postings: make(map[string][]posting), shardCount: 1}
}

// fieldWeights control how strongly each document field counts.
const (
	titleWeight   = 3.0
	topicWeight   = 2.0
	snippetWeight = 1.0
)

// Add indexes a document. It panics if the index is frozen — adding after
// freeze is a programming error, not a data condition.
func (ix *Index) Add(d webcorpus.Doc) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.frozen {
		panic("index: Add after Freeze")
	}
	ix.docs = append(ix.docs, d)
	ix.addPostings(int32(len(ix.docs)-1), d)
}

// addPostings indexes document id's tokens. Callers hold the write lock.
func (ix *Index) addPostings(id int32, d webcorpus.Doc) {
	weights := make(map[string]float64)
	for _, t := range Tokenize(d.Title) {
		weights[t] += titleWeight
	}
	for _, t := range Tokenize(strings.ReplaceAll(d.Topic, "-", " ")) {
		weights[t] += topicWeight
	}
	for _, t := range Tokenize(d.Snippet) {
		weights[t] += snippetWeight
	}
	// Iterate tokens in sorted order: map order would make the float
	// accumulation of the norm (and the posting-list layout) vary from
	// run to run, and a 1-ULP norm difference is enough to flip
	// near-tied rankings between otherwise identical engines.
	tokens := make([]string, 0, len(weights))
	for t := range weights {
		tokens = append(tokens, t)
	}
	sort.Strings(tokens)
	var norm float64
	for _, t := range tokens {
		// Sub-linear tf damping keeps keyword-stuffed long-tail pages
		// from swamping authoritative short titles.
		w := 1 + math.Log(weights[t])
		ix.postings[t] = append(ix.postings[t], posting{docID: id, weight: float32(w)})
		norm += w * w
	}
	ix.docNorm = append(ix.docNorm, math.Sqrt(norm))
}

// Freeze finalizes the index for concurrent searching.
func (ix *Index) Freeze() {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.frozen = true
}

// Len returns the number of searchable documents: the partition size in a
// shard view, the corpus size otherwise.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if ix.df != nil {
		return ix.ownedDocs
	}
	return len(ix.docs)
}

// Search returns the top-k documents for the query by TF-IDF cosine score.
// Ties are broken by URL so results are deterministic.
func (ix *Index) Search(query string, k int) []Hit {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if k <= 0 {
		return nil
	}
	// Query tokens are deduplicated before scoring: coverage means
	// distinct-terms-matched / distinct-terms-queried. Without the dedupe
	// a repeated term accumulated IDF once per occurrence and inflated
	// the coverage ratio past 1.0, so "pizza pizza" ranked single-term
	// documents as if they covered a two-term query in full.
	qTokens := distinct(Tokenize(query))
	if len(qTokens) == 0 {
		return nil
	}
	n := float64(ix.numDocs())
	acc := ix.getAccum()
	defer ix.putAccum(acc)
	for _, t := range qTokens {
		plist := ix.postings[t]
		docFreq := ix.docFreq(t, len(plist))
		if docFreq == 0 {
			continue
		}
		idf := math.Log(1 + n/float64(docFreq))
		for _, p := range plist {
			if acc.matched[p.docID] == 0 {
				acc.touched = append(acc.touched, p.docID)
			}
			acc.scores[p.docID] += idf * float64(p.weight)
			acc.matched[p.docID]++
		}
	}
	if len(acc.touched) == 0 {
		return nil
	}
	sel := topK[docURLs]{k: k, urls: ix.docs, heap: acc.heap}
	for _, id := range acc.touched {
		// Require at least half the query tokens to match; a one-token
		// graze against a multi-word query is noise, not relevance.
		matched := int(acc.matched[id])
		if matched*2 < len(qTokens) {
			continue
		}
		norm := ix.docNorm[id]
		if norm == 0 {
			continue
		}
		// Coverage bonus: documents matching every query token beat
		// partial matches even when the partial match is term-dense.
		coverage := float64(matched) / float64(len(qTokens))
		sel.offer(ranked{
			score: (acc.scores[id] / norm) * (0.5 + 0.5*coverage) * coverage,
			key:   uint32(id),
		})
	}
	won := sel.sorted()
	acc.heap = won[:0]
	hits := make([]Hit, len(won))
	for i, r := range won {
		hits[i] = Hit{Doc: ix.docs[r.key], Score: r.score, Ord: r.key}
	}
	return hits
}

// accum is one search's scratch space: per-document score sums and
// matched-token counts indexed by doc ordinal, the ordinals touched (in
// first-touch order), and the selector's heap. Dense slices cost no
// hashing or growth per query; they are reset through touched, so a
// pooled accum is all zeros again when it goes back.
type accum struct {
	scores  []float64
	matched []int32
	touched []int32
	heap    []ranked
}

// getAccum draws a zeroed accum from the index's pool, allocating one
// sized to the doc table on first use (never at build time, so shard
// views and indexes that are never searched cost nothing).
func (ix *Index) getAccum() *accum {
	if acc, ok := ix.accums.Get().(*accum); ok {
		return acc
	}
	return &accum{
		scores:  make([]float64, len(ix.docs)),
		matched: make([]int32, len(ix.docs)),
	}
}

// putAccum zeroes the entries acc touched and returns it to the pool.
func (ix *Index) putAccum(acc *accum) {
	for _, id := range acc.touched {
		acc.scores[id] = 0
		acc.matched[id] = 0
	}
	acc.touched = acc.touched[:0]
	ix.accums.Put(acc)
}

// distinct removes duplicate tokens, preserving first-occurrence order (so
// float accumulation order — and therefore scores — is a function of the
// query string alone).
func distinct(tokens []string) []string {
	out := tokens[:0]
	for _, t := range tokens {
		dup := false
		for _, prev := range out {
			if prev == t {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, t)
		}
	}
	return out
}

// numDocs returns the corpus size used for IDF: the full corpus's even in
// a shard view.
func (ix *Index) numDocs() int {
	if ix.df != nil {
		return ix.nDocs
	}
	return len(ix.docs)
}

// docFreq returns the IDF denominator for a token: the full corpus's
// document frequency in a shard view, the local posting-list length
// otherwise.
func (ix *Index) docFreq(t string, plistLen int) int {
	if ix.df != nil {
		return ix.df[t]
	}
	return plistLen
}

// Docs returns the document table in ordinal order (Hit.Ord indexes it).
// A shard view shares its parent's full table. The slice must not be
// mutated.
func (ix *Index) Docs() []webcorpus.Doc {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.docs
}

// Partition returns which partition of how many this index serves: the
// arguments a shard view was cut with, 0 and 1 for a full index.
func (ix *Index) Partition() (id, count int) {
	return ix.shardID, ix.shardCount
}

// Shard returns document-partitioned view id of count of a frozen index:
// posting lists keep only the documents the owns predicate claims, while
// the IDF denominators and per-document norms remain those of the FULL
// index.
// Scores computed by different shards of the same corpus are therefore
// globally comparable, and the union of every shard's Search results
// reproduces the unsharded ranking bit for bit — the property the SERP
// cluster's scatter-gather merge relies on for byte-identical pages at
// any shard count. The view shares the parent's document table; it panics
// if the index is not frozen.
func (ix *Index) Shard(id, count int, owns func(d webcorpus.Doc) bool) *Index {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if !ix.frozen {
		panic("index: Shard before Freeze")
	}
	if id < 0 || id >= count {
		panic("index: shard ID out of range")
	}
	shard := &Index{
		frozen:     true,
		docs:       ix.docs,
		docNorm:    ix.docNorm,
		postings:   make(map[string][]posting),
		df:         make(map[string]int, len(ix.postings)),
		nDocs:      ix.numDocs(),
		shardID:    id,
		shardCount: count,
	}
	// Which docs the shard owns is decided once per document, not per
	// posting, so a retained document keeps its full token profile (its
	// matched-term counts — and so its coverage — equal the monolith's).
	owned := make([]bool, len(ix.docs))
	var kept int
	for id, d := range ix.docs {
		if owns(d) {
			owned[id] = true
			kept++
		}
	}
	for t, plist := range ix.postings {
		shard.df[t] = ix.docFreq(t, len(plist))
		var pruned []posting
		for _, p := range plist {
			if owned[p.docID] {
				pruned = append(pruned, p)
			}
		}
		if pruned != nil {
			shard.postings[t] = pruned
		}
	}
	shard.ownedDocs = kept
	return shard
}

// MergeHits returns the k best hits under Search's exact ordering — score
// descending, ties broken by URL ascending — best first; a negative k
// keeps every hit. It runs the same bounded top-k selector as Search, so
// it costs O(n log k) comparisons over (score, position) pairs rather
// than a full sort of every Hit. It is the single merge used by the
// cluster router to fold per-shard rankings into one list: because shard
// scores are globally comparable (see Shard), merging the union of
// per-shard top-k lists reproduces the monolithic index's top k exactly.
// The winners are gathered into the front of hits in place, and the
// returned slice is hits[:k].
func MergeHits(hits []Hit, k int) []Hit {
	if k < 0 || k > len(hits) {
		k = len(hits)
	}
	sel := topK[hitURLs]{k: k, urls: hits, heap: make([]ranked, 0, k)}
	for i := range hits {
		sel.offer(ranked{score: hits[i].Score, key: uint32(i)})
	}
	won := sel.sorted()
	// Gather in place, rank by rank: rank i's winner started at position
	// won[i].key. A position below i is already final, and the hit that
	// stood there was swapped out to where that rank's winner was found,
	// so follow the chain won[j].key until it leaves the finished prefix.
	for i, r := range won {
		j := int(r.key)
		for j < i {
			j = int(won[j].key)
		}
		hits[i], hits[j] = hits[j], hits[i]
	}
	return hits[:k]
}

// BuildFromWeb constructs and freezes an index over every document in w,
// in w's ordinal order, so every Hit.Ord is the document's ordinal in
// w.All(). The index shares w's doc table instead of copying it.
func BuildFromWeb(w *webcorpus.Web) *Index {
	ix := New()
	docs := w.All()
	ix.docs = docs[:len(docs):len(docs)]
	for id, d := range ix.docs {
		ix.addPostings(int32(id), d)
	}
	ix.Freeze()
	return ix
}
