package index

import "geoserp/internal/webcorpus"

// ranked is one candidate of a top-k selection: its score and a key that
// the caller resolves to the candidate's URL and, for the winners, its Hit.
type ranked struct {
	score float64
	key   uint32
}

// topK is the single bounded top-k selector behind Search and MergeHits.
// It keeps the k best candidates offered under Search's total order —
// score descending, then URL ascending, then key ascending — in a k-entry
// heap whose root is the worst candidate kept, so each offer costs at most
// O(log k) comparisons and no candidate is materialized as a Hit until it
// has won. The key tie-break only decides between candidates with equal
// score and equal URL, which a corpus of distinct URLs never has.
type topK[U urlSource] struct {
	k    int
	urls U
	heap []ranked
}

// urlSource resolves a selection key to its candidate's URL.
type urlSource interface {
	url(key uint32) string
}

// docURLs resolves keys as doc ordinals (Search's candidates).
type docURLs []webcorpus.Doc

func (d docURLs) url(key uint32) string { return d[key].URL }

// hitURLs resolves keys as positions in a hit list (MergeHits' candidates).
type hitURLs []Hit

func (h hitURLs) url(key uint32) string { return h[key].Doc.URL }

// worse reports whether a ranks strictly below b.
func (t *topK[U]) worse(a, b ranked) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	if ua, ub := t.urls.url(a.key), t.urls.url(b.key); ua != ub {
		return ua > ub
	}
	return a.key > b.key
}

// offer considers one candidate.
func (t *topK[U]) offer(c ranked) {
	if len(t.heap) < t.k {
		t.heap = append(t.heap, c)
		t.up(len(t.heap) - 1)
		return
	}
	if t.k == 0 || !t.worse(t.heap[0], c) {
		return
	}
	t.heap[0] = c
	t.down(0, len(t.heap))
}

// sorted empties the heap in place and returns the kept candidates best
// first.
func (t *topK[U]) sorted() []ranked {
	h := t.heap
	for n := len(h) - 1; n > 0; n-- {
		h[0], h[n] = h[n], h[0]
		t.down(0, n)
	}
	t.heap = h[:0]
	return h
}

func (t *topK[U]) up(i int) {
	h := t.heap
	for i > 0 {
		p := (i - 1) / 2
		if !t.worse(h[i], h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (t *topK[U]) down(i, n int) {
	h := t.heap
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && t.worse(h[r], h[c]) {
			c = r
		}
		if !t.worse(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
