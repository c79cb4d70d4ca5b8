// Package metrics implements the two comparison metrics of §2.3 — Jaccard
// index over the sets of result URLs, and edit distance over their ordered
// lists — plus the card-type-filtered variants used to attribute noise and
// personalization to Maps, News, or "typical" results (Figures 4 and 7).
package metrics

import (
	"geoserp/internal/serp"
)

// Jaccard returns |A ∩ B| / |A ∪ B| for the two URL lists viewed as sets.
// Two empty lists are identical by convention (1.0). A Jaccard index of 1
// means both pages contain the same results (though not necessarily in the
// same order); 0 means no overlap.
func Jaccard(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	setA := make(map[string]bool, len(a))
	for _, x := range a {
		setA[x] = true
	}
	setB := make(map[string]bool, len(b))
	for _, x := range b {
		setB[x] = true
	}
	inter := 0
	for x := range setA {
		if setB[x] {
			inter++
		}
	}
	union := len(setA) + len(setB) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// EditDistance returns the Levenshtein distance between the two URL lists:
// the number of insertions, deletions, and substitutions needed to turn a
// into b. It measures reordering as well as composition changes.
func EditDistance(a, b []string) int {
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	// Single-row dynamic program.
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = minInt(
				prev[j]+1,      // deletion
				cur[j-1]+1,     // insertion
				prev[j-1]+cost, // substitution / match
			)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

func minInt(xs ...int) int {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Comparison bundles both metrics for one pair of pages.
type Comparison struct {
	Jaccard      float64
	EditDistance int
}

// ComparePages applies the paper's extraction rule to both pages and
// compares the resulting link lists.
func ComparePages(a, b *serp.Page) Comparison {
	la, lb := a.Links(), b.Links()
	return Comparison{
		Jaccard:      Jaccard(la, lb),
		EditDistance: EditDistance(la, lb),
	}
}

// TypeBreakdown decomposes the edit distance between two pages into the
// shares attributable to Maps, News, and all other results. Other is
// computed from the links of organic cards; the three components do not
// sum exactly to the unfiltered edit distance (alignment interactions),
// which is why the paper reports shares ("Maps results are responsible for
// around 25% of noise") rather than exact decompositions.
type TypeBreakdown struct {
	All   int
	Maps  int
	News  int
	Other int
}

// BreakdownPages computes the per-type edit-distance decomposition — the
// paper's method for attributing differences to Maps or News results: "we
// simply calculate Jaccard and edit distance between pages after filtering
// out all search results that are not of type t".
func BreakdownPages(a, b *serp.Page) TypeBreakdown {
	return TypeBreakdown{
		All:   EditDistance(a.Links(), b.Links()),
		Maps:  EditDistance(a.LinksOfType(serp.Maps), b.LinksOfType(serp.Maps)),
		News:  EditDistance(a.LinksOfType(serp.News), b.LinksOfType(serp.News)),
		Other: EditDistance(a.LinksOfType(serp.Organic), b.LinksOfType(serp.Organic)),
	}
}

// MapsShare returns the fraction of all link changes attributable to Maps
// results (0 when there are no changes).
func (t TypeBreakdown) MapsShare() float64 {
	total := t.Maps + t.News + t.Other
	if total == 0 {
		return 0
	}
	return float64(t.Maps) / float64(total)
}

// NewsShare returns the fraction of all link changes attributable to News
// results.
func (t TypeBreakdown) NewsShare() float64 {
	total := t.Maps + t.News + t.Other
	if total == 0 {
		return 0
	}
	return float64(t.News) / float64(total)
}

// Identical reports whether two pages contain exactly the same links in the
// same order (the criterion of the §2.2 validation experiment).
func Identical(a, b *serp.Page) bool {
	la, lb := a.Links(), b.Links()
	if len(la) != len(lb) {
		return false
	}
	for i := range la {
		if la[i] != lb[i] {
			return false
		}
	}
	return true
}
