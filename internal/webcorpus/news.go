package webcorpus

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"geoserp/internal/detrand"
)

// Article is a dated news story in the News vertical.
type Article struct {
	// URL uniquely identifies the article.
	URL string
	// Title is the headline.
	Title string
	// Source is the outlet slug ("worldwire", "ohio-observer").
	Source string
	// Region is the state slug of a regional outlet, or "" for a
	// national one.
	Region string
	// Topic is the query ID the article covers.
	Topic string
	// Day is the simulation day the article was published (0-based).
	Day int
	// Freshness scores how prominently the article is featured on a
	// given day; it decays as the article ages.
	Freshness float64
}

// nationalOutlets are the wire's national sources.
var nationalOutlets = []string{
	"worldwire", "capitoldaily", "theledger", "newsline",
	"nationalpost", "thecurrent", "metrotimes", "dispatchwire",
}

// NewsWire is the time-dependent news vertical. For every controversial
// topic it maintains a rolling set of national articles plus occasional
// regional coverage; the set rotates day by day, which is what makes News
// cards the (small) noise source for controversial queries in §3.1 and the
// growing personalization component in Fig. 7.
type NewsWire struct {
	seed    uint64
	regions []Region

	// memo holds Topical's answers per (topic, day), filled lazily. An
	// answer is a pure function of the seed, so a memoized one is exactly
	// what a fresh computation would return. Guarded by mu.
	mu   sync.RWMutex
	memo map[topicDay][]Article
}

// topicDay keys NewsWire's memo.
type topicDay struct {
	topic string
	day   int
}

// topicalMemoCap bounds NewsWire's memo; when it is full the memo starts
// over, so a long-running server's memory stays flat however many days
// its clock covers.
const topicalMemoCap = 4096

// NewNewsWire creates the News vertical with the given root seed.
func NewNewsWire(seed uint64, regions []Region) *NewsWire {
	return &NewsWire{seed: seed, regions: regions, memo: make(map[topicDay][]Article)}
}

// Topical returns the articles available for topic on the given simulation
// day, sorted by freshness descending (ties by URL). Day is 0-based; the
// window spans the article's publication day and the following two days.
// Answers are memoized per (topic, day): every caller asking for the same
// pair shares one slice, which is read-only — callers must copy before
// modifying it (its capacity equals its length, so append copies).
func (n *NewsWire) Topical(topic string, day int) []Article {
	key := topicDay{topic: topic, day: day}
	n.mu.RLock()
	arts, ok := n.memo[key]
	n.mu.RUnlock()
	if ok {
		return arts
	}
	arts = n.topical(topic, day)
	n.mu.Lock()
	if len(n.memo) >= topicalMemoCap {
		clear(n.memo)
	}
	n.memo[key] = arts
	n.mu.Unlock()
	return arts
}

// topical computes Topical's answer.
func (n *NewsWire) topical(topic string, day int) []Article {
	var out []Article
	// Articles published on day d remain in the pool through day d+2
	// with decaying freshness.
	for age := 0; age <= 2; age++ {
		pub := day - age
		if pub < 0 {
			continue
		}
		out = append(out, n.publishedOn(topic, pub, age)...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Freshness != out[j].Freshness {
			return out[i].Freshness > out[j].Freshness
		}
		return out[i].URL < out[j].URL
	})
	return slices.Clip(out)
}

// publishedOn generates the articles for topic published on day pub, scored
// for an observer age days later.
func (n *NewsWire) publishedOn(topic string, pub, age int) []Article {
	rng := detrand.NewKeyed(n.seed, "news", topic, fmt.Sprintf("day%d", pub))
	// 1–3 national stories per topic per day.
	count := 1 + rng.Intn(3)
	decay := 1.0 / float64(1+age)
	out := make([]Article, 0, count+1)
	for k := 0; k < count; k++ {
		src := detrand.Pick(rng, nationalOutlets)
		out = append(out, Article{
			URL:       fmt.Sprintf("https://%s.example/%s/day%d-%d", src, topic, pub, k),
			Title:     fmt.Sprintf("%s: developments (day %d)", TitleCase(topic), pub),
			Source:    src,
			Topic:     topic,
			Day:       pub,
			Freshness: rng.Range(0.5, 1.0) * decay,
		})
	}
	// Occasional regional coverage: a state outlet picks the story up.
	// Regional stories are mildly boosted for queries from that region by
	// the engine, which is why the News share of personalization grows
	// with distance for controversial terms (Fig. 7).
	for _, r := range n.regions {
		if detrand.NewKeyed(n.seed, "regionalnews", topic, r.Slug, fmt.Sprintf("day%d", pub)).Bool(0.04) {
			out = append(out, Article{
				URL:       fmt.Sprintf("https://%s-observer.example/news/%s/day%d", r.Slug, topic, pub),
				Title:     fmt.Sprintf("%s: what it means for %s", TitleCase(topic), r.Name),
				Source:    r.Slug + "-observer",
				Region:    r.Slug,
				Topic:     topic,
				Day:       pub,
				Freshness: detrand.NewKeyed(n.seed, "regfresh", topic, r.Slug, fmt.Sprintf("day%d", pub)).Range(0.35, 0.8) * decay,
			})
		}
	}
	return out
}
