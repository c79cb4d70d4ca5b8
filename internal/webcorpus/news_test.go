package webcorpus

import (
	"testing"
)

func TestNewsTopicalDeterministic(t *testing.T) {
	a := NewNewsWire(1, DefaultRegions())
	b := NewNewsWire(1, DefaultRegions())
	for day := 0; day < 5; day++ {
		as := a.Topical("gay-marriage", day)
		bs := b.Topical("gay-marriage", day)
		if len(as) != len(bs) {
			t.Fatalf("day %d counts differ: %d vs %d", day, len(as), len(bs))
		}
		for i := range as {
			if as[i] != bs[i] {
				t.Fatalf("day %d differs at %d", day, i)
			}
		}
	}
}

func TestNewsRotatesByDay(t *testing.T) {
	n := NewNewsWire(1, DefaultRegions())
	d0 := n.Topical("health", 0)
	d3 := n.Topical("health", 3)
	if len(d0) == 0 || len(d3) == 0 {
		t.Fatal("empty news days")
	}
	set0 := map[string]bool{}
	for _, a := range d0 {
		set0[a.URL] = true
	}
	allShared := true
	for _, a := range d3 {
		if !set0[a.URL] {
			allShared = false
			break
		}
	}
	if allShared && len(d0) == len(d3) {
		t.Fatal("news did not rotate between day 0 and day 3")
	}
}

func TestNewsWindowAndFreshness(t *testing.T) {
	n := NewNewsWire(1, DefaultRegions())
	for day := 0; day < 6; day++ {
		arts := n.Topical("abortion", day)
		if len(arts) == 0 {
			t.Fatalf("no articles on day %d", day)
		}
		prev := 2.0
		for _, a := range arts {
			if a.Day > day || a.Day < day-2 {
				t.Fatalf("article from day %d in day-%d pool", a.Day, day)
			}
			if a.Freshness <= 0 || a.Freshness > 1 {
				t.Fatalf("freshness = %v", a.Freshness)
			}
			if a.Freshness > prev+1e-12 {
				t.Fatal("articles not sorted by freshness")
			}
			prev = a.Freshness
			if a.Topic != "abortion" {
				t.Fatalf("topic = %q", a.Topic)
			}
		}
	}
}

func TestNewsDay0HasNoNegativeDays(t *testing.T) {
	n := NewNewsWire(1, DefaultRegions())
	for _, a := range n.Topical("health", 0) {
		if a.Day != 0 {
			t.Fatalf("day-0 pool has article from day %d", a.Day)
		}
	}
}

func TestNewsRegionalCoverageExists(t *testing.T) {
	n := NewNewsWire(1, DefaultRegions())
	// Over many topics and days, some regional articles must appear
	// (each topic/region/day has a 4% chance).
	topics := []string{"health", "abortion", "gun-control", "obamacare",
		"climate-change", "minimum-wage", "gay-marriage", "fracking"}
	regional, national := 0, 0
	for _, topic := range topics {
		for day := 0; day < 5; day++ {
			for _, a := range n.Topical(topic, day) {
				if a.Region != "" {
					regional++
				} else {
					national++
				}
			}
		}
	}
	if regional == 0 {
		t.Fatal("no regional articles generated across 8 topics x 5 days")
	}
	if national == 0 {
		t.Fatal("no national articles generated")
	}
	if regional >= national {
		t.Fatalf("regional (%d) should be rarer than national (%d)", regional, national)
	}
}

func TestNewsDistinctTopicsDistinctArticles(t *testing.T) {
	n := NewNewsWire(1, DefaultRegions())
	seen := map[string]string{}
	for _, topic := range []string{"health", "abortion"} {
		for _, a := range n.Topical(topic, 2) {
			if prev, dup := seen[a.URL]; dup {
				t.Fatalf("URL %s shared by topics %s and %s", a.URL, prev, topic)
			}
			seen[a.URL] = topic
		}
	}
}

// TestTopicalMemo: a memoized answer equals a fresh computation, repeat
// calls share it, its capacity is its length (a caller's append copies
// instead of writing into the shared array), and the memo stays bounded.
func TestTopicalMemo(t *testing.T) {
	n := NewNewsWire(1, DefaultRegions())
	for _, topic := range []string{"gay-marriage", "health", "abortion"} {
		for day := 0; day < 6; day++ {
			first := n.Topical(topic, day)
			fresh := n.topical(topic, day)
			again := n.Topical(topic, day)
			if len(first) != len(fresh) || len(again) != len(fresh) {
				t.Fatalf("%s day %d: memo %d/%d articles, fresh %d", topic, day, len(first), len(again), len(fresh))
			}
			for i := range fresh {
				if first[i] != fresh[i] || again[i] != fresh[i] {
					t.Fatalf("%s day %d: article %d differs from a fresh computation", topic, day, i)
				}
			}
			if len(first) > 0 && &first[0] != &again[0] {
				t.Fatalf("%s day %d: repeat call did not share the memoized slice", topic, day)
			}
			if cap(first) != len(first) {
				t.Fatalf("%s day %d: cap %d > len %d", topic, day, cap(first), len(first))
			}
		}
	}
	for day := 0; day < topicalMemoCap+10; day++ {
		n.Topical("health", day)
	}
	n.mu.RLock()
	size := len(n.memo)
	n.mu.RUnlock()
	if size > topicalMemoCap {
		t.Fatalf("memo holds %d entries, cap is %d", size, topicalMemoCap)
	}
}
