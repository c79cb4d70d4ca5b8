package webcorpus

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"geoserp/internal/detrand"
	"geoserp/internal/queries"
)

// Region names a state-scale region the corpus generates regional content
// for (regional directories, local news outlets, namesake profiles).
type Region struct {
	// Slug is the stable identifier, e.g. "ohio".
	Slug string
	// Name is the display name, e.g. "Ohio".
	Name string
}

// Web is the static-document vertical: everything that is not a business
// listing or a dated news article. Documents are generated once, up front,
// deterministically from the root seed and the query corpus.
type Web struct {
	seed    uint64
	regions []Region
	// docs is the ordinal-ordered doc table: topics in sorted order, each
	// topic's documents by authority descending. index.BuildFromWeb adds
	// documents in exactly this order, so an index doc ID IS the
	// document's ordinal here — the key the cluster's shard wire ships
	// instead of the document itself.
	docs []Doc
	// byTopic holds subslices of docs, so no Doc is stored twice.
	byTopic map[string][]Doc
	byURL   map[string]int32 // URL -> ordinal

	fingerprintOnce sync.Once
	fingerprint     uint64
}

// NewWeb generates the static web for the given query corpus and regions.
func NewWeb(seed uint64, corpus *queries.Corpus, regions []Region) *Web {
	w := &Web{
		seed:    seed,
		regions: regions,
		byTopic: make(map[string][]Doc),
		byURL:   make(map[string]int32),
	}
	// One topic per query ID; a later query with the same ID replaces an
	// earlier one.
	byID := make(map[string]queries.Query, corpus.Len())
	for _, q := range corpus.All() {
		byID[q.ID()] = q
	}
	topics := make([]string, 0, len(byID))
	for id := range byID {
		topics = append(topics, id)
	}
	sort.Strings(topics)
	ends := make([]int, len(topics))
	for i, id := range topics {
		q := byID[id]
		lo := len(w.docs)
		switch {
		case q.Category == queries.Local && q.Brand:
			w.docs = w.brandDocs(w.docs, q)
		case q.Category == queries.Local:
			w.docs = w.genericLocalDocs(w.docs, q)
		case q.Category == queries.Controversial:
			w.docs = w.controversialDocs(w.docs, q)
		default:
			w.docs = w.politicianDocs(w.docs, q)
		}
		docs := w.docs[lo:]
		sort.Slice(docs, func(i, j int) bool {
			if docs[i].Authority != docs[j].Authority {
				return docs[i].Authority > docs[j].Authority
			}
			return docs[i].URL < docs[j].URL
		})
		ends[i] = len(w.docs)
	}
	lo := 0
	for i, id := range topics {
		w.byTopic[id] = w.docs[lo:ends[i]:ends[i]]
		lo = ends[i]
	}
	for i := range w.docs {
		w.byURL[w.docs[i].URL] = int32(i)
	}
	return w
}

// Docs returns the static documents about the given topic (a query ID),
// sorted by authority descending. The slice must not be mutated.
func (w *Web) Docs(topic string) []Doc { return w.byTopic[topic] }

// All returns every document in ordinal order: the topics of Topics, each
// topic's documents as Docs returns them. The slice must not be mutated.
func (w *Web) All() []Doc { return w.docs }

// ByURL looks a document up by URL.
func (w *Web) ByURL(url string) (Doc, bool) {
	i, ok := w.byURL[url]
	if !ok {
		return Doc{}, false
	}
	return w.docs[i], true
}

// Topics returns all topics with documents, sorted.
func (w *Web) Topics() []string {
	out := make([]string, 0, len(w.byTopic))
	for t := range w.byTopic {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Size returns the total number of documents.
func (w *Web) Size() int { return len(w.docs) }

// Fingerprint returns the Fingerprint of All, computed on first use: only
// a cluster router needs it, and a monolith should not pay for it at
// set-up.
func (w *Web) Fingerprint() uint64 {
	w.fingerprintOnce.Do(func() { w.fingerprint = Fingerprint(w.docs) })
	return w.fingerprint
}

// Fingerprint hashes a doc table in ordinal order: every field of every
// document (URL, title, snippet, topic, region, kind, and the exact bits
// of the authority), each string length-prefixed so that moving bytes
// from one field to the next changes the hash. Two nodes that agree on it
// agree on what every ordinal means — the check that lets a shard answer
// with bare ordinals. A different seed or query corpus changes it.
func Fingerprint(docs []Doc) uint64 {
	h := fnvWord(fnvOffset, uint64(len(docs)))
	for i := range docs {
		d := &docs[i]
		for _, s := range [...]string{d.URL, d.Title, d.Snippet, d.Topic, d.Region} {
			h = fnvWord(h, uint64(len(s)))
			for j := 0; j < len(s); j++ {
				h = (h ^ uint64(s[j])) * fnvPrime
			}
		}
		h = fnvWord(h, uint64(d.Kind))
		h = fnvWord(h, math.Float64bits(d.Authority))
	}
	return h
}

// FNV-1a, 64-bit.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvWord folds the eight little-endian bytes of v into h.
func fnvWord(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
	return h
}

// add constructs a Doc with templated snippet text that mentions the topic
// term (so the inverted index retrieves it for the query's tokens).
func (w *Web) add(docs []Doc, q queries.Query, kind DocKind, url, title, snippetTmpl string, authority float64, region string) []Doc {
	return append(docs, Doc{
		URL:       url,
		Title:     title,
		Snippet:   fmt.Sprintf(snippetTmpl, q.Term),
		Kind:      kind,
		Topic:     q.ID(),
		Authority: authority,
		Region:    region,
	})
}

// jitter derives a small deterministic authority perturbation for an entity
// so same-kind documents for different topics do not tie exactly.
func (w *Web) jitter(parts ...string) float64 {
	rng := detrand.NewKeyed(w.seed, parts...)
	return rng.Range(-0.03, 0.03)
}

func (w *Web) brandDocs(docs []Doc, q queries.Query) []Doc {
	id := q.ID()
	docs = w.add(docs, q, KindOfficial,
		fmt.Sprintf("https://www.%s.example/", id),
		q.Term, "%s — official site. Find menus, offers, and locations.",
		0.95+w.jitter(id, "official"), "")
	docs = w.add(docs, q, KindOfficial,
		fmt.Sprintf("https://www.%s.example/menu", id),
		q.Term+" Menu", "Full menu and nutrition information for %s.",
		0.72+w.jitter(id, "menu"), "")
	docs = w.add(docs, q, KindEncyclopedia,
		fmt.Sprintf("https://encyclopedia.example/wiki/%s", id),
		q.Term+" - Encyclopedia", "%s is an American restaurant chain.",
		0.85+w.jitter(id, "wiki"), "")
	docs = w.add(docs, q, KindDirectory,
		fmt.Sprintf("https://reviewhub.example/chains/%s", id),
		q.Term+" Reviews", "Customer reviews and ratings for %s.",
		0.58+w.jitter(id, "reviews"), "")
	docs = w.add(docs, q, KindOfficial,
		fmt.Sprintf("https://careers.%s.example/", id),
		q.Term+" Careers", "Jobs and careers at %s.",
		0.48+w.jitter(id, "careers"), "")
	docs = w.add(docs, q, KindBlog,
		fmt.Sprintf("https://foodblog.example/%s-secret-menu", id),
		"The "+q.Term+" Items Everyone Orders", "What to order at %s, according to fans.",
		0.40+w.jitter(id, "blog"), "")
	// A handful of long-tail commentary pages deepen the candidate pool.
	docs = w.appendLongTail(docs, q, 4, 0.20, 0.38)
	return docs
}

func (w *Web) genericLocalDocs(docs []Doc, q queries.Query) []Doc {
	id := q.ID()
	docs = w.add(docs, q, KindEncyclopedia,
		fmt.Sprintf("https://encyclopedia.example/wiki/%s", id),
		q.Term+" - Encyclopedia", "%s: definition, history, and practice.",
		0.85+w.jitter(id, "wiki"), "")
	docs = w.add(docs, q, KindDirectory,
		fmt.Sprintf("https://yellowpages.example/c/%s", id),
		"Find a "+q.Term+" Near You", "National directory of %s listings.",
		0.70+w.jitter(id, "yp"), "")
	docs = w.add(docs, q, KindDirectory,
		fmt.Sprintf("https://reviewhub.example/c/%s", id),
		"Best "+q.Term+" Options — Reviewed", "Top-rated %s options, ranked by reviewers.",
		0.62+w.jitter(id, "rh"), "")
	docs = w.add(docs, q, KindEncyclopedia,
		fmt.Sprintf("https://howitworks.example/%s", id),
		"How a "+q.Term+" Works", "An explainer on how a %s operates.",
		0.50+w.jitter(id, "how"), "")
	// Regional directory pages: one per region, mildly authoritative, tied
	// to that region. These are the "typical" organic results that change
	// with location — the surprising bulk of personalization in Fig. 7.
	for _, r := range w.regions {
		docs = w.add(docs, q, KindDirectory,
			fmt.Sprintf("https://%s.localguide.example/%s", r.Slug, id),
			fmt.Sprintf("%s in %s — Local Guide", q.Term, r.Name),
			"Guide to every %s in the area, with hours and directions.",
			0.52+w.jitter(id, "guide", r.Slug), r.Slug)
		docs = w.add(docs, q, KindBlog,
			fmt.Sprintf("https://%s-living.example/best-%s", r.Slug, id),
			fmt.Sprintf("Best %s Picks in %s", q.Term, r.Name),
			"Our local picks for %s this year.",
			0.44+w.jitter(id, "living", r.Slug), r.Slug)
	}
	docs = w.appendLongTail(docs, q, 6, 0.18, 0.40)
	return docs
}

func (w *Web) controversialDocs(docs []Doc, q queries.Query) []Doc {
	id := q.ID()
	docs = w.add(docs, q, KindEncyclopedia,
		fmt.Sprintf("https://encyclopedia.example/wiki/%s", id),
		q.Term+" - Encyclopedia", "%s: overview, arguments, and history of the debate.",
		0.90+w.jitter(id, "wiki"), "")
	docs = w.add(docs, q, KindAdvocacy,
		fmt.Sprintf("https://procon.example/%s", id),
		q.Term+" — Pros and Cons", "Balanced arguments for and against %s.",
		0.78+w.jitter(id, "procon"), "")
	rng := detrand.NewKeyed(w.seed, "controversial", id)
	if rng.Bool(0.4) {
		docs = w.add(docs, q, KindGov,
			fmt.Sprintf("https://policy.usa.gov.example/%s", id),
			q.Term+" — Federal Policy", "Official federal policy resources on %s.",
			0.74+w.jitter(id, "gov"), "")
	}
	nAdvocacy := 3 + rng.Intn(3)
	stances := []string{"for", "against", "facts", "action", "truth", "coalition"}
	for i := 0; i < nAdvocacy; i++ {
		stance := stances[i%len(stances)]
		docs = w.add(docs, q, KindAdvocacy,
			fmt.Sprintf("https://%s-%s.example/", id, stance),
			fmt.Sprintf("%s: the case %s", q.Term, stance),
			"Advocacy resources about %s.",
			rng.Range(0.42, 0.68), "")
	}
	// A couple of regions host notable opinion pages on some topics.
	for _, r := range w.regions {
		if detrand.NewKeyed(w.seed, "oped", id, r.Slug).Bool(0.18) {
			docs = w.add(docs, q, KindBlog,
				fmt.Sprintf("https://%s-observer.example/opinion/%s", r.Slug, id),
				fmt.Sprintf("%s: a view from %s", q.Term, r.Name),
				"Regional perspective on %s.",
				0.38+w.jitter(id, "oped", r.Slug), r.Slug)
		}
	}
	docs = w.appendLongTail(docs, q, 5, 0.18, 0.40)
	return docs
}

// scopeDomains maps politician scope to the domain of the official page and
// the authority tier of the entity's web presence: county officials have a
// thinner, more local web footprint than members of Congress.
func scopeProfile(scope queries.PoliticianScope) (domain string, officialAuth, wikiAuth float64) {
	switch scope {
	case queries.ScopeCountyBoard:
		return "council.cuyahogacounty.example", 0.62, 0.40
	case queries.ScopeStateLegislature:
		return "legislature.ohio.example", 0.72, 0.55
	case queries.ScopeUSCongressOhio, queries.ScopeUSCongressOther:
		return "congress.example", 0.90, 0.86
	default: // national figures
		return "whitehouse.example", 0.97, 0.95
	}
}

func (w *Web) politicianDocs(docs []Doc, q queries.Query) []Doc {
	id := q.ID()
	domain, officialAuth, wikiAuth := scopeProfile(q.Scope)
	homeRegion := "ohio"
	if q.Scope == queries.ScopeUSCongressOther || q.Scope == queries.ScopeNationalFigure {
		homeRegion = "" // nationally covered
	}
	docs = w.add(docs, q, KindGov,
		fmt.Sprintf("https://%s/members/%s", domain, id),
		q.Term+" — Official Page", "Official page of %s: biography, contact, votes.",
		officialAuth+w.jitter(id, "official"), "")
	docs = w.add(docs, q, KindEncyclopedia,
		fmt.Sprintf("https://encyclopedia.example/wiki/%s", id),
		q.Term+" - Encyclopedia", "%s is an American politician.",
		wikiAuth+w.jitter(id, "wiki"), "")
	docs = w.add(docs, q, KindDirectory,
		fmt.Sprintf("https://ballotfacts.example/%s", id),
		q.Term+" — Ballot Facts", "Election history and positions of %s.",
		0.68+w.jitter(id, "ballot"), "")
	docs = w.add(docs, q, KindDirectory,
		fmt.Sprintf("https://votetracker.example/%s", id),
		q.Term+" — Voting Record", "Complete voting record for %s.",
		0.58+w.jitter(id, "votes"), "")
	docs = w.add(docs, q, KindCampaign,
		fmt.Sprintf("https://%s-for-office.example/", id),
		q.Term+" for Office", "Campaign site of %s.",
		0.52+w.jitter(id, "campaign"), "")
	docs = w.add(docs, q, KindProfile,
		fmt.Sprintf("https://chirper.example/%s", id),
		q.Term+" (@"+id+")", "Latest posts from %s.",
		0.50+w.jitter(id, "social"), "")
	if homeRegion != "" {
		docs = w.add(docs, q, KindBlog,
			fmt.Sprintf("https://%s-observer.example/politics/%s", homeRegion, id),
			q.Term+" — Local Coverage", "Hometown reporting on %s.",
			0.49+w.jitter(id, "localnews"), homeRegion)
	}
	// Namesakes: common names share the web with unrelated people whose
	// pages are regionally anchored, so which namesake wins depends on
	// where the query comes from. The paper attributes the elevated
	// personalization of "Bill Johnson"/"Tim Ryan" to exactly this.
	if q.CommonName {
		professions := []string{"Realtor", "Attorney", "DDS", "Photography", "Auto Group", "Fitness"}
		rng := detrand.NewKeyed(w.seed, "namesakes", id)
		picked := detrand.Sample(rng, w.regions, min(6, len(w.regions)))
		for i, r := range picked {
			prof := professions[i%len(professions)]
			docs = w.add(docs, q, KindProfile,
				fmt.Sprintf("https://%s-%s.%s.example/", id, slug(prof), r.Slug),
				fmt.Sprintf("%s %s — %s", q.Term, prof, r.Name),
				"Website of %s (no relation).",
				rng.Range(0.45, 0.72), r.Slug)
		}
	}
	docs = w.appendLongTail(docs, q, 4, 0.18, 0.40)
	return docs
}

// appendLongTail adds n low-authority commentary pages about q, giving the
// ranker a deeper pool below the fold.
func (w *Web) appendLongTail(docs []Doc, q queries.Query, n int, authLo, authHi float64) []Doc {
	id := q.ID()
	rng := detrand.NewKeyed(w.seed, "longtail", id)
	sites := []string{"forumland", "diggest", "answerbox", "mediumrare", "pressroom", "threadline"}
	for i := 0; i < n; i++ {
		site := sites[(i+rng.Intn(len(sites)))%len(sites)]
		docs = w.add(docs, q, KindBlog,
			fmt.Sprintf("https://%s.example/t/%s-%d", site, id, i+1),
			fmt.Sprintf("Discussion: %s (%d)", q.Term, i+1),
			"Community discussion about %s.",
			rng.Range(authLo, authHi), "")
	}
	return docs
}

// RegionsFromNames builds Region values from display names.
func RegionsFromNames(names []string) []Region {
	out := make([]Region, len(names))
	for i, n := range names {
		out[i] = Region{Slug: slug(n), Name: n}
	}
	return out
}

// DefaultRegions returns the 22 state regions of the study.
func DefaultRegions() []Region {
	return RegionsFromNames([]string{
		"Alabama", "Arizona", "California", "Colorado", "Florida", "Georgia",
		"Illinois", "Kansas", "Kentucky", "Massachusetts", "Michigan",
		"Minnesota", "Missouri", "New York", "North Carolina", "Ohio",
		"Oregon", "Pennsylvania", "Texas", "Virginia", "Washington",
		"Wisconsin",
	})
}

// TitleCase is a tiny helper exported for examples that synthesize display
// names from slugs.
func TitleCase(s string) string {
	words := strings.Split(strings.ReplaceAll(s, "-", " "), " ")
	for i, w := range words {
		if w == "" {
			continue
		}
		words[i] = strings.ToUpper(w[:1]) + w[1:]
	}
	return strings.Join(words, " ")
}
