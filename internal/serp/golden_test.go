package serp

import (
	"os"
	"strconv"
	"strings"
	"testing"
)

// goldenPages are fixed pages whose every rendered field carries the five
// characters HTML escaping touches, non-ASCII text, or bytes that are not
// UTF-8, across every card type and an unknown one.
func goldenPages() []*Page {
	return []*Page{
		{
			Query:      `Tom & Jerry's <best> "café"`,
			Location:   `Zürich & "Köln" <DE>`,
			Datacenter: `dc-'1'`,
			Day:        0,
			Cards: []Card{
				{Type: Organic, Results: []Result{
					{URL: `https://example.com/search?q=a&b='c'`, Title: `<script>alert("x")</script>`},
					{URL: "https://例え.example/パス", Title: "Crème brûlée & café — 東京"},
					{URL: "https://x.example/\xff", Title: "bad \xfe utf8 & <more>"},
				}},
				{Type: Maps, Results: []Result{
					{URL: `https://a.example/?x=1&y=2`, Title: `Joe's "Diner" <open>`},
					{URL: "https://b.example/", Title: "Ünïcödé Bistro"},
				}},
				{Type: News, Results: []Result{
					{URL: `https://news.example/a&b`, Title: `Vote "yes" & 'no' > <maybe>`},
				}},
				{Type: CardType(7), Results: []Result{
					{URL: "https://unknown.example/", Title: "Unknown card type"},
				}},
			},
		},
		{
			Query:      "",
			Location:   "",
			Datacenter: "",
			Day:        123456,
			Cards: []Card{
				{Type: News, Results: []Result{
					{URL: "https://n.example/1", Title: "  padded title  "},
					{URL: "https://n.example/2", Title: "&amp; already escaped &#39;"},
				}},
			},
		},
		{
			Query:      "coffee",
			Location:   "41.499300,-81.694400",
			Datacenter: "dc-3",
			Day:        -1,
		},
		samplePage(),
	}
}

// renderGolden renders every golden page into one document.
func renderGolden() string {
	var b strings.Builder
	for i, p := range goldenPages() {
		b.WriteString("=== page " + strconv.Itoa(i) + "\n")
		b.WriteString(RenderHTML(p))
	}
	return b.String()
}

// TestRenderHTMLGolden pins RenderHTML's bytes: the golden file was
// rendered by the fmt/html.EscapeString renderer RenderHTML replaced, and
// a page that changes by one byte changes what the crawler measures.
func TestRenderHTMLGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/render_golden.html")
	if err != nil {
		t.Fatal(err)
	}
	got := renderGolden()
	if got == string(want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(0, i-60)
	t.Fatalf("rendered bytes differ from testdata/render_golden.html at offset %d:\ngot:  %q\nwant: %q",
		i, got[lo:min(len(got), i+60)], want[lo:min(len(want), i+60)])
}
