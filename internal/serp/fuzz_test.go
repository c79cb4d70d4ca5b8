package serp

import (
	"strings"
	"testing"
)

// FuzzRenderParseHTML checks the mobile wire format from both ends.
// ParseHTML and ParseAnyHTML must survive any bytes (raw) without
// panicking. And a page built from the fuzzed fields must round-trip:
// ParseHTML(RenderHTML(p)) returns p, except that the parser trims space
// around result titles. shape picks the card layout.
func FuzzRenderParseHTML(f *testing.F) {
	f.Add(RenderHTML(samplePage()), "coffee", "https://a.example/", "Coffee", "41.5,-81.7", "dc-1", 2, byte(0x1b))
	f.Add("<title>x</title><footer id=\"geo-footer\"", `a&b "c" <d>`, "https://x.example/?a=1&b='2'", " café ", "Zürich", "", -3, byte(0xff))
	f.Fuzz(func(t *testing.T, raw, query, url, title, location, datacenter string, day int, shape byte) {
		_, _ = ParseHTML(raw)
		_, _ = ParseAnyHTML(raw)

		if url == "" {
			url = "u"
		}
		p := &Page{Query: query, Location: location, Datacenter: datacenter, Day: day}
		for i := 0; i <= int(shape%4); i++ {
			typ := CardTypes[(int(shape)>>2+i)%len(CardTypes)]
			card := Card{Type: typ}
			for j := 0; j <= (int(shape)>>4+i)%3; j++ {
				card.Results = append(card.Results, Result{URL: url + strings.Repeat("/", j), Title: title})
			}
			p.Cards = append(p.Cards, card)
		}
		doc := RenderHTML(p)
		got, err := ParseHTML(doc)
		if err != nil {
			t.Fatalf("ParseHTML(RenderHTML(p)): %v\n%s", err, doc)
		}
		if got.Query != p.Query || got.Location != p.Location || got.Datacenter != p.Datacenter || got.Day != p.Day {
			t.Fatalf("page fields did not round-trip: got %q %q %q %d, want %q %q %q %d",
				got.Query, got.Location, got.Datacenter, got.Day, p.Query, p.Location, p.Datacenter, p.Day)
		}
		if len(got.Cards) != len(p.Cards) {
			t.Fatalf("%d cards round-tripped, want %d", len(got.Cards), len(p.Cards))
		}
		for i, c := range p.Cards {
			gc := got.Cards[i]
			if gc.Type != c.Type || len(gc.Results) != len(c.Results) {
				t.Fatalf("card %d: got %v with %d results, want %v with %d", i, gc.Type, len(gc.Results), c.Type, len(c.Results))
			}
			for j, r := range c.Results {
				if gc.Results[j].URL != r.URL || gc.Results[j].Title != strings.TrimSpace(r.Title) {
					t.Fatalf("card %d result %d: got %q %q, want %q %q", i, j, gc.Results[j].URL, gc.Results[j].Title, r.URL, strings.TrimSpace(r.Title))
				}
			}
		}
	})
}
