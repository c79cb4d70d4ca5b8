package serp

import (
	"fmt"
	"html"
	"strconv"
	"strings"
)

// This file implements the mobile HTML wire format. RenderHTML is what the
// SERP server sends; ParseHTML is what the crawler's browser applies to the
// response body — the counterpart of the study's PhantomJS script scraping
// Google's mobile markup. The markup is deliberately "real-world shaped"
// (nested divs, classes, a location footer) so the parser has to do actual
// extraction work rather than reading a convenient JSON blob.

// htmlEscaper escapes exactly the five characters html.EscapeString does,
// with the same entities, so its output is byte-identical; unlike
// html.EscapeString it writes straight into the page's builder.
var htmlEscaper = strings.NewReplacer(
	`&`, "&amp;",
	`'`, "&#39;",
	`<`, "&lt;",
	`>`, "&gt;",
	`"`, "&#34;",
)

// RenderHTML renders the page as a mobile results document.
func RenderHTML(p *Page) string {
	var b strings.Builder
	b.Grow(4096)
	var digits [20]byte
	esc := func(s string) { htmlEscaper.WriteString(&b, s) }
	num := func(n int) { b.Write(strconv.AppendInt(digits[:0], int64(n), 10)) }
	b.WriteString("<!doctype html>\n<html><head><meta charset=\"utf-8\"><title>")
	esc(p.Query)
	b.WriteString(" - Search</title><meta name=\"viewport\" content=\"width=device-width\"></head>\n<body>\n")
	b.WriteString("<header class=\"searchbox\"><input value=\"")
	esc(p.Query)
	b.WriteString("\"></header>\n<main id=\"results\">\n")
	for i, c := range p.Cards {
		b.WriteString("<div class=\"card\" data-type=\"")
		b.WriteString(c.Type.String())
		b.WriteString("\" data-index=\"")
		num(i)
		b.WriteString("\">\n")
		switch c.Type {
		case Maps:
			b.WriteString("  <div class=\"map-frame\"><span class=\"map-pin\">&#9679;</span></div>\n")
			b.WriteString("  <ul class=\"map-list\">\n")
			for _, r := range c.Results {
				b.WriteString("    <li><a class=\"serp-link\" href=\"")
				esc(r.URL)
				b.WriteString("\">")
				esc(r.Title)
				b.WriteString("</a><span class=\"biz-meta\">&#9733;</span></li>\n")
			}
			b.WriteString("  </ul>\n")
		case News:
			b.WriteString("  <h3 class=\"news-header\">In the News</h3>\n")
			for _, r := range c.Results {
				b.WriteString("  <div class=\"news-item\"><a class=\"serp-link\" href=\"")
				esc(r.URL)
				b.WriteString("\">")
				esc(r.Title)
				b.WriteString("</a></div>\n")
			}
		default:
			for j, r := range c.Results {
				b.WriteString("  <a class=\"serp-link")
				if j > 0 {
					b.WriteString(" sublink")
				}
				b.WriteString("\" href=\"")
				esc(r.URL)
				b.WriteString("\">")
				esc(r.Title)
				b.WriteString("</a>\n")
			}
		}
		b.WriteString("</div><!--/card-->\n")
	}
	b.WriteString("</main>\n<footer id=\"geo-footer\" data-location=\"")
	esc(p.Location)
	b.WriteString("\" data-datacenter=\"")
	esc(p.Datacenter)
	b.WriteString("\" data-day=\"")
	num(p.Day)
	b.WriteString("\">Results for <b>")
	esc(p.Location)
	b.WriteString("</b></footer>\n</body></html>\n")
	return b.String()
}

// ParseHTML parses a rendered results document back into a Page. It is a
// scanning parser purpose-built for this markup (the same engineering
// stance as the study's parser, which was built for Google's markup of the
// day) and fails loudly on documents that do not look like result pages.
func ParseHTML(doc string) (*Page, error) {
	p := &Page{}
	// Query from <title>.
	title, err := between(doc, "<title>", "</title>")
	if err != nil {
		return nil, fmt.Errorf("serp: parse: %w", err)
	}
	p.Query = html.UnescapeString(strings.TrimSuffix(title, " - Search"))

	// Footer metadata.
	if footer, err := between(doc, "<footer id=\"geo-footer\"", ">"); err == nil {
		p.Location = html.UnescapeString(attr(footer, "data-location"))
		p.Datacenter = html.UnescapeString(attr(footer, "data-datacenter"))
		fmt.Sscanf(attr(footer, "data-day"), "%d", &p.Day)
	} else {
		return nil, fmt.Errorf("serp: parse: missing geo footer")
	}

	// Cards.
	rest := doc
	for {
		start := strings.Index(rest, "<div class=\"card\"")
		if start < 0 {
			break
		}
		end := strings.Index(rest[start:], "</div><!--/card-->")
		if end < 0 {
			return nil, fmt.Errorf("serp: parse: unterminated card")
		}
		block := rest[start : start+end]
		rest = rest[start+end+len("</div><!--/card-->"):]

		head, _ := between(block, "<div class=\"card\"", ">")
		typeLabel := attr(head, "data-type")
		ct, err := ParseCardType(typeLabel)
		if err != nil {
			return nil, fmt.Errorf("serp: parse: %w", err)
		}
		card := Card{Type: ct}
		linkRest := block
		for {
			a := strings.Index(linkRest, "<a class=\"serp-link")
			if a < 0 {
				break
			}
			tag := linkRest[a:]
			closeTag := strings.Index(tag, "</a>")
			if closeTag < 0 {
				return nil, fmt.Errorf("serp: parse: unterminated anchor")
			}
			anchor := tag[:closeTag]
			href := attr(anchor, "href")
			gt := strings.Index(anchor, ">")
			if gt < 0 || href == "" {
				return nil, fmt.Errorf("serp: parse: malformed anchor %q", anchor)
			}
			card.Results = append(card.Results, Result{
				URL:   html.UnescapeString(href),
				Title: html.UnescapeString(strings.TrimSpace(anchor[gt+1:])),
			})
			linkRest = tag[closeTag:]
		}
		if len(card.Results) == 0 {
			return nil, fmt.Errorf("serp: parse: card with no links")
		}
		p.Cards = append(p.Cards, card)
	}
	if len(p.Cards) == 0 {
		return nil, fmt.Errorf("serp: parse: no cards found")
	}
	return p, nil
}

// between returns the substring of s strictly between the first occurrence
// of open and the next occurrence of close.
func between(s, open, close string) (string, error) {
	i := strings.Index(s, open)
	if i < 0 {
		return "", fmt.Errorf("marker %q not found", open)
	}
	s = s[i+len(open):]
	j := strings.Index(s, close)
	if j < 0 {
		return "", fmt.Errorf("closing %q not found", close)
	}
	return s[:j], nil
}

// attr extracts a double-quoted attribute value from a tag fragment.
func attr(tag, name string) string {
	marker := name + "=\""
	i := strings.Index(tag, marker)
	if i < 0 {
		return ""
	}
	rest := tag[i+len(marker):]
	j := strings.Index(rest, "\"")
	if j < 0 {
		return ""
	}
	return rest[:j]
}
