// Package htmlparse extracts links from HTML, the CrawlModule step that
// feeds AllUrls ("the CrawlModule extracts all links/URLs in the crawled
// page and forwards the URLs to AllUrls", Section 5.3).
//
// The extractor is a small hand-rolled tokenizer sufficient for anchor
// hrefs in real-world HTML: case-insensitive tags and attributes, single/
// double/unquoted attribute values, comments, and script/style skipping.
// Relative URLs are resolved against a base URL with net/url.
package htmlparse

import (
	"net/url"
	"strings"
)

// Links returns the absolute, deduplicated URLs of all <a href=...>
// anchors in the document, resolved against base. Fragment-only links,
// javascript:/mailto: schemes and unparsable URLs are skipped. Order is
// the order of first appearance.
func Links(baseURL, html string) []string {
	base, err := url.Parse(baseURL)
	if err != nil {
		base = nil
	}
	raw := ExtractHrefs(html)
	var out []string
	seen := make(map[string]struct{})
	for _, h := range raw {
		abs, ok := Resolve(base, h)
		if !ok {
			continue
		}
		if _, dup := seen[abs]; dup {
			continue
		}
		seen[abs] = struct{}{}
		out = append(out, abs)
	}
	return out
}

// Resolve makes href absolute against base, returning ok=false for
// links a crawler should not follow.
func Resolve(base *url.URL, href string) (string, bool) {
	href = strings.TrimSpace(href)
	if href == "" || strings.HasPrefix(href, "#") {
		return "", false
	}
	u, err := url.Parse(href)
	if err != nil {
		return "", false
	}
	if base != nil {
		u = base.ResolveReference(u)
	}
	switch u.Scheme {
	case "http", "https":
	default:
		return "", false
	}
	if u.Host == "" {
		return "", false
	}
	u.Fragment = ""
	return u.String(), true
}

// ExtractHrefs returns the raw href attribute values of all anchor tags,
// in document order. It is tolerant of malformed markup: unknown tags are
// skipped, attributes may be unquoted, and comments plus script/style
// bodies are ignored.
func ExtractHrefs(html string) []string {
	var out []string
	i := 0
	n := len(html)
	for i < n {
		lt := strings.IndexByte(html[i:], '<')
		if lt < 0 {
			break
		}
		i += lt
		// Comment?
		if strings.HasPrefix(html[i:], "<!--") {
			end := strings.Index(html[i+4:], "-->")
			if end < 0 {
				break
			}
			i += 4 + end + 3
			continue
		}
		gt := strings.IndexByte(html[i:], '>')
		if gt < 0 {
			break
		}
		tag := html[i+1 : i+gt]
		i += gt + 1
		name := tagName(tag)
		switch name {
		case "a", "area":
			if href, ok := attrValue(tag, "href"); ok {
				out = append(out, href)
			}
		case "base", "link":
			// Not followed as links; handled by callers if desired.
		case "script", "style":
			// Skip until the matching close tag, case-insensitively.
			close := "</" + name
			rest := strings.ToLower(html[i:])
			idx := strings.Index(rest, close)
			if idx < 0 {
				i = n
				continue
			}
			i += idx
		}
	}
	return out
}

// tagName extracts the lowercase tag name from tag content (text between
// '<' and '>'), or "" for closing/declaration tags.
func tagName(tag string) string {
	tag = strings.TrimSpace(tag)
	if tag == "" || tag[0] == '/' || tag[0] == '!' || tag[0] == '?' {
		return ""
	}
	end := 0
	for end < len(tag) {
		c := tag[end]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '/' {
			break
		}
		end++
	}
	return strings.ToLower(tag[:end])
}

// attrValue tokenizes the tag content's attributes and returns the value
// of the named attribute, handling double-quoted, single-quoted and
// unquoted forms. Tokenizing (rather than substring search) avoids
// matching attribute names that appear inside other attributes' values.
func attrValue(tag, name string) (string, bool) {
	i := 0
	n := len(tag)
	isSpace := func(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
	// Skip the tag name.
	for i < n && !isSpace(tag[i]) && tag[i] != '/' {
		i++
	}
	for i < n {
		for i < n && (isSpace(tag[i]) || tag[i] == '/') {
			i++
		}
		if i >= n {
			break
		}
		// Attribute name.
		start := i
		for i < n && !isSpace(tag[i]) && tag[i] != '=' && tag[i] != '/' {
			i++
		}
		attr := strings.ToLower(tag[start:i])
		for i < n && isSpace(tag[i]) {
			i++
		}
		var val string
		hasVal := false
		if i < n && tag[i] == '=' {
			i++
			for i < n && isSpace(tag[i]) {
				i++
			}
			if i < n {
				switch tag[i] {
				case '"', '\'':
					q := tag[i]
					i++
					vs := i
					for i < n && tag[i] != q {
						i++
					}
					val, hasVal = tag[vs:i], true
					if i < n {
						i++ // closing quote
					}
				default:
					vs := i
					for i < n && !isSpace(tag[i]) {
						i++
					}
					val, hasVal = tag[vs:i], true
				}
			}
		}
		if attr == name && hasVal {
			return val, true
		}
	}
	return "", false
}

// Normalize canonicalizes a URL for frontier deduplication: lowercases
// scheme and host, strips fragments and default ports, and resolves dot
// segments. Unparsable URLs are returned unchanged.
func Normalize(raw string) string {
	u, err := url.Parse(raw)
	if err != nil {
		return raw
	}
	u.Scheme = strings.ToLower(u.Scheme)
	u.Host = strings.ToLower(u.Host)
	u.Fragment = ""
	if (u.Scheme == "http" && strings.HasSuffix(u.Host, ":80")) ||
		(u.Scheme == "https" && strings.HasSuffix(u.Host, ":443")) {
		u.Host = u.Host[:strings.LastIndexByte(u.Host, ':')]
	}
	if u.Path == "" {
		u.Path = "/"
	}
	return u.String()
}
