package htmlparse

import (
	"fmt"
	"net/url"
	"strings"
	"testing"
	"testing/quick"
)

func TestExtractHrefsBasic(t *testing.T) {
	html := `<html><body>
		<a href="http://a.com/1">one</a>
		<a href='http://a.com/2'>two</a>
		<a href=http://a.com/3>three</a>
	</body></html>`
	got := ExtractHrefs(html)
	want := []string{"http://a.com/1", "http://a.com/2", "http://a.com/3"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestExtractHrefsCaseInsensitive(t *testing.T) {
	got := ExtractHrefs(`<A HREF="http://x.com/">x</A>`)
	if len(got) != 1 || got[0] != "http://x.com/" {
		t.Fatalf("got %v", got)
	}
}

func TestExtractHrefsSkipsComments(t *testing.T) {
	html := `<!-- <a href="http://hidden.com/">no</a> --><a href="http://ok.com/">yes</a>`
	got := ExtractHrefs(html)
	if len(got) != 1 || got[0] != "http://ok.com/" {
		t.Fatalf("got %v", got)
	}
}

func TestExtractHrefsSkipsScriptAndStyle(t *testing.T) {
	html := `<script>var s = '<a href="http://js.com/">x</a>';</script>
		<style>a[href="http://css.com/"] {}</style>
		<a href="http://real.com/">r</a>`
	got := ExtractHrefs(html)
	if len(got) != 1 || got[0] != "http://real.com/" {
		t.Fatalf("got %v", got)
	}
}

func TestExtractHrefsAreaTag(t *testing.T) {
	got := ExtractHrefs(`<area href="http://map.com/x">`)
	if len(got) != 1 || got[0] != "http://map.com/x" {
		t.Fatalf("got %v", got)
	}
}

func TestExtractHrefsOtherAttributesIgnored(t *testing.T) {
	got := ExtractHrefs(`<a class="href" title="href=nope" href="http://y.com/">y</a>`)
	if len(got) != 1 || got[0] != "http://y.com/" {
		t.Fatalf("got %v", got)
	}
}

func TestExtractHrefsMalformed(t *testing.T) {
	// Unclosed tags and stray brackets must not panic or loop.
	for _, html := range []string{
		"<a href=", "<", "<a href='unterminated", "<!-- unterminated",
		"<script>never closed", `<a href="x.com/1"`, "",
	} {
		_ = ExtractHrefs(html) // must terminate
	}
}

func TestLinksResolvesRelative(t *testing.T) {
	base := "http://site.com/dir/page.html"
	html := `<a href="other.html">1</a>
		<a href="/root.html">2</a>
		<a href="../up.html">3</a>
		<a href="http://abs.com/x">4</a>`
	got := Links(base, html)
	want := []string{
		"http://site.com/dir/other.html",
		"http://site.com/root.html",
		"http://site.com/up.html",
		"http://abs.com/x",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestLinksSkipsNonCrawlable(t *testing.T) {
	html := `<a href="#frag">f</a>
		<a href="mailto:x@y.com">m</a>
		<a href="javascript:void(0)">j</a>
		<a href="ftp://files.com/x">ftp</a>
		<a href="">empty</a>
		<a href="http://ok.com/">ok</a>`
	got := Links("http://base.com/", html)
	if len(got) != 1 || got[0] != "http://ok.com/" {
		t.Fatalf("got %v", got)
	}
}

func TestLinksDeduplicates(t *testing.T) {
	html := `<a href="http://a.com/x">1</a><a href="http://a.com/x">2</a>`
	got := Links("http://base.com/", html)
	if len(got) != 1 {
		t.Fatalf("got %v", got)
	}
}

func TestLinksStripsFragments(t *testing.T) {
	got := Links("http://b.com/", `<a href="http://a.com/page#sec2">x</a>`)
	if len(got) != 1 || got[0] != "http://a.com/page" {
		t.Fatalf("got %v", got)
	}
}

func TestResolve(t *testing.T) {
	base, _ := url.Parse("http://h.com/a/")
	cases := []struct {
		href string
		want string
		ok   bool
	}{
		{"b.html", "http://h.com/a/b.html", true},
		{"#x", "", false},
		{"  ", "", false},
		{"https://s.com/", "https://s.com/", true},
		{"//proto.com/x", "http://proto.com/x", true},
	}
	for _, c := range cases {
		got, ok := Resolve(base, c.href)
		if ok != c.ok || got != c.want {
			t.Errorf("Resolve(%q) = %q,%v want %q,%v", c.href, got, ok, c.want, c.ok)
		}
	}
}

func TestNormalize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"HTTP://Example.COM/Path", "http://example.com/Path"},
		{"http://h.com:80/x", "http://h.com/x"},
		{"https://h.com:443/x", "https://h.com/x"},
		{"http://h.com", "http://h.com/"},
		{"http://h.com/x#frag", "http://h.com/x"},
	}
	for _, c := range cases {
		if got := Normalize(c.in); got != c.want {
			t.Errorf("Normalize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestExtractNeverPanicsProperty(t *testing.T) {
	if err := quick.Check(func(s string) bool {
		_ = ExtractHrefs(s)
		_ = Links("http://base.com/", s)
		return true
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripWithGeneratedPage(t *testing.T) {
	// A page built from links should parse back to exactly those links.
	links := []string{"http://x.com/a", "http://y.edu/b", "http://z.gov/"}
	var b strings.Builder
	b.WriteString("<html><body><ul>")
	for _, l := range links {
		fmt.Fprintf(&b, `<li><a href="%s">%s</a></li>`, l, l)
	}
	b.WriteString("</ul></body></html>")
	got := Links("http://x.com/", b.String())
	if fmt.Sprint(got) != fmt.Sprint(links) {
		t.Fatalf("round trip got %v want %v", got, links)
	}
}
