// Command promcheck validates Prometheus text exposition read from
// stdin — the `make ci` gate behind the smoke scripts' /metrics
// scrapes. It fails (exit 1) on malformed exposition: bad metric
// names, unparsable sample values, samples typed before their # TYPE
// line, duplicate or unknown TYPE declarations.
//
// With -require name1,name2,... it additionally asserts each named
// family is present with a non-zero sample sum — how the smoke
// scripts pin "the crawl actually moved these counters" rather than
// just "the endpoint returned something". A histogram family is
// satisfied by its _count series, and a name may carry one label as
// exposed — webevolve_engine_phase_seconds{phase="content_wait"} — to
// require that child rather than the family's sum. -present takes the
// same list for families that must be exposed but may legitimately
// read zero at the instant of the scrape (a queue-depth gauge).
//
// Usage:
//
//	curl -s http://$addr/metrics | promcheck -require webevolve_cluster_server_ops_total,webevolve_wal_appends_total
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

var nameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

var sampleTypes = map[string]bool{
	"counter": true, "gauge": true, "histogram": true,
	"summary": true, "untyped": true,
}

func main() {
	require := flag.String("require", "", "comma-separated metric families that must be present with a non-zero sum")
	present := flag.String("present", "", "comma-separated metric families that must be present, zero or not")
	flag.Parse()

	sums := make(map[string]float64)    // by sample name
	labeled := make(map[string]float64) // by sample name{labels}, as exposed
	typed := make(map[string]bool)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	lineno := 0
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "promcheck: line %d: %s\n", lineno, fmt.Sprintf(format, args...))
		os.Exit(1)
	}
	for sc.Scan() {
		lineno++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			f := strings.SplitN(line, " ", 4)
			if len(f) < 3 || (f[1] != "HELP" && f[1] != "TYPE") {
				continue // free-form comment
			}
			if !nameRe.MatchString(f[2]) {
				fail("bad metric name %q in %s line", f[2], f[1])
			}
			if f[1] == "TYPE" {
				if len(f) < 4 || !sampleTypes[f[3]] {
					fail("bad or missing type for family %s", f[2])
				}
				if typed[f[2]] {
					fail("duplicate TYPE for family %s", f[2])
				}
				typed[f[2]] = true
			}
			continue
		}
		// A sample: name{labels} value [timestamp] or name value.
		rest := line
		name, labels := rest, ""
		if i := strings.IndexAny(rest, "{ "); i >= 0 {
			name = rest[:i]
			if rest[i] == '{' {
				j := strings.LastIndex(rest, "}")
				if j < i {
					fail("unclosed label braces")
				}
				labels = rest[i : j+1]
				rest = rest[j+1:]
			} else {
				rest = rest[i:]
			}
		} else {
			fail("sample with no value: %q", line)
		}
		if !nameRe.MatchString(name) {
			fail("bad sample name %q", name)
		}
		fields := strings.Fields(rest)
		if len(fields) < 1 || len(fields) > 2 {
			fail("sample %s: want value [timestamp], got %q", name, rest)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			fail("sample %s: unparsable value %q", name, fields[0])
		}
		// The family behind a histogram/summary series keeps its base
		// name for the TYPE check.
		fam := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suf); base != name && typed[base] {
				fam = base
				break
			}
		}
		if !typed[fam] {
			fail("sample %s before its # TYPE line", name)
		}
		sums[name] += v
		if labels != "" {
			labeled[name+labels] += v
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "promcheck: read:", err)
		os.Exit(1)
	}
	if len(sums) == 0 {
		fmt.Fprintln(os.Stderr, "promcheck: empty exposition")
		os.Exit(1)
	}

	ok := true
	check := func(list string, nonZero bool) {
		for _, name := range strings.Split(list, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			by := sums
			base, labels, _ := strings.Cut(name, "{")
			if labels != "" {
				by, labels = labeled, "{"+labels
			}
			sum, present := by[name]
			if !present {
				// A histogram family is observed through its _count.
				sum, present = by[base+"_count"+labels]
			}
			switch {
			case !present:
				fmt.Fprintf(os.Stderr, "promcheck: required family %s absent\n", name)
				ok = false
			case nonZero && sum == 0:
				fmt.Fprintf(os.Stderr, "promcheck: required family %s present but zero\n", name)
				ok = false
			}
		}
	}
	check(*require, true)
	check(*present, false)
	if !ok {
		os.Exit(1)
	}
	fmt.Printf("promcheck: %d series ok\n", len(sums))
}
