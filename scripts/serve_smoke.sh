#!/usr/bin/env bash
# Serving-plane smoke (run by `make ci` / the CI workflow): crawl a
# tiny static site over loopback HTTP, then serve the crawled
# repository back out through every serving configuration and require
# the served bodies to be byte-identical to the site files the crawler
# fetched:
#
#  1. webservd over the crawl directory (disk collection + state.json:
#     pages, conditional requests, listing, estimates, stats).
#  2. storerd -serve: the HTTP read API embedded in the store daemon,
#     reading the same live collection a -store-server crawl wrote.
#  3. webservd -store-server: the HTTP API fronting the repository over
#     the cluster wire protocol.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
cleanup() {
    kill $(jobs -p) 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp" ./cmd/webcrawl ./cmd/webservd ./cmd/storerd ./scripts/smokesite ./internal/tools/promcheck

wait_addr() {
    for _ in $(seq 1 100); do
        if [ -f "$1" ]; then return 0; fi
        sleep 0.1
    done
    echo "serve-smoke: $1 did not appear (daemon failed to come up)" >&2
    exit 1
}

# http <url> [curl args...]: GET url, body on stdout, headers in
# $tmp/headers, status code in $tmp/status.
http() {
    local url="$1"; shift
    curl -sS -D "$tmp/headers" -o "$tmp/body" -w '%{http_code}' "$@" "$url" >"$tmp/status"
}

expect_status() {
    if [ "$(cat "$tmp/status")" != "$1" ]; then
        echo "serve-smoke: $2: status $(cat "$tmp/status"), want $1" >&2
        cat "$tmp/headers" "$tmp/body" >&2
        exit 1
    fi
}

# ---- The site and the crawl ------------------------------------------

mkdir -p "$tmp/site"
cat >"$tmp/site/index.html" <<'EOF'
<html><body>
<a href="/a.html">a</a> <a href="/b.html">b</a>
</body></html>
EOF
cat >"$tmp/site/a.html" <<'EOF'
<html><body><a href="/c.html">c</a> <a href="/index.html">home</a></body></html>
EOF
cat >"$tmp/site/b.html" <<'EOF'
<html><body><a href="/c.html">c</a></body></html>
EOF
# c.html fans out to 35 leaves, 40 URLs in all with the seed's two
# spellings: at the crawl's 150 ms per-host delay that is a ~6 s
# window, longer than the 5 s the mid-crawl scrape below polls for, so
# a busy box cannot finish the crawl before the first scrape lands.
{
    echo '<html><body>'
    for i in $(seq -w 1 35); do
        echo "<html><body>leaf $i</body></html>" >"$tmp/site/p$i.html"
        echo "<a href=\"/p$i.html\">p$i</a>"
    done
    echo '</body></html>'
} >"$tmp/site/c.html"

"$tmp/smokesite" -root "$tmp/site" -addr-file "$tmp/site.addr" &
wait_addr "$tmp/site.addr"
site="$(cat "$tmp/site.addr")"
echo "serve-smoke: static site on $site"

# The crawl runs in the background with its own debug listener and a
# JSONL trace file: the per-host delay keeps it alive long enough to
# scrape /metrics mid-crawl, the well-formedness gate that fails
# `make ci` on malformed exposition.
"$tmp/webcrawl" -seeds "http://$site/" -pages 40 -delay 150ms -workers 1 \
    -dir "$tmp/crawl" -metrics-listen 127.0.0.1:0 -metrics-addr-file "$tmp/c.maddr" \
    -trace "$tmp/crawl.trace" >"$tmp/crawl.out" &
crawl_pid=$!
wait_addr "$tmp/c.maddr"
cm="$(cat "$tmp/c.maddr")"
scraped=""
for _ in $(seq 1 100); do
    if curl -s "http://$cm/metrics" >"$tmp/c.metrics" 2>/dev/null &&
        "$tmp/promcheck" -require webevolve_dispatch_jobs_total,webevolve_dispatch_groups_total \
            <"$tmp/c.metrics" >/dev/null 2>&1; then
        scraped=1
        break
    fi
    sleep 0.05
done
wait "$crawl_pid"
if [ -z "$scraped" ]; then
    echo "serve-smoke: never scraped live dispatch metrics from webcrawl" >&2
    cat "$tmp/c.metrics" >&2 || true
    exit 1
fi
echo "serve-smoke: scraped webcrawl /metrics mid-crawl (dispatch counters live)"
if ! grep -q '"name":"fetch_url"' "$tmp/crawl.trace"; then
    echo "serve-smoke: crawl trace file has no fetch spans" >&2
    head "$tmp/crawl.trace" >&2 || true
    exit 1
fi
echo "serve-smoke: JSONL trace file carries fetch spans"

# ---- Phase 1: webservd over the crawl directory ----------------------

"$tmp/webservd" -dir "$tmp/crawl" -listen 127.0.0.1:0 -addr-file "$tmp/w.addr" \
    -metrics-listen 127.0.0.1:0 -metrics-addr-file "$tmp/w.maddr" &
wait_addr "$tmp/w.addr"
wait_addr "$tmp/w.maddr"
ws="$(cat "$tmp/w.addr")"
wm="$(cat "$tmp/w.maddr")"
echo "serve-smoke: webservd on $ws (metrics on $wm)"

# Every crawled page must be served byte-identical to the site file.
for p in a.html b.html c.html; do
    http "http://$ws/v1/pages/http://$site/$p"
    expect_status 200 "GET $p"
    diff "$tmp/site/$p" "$tmp/body"
done
# The seed is stored under its normalized URL (trailing slash).
http "http://$ws/v1/pages/http://$site/"
expect_status 200 "GET /"
diff "$tmp/site/index.html" "$tmp/body"
echo "serve-smoke: all served bodies are byte-identical to the site files"

# Conditional requests: the returned ETag must convert the same GET
# into a 304, and a bogus tag must not.
etag="$(sed -n 's/^[Ee][Tt]ag: \(.*\)\r$/\1/p' "$tmp/headers")"
if [ -z "$etag" ]; then
    echo "serve-smoke: no ETag on page response" >&2
    cat "$tmp/headers" >&2
    exit 1
fi
http "http://$ws/v1/pages/http://$site/" -H "If-None-Match: $etag"
expect_status 304 "conditional GET with matching ETag"
http "http://$ws/v1/pages/http://$site/" -H 'If-None-Match: "feedface"'
expect_status 200 "conditional GET with stale ETag"
echo "serve-smoke: ETag round trip works ($etag -> 304)"

# Paged listing: two pages of 2, the second resumed from the cursor.
http "http://$ws/v1/pages?limit=2"
expect_status 200 listing
next="$(sed -n 's/.*"next":"\([^"]*\)".*/\1/p' "$tmp/body")"
count1="$(sed -n 's/.*"count":\([0-9]*\).*/\1/p' "$tmp/body")"
http "http://$ws/v1/pages?limit=2&after=$next"
expect_status 200 "listing resume"
count2="$(sed -n 's/.*"count":\([0-9]*\).*/\1/p' "$tmp/body")"
if [ "$count1" != 2 ] || [ "$count2" != 2 ]; then
    echo "serve-smoke: paged listing returned $count1 + $count2 pages, want 2 + 2" >&2
    exit 1
fi
echo "serve-smoke: paged listing resumes across the cursor"

# Estimates come from the crawl's own change histories.
http "http://$ws/v1/estimates/http://$site/"
expect_status 200 estimate
grep -q '"estimator"' "$tmp/body"

http "http://$ws/v1/freshness?lambda=0.5&cycle=1"
expect_status 200 freshness
grep -q '"steadyInPlace"' "$tmp/body"

http "http://$ws/healthz"
expect_status 200 healthz
http "http://$ws/v1/stats"
expect_status 200 stats
grep -q '"pages":40' "$tmp/body"
echo "serve-smoke: estimates, freshness, stats and healthz respond"

# The debug listener mirrors the request counters /v1/stats reports,
# plus the repository gauge; promcheck gates the exposition format.
curl -sS "http://$wm/metrics" >"$tmp/w.metrics"
"$tmp/promcheck" \
    -require webevolve_serve_requests_total,webevolve_serve_responses_total,webevolve_serve_pages \
    <"$tmp/w.metrics"
http "http://$wm/debug/trace"
expect_status 200 "webservd /debug/trace"
echo "serve-smoke: webservd /metrics is well-formed with live serve counters"

kill %2 && wait %2 2>/dev/null || true   # webservd

# ---- Phase 2: storerd -serve (embedded HTTP API, live collection) ----

"$tmp/storerd" -listen 127.0.0.1:0 -addr-file "$tmp/s.addr" -dir "$tmp/storedata" \
    -serve 127.0.0.1:0 -serve-addr-file "$tmp/sh.addr" \
    -metrics-listen 127.0.0.1:0 -metrics-addr-file "$tmp/s.maddr" &
wait_addr "$tmp/s.addr"
wait_addr "$tmp/sh.addr"
store="$(cat "$tmp/s.addr")"
shttp="$(cat "$tmp/sh.addr")"
echo "serve-smoke: storerd on $store, embedded HTTP API on $shttp"

"$tmp/webcrawl" -seeds "http://$site/" -pages 40 -delay 20ms -workers 1 \
    -dir "$tmp/crawl2" -store-server "$store" >"$tmp/crawl2.out"

for p in a.html c.html; do
    http "http://$shttp/v1/pages/http://$site/$p"
    expect_status 200 "storerd GET $p"
    diff "$tmp/site/$p" "$tmp/body"
done
etag="$(sed -n 's/^[Ee][Tt]ag: \(.*\)\r$/\1/p' "$tmp/headers")"
http "http://$shttp/v1/pages/http://$site/c.html" -H "If-None-Match: $etag"
expect_status 304 "storerd conditional GET"
# The repository daemon has no crawl histories: estimates are a 501.
http "http://$shttp/v1/estimates/http://$site/"
expect_status 501 "storerd estimate"
echo "serve-smoke: storerd-embedded API serves the crawled collection (304s included)"

# One scrape shows all three planes of the store daemon at work: the
# wire ops the crawl sent, the disk puts they became, and the HTTP
# requests the embedded API answered.
wait_addr "$tmp/s.maddr"
sm="$(cat "$tmp/s.maddr")"
curl -sS "http://$sm/metrics" >"$tmp/s.metrics"
"$tmp/promcheck" \
    -require webevolve_cluster_server_ops_total,webevolve_store_puts_total,webevolve_serve_requests_total \
    <"$tmp/s.metrics"
echo "serve-smoke: storerd /metrics spans wire, store and serve families"

# ---- Phase 3: webservd fronting storerd over the wire ----------------

"$tmp/webservd" -store-server "$store" -listen 127.0.0.1:0 -addr-file "$tmp/w2.addr" &
wait_addr "$tmp/w2.addr"
ws2="$(cat "$tmp/w2.addr")"

http "http://$ws2/v1/pages/http://$site/b.html"
expect_status 200 "remote-backed GET"
diff "$tmp/site/b.html" "$tmp/body"
http "http://$ws2/v1/stats"
expect_status 200 "remote-backed stats"
grep -q '"pages":40' "$tmp/body"
echo "serve-smoke: webservd -store-server serves the same bytes over the wire"

echo "serve-smoke: OK"
