#!/usr/bin/env bash
# Multi-process store smoke (run by `make ci` / the CI workflow), in
# two phases:
#
#  1. Determinism: launch a storerd daemon, run the same simulated
#     crawl once with local in-memory collections and once with
#     -store-server, and require byte-identical output — the remote
#     repository's determinism contract, checked across real process
#     and TCP boundaries.
#
#  2. Live crawl + persistence: serve a tiny static site over loopback
#     HTTP, crawl it with webcrawl against a local disk store and
#     against a disk-backed storerd, and require byte-identical crawler
#     output; then restart storerd from the same -dir and require the
#     collection to have survived the daemon restart.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
cleanup() {
    kill $(jobs -p) 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp" ./cmd/storerd ./cmd/crawlsim ./cmd/webcrawl ./scripts/smokesite

wait_addr() {
    for _ in $(seq 1 100); do
        if [ -f "$1" ]; then return 0; fi
        sleep 0.1
    done
    echo "store-smoke: $1 did not appear (daemon failed to come up)" >&2
    exit 1
}

# ---- Phase 1: simulated-crawl determinism ----------------------------

"$tmp/storerd" -listen 127.0.0.1:0 -addr-file "$tmp/s1.addr" &
wait_addr "$tmp/s1.addr"
store1="$(cat "$tmp/s1.addr")"
echo "store-smoke: storerd on $store1"

"$tmp/crawlsim" -days 30 -size 300 >"$tmp/local.out"
"$tmp/crawlsim" -days 30 -size 300 -store-server "$store1" >"$tmp/remote.out"

diff "$tmp/local.out" "$tmp/remote.out"
echo "store-smoke: remote-store crawl output is byte-identical to local"

# ---- Phase 2: live HTTP crawl + restart persistence ------------------

# A tiny interlinked site: the hermetic "live web" webcrawl fetches.
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
cat >"$tmp/site/c.html" <<'EOF'
<html><body>leaf page</body></html>
EOF

"$tmp/smokesite" -root "$tmp/site" -addr-file "$tmp/site.addr" &
wait_addr "$tmp/site.addr"
site="$(cat "$tmp/site.addr")"

"$tmp/storerd" -listen 127.0.0.1:0 -addr-file "$tmp/s2.addr" -dir "$tmp/storedata" &
s2_pid=$!
wait_addr "$tmp/s2.addr"
store2="$(cat "$tmp/s2.addr")"
echo "store-smoke: static site on $site, disk-backed storerd on $store2"

# webcrawl reports in pop order at any worker count, so the remote-store
# crawl runs four workers against the local crawl's one and must still
# diff clean.
crawl="-seeds http://$site/ -pages 10 -delay 20ms"
"$tmp/webcrawl" $crawl -workers 1 -dir "$tmp/crawl-local" >"$tmp/crawl-local.out"
"$tmp/webcrawl" $crawl -workers 4 -dir "$tmp/crawl-remote" -store-server "$store2" >"$tmp/crawl-remote.out"

diff "$tmp/crawl-local.out" "$tmp/crawl-remote.out"
echo "store-smoke: webcrawl output against storerd at 4 workers is byte-identical to the local disk store at 1"

pages="$(sed -n 's/.*collection holds \([0-9]*\)$/\1/p' "$tmp/crawl-remote.out")"
if [ -z "$pages" ] || [ "$pages" -lt 4 ]; then
    echo "store-smoke: expected >= 4 stored pages, got '$pages'" >&2
    cat "$tmp/crawl-remote.out" >&2
    exit 1
fi

# Restart the daemon from the same directory: the collection must
# survive (flushed batches + replay, including any swept tail).
kill "$s2_pid"
wait "$s2_pid" 2>/dev/null || true
rm -f "$tmp/s2.addr"
"$tmp/storerd" -listen 127.0.0.1:0 -addr-file "$tmp/s2.addr" -dir "$tmp/storedata" &
wait_addr "$tmp/s2.addr"
store2="$(cat "$tmp/s2.addr")"

"$tmp/webcrawl" $crawl -dir "$tmp/crawl-remote" -store-server "$store2" >"$tmp/crawl-again.out"
if ! grep -q "collection holds $pages" "$tmp/crawl-again.out"; then
    echo "store-smoke: collection did not survive the storerd restart" >&2
    cat "$tmp/crawl-again.out" >&2
    exit 1
fi
echo "store-smoke: collection ($pages pages) survived the storerd restart"
