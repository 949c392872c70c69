#!/usr/bin/env bash
# Multi-process cluster smoke (run by `make ci` / the CI workflow), in
# three phases:
#
#  1. Determinism: launch two shardd daemons on loopback, run the same
#     simulated crawl once with in-process shards and once with
#     -shard-servers, and require byte-identical output — the
#     distributed frontier's determinism contract, checked across real
#     process and TCP boundaries.
#
#  2. Resilience: launch two WAL-backed shardd daemons running the
#     disk-backed frontier tier under a tiny resident budget, SIGKILL
#     one of them mid-crawl, restart it from the same -wal and
#     -frontier-dir directories on the same address, and require the
#     crawl to complete with output byte-identical to the
#     uninterrupted run — the reconnect/retry + frontier-persistence
#     contract under a real process kill, with the spill logs (and a
#     possibly torn spill tail) in the recovery path.
#
#  3. Dynamic membership: launch registryd plus one shardd, start a
#     crawl that discovers the cluster with -registry, join a second
#     shardd mid-crawl, gracefully retire the first after its
#     partitions migrate, and require output byte-identical to the
#     local run — the live-migration invariance contract over real
#     processes, with promcheck gating the membership metric families
#     on a mid-crawl scrape.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
cleanup() {
    kill $(jobs -p) 2>/dev/null || true
    # Let the daemons finish their shutdown snapshots before deleting
    # the WAL directories under them.
    wait 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp" ./cmd/shardd ./cmd/crawlsim ./cmd/registryd ./internal/tools/promcheck

wait_addr() {
    for _ in $(seq 1 100); do
        if [ -f "$1" ]; then return 0; fi
        sleep 0.1
    done
    echo "cluster-smoke: $1 did not appear (shardd failed to come up)" >&2
    exit 1
}

# ---- Phase 1: distributed determinism --------------------------------

"$tmp/shardd" -listen 127.0.0.1:0 -shards 8 -addr-file "$tmp/s1.addr" &
"$tmp/shardd" -listen 127.0.0.1:0 -shards 8 -addr-file "$tmp/s2.addr" &
wait_addr "$tmp/s1.addr"
wait_addr "$tmp/s2.addr"

a1="$(cat "$tmp/s1.addr")"
a2="$(cat "$tmp/s2.addr")"
echo "cluster-smoke: shardd daemons on $a1 and $a2"

"$tmp/crawlsim" -days 30 -size 300 >"$tmp/local.out"
"$tmp/crawlsim" -days 30 -size 300 -shard-servers "$a1,$a2" >"$tmp/remote.out"

diff "$tmp/local.out" "$tmp/remote.out"
echo "cluster-smoke: distributed crawl output is byte-identical to local"

# ---- Phase 2: SIGKILL + WAL restart resilience -----------------------

# -frontier-resident 64 squeezes both daemons onto the spill logs for
# any non-trivial queue, so the kill lands with most entries on disk.
"$tmp/shardd" -listen 127.0.0.1:0 -shards 8 -addr-file "$tmp/k1.addr" -wal "$tmp/wal1" \
    -frontier-dir "$tmp/fr1" -frontier-resident 64 &
k1_pid=$!
"$tmp/shardd" -listen 127.0.0.1:0 -shards 8 -addr-file "$tmp/k2.addr" -wal "$tmp/wal2" \
    -frontier-dir "$tmp/fr2" -frontier-resident 64 \
    -metrics-listen 127.0.0.1:0 -metrics-addr-file "$tmp/k2.maddr" &
wait_addr "$tmp/k1.addr"
wait_addr "$tmp/k2.addr"
wait_addr "$tmp/k2.maddr"
m2="$(cat "$tmp/k2.maddr")"
b1="$(cat "$tmp/k1.addr")"
b2="$(cat "$tmp/k2.addr")"
echo "cluster-smoke: WAL-backed shardd daemons on $b1 and $b2"

# The kill must land while the crawl is in flight; how long a crawl
# takes depends on the machine, so escalate the workload until the
# SIGKILL catches it mid-run (~1s at size 2000 on a 2020s laptop). Each
# rung is size:days. Past ~30k pages the collection outgrows crawlsim's
# 3,000-page web and a larger size barely lengthens a remote crawl
# (0.56 s at 32k, 0.9 s at 128k, two shardd on a 2-core Xeon), so the
# last rung doubles the virtual days too (4.6 s).
ladder="2000:40 8000:40 32000:40 128000:80"
killed=""
for rung in $ladder; do
    size=${rung%:*} days=${rung#*:}
    "$tmp/crawlsim" -days $days -size $size >"$tmp/ref.out"
    "$tmp/crawlsim" -days $days -size $size -shard-servers "$b1,$b2" >"$tmp/kill.out" &
    crawl_pid=$!
    sleep 0.35
    if ! kill -0 "$crawl_pid" 2>/dev/null; then
        wait "$crawl_pid" || true
        echo "cluster-smoke: size $size finished before the kill; escalating"
        continue
    fi
    # Mid-crawl observability: scrape the surviving shardd's /metrics
    # and require well-formed exposition with the wire, WAL, frame-size
    # and frontier-residency families actually moving (promcheck exits
    # non-zero on malformed output or zero counters, failing `make ci`).
    # The request and response byte histograms prove the server
    # accounts every frame it reads and writes — the raw bytes the
    # wire-bytes-per-page figures are made of; the residency families
    # prove the disk tier is live — entries resident, entries spilled,
    # and bytes in the spill logs.
    curl -sS "http://$m2/metrics" >"$tmp/k2.metrics"
    "$tmp/promcheck" \
        -require webevolve_cluster_server_ops_total,webevolve_cluster_server_op_seconds,webevolve_wal_appends_total,webevolve_cluster_server_request_bytes,webevolve_cluster_server_response_bytes,webevolve_frontier_resident_entries,webevolve_frontier_spilled_entries,webevolve_frontier_spill_bytes \
        <"$tmp/k2.metrics"
    echo "cluster-smoke: mid-crawl /metrics scrape is well-formed with live wire+WAL+frame-size+spill counters"
    kill -9 "$k1_pid"
    killed=1
    echo "cluster-smoke: SIGKILLed shardd on $b1 mid-crawl (size $size); restarting from its WAL"
    rm -f "$tmp/k1.addr"
    "$tmp/shardd" -listen "$b1" -shards 8 -addr-file "$tmp/k1.addr" -wal "$tmp/wal1" \
        -frontier-dir "$tmp/fr1" -frontier-resident 64 &
    wait_addr "$tmp/k1.addr"
    break
done
if [ -z "$killed" ]; then
    echo "cluster-smoke: crawl outran every workload; could not test the kill" >&2
    exit 1
fi

if ! wait "$crawl_pid"; then
    echo "cluster-smoke: crawl failed after shardd kill+restart" >&2
    cat "$tmp/kill.out" >&2
    exit 1
fi
diff "$tmp/ref.out" "$tmp/kill.out"
echo "cluster-smoke: kill+restart crawl output is byte-identical to the uninterrupted run"

# ---- Phase 3: dynamic membership (join + graceful leave) -------------

# Poll a /metrics endpoint until family $2 reports at least $3. Returns
# 2 if the crawl pid $4 exits first — the workload finished before the
# membership change could land, and the caller escalates it.
await_counter() {
    for _ in $(seq 1 300); do
        if ! kill -0 "$4" 2>/dev/null; then return 2; fi
        v="$(curl -sS "http://$1/metrics" 2>/dev/null |
            awk -v f="$2" '$1 == f { print int($2); exit }')"
        if [ -n "$v" ] && [ "$v" -ge "$3" ]; then return 0; fi
        sleep 0.1
    done
    echo "cluster-smoke: $2 never reached $3 on http://$1/metrics" >&2
    exit 1
}

# Stop the phase's daemons hard. Once no crawl runs there is no drain
# to respect, and a registry-mode shardd that got SIGTERM would announce
# a leave that no client migrates, then wait out its 30 s leave timeout.
stop_membership_cluster() {
    kill -9 "$reg_pid" "$d1_pid" $d2_pid 2>/dev/null || true
    wait "$reg_pid" "$d1_pid" $d2_pid 2>/dev/null || true
}

# Tear down one escalation attempt: the crawl must still have exited
# cleanly (it ran a legitimate, just too-small, workload), then the
# attempt's daemons go away hard.
escalate() {
    if ! wait "$crawl3_pid"; then
        echo "cluster-smoke: dynamic crawl failed (size $size)" >&2
        cat "$tmp/dyn.out" >&2
        exit 1
    fi
    echo "cluster-smoke: size $size finished before the $1; escalating"
    stop_membership_cluster
}

migrated=""
for rung in $ladder; do
    size=${rung%:*} days=${rung#*:}
    rm -f "$tmp"/reg.addr "$tmp"/d1.addr "$tmp"/d1.maddr "$tmp"/d2.addr "$tmp"/d2.maddr "$tmp"/c3.maddr
    "$tmp/registryd" -listen 127.0.0.1:0 -addr-file "$tmp/reg.addr" &
    reg_pid=$!
    wait_addr "$tmp/reg.addr"
    reg="$(cat "$tmp/reg.addr")"
    "$tmp/shardd" -listen 127.0.0.1:0 -shards 8 -registry "$reg" -addr-file "$tmp/d1.addr" \
        -metrics-listen 127.0.0.1:0 -metrics-addr-file "$tmp/d1.maddr" &
    d1_pid=$!
    d2_pid=""
    wait_addr "$tmp/d1.addr"
    wait_addr "$tmp/d1.maddr"
    echo "cluster-smoke: registryd on $reg, first shardd on $(cat "$tmp/d1.addr")"

    "$tmp/crawlsim" -days $days -size $size >"$tmp/dyn-ref.out"
    "$tmp/crawlsim" -days $days -size $size -registry "$reg" \
        -metrics-listen 127.0.0.1:0 -metrics-addr-file "$tmp/c3.maddr" >"$tmp/dyn.out" &
    crawl3_pid=$!
    wait_addr "$tmp/c3.maddr"
    cm="$(cat "$tmp/c3.maddr")"
    sleep 0.35
    if ! kill -0 "$crawl3_pid" 2>/dev/null; then escalate "join"; continue; fi

    # Join: a second shardd registers mid-crawl; the crawl client must
    # notice at a round boundary and complete one migration onto it.
    "$tmp/shardd" -listen 127.0.0.1:0 -shards 8 -registry "$reg" -addr-file "$tmp/d2.addr" \
        -metrics-listen 127.0.0.1:0 -metrics-addr-file "$tmp/d2.maddr" &
    d2_pid=$!
    if ! await_counter "$cm" webevolve_membership_migrations_total 1 "$crawl3_pid"; then
        escalate "join migration"; continue
    fi
    wait_addr "$tmp/d2.maddr"
    echo "cluster-smoke: second shardd joined mid-crawl; partitions migrated"

    # Mid-crawl observability across all three parties of the handoff:
    # the crawl client drives migrations (epoch gauge + migration
    # counter on crawlsim's /metrics), the old member serialized the
    # moved partitions (export counter + handoff bytes on the first
    # shardd), and the joiner absorbed them (import counter on the
    # second). promcheck requires each family present and non-zero.
    if ! curl -sS "http://$cm/metrics" >"$tmp/c3.metrics"; then
        escalate "metrics scrape"; continue
    fi
    # The same scrape gates the engine's content-stage and ranking-pass
    # names: the content_wait phase has observations by now; the backlog
    # gauge, the rebuild_wait phase and the rank_rebuild histogram are
    # exposed (the gauge may read zero at this instant, and the other two
    # count only under the variable-frequency policy).
    "$tmp/promcheck" \
        -require 'webevolve_membership_epoch,webevolve_membership_migrations_total,webevolve_engine_phase_seconds{phase="content_wait"}' \
        -present 'webevolve_engine_content_backlog,webevolve_engine_rank_rebuild_seconds,webevolve_engine_phase_seconds{phase="rebuild_wait"}' \
        <"$tmp/c3.metrics"
    curl -sS "http://$(cat "$tmp/d1.maddr")/metrics" | "$tmp/promcheck" \
        -require webevolve_membership_export_entries_total,webevolve_membership_handoff_bytes
    curl -sS "http://$(cat "$tmp/d2.maddr")/metrics" | "$tmp/promcheck" \
        -require webevolve_membership_import_entries_total,webevolve_membership_handoff_bytes
    echo "cluster-smoke: mid-crawl scrapes gate the membership metric families"

    # Graceful leave: SIGTERM the first shardd. It announces the leave,
    # keeps serving while the crawl client exports its partitions to
    # the survivor, and only then exits — queued entries lose nothing.
    kill "$d1_pid"
    if ! await_counter "$cm" webevolve_membership_migrations_total 2 "$crawl3_pid"; then
        escalate "leave migration"; continue
    fi
    wait "$d1_pid" 2>/dev/null || true
    echo "cluster-smoke: first shardd retired mid-crawl after migrating its partitions"
    migrated=1
    break
done
if [ -z "$migrated" ]; then
    echo "cluster-smoke: crawl outran every workload; could not test membership changes" >&2
    exit 1
fi

if ! wait "$crawl3_pid"; then
    echo "cluster-smoke: crawl failed across join + leave" >&2
    cat "$tmp/dyn.out" >&2
    exit 1
fi
diff "$tmp/dyn-ref.out" "$tmp/dyn.out"
echo "cluster-smoke: join+leave crawl output is byte-identical to the local run"
stop_membership_cluster
