# Local mirror of the CI pipeline (.github/workflows/ci.yml):
# `make ci` runs exactly what a pull request must pass.

GO ?= go

.PHONY: build test race fuzz test-names bench bench-smoke bench-check bench-pairs layer-pairs fmt vet loc smoke-cluster smoke-store smoke-serve smoke-tools ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The lines after the first repeat the tests whose outcome depends on
# goroutine timing or map order, not only on their seeds: the frontier
# peek's randomized test against its model (sort everything, take n;
# both tiers) — repeated with it, though its seeds fix it, the queue's
# pushes whose echoed slot is right, stale, another queue's or zero
# against the same model — and the round adapter's deferred commits
# against a queue every commit reaches at once; the serve/swap gate
# (readers across live swaps: no request may see a closed store); and
# the store's
# ordered index and record codec beside concurrent writers, compaction
# and swaps; the engine's content stage behind a slow or failing store
# (order, buffer ownership, the barrier, the error path, and the rounds
# folded into one store write); opRound retries after lost replies,
# across a WAL compaction and restart, the round adapter's pop order
# over one to four shard servers against the in-process queue, and
# rounds across dropped connections; the servers' per-connection read
# buffers, reused across frames of every size, against an in-process
# oracle, and the store client's records, which alias their replies;
# the segment log under the
# collection and the disk frontier (pins across Compact, the handle
# cap, concurrent appends and reads); the topology resolver (one
# membership read for both planes, every flag combination) with the
# static-routing golden it must keep; and the invariance matrix, whose
# kill, restart and join hooks fire from crawl worker goroutines while
# the engine pipelines rounds, and whose migrations run at whichever
# round boundary first sees the new membership; and webcrawl's two
# live-HTTP tests, whose rounds fetch on a pool of workers against
# httptest servers: the report and collection must match at 1 and 4
# workers whatever order the fetches finish in, and the per-host
# spacing is timed at the fetcher's transport, so both depend on
# scheduling. The last line is not about
# timing: it is the revisit optimizer's bit-for-bit equivalence with
# its reference, repeated because a crawl's digest hangs off it
# (-short: 60 of the 240 random populations). Before it, the crawl's
# one URL table: concurrent interns beside the URL reads that take no
# lock.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=5 -run 'TestPeekMatchesModel|TestSlotEchoMatchesModel|TestRoundsDeferralMatchesEagerCommits|TestApplyRoundBesideConcurrentUse' ./internal/frontier/
	$(GO) test -race -count=20 -run 'TestServeAcrossLiveCrawl' ./internal/serve/
	$(GO) test -race -count=5 -run 'TestStragglersAcrossSwaps' ./internal/serve/
	$(GO) test -race -count=5 -run 'TestScanBesideWrites|TestModelCheck|TestShadowedPin|TestDiskConcurrentStress' ./internal/store/
	$(GO) test -race -count=5 -run 'TestContentStageOrderAndIntegrity|TestContentErrorEndsRun|TestContentBarrier|TestContentCoalescing|TestContentFoldKeepsPerURLOrder' ./internal/core/
	$(GO) test -race -count=5 -run 'TestRoundRetryRepeeks|TestRoundReplyLostKeepsPopOrder|TestFlakyTransportKeepsRoundPopOrder|TestRemoteMatchesLocalPopOrder|TestRemoteSurvivesConnDrop|TestServerReadBuffersKeepNothing|TestRemoteRecordsOwnTheirBytes|TestRemoteDiskSegmentsMatchLocal' ./internal/cluster/
	$(GO) test -race -count=5 ./internal/seglog/
	$(GO) test -race -count=3 -run 'TestTopology|TestStaticRoutingGolden|TestParseTopology' ./internal/cluster/ ./internal/daemon/
	$(GO) test -race -count=2 -run TestInvarianceMatrix ./internal/cluster/
	$(GO) test -race -count=5 -run 'TestCrawlIdenticalAtAnyWorkerCount|TestPolitenessPerHost' ./cmd/webcrawl/
	$(GO) test -race -count=5 -run 'TestConcurrentInternBesideLockFreeReads' ./internal/urlid/
	$(GO) test -race -short -count=5 -run 'TestOptimalAllocationMatchesReference' ./internal/freshness/

# Thirty seconds of fuzzing the optimizer's equivalence property, then
# fifteen of the change-rate MLE's against its full bisection, then
# fifteen of the round adapter's deferred commits against a queue every
# commit reaches at once (pops, NextEvent answers, final queue), then
# fifteen each on the cluster's frame reader and request handler (shard
# and store servers): there is one wire decoder and no second version
# to cross-check it, so arbitrary bytes must keep surfacing as errors,
# never panics. Then fifteen read frame streams through one reused
# frameReader against a fresh read per frame; fifteen open segment logs
# with arbitrary tails: the replay must be exactly the intact prefix and
# the sweep must land at its end; and fifteen of the record value codec
# under both tags, damaged and raw: checkValue accepts exactly what
# DecodeValue decodes, and AppendValue after DecodeValue gives back the
# bytes AppendValue wrote. Then fifteen of the page graph's op
# sequences against the map-of-sets graph it replaced: snapshot,
# counts and every in- and out-set must agree after each op.
# (The seed corpora already run under plain `go test`.)
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzOptimalAllocation -fuzztime 30s ./internal/freshness/
	$(GO) test -run '^$$' -fuzz FuzzEPIrregular -fuzztime 15s ./internal/changefreq/
	$(GO) test -run '^$$' -fuzz FuzzRoundsDeferral -fuzztime 15s ./internal/frontier/
	$(GO) test -run '^$$' -fuzz FuzzDecodeFrame -fuzztime 15s ./internal/cluster/
	$(GO) test -run '^$$' -fuzz FuzzHandleBody -fuzztime 15s ./internal/cluster/
	$(GO) test -run '^$$' -fuzz FuzzFrameSequence -fuzztime 15s ./internal/cluster/
	$(GO) test -run '^$$' -fuzz FuzzReplay -fuzztime 15s ./internal/seglog/
	$(GO) test -run '^$$' -fuzz FuzzRecordCodec -fuzztime 15s ./internal/store/
	$(GO) test -run '^$$' -fuzz FuzzGraphOps -fuzztime 15s ./internal/webgraph/

# Every -run and -fuzz name in race and fuzz must still name a test:
# `go test -run TestGone` exits 0 ("no tests to run"), so a renamed
# test would otherwise drop out of those targets without a word.
test-names:
	./scripts/check_test_names.sh

# Engine benchmarks, written machine-readable to BENCH_engine.json
# (benchmark name, iterations, ns/op, pages/s, B/op, allocs/op) so the
# perf trajectory is tracked run over run; CI archives the file.
# No pipe to tee here: /bin/sh has no pipefail, so a crashing benchmark
# would exit 0 through the pipe and CI would archive a garbage report.
bench:
	$(GO) test -bench 'BenchmarkEngine|BenchmarkCrawlEngine|BenchmarkRankingPass|BenchmarkCrawlLinkState' -benchtime 5x \
		-benchmem -run '^$$' ./internal/core/ > bench_engine.txt || \
		{ cat bench_engine.txt; rm -f bench_engine.txt; exit 1; }
	$(GO) test -bench 'BenchmarkSimFetch' -benchtime 200000x \
		-benchmem -run '^$$' ./internal/fetch/ >> bench_engine.txt || \
		{ cat bench_engine.txt; rm -f bench_engine.txt; exit 1; }
	$(GO) test -bench 'BenchmarkOptimalAllocation' -benchtime 20x \
		-benchmem -run '^$$' ./internal/freshness/ >> bench_engine.txt || \
		{ cat bench_engine.txt; rm -f bench_engine.txt; exit 1; }
	$(GO) test -bench 'BenchmarkEPIrregular' -benchtime 20000x \
		-benchmem -run '^$$' ./internal/changefreq/ >> bench_engine.txt || \
		{ cat bench_engine.txt; rm -f bench_engine.txt; exit 1; }
	$(GO) test -bench 'BenchmarkSetLinks' -benchtime 200000x \
		-benchmem -run '^$$' ./internal/webgraph/ >> bench_engine.txt || \
		{ cat bench_engine.txt; rm -f bench_engine.txt; exit 1; }
	$(GO) test -bench 'BenchmarkEncodeEntries' -benchtime 5x \
		-benchmem -run '^$$' ./internal/cluster/ >> bench_engine.txt || \
		{ cat bench_engine.txt; rm -f bench_engine.txt; exit 1; }
	$(GO) test -bench 'BenchmarkStore' -benchtime 2000x \
		-benchmem -run '^$$' ./internal/cluster/ >> bench_engine.txt || \
		{ cat bench_engine.txt; rm -f bench_engine.txt; exit 1; }
	$(GO) test -bench 'BenchmarkFrame' -benchtime 2000x \
		-benchmem -run '^$$' ./internal/cluster/ >> bench_engine.txt || \
		{ cat bench_engine.txt; rm -f bench_engine.txt; exit 1; }
	$(GO) test -bench 'BenchmarkApplyRoundRemote' -benchtime 2000x \
		-benchmem -run '^$$' ./internal/cluster/ >> bench_engine.txt || \
		{ cat bench_engine.txt; rm -f bench_engine.txt; exit 1; }
	$(GO) test -bench 'BenchmarkStoreDisk(Get|List50|PutBatch100)' -benchtime 2000x -cpu 2 \
		-benchmem -run '^$$' ./internal/store/ >> bench_engine.txt || \
		{ cat bench_engine.txt; rm -f bench_engine.txt; exit 1; }
	$(GO) test -bench 'BenchmarkStoreDiskReopen' -benchtime 5x -cpu 2 \
		-benchmem -run '^$$' ./internal/store/ >> bench_engine.txt || \
		{ cat bench_engine.txt; rm -f bench_engine.txt; exit 1; }
	$(GO) test -bench 'BenchmarkServeQPS' -benchtime 5x \
		-benchmem -run '^$$' ./internal/serve/ >> bench_engine.txt || \
		{ cat bench_engine.txt; rm -f bench_engine.txt; exit 1; }
	$(GO) test -bench 'BenchmarkServeHotGet' -benchtime 2000x \
		-benchmem -run '^$$' ./internal/serve/ >> bench_engine.txt || \
		{ cat bench_engine.txt; rm -f bench_engine.txt; exit 1; }
	$(GO) test -bench 'BenchmarkFrontierApplyRound' -benchtime 20000x \
		-benchmem -run '^$$' ./internal/frontier/ >> bench_engine.txt || \
		{ cat bench_engine.txt; rm -f bench_engine.txt; exit 1; }
	$(GO) test -bench 'BenchmarkFrontierScale' -benchtime 1x \
		-benchmem -run '^$$' ./internal/frontier/ >> bench_engine.txt || \
		{ cat bench_engine.txt; rm -f bench_engine.txt; exit 1; }
	@cat bench_engine.txt
	$(GO) run ./internal/tools/benchjson < bench_engine.txt > BENCH_engine.json
	@rm -f bench_engine.txt
	@echo wrote BENCH_engine.json

# One iteration per benchmark: a compile-and-run smoke pass over every
# benchmark in the repo, not a measurement. -short skips the minute-long
# 10M frontier-scale case, which `bench` measures for real.
bench-smoke:
	$(GO) test -short -bench . -benchtime=1x -run '^$$' ./...

# The repository's benchmark (bench/, its own module) compiles against
# the packages' public APIs and is what the perf gate runs: vet it, run
# its tests and a ~2 s-per-run smoke set here, so a PR that breaks an API
# it uses fails CI rather than the gate. Leaves bench/out/ (ignored).
bench-check:
	$(GO) vet -C bench .
	$(GO) test -C bench .
	$(GO) run -C bench . -smoke

# The last commit against its parent on one benchmark workload, in
# alternating pairs of driver-form runs (scripts/bench_pairs.sh): per
# end-to-end metric both medians, the parent's IQR, B/A and the pairs
# won; fails if the traced runs' digests, fetches, freshness or age
# differ. `make bench-pairs WORKLOAD=crawl_cluster_disk PAIRS=4 SEED=7`.
WORKLOAD ?= crawl_mem
PAIRS ?= 10
SEED ?= 1999
bench-pairs:
	./scripts/bench_pairs.sh HEAD~1 HEAD -workload $(WORKLOAD) -pairs $(PAIRS) -seed $(SEED)

# The last commit against its parent on one package's Go benchmarks, the
# layer rows of BENCH_engine.json, in alternating pairs of -benchmem runs
# (scripts/layer_pairs.sh): per benchmark row and unit both medians, the
# parent's IQR, B/A and the pairs won.
# `make layer-pairs PKG=./internal/core BENCH=BenchmarkCrawlLinkState PAIRS=5`.
PKG ?= ./internal/cluster
BENCH ?= BenchmarkStore
layer-pairs:
	./scripts/layer_pairs.sh HEAD~1 HEAD -pkg $(PKG) -bench '$(BENCH)' -pairs $(PAIRS)

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Go line counts, as ROADMAP and CHANGES quote them (wc -l over whole
# files): production and test code outside bench/, then bench/ (the
# benchmark's own module). Production outside bench/ is the budget to
# shrink.
loc:
	@echo "production $$(find . -name '*.go' -not -path './bench/*' -not -name '*_test.go' | xargs cat | wc -l)"
	@echo "test       $$(find . -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l)"
	@echo "bench      $$(find bench -name '*.go' | xargs cat | wc -l)"

# Multi-process smoke: two shardd daemons on loopback, then a crawl
# with -shard-servers whose output must be byte-identical to the local
# run.
smoke-cluster:
	./scripts/cluster_smoke.sh

# Multi-process store smoke: a storerd daemon on loopback, crawlsim and
# a live-HTTP webcrawl with -store-server byte-identical to their
# local-store runs, plus collection persistence across a daemon
# restart.
smoke-store:
	./scripts/store_smoke.sh

# Serving-plane smoke: crawl a static site, then serve the repository
# back out through webservd (crawl dir), storerd -serve, and webservd
# -store-server; served bodies must be byte-identical to the site
# files, with working ETag/304s, paged listing, and estimates.
smoke-serve:
	./scripts/serve_smoke.sh

# Flag-wiring sanity for the analytic binaries and crawlsim's two
# other modes: freshsim, webevo and crawlsim's -matrix and -curves
# paths build in CI but had no run coverage, so a refactor of the
# shared packages could break their wiring silently (a -matrix cell
# that core.Config.Validate refuses, say). A reduced workload and a
# zero exit is all this asserts — their numeric output is covered by
# the internal/freshness, internal/experiment and internal/core tests.
smoke-tools:
	$(GO) run ./cmd/freshsim >/dev/null
	$(GO) run ./cmd/webevo -pages 60 -days 30 >/dev/null
	$(GO) run ./cmd/crawlsim -matrix -days 30 -size 200 >/dev/null
	$(GO) run ./cmd/crawlsim -curves -days 30 -size 200 >/dev/null

ci: build vet fmt test-names race fuzz bench-smoke bench-check bench smoke-cluster smoke-store smoke-serve smoke-tools
