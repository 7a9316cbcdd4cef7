GO ?= go

.PHONY: ci build vet test race benchsmoke smoke serve-smoke guard-smoke telemetry-smoke frozen-smoke ambig-smoke cluster-smoke bench metrics lint-corpus

ci: build vet test race smoke serve-smoke benchsmoke guard-smoke telemetry-smoke frozen-smoke ambig-smoke cluster-smoke lint-corpus

build:
	$(GO) build ./...

# Standard vet plus the repo's own checkers (both speak the -vettool
# protocol with stdlib only): nilrecorder enforces the nil-receiver
# guard pattern on exported obs and telemetry methods; guardloop
# requires every potentially unbounded loop in the search and fixpoint
# engines (ambig, cluster, digraph, grammar, glr, treecount) to hit a
# guard.Budget checkpoint or carry an explicit //guardloop:ok waiver.
vet:
	$(GO) vet ./...
	$(GO) build -o bin/nilrecorder ./internal/analyzers/nilrecorder
	$(GO) vet -vettool=$(CURDIR)/bin/nilrecorder ./...
	$(GO) build -o bin/guardloop ./internal/analyzers/guardloop
	$(GO) vet -vettool=$(CURDIR)/bin/guardloop ./...

test:
	$(GO) test ./...

# The concurrent components — the parallel driver, the sharded
# response cache (singleflight, LRU under contention), the server's
# request handling, the shard-merged telemetry histograms, the frozen
# store consulted from request goroutines, the ambiguity walks fanned
# out under forked budgets, and the cluster peer layer (hedged fetches,
# breakers, async offers) — run under the race detector.  The server
# package carries the end-to-end suites the *-smoke targets name (the
# two-life frozen restart, the 3-node fleet with a node killed under
# concurrent load), so those run raced here too.  The digraph
# and prop packages are serial; they stay on the list so that any
# concurrency added to the look-ahead solvers is raced from the start.
race:
	$(GO) test -race ./internal/driver/... ./internal/cache/... ./internal/server/... ./internal/telemetry/... ./internal/digraph/... ./internal/prop/... ./internal/frozen/... ./internal/ambig/... ./internal/cluster/...

# One-iteration pass over every benchmark: catches bit-rot in the bench
# code (and the alloc-regression gates' setup) without paying for real
# measurement.
benchsmoke:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# Smoke-check the instrumented pipeline end to end: the metrics emitter
# exercises LR(0) construction, all look-ahead methods, table build and
# packing on the whole corpus.
smoke:
	$(GO) run ./cmd/lalrbench -quick -metrics-out /dev/null

# The four lalrd smoke targets run named end-to-end httptest suites
# from internal/server and cmd/lalrd.  run-tests fails unless every
# named test ran and passed: a go test -run pattern that matches
# nothing prints "no tests to run" and passes.
empty :=
space := $(empty) $(empty)
run-tests = mkdir -p bin && \
	$(GO) test -v -run '^($(subst $(space),|,$(strip $(1))))$$' ./internal/server/ ./cmd/lalrd/ >bin/$@.log 2>&1 \
		|| { cat bin/$@.log; exit 1; }; \
	for t in $(1); do grep -q "^--- PASS: $$t " bin/$@.log || { echo "$@: $$t did not run"; exit 1; }; done; \
	echo "$@: $(words $(1)) tests passed"

# Serving smoke (DESIGN.md § 10): cold request, cache hit with a
# byte-identical body, lint hit, /metricz accounting, a 422 limit trip
# the server survives, a tiny evicting cache that never corrupts, flag
# plumbing, and lalrd's real serve path booting and draining on SIGTERM.
SERVE_SMOKE_TESTS = TestHealthz TestAnalyzeCacheHitByteIdentical TestLintEndpointCached \
	TestLimitTripIs422AndServerSurvives TestTinyCacheEvictionIsNotCorruption \
	TestFlagErrors TestServeHonorsCacheFlags TestServeGracefulShutdown
serve-smoke:
	@$(call run-tests,$(SERVE_SMOKE_TESTS))

# Telemetry smoke (DESIGN.md § 11): request-id echo, trace retrieval by
# id, Prometheus exposition through the strict validator, /metricz
# latency digests, build info, JSON access-log records.
TELEMETRY_SMOKE_TESTS = TestRequestIDHeaderOnEveryResponse TestTraceRoundTripByRequestID \
	TestMetriczPromExposition TestMetriczJSONTelemetrySections TestHealthzUptimeAndBuild \
	TestAccessLogJSONRecords
telemetry-smoke:
	@$(call run-tests,$(TELEMETRY_SMOKE_TESTS))

# Frozen-store smoke (DESIGN.md § 12): two Server lives on one store
# directory — the restart answers X-Repro-Cache: frozen with a
# byte-identical body and zero analysis phases, only under the filename
# the body was frozen for; a corrupt table is quarantined and re-frozen.
FROZEN_SMOKE_TESTS = TestFrozenRestart TestFrozenRestartUnderNewFilename TestQuarantineAndRefreezeOnServe
frozen-smoke:
	@$(call run-tests,$(FROZEN_SMOKE_TESTS))

# Governance smoke (DESIGN.md § 9): the limit-trip, cancellation and
# fault-injection tests (the driver ones under -race), then a bounded
# corpus run of lalrbench — tight -max-states must abort with a typed
# guard error (nonzero exit) without -keep-going, and exit clean with
# it.
guard-smoke:
	$(GO) test -run 'TestAnalyze(CanonicalLimitTrip|LR0LimitTrip|PreCancelledContext|HostileUnitChainDeadline|CancelMidRun|AllInjectedPanicIsolation|AllFailFastStops)|TestLintGoverned|FuzzAnalyze' .
	$(GO) test ./internal/guard/
	$(GO) test -race -run 'TestRunCollectErrorOrderDeterministic|TestRunFailFastCancelsRest|TestRunRecoversPanic' ./internal/driver/
	$(GO) build -o bin/lalrbench ./cmd/lalrbench
	./bin/lalrbench -quick -timeout 5s -max-states 64 -metrics-out /dev/null 2>bin/guard-smoke.err; \
		test $$? -ne 0 && grep -q 'guard:' bin/guard-smoke.err
	./bin/lalrbench -quick -timeout 5s -max-states 64 -keep-going -metrics-out /dev/null

bench:
	$(GO) test -bench . -benchtime 1x ./...

# Fleet smoke (DESIGN.md § 14): a 3-node fleet replays the corpus under
# concurrent load and one node is killed — zero client-visible errors,
# byte-identical bodies, peer fills, a tripped breaker for the dead
# node — plus partition equivalence, filename-checked fills, and
# /readyz flipping on drain.
CLUSTER_SMOKE_TESTS = TestClusterNodeKill TestClusterPeerFill TestPeerFillUnderNewFilename \
	TestClusterPartitionEquivalence TestReadyzLifecycle TestDrainUnderLoad
cluster-smoke:
	@$(call run-tests,$(CLUSTER_SMOKE_TESTS))

# Ambiguity smoke (DESIGN.md § 13): the prover must reach both proven
# verdicts on the canonical pair — dangling-else is a true ambiguity
# (GL040, witness confirmed by both oracles), not-lalr is an LALR(1)
# inadequacy only (GL041, search space exhausted) — and the report must
# be byte-identical serial vs parallel.
ambig-smoke:
	$(GO) build -o bin/grammarlint ./cmd/grammarlint
	./bin/grammarlint -corpus dangling-else,not-lalr -parallel 1 > bin/ambig-smoke-1.txt
	./bin/grammarlint -corpus dangling-else,not-lalr -parallel 4 > bin/ambig-smoke-4.txt
	cmp bin/ambig-smoke-1.txt bin/ambig-smoke-4.txt
	grep -q 'GL040.*proven ambiguity' bin/ambig-smoke-1.txt
	grep -q 'GL041.*not an ambiguity' bin/ambig-smoke-1.txt

# Gate the corpus on the grammar linter: every corpus grammar is linted
# against its registry-pinned conflict budget; any error-severity
# finding (new conflicts, budget drift, reads cycles, useless symbols
# promoted by -Werror) fails the build.
lint-corpus:
	$(GO) run ./cmd/grammarlint -Werror -severity=error

# Regenerate the committed metrics snapshot.
metrics:
	$(GO) run ./cmd/lalrbench -quick -metrics-out BENCH_core.json
