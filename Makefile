GO ?= go

.PHONY: all build vet fmt test examples loc test-cores test-txn test-repl race race-bench bench bench-e2e-smoke bench-compare bench-smoke bench-scaling bench-recovery bench-txn bench-txn-smoke bench-net bench-net-smoke bench-net-pipeline bench-alter bench-alter-smoke bench-repl bench-repl-smoke fuzz-alter fuzz-shape fuzz-frame fuzz-btree fuzz-node fuzz-tree fuzz-join fuzz-page fuzz-wal fuzz-keys fuzz-onepage check

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt -l prints the files it would rewrite; any name is a failure.
fmt:
	@test -z "$$(gofmt -l .)" || (gofmt -l . && exit 1)

test:
	$(GO) test ./...

# Run the five example programs; each exits non-zero on a failure (CI
# runs this: under a second together once built). They drive the layout
# constructors, ExtendTenant, RemoveTenant, Placement and the Mover.
EXAMPLES = crmservice layoutcompare migration quickstart schemaevolution
examples:
	@for e in $(EXAMPLES); do echo "== examples/$$e"; $(GO) run ./examples/$$e || exit 1; done

# Go line counts, for the record (CI prints them; nothing gates on them):
# non-test Go outside bench/ — the figure ROADMAP tracks — the same for
# internal/core, and test Go. Hidden directories (.git, bench output)
# are skipped.
GO_FILES = find . -path './.*' -prune -o -name '*.go'
loc:
	@echo "non-test Go outside bench/:   $$($(GO_FILES) ! -name '*_test.go' ! -path './bench/*' -print | xargs cat | wc -l)"
	@echo "non-test Go in internal/core: $$($(GO_FILES) ! -name '*_test.go' -path './internal/core/*' -print | xargs cat | wc -l)"
	@echo "test Go:                      $$($(GO_FILES) -name '*_test.go' -print | xargs cat | wc -l)"

# storage, exec and core at a core count the sandbox does not have:
# nothing they assert (shard count, hint caps, page counts) may depend on
# it, and a compiled statement's tree free list, which every tenant of
# its shape shares, must hold up with eight sessions running at once.
# engine and modeltest too: every write, autocommit or not, runs the
# latch-free conflict wait and the commit pipeline, whose interleavings
# depend on the core count.
test-cores:
	GOMAXPROCS=8 $(GO) test -count=1 ./internal/storage/ ./internal/exec/ ./internal/core/ ./internal/engine/ ./internal/modeltest/

# The interactive-transaction suite: engine anomaly/interleaving tests,
# the model-differential harness on its three fixed seeds (1, 2, 3), and
# the multi-statement-transaction crash-point sweep.
test-txn:
	$(GO) test ./internal/engine/ -run 'TestTxn|TestStmtRollback'
	$(GO) test ./internal/modeltest/ -run TestDifferentialSeeds -v
	$(GO) test ./internal/wal/ -run TestTxnCrashPointSweep

# The replication torture suite: primary- and follower-side crash-point
# sweeps (every append/ship/apply site), the lag/consistency property
# test across a mid-stream ALTER, the WAL tail-read race regressions,
# and the model-differential harness checked against a live follower.
test-repl:
	$(GO) test ./internal/repl/
	$(GO) test ./internal/wal/ -run 'TestCursor|TestReadDurable|TestIngest'
	$(GO) test ./internal/modeltest/ -run TestDifferentialReplica -v

race:
	$(GO) test -race ./...

# Race detector over the multi-session benchmark path: one iteration of
# every session count of the scaling sweep with -race enabled.
race-bench:
	$(GO) test -race -run NONE -bench BenchmarkMultiSessionScaling -benchtime 1x .

# The repository's one benchmark (BENCHMARK.json, bench/README.md): four
# workloads, 15 s measured windows, results under .bench_out/.
bench:
	$(GO) run ./bench

# The same program on shrunken beds: every correctness check in under
# ten seconds (CI runs this).
bench-e2e-smoke:
	$(GO) run ./bench -smoke

# Compare two result files or directories, A the baseline and B the
# change: medians, delta, bound, spread and a verdict per workload ×
# end-to-end metric; exits non-zero on a regression.
bench-compare:
	$(GO) run ./bench -compare $(A) $(B)

# One iteration of every benchmark: keeps benchmark code compiling and
# running without paying for full measurement (CI runs this). Among
# them the two that two sessions need to show anything:
# BenchmarkFetchResidentParallel (storage) and BenchmarkQ2Warm/parallel2
# (chunkexp).
bench-smoke:
	$(GO) test -run=XXX -bench=. -benchtime=1x . ./internal/btree/ ./internal/chunkexp/ ./internal/core/ ./internal/engine/ ./internal/storage/

# Regenerate BENCH_1.json (the machine-readable multi-session sweep).
bench-scaling:
	$(GO) run ./cmd/mtdbench -scaling -tenants 120 -rows 12 -actions 800 \
		-mem-mb 2 -latency 500us -json-out BENCH_1.json

# Regenerate BENCH_4.json (commit latency with/without group commit and
# recovery time vs checkpoint interval).
bench-recovery:
	$(GO) run ./cmd/mtdbench -recovery -json-out BENCH_4.json

# Regenerate BENCH_5.json (interactive transactions: commits/sec,
# conflict-abort rate, and p50/p99 commit latency vs session count).
bench-txn:
	$(GO) run ./cmd/mtdbench -txn -json-out BENCH_5.json

# Reduced -txn sweep (CI regression canary): exercises the full
# bench path in seconds and writes its JSON to the system temp dir.
bench-txn-smoke:
	$(GO) run ./cmd/mtdbench -txn -txn-smoke

# Regenerate BENCH_6.json (the CRM workload over the wire protocol:
# commits/sec, statements/sec, and p50/p99 whole-action latency at
# 64/256/1024 concurrent connections, plus the zero-leak drain check).
bench-net:
	$(GO) run ./cmd/mtdbench -net -json-out BENCH_6.json

# Reduced -net sweep (CI regression canary): the full network path —
# dial, handshake, auth, wire transactions, drain invariant — in
# seconds, writing its JSON to the system temp dir. Runs both frame
# modes so the zero-leak drain holds with pipelining on AND off: one
# Batch frame per action, or a one-statement Batch per statement.
bench-net-smoke:
	$(GO) run ./cmd/mtdbench -net -net-smoke
	$(GO) run ./cmd/mtdbench -net -net-smoke -net-pipeline=false

# Pipelining ablation: the full -net sweep with one Batch frame per
# action vs one one-statement Batch (one round trip) per statement,
# side by side.
bench-net-pipeline:
	$(GO) run ./cmd/mtdbench -net -json-out BENCH_6.json
	$(GO) run ./cmd/mtdbench -net -net-pipeline=false -json-out BENCH_6_nopipeline.json

# Regenerate BENCH_7.json (online schema evolution: CRM steady-state
# throughput before/during/after ALTERing every physical table and
# live-moving one tenant to another layout; target is a <10% dip).
bench-alter:
	$(GO) run ./cmd/mtdbench -alter -json-out BENCH_7.json

# Reduced -alter sweep (CI regression canary): the full churn path —
# online ALTERs, background backfill, the tenant move and its cutover —
# in under two seconds, writing its JSON to the system temp dir.
bench-alter-smoke:
	$(GO) run ./cmd/mtdbench -alter -alter-smoke

# Regenerate BENCH_8.json (WAL-shipping replication: routed read
# scaling over 0-3 replicas under a primary write load, plus replica
# catch-up after a 10k-commit backlog with lag converging to zero).
bench-repl:
	$(GO) run ./cmd/mtdbench -repl -json-out BENCH_8.json

# Reduced -repl sweep (CI regression canary): the full replication
# path — wire-protocol snapshot bootstrap, frame shipping, routed
# follower reads, ack telemetry — in seconds, writing its JSON to the
# system temp dir. The run itself asserts lag converges to 0 and the
# caught-up replica agrees with the primary.
bench-repl-smoke:
	$(GO) run ./cmd/mtdbench -repl -repl-smoke

# Short fuzz burst over the ALTER grammar: the parser must never panic
# and every accepted ALTER must round-trip through String().
fuzz-alter:
	$(GO) test ./internal/sql/ -run '^$$' -fuzz FuzzParseAlter -fuzztime 10s

# Short fuzz burst at the text the rewrite cache scans, as it arrives from
# the wire: the one-pass scan agrees with Parse and ExtractParams, a text
# of the same shape binds its own literals into the same template, a text
# holding the marker byte has no shape, every accepted statement
# round-trips through String() and keeps the tree walk's contract, and
# every accepted SELECT's unnest (sql.Unnest) leaves it as it was, is
# idempotent, and round-trips through String().
fuzz-shape:
	$(GO) test ./internal/sql/ -run '^$$' -fuzz FuzzStatementShape -fuzztime 10s

# Short fuzz burst over the wire's trust boundary: the frame splitter
# and message decoder must never panic or over-allocate, and every
# decoded message must re-encode to a fixed point.
fuzz-frame:
	$(GO) test ./internal/protocol/ -run '^$$' -fuzz FuzzDecodeFrame -fuzztime 10s

# Short fuzz burst at the B+tree's held leaf: one iterator sought through
# random point and range seeks must return what a fresh SeekRange does.
fuzz-btree:
	$(GO) test ./internal/btree/ -run '^$$' -fuzz FuzzSeekSequence -fuzztime 10s

# Short fuzz burst at the B+tree node page: random insert, remove, compact
# and split sequences on both leaf kinds and on inner nodes, each held to
# a sorted model, every directory offset inside the page, every split at
# the point its rule names (the byte midpoint, or the end of a run).
fuzz-node:
	$(GO) test ./internal/btree/ -run '^$$' -fuzz FuzzNodeOps -fuzztime 10s

# Short fuzz burst at a whole tree over a buffer pool: interleaved
# ascending runs, random keys and deletes on small pages, whose leaf
# splits take their bounding keys from real paths, each batch held to a
# sorted model (scan, Get, and every page reachable once).
fuzz-tree:
	$(GO) test ./internal/btree/ -run '^$$' -fuzz FuzzTreeInsertRuns -fuzztime 10s

# Short fuzz burst at joins that grow outer rows in place: random small
# tables joined by index-NL, hash and NL joins, inner and LEFT, chained,
# through a guarded tree, each result held to a nested loop.
fuzz-join:
	$(GO) test ./internal/exec/ -run '^$$' -fuzz FuzzJoinRows -fuzztime 10s

# Short fuzz burst at the slotted page: random Insert, InsertAt, Update,
# Delete and Compact sequences on one page, held after every operation
# to a map of slot -> bytes.
fuzz-page:
	$(GO) test ./internal/storage/ -run '^$$' -fuzz FuzzSlottedPage -fuzztime 10s

# Short fuzz burst at the WAL frame decoder recovery and replica ingest
# run over durable bytes: it must never panic, its end must cover whole
# frames only, and decoding just those bytes must give the same records.
fuzz-wal:
	$(GO) test ./internal/wal/ -run '^$$' -fuzz FuzzDecodeFrames -fuzztime 10s

# Short fuzz burst at the index key encoding: two values of a fuzzed kind
# and bit pattern, each followed by a second key column, whose keys must
# order as Compare orders the values, and be one byte string exactly
# when Compare calls them equal; Compare is held to exact arithmetic.
fuzz-keys:
	$(GO) test ./internal/types/ -run '^$$' -fuzz FuzzEncodeKeyOrder -fuzztime 10s

# Short fuzz burst at an index with no tree: rows of NULL, NaN, both
# zeros, INT and FLOAT spellings of one number and strings that share
# prefixes on a one-page table with a unique and a non-unique index;
# every range, equality, index-NL probe and unique refusal held to a
# filtered heap scan, before the heap grows a second page and after.
fuzz-onepage:
	$(GO) test ./internal/engine/ -run '^$$' -fuzz FuzzOnePageIndex -fuzztime 10s

check: build vet fmt test test-cores race race-bench bench-smoke
