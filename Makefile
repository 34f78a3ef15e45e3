GO ?= go

.PHONY: all build vet fmt test test-cores test-txn test-repl race race-bench bench bench-e2e-smoke bench-compare bench-smoke bench-scaling bench-recovery bench-txn bench-txn-smoke bench-net bench-net-smoke bench-net-pipeline bench-alter bench-alter-smoke bench-repl bench-repl-smoke fuzz-alter check

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

# storage and exec at a core count the sandbox does not have: nothing
# they assert (shard count, hint caps, page counts) may depend on it.
test-cores:
	GOMAXPROCS=8 $(GO) test -count=1 ./internal/storage/ ./internal/exec/

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
# modes so the zero-leak drain holds with pipelining on AND off.
bench-net-smoke:
	$(GO) run ./cmd/mtdbench -net -net-smoke
	$(GO) run ./cmd/mtdbench -net -net-smoke -net-pipeline=false

# Pipelining ablation: the full -net sweep with one Batch frame per
# action vs one round trip per statement, side by side.
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
	$(GO) test ./internal/sql/ -fuzz FuzzParseAlter -fuzztime 20s

check: build vet fmt test test-cores race race-bench bench-smoke
