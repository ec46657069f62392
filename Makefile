GO ?= go

# Benchmark knobs: COUNT repeats each benchmark so benchjson can average
# out scheduler noise before judging the journaling-overhead budget.
BENCH_COUNT ?= 3
BENCH_TIME  ?= 50000x
BENCH_OUT   ?= BENCH_journal.json

# Dispatch-scaling knobs: each iteration pays the simulated 2ms service
# time, so the iteration count stays small; benchjson -require-scaling
# fails the target unless Workers=4 delivers >= 2x over Workers=1.
DISPATCH_COUNT ?= 3
DISPATCH_TIME  ?= 300x
DISPATCH_OUT   ?= BENCH_dispatch.json

# Audit knobs: a small figure-8 mobility run (both protocols, well over
# ten movements) whose journal the offline auditor must certify.
AUDIT_JOURNAL ?= /tmp/padres-audit-run.jsonl
AUDIT_FLAGS   ?= -fig 8 -clients 12 -duration 3s

# Reliability-overhead knobs: each run interleaves the reliable/best-effort
# testbeds in chunks and reports noise-trimmed per-mode costs; benchjson
# takes the median over RELIABILITY_COUNT runs before judging the 5%
# loss-free overhead budget.
RELIABILITY_COUNT ?= 15
RELIABILITY_TIME  ?= 262144x
RELIABILITY_OUT   ?= BENCH_reliability.json

# Chaos-soak knobs: a fixed seed keeps the loss/dup/reorder/partition and
# crash schedules reproducible run to run. CHAOS_DATA is the broker
# durable-store root for the recovery soak (wiped at the start of each run).
CHAOS_SEED  ?= 7
CHAOS_MOVES ?= 200
CHAOS_DATA  ?= /tmp/padres-chaos-data

# WAL-overhead knobs: the benchmark interleaves durable and in-memory
# dispatch testbeds; benchjson takes the median over WAL_COUNT runs before
# judging the 5% group-commit overhead budget.
WAL_COUNT ?= 7
WAL_TIME  ?= 20000x
WAL_OUT   ?= BENCH_wal.json

# Telemetry-overhead knobs: the benchmark interleaves an instrumented and a
# bare (stage timing off) broker; benchjson takes the median
# over TELEMETRY_COUNT runs before judging the 5% observability budget.
TELEMETRY_COUNT ?= 7
TELEMETRY_TIME  ?= 20000x
TELEMETRY_OUT   ?= BENCH_telemetry.json

# Match-scaling knobs: the matching benchmarks sweep subscription counts
# (1k vs 100k) through the counting index and the covering posting lists;
# benchjson -require-match fails the target unless 100k costs at most 2x
# 1k per match with an allocation-free hot path, and the intersection
# query stays sublinear.
MATCH_COUNT ?= 3
MATCH_TIME  ?= 20000x
MATCH_OUT   ?= BENCH_match.json

# Replication-overhead knobs: the benchmark shuttles one subscriber across
# the five-hop b1<->b13 corridor in an R=1 deployment and an R=3/W=2 one,
# interleaved in chunks; benchjson takes the median over REPLICATION_COUNT
# runs before judging the 5% move-latency budget. Each op is a full
# movement transaction (~tens of ms), so the iteration count stays small.
REPLICATION_COUNT ?= 7
REPLICATION_TIME  ?= 40x
REPLICATION_OUT   ?= BENCH_replication.json

# Sim knobs: the `sim` target sweeps SIM_SEEDS consecutive seeds of a
# SIM_BROKERS-broker scripted catastrophe (publication storms + thundering
# move herds + rolling partitions + staggered coordinator kills) in fully
# simulated time, runs every seed twice, and fails unless each seed's
# journal audits clean and reproduces byte-identically. bench-sim gates the
# clock seam: every hot-path time read goes through sim.Clock, and the
# indirection must cost the real-time dispatch path <= 5%.
SIM_SEED    ?= 1
SIM_SEEDS   ?= 10
SIM_BROKERS ?= 500
SIM_COUNT   ?= 5
SIM_TIME    ?= 10000x
SIM_OUT     ?= BENCH_sim.json

# Audit-stream knobs: the benchmark interleaves a journaled dispatch
# pipeline with and without a live journal tap subscribed; benchjson takes
# the median over AUDIT_STREAM_COUNT runs before judging the 5% budget on
# what serving /journal/stream costs the hot path.
AUDIT_STREAM_COUNT ?= 7
AUDIT_STREAM_TIME  ?= 20000x
AUDIT_STREAM_OUT   ?= BENCH_audit.json

# Pair-run knobs: bench-pairs judges the working tree against PAIRS_BASE (any
# git ref) on one workload of the benchmark, PAIRS_N alternating pairs.
PAIRS_BASE     ?= HEAD
PAIRS_WORKLOAD ?= overlay_pub
PAIRS_N        ?= 10

.PHONY: all vet build test bench-test bench-smoke bench-pairs race flake ci bench bench-dispatch bench-reliability bench-wal bench-telemetry bench-audit-stream bench-match bench-replication bench-sim audit chaos chaos-recovery chaos-coordinator sim loc

all: ci

# vet also fails on any file gofmt would rewrite (bench/ is a module of
# its own and is checked with it).
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l . | grep -v '^\.bench_build/'); \
		if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench-test runs the benchmark harness's own tests (unit tests plus a
# 200 ms smoke of every rig). bench/ is a module of its own, so the root
# `go test ./...` cannot see it.
bench-test:
	cd bench && $(GO) test ./...

# bench-smoke runs BENCHMARK.json's own command — bench/run.sh, its own
# module built offline — on every workload at BENCHMARK.json's 20 s length
# and fails on a non-zero exit, an incorrect run or a failed operation.
# bench-test's 200 ms rig smoke never goes through run.sh or its per-window
# sample minimums. Two to four minutes, so it is not part of ci.
bench-smoke:
	bash scripts/bench-smoke.sh

# bench-pairs is how a performance change is judged before it is proposed
# (bench/README.md, "End-to-end metrics"): the driver's own command on the base
# ref and on the working tree, alternating which side runs first, then both
# medians, both interquartile ranges and the pairs won per end-to-end
# metric. About 13 minutes per workload, so it is not part of ci.
bench-pairs:
	bash scripts/bench-pairs.sh $(PAIRS_BASE) $(PAIRS_WORKLOAD) $(PAIRS_N)

race:
	$(GO) test -race ./...

# flake holds the three tier-1 tests that once failed by scheduling
# (ROADMAP item 2(a)) to their gate: 200 consecutive passes each under the
# race detector. A failure here is a product defect, not a test to relax.
flake:
	$(GO) test -race -count=200 -run '^TestJournalConcurrentAppend$$' ./internal/journal
	$(GO) test -race -count=200 -run '^TestStreamLiveStatusOnWorkload$$' ./internal/audit
	$(GO) test -race -count=200 -run '^TestCloseReleasesQueued$$' ./internal/transport

# bench runs the hot-path benchmarks (matching, broker dispatch, journal
# append) and emits $(BENCH_OUT); benchjson fails the target when the
# flight recorder's dispatch overhead exceeds its 5% budget. The bench
# regex deliberately skips DispatchScaling — its simulated service time
# would dwarf the 50000x hot-path runs; bench-dispatch covers it.
bench: bench-dispatch
	$(GO) test ./internal/matching/ ./internal/broker/ ./internal/journal/ \
		-run '^$$' -bench 'PRT|SRT|Journal|Clock|BrokerDispatch' \
		-benchtime $(BENCH_TIME) -count $(BENCH_COUNT) \
		| tee bench.out.txt
	$(GO) run ./cmd/benchjson -out $(BENCH_OUT) bench.out.txt
	@echo "wrote $(BENCH_OUT)"

# bench-dispatch measures publication-dispatch throughput at matching
# widths 1/2/4/8 under the fig-8-style per-message service
# time and emits $(DISPATCH_OUT); benchjson exits non-zero unless
# Workers=4 beats Workers=1 by at least 2x. It measures the cost model (a
# run of publications pays one ServiceTime), not matching: with
# ServiceTime=0 the fan-out is slower than serial (ROADMAP item 2 (iv)).
bench-dispatch:
	$(GO) test ./internal/broker/ -run '^$$' -bench '^BenchmarkDispatchScaling$$' \
		-benchtime $(DISPATCH_TIME) -count $(DISPATCH_COUNT) \
		| tee bench-dispatch.out.txt
	$(GO) run ./cmd/benchjson -require-scaling -out $(DISPATCH_OUT) bench-dispatch.out.txt
	@echo "wrote $(DISPATCH_OUT)"

# bench-reliability measures what the ack/retransmit layer costs the
# control-plane dispatch path on a loss-free link and emits
# $(RELIABILITY_OUT); benchjson exits non-zero when the median overhead
# exceeds the 5% budget or the benchmark is missing.
bench-reliability:
	$(GO) test ./internal/transport/ -run '^$$' -bench '^BenchmarkReliabilityOverhead$$' \
		-benchtime $(RELIABILITY_TIME) -count $(RELIABILITY_COUNT) \
		| tee bench-reliability.out.txt
	$(GO) run ./cmd/benchjson -require-reliability -out $(RELIABILITY_OUT) bench-reliability.out.txt
	@echo "wrote $(RELIABILITY_OUT)"

# bench-wal measures what enabling the write-ahead log costs the broker's
# publication dispatch path under a realistic routing-churn mix and emits
# $(WAL_OUT); benchjson exits non-zero when the median overhead exceeds the
# 5% budget or the benchmark is missing.
bench-wal:
	$(GO) test ./internal/broker/ -run '^$$' -bench '^BenchmarkWALOverhead$$' \
		-benchtime $(WAL_TIME) -count $(WAL_COUNT) \
		| tee bench-wal.out.txt
	$(GO) run ./cmd/benchjson -require-wal -out $(WAL_OUT) bench-wal.out.txt
	@echo "wrote $(WAL_OUT)"

# bench-telemetry measures what the latency observatory's per-stage
# instrumentation costs the dispatch hot path (clock reads for the
# inbox-wait and match timers) and emits $(TELEMETRY_OUT);
# benchjson exits non-zero when the median overhead exceeds the 5% budget
# or the benchmark is missing — observability must not distort what it
# observes.
bench-telemetry:
	$(GO) test ./internal/broker/ -run '^$$' -bench '^BenchmarkTelemetryOverhead$$' \
		-benchtime $(TELEMETRY_TIME) -count $(TELEMETRY_COUNT) \
		| tee bench-telemetry.out.txt
	$(GO) run ./cmd/benchjson -require-telemetry -out $(TELEMETRY_OUT) bench-telemetry.out.txt
	@echo "wrote $(TELEMETRY_OUT)"

# bench-audit-stream measures what a live journal tap (the wiring behind
# /journal/stream and the fleet auditor) costs the publication dispatch
# path on top of journaling itself, and emits $(AUDIT_STREAM_OUT);
# benchjson exits non-zero when the median overhead exceeds the 5% budget
# or the benchmark is missing — live auditing must not distort the
# dispatch path it verifies.
bench-audit-stream:
	$(GO) test ./internal/broker/ -run '^$$' -bench '^BenchmarkAuditStreamOverhead$$' \
		-benchtime $(AUDIT_STREAM_TIME) -count $(AUDIT_STREAM_COUNT) \
		| tee bench-audit-stream.out.txt
	$(GO) run ./cmd/benchjson -require-audit -out $(AUDIT_STREAM_OUT) bench-audit-stream.out.txt
	@echo "wrote $(AUDIT_STREAM_OUT)"

# bench-match is the matching-engine scale gate: the counting match and
# the covering/intersection index at 1k vs 100k subscriptions, with
# -benchmem so the zero-allocation hot-path budget is enforced. benchjson
# -require-match exits non-zero when 100k subscriptions cost more than 2x
# 1k per match, the hot path allocates, or intersection goes superlinear.
bench-match:
	$(GO) test ./internal/matching/ -run '^$$' \
		-bench 'BenchmarkPRTMatch|BenchmarkPRTIntersecting' \
		-benchtime $(MATCH_TIME) -count $(MATCH_COUNT) -benchmem \
		| tee bench-match.out.txt
	$(GO) run ./cmd/benchjson -require-match -out $(MATCH_OUT) bench-match.out.txt
	@echo "wrote $(MATCH_OUT)"

# bench-replication measures what quorum-replicating coordinator decisions
# costs the movement hot path: R=1 (no remote round) vs R=3/W=2 (pipelined
# quorum) move latency across the five-hop corridor, and emits
# $(REPLICATION_OUT); benchjson exits non-zero when the median overhead
# exceeds the 5% budget or the benchmark is missing.
bench-replication:
	$(GO) test ./internal/cluster/ -run '^$$' -bench '^BenchmarkReplicationOverhead$$' \
		-benchtime $(REPLICATION_TIME) -count $(REPLICATION_COUNT) \
		| tee bench-replication.out.txt
	$(GO) run ./cmd/benchjson -require-replication -out $(REPLICATION_OUT) bench-replication.out.txt
	@echo "wrote $(REPLICATION_OUT)"

# chaos runs the seeded soak: CHAOS_MOVES movement transactions under
# randomized loss/duplication/reordering/partitions plus broker crash and
# freeze schedules, with the race detector on. The journal is replayed
# through the offline auditor and the target fails on any violation of the
# paper's mobility properties (exactly-once delivery, 3PC phase order,
# abort atomicity).
chaos:
	$(GO) run -race ./cmd/experiments -chaos -seed $(CHAOS_SEED) -moves $(CHAOS_MOVES)

# chaos-recovery is the durability gate: the same seeded soak, but every
# broker persists to a write-ahead log + snapshots under $(CHAOS_DATA), the
# crash schedule also hits backbone brokers mid-movement, and each crashed
# broker restarts from its own disk state — recovering routing tables and
# resolving in-doubt movement transactions via the recovery query protocol.
# The audit holds restarted sites to the full convergence properties.
chaos-recovery:
	$(GO) run -race ./cmd/experiments -chaos -seed $(CHAOS_SEED) -moves $(CHAOS_MOVES) -data-dir $(CHAOS_DATA)

# chaos-coordinator is the replication gate: the same seeded soak, but every
# 12th move's TARGET COORDINATOR is crash-stopped mid-phase — cycling
# through the 3PC phases, including right after the quorum-replicated
# commit decision — and is NEVER restarted. Quorum replication must carry
# every decision to a write quorum before it acts, and lease-based standby
# takeover must finish every in-doubt move; the run fails unless at least
# one killed-coordinator move committed via takeover, no broker restarted,
# and the audit found zero violations.
chaos-coordinator:
	$(GO) run -race ./cmd/experiments -chaos -seed $(CHAOS_SEED) -moves $(CHAOS_MOVES) -kill-coordinator 12

# audit records a mobility experiment to a JSONL journal, then replays it
# through the auditor; padres-audit exits non-zero on any violation of the
# paper's mobility properties, failing the target. -stream makes the same
# run the arrival-order gate as well: the journal is fed again as shuffled
# per-site chunks, and every interleaving must finalize to exactly the
# in-order report.
audit:
	$(GO) run ./cmd/experiments $(AUDIT_FLAGS) -journal $(AUDIT_JOURNAL)
	$(GO) run ./cmd/padres-audit -stream $(AUDIT_JOURNAL)

ci: vet build race

# sim is the determinism gate: a seed sweep of scripted catastrophes at
# SIM_BROKERS brokers, entirely in simulated time on one goroutine. Every
# seed must audit clean against the paper's mobility properties AND
# reproduce its journal byte for byte when re-run; a failing seed is
# printed as a reproducer command line.
sim:
	$(GO) run ./cmd/padres-sim -seed $(SIM_SEED) -seeds $(SIM_SEEDS) -brokers $(SIM_BROKERS) -verify-determinism

# bench-sim measures what the simulator's clock seam costs the real-time
# dispatch path (every hot-path Now/Since goes through the sim.Clock
# interface now) plus the virtual event loop's raw throughput, and emits
# $(SIM_OUT); benchjson exits non-zero when the seam's median overhead
# exceeds the 5% budget or the benchmark is missing.
bench-sim:
	$(GO) test ./internal/broker/ -run '^$$' -bench '^BenchmarkSimClockOverhead$$' \
		-benchtime $(SIM_TIME) -count $(SIM_COUNT) \
		| tee bench-sim.out.txt
	$(GO) test ./internal/sim/ -run '^$$' -bench 'BenchmarkSimEventLoop|BenchmarkSimTimerChurn' \
		-benchtime 200000x | tee -a bench-sim.out.txt
	$(GO) run ./cmd/benchjson -require-sim -out $(SIM_OUT) bench-sim.out.txt
	@echo "wrote $(SIM_OUT)"

# loc prints the tracked size number: non-test Go lines per top-level
# package (root, bench, cmd/*, examples/*, internal/*) and in total.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' | xargs wc -l \
		| awk '$$2 != "total" { n = split($$2, p, "/"); \
			pkg = n == 2 ? "." : n == 3 ? p[2] : p[2] "/" p[3]; loc[pkg] += $$1; total += $$1 } \
			END { for (k in loc) printf "%7d %s\n", loc[k], k | "sort -k2"; close("sort -k2"); \
			printf "%7d total\n", total }'
