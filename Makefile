GO ?= go

.PHONY: help build test vet race smoke-multicell smoke-parallel smoke-served load-smoke check sweep bench bench-smoke bench-json bench-city bench-load soak fuzz-smoke soak-served soak-load

# help lists the public targets. check is the pre-commit gate; soak is the
# nightly chaos run and is deliberately NOT part of check.
help:
	@echo "build           compile everything"
	@echo "test            run the unit suite"
	@echo "vet             go vet"
	@echo "race            race-detector pass over the concurrent packages"
	@echo "smoke-multicell multi-cell topology smoke under -race"
	@echo "smoke-parallel  epoch-parallel engine smoke under -race: chaos at P=1 vs P=NumCPU"
	@echo "smoke-served    wdcserved conformance under -race: DES model as lock-step oracle"
	@echo "load-smoke      wall-clock load harness smoke under -race: small fleets, all algorithms"
	@echo "check           pre-commit gate: build + vet + race + smoke-multicell + smoke-parallel + smoke-served + load-smoke"
	@echo "sweep           regenerate the full evaluation into results/"
	@echo "bench           full benchmark archive run"
	@echo "bench-smoke     CI-sized benchmark subset"
	@echo "bench-json      refresh BENCH_1.json and enforce the 15% perf ratchet"
	@echo "bench-city      refresh BENCH_2.json: clients x cells scaling curve with RSS gate"
	@echo "bench-load      refresh BENCH_3.json: wall-clock fleet latency sweep with p99 ratchet"
	@echo "fuzz-smoke      30s native-fuzz pass over each wire-decoder target"
	@echo "soak            long randomized chaos/fault run under -race (nightly job)"
	@echo "soak-served     nightly served-mode chaos leg: conformance with report loss and query timeouts"
	@echo "soak-load       nightly load leg: larger fleets against a spawned binary, p99 ratchet armed"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The sweep scheduler is the only concurrent code in the repository; race
# runs its packages (and the core pool they drive) under the race detector.
race:
	$(GO) test -race ./internal/core ./internal/experiment

# smoke-multicell exercises the sharded multi-cell topology (handoffs, the
# single-cell equivalence goldens, worker-count invariance) under the race
# detector.
smoke-multicell:
	$(GO) test -race -run 'MultiCell|Handoff|SingleCellMatchesLegacy' ./internal/core ./internal/topology

# smoke-parallel exercises the epoch-synchronized parallel engine under the
# race detector: multi-cell chaos runs whose fingerprints must be
# byte-identical at every lane worker count (P=1 through P=NumCPU via
# ParallelWorkers=0), plus pulse accounting and fail-fast cancellation.
smoke-parallel:
	$(GO) test -race -run 'Parallel|CellWorkers' -count=1 ./internal/core ./internal/experiment

# smoke-served runs the served-mode conformance oracle under the race
# detector: a loopback wdcserved (in-process server plus a spawned binary)
# driven in virtual-time lock-step against the DES-style model, asserting
# byte-identical report streams and zero stale answers for all eight
# algorithms, plus the graceful-shutdown and wire-framing adversarial tests.
smoke-served:
	$(GO) build -o /tmp/wdcserved ./cmd/wdcserved
	WDCSERVED_BIN=/tmp/wdcserved $(GO) test -race -short -count=1 ./internal/serve/...

# load-smoke runs the wall-clock load harness at test scale under the race
# detector: an in-process wdcserved per algorithm, a small client fleet over
# real UDP and TCP sockets, zero stale answers asserted online, and the
# same-seed determinism contract (two runs, identical action-stream counts),
# plus one algorithm against a spawned wdcserved binary.
load-smoke:
	$(GO) build -o /tmp/wdcserved ./cmd/wdcserved
	WDCSERVED_BIN=/tmp/wdcserved $(GO) test -race -count=1 ./internal/loadgen

# check is the pre-commit gate.
check: build vet race smoke-multicell smoke-parallel smoke-served load-smoke

# sweep regenerates the full evaluation into results/ (resumable).
sweep: build
	$(GO) run ./cmd/wdcsweep -exp all -out results -resume

# bench runs every benchmark once per cell and archives the raw test2json
# stream as BENCH_<date>.json for cross-commit comparison. Expect minutes:
# it regenerates every figure at benchmark scale.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x -json ./... | tee BENCH_$$(date +%F).json

# bench-smoke is the CI-sized subset: engine throughput plus the
# disabled-tracer overhead guard.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Engine|TracerOverhead' -benchtime 1x .
	$(GO) test -run '^$$' -bench . ./internal/obs

# bench-json refreshes the committed perf record BENCH_1.json: it runs the
# engine throughput, tracer-overhead, quantile-sketch, and wire-report decode
# benchmarks, preserves the pinned pre-overhaul `baseline` block, rewrites
# `current`, and fails when events/s drops (or a sketch/decode cost climbs)
# more than 15% against the committed current — the perf ratchet CI enforces.
# Decode allocations gate strictly: the UnmarshalInto reuse contract pins the
# steady state at zero. See EXPERIMENTS.md for the BENCH_<n>.json convention.
bench-json:
	$(GO) test -run '^$$' -bench 'Engine$$|TracerOverhead|SketchObserve$$|SketchMerge$$|ReportDecode$$' -benchtime 5x -benchmem . \
		| $(GO) run ./cmd/wdcbench -baseline BENCH_1.json -out BENCH_1.json -max-regress-pct 15

# bench-city refreshes the committed capacity record BENCH_2.json: a
# clients×cells scaling curve (1k→100k clients, 1→64 cells) where each point
# runs one replication in its own subprocess so peak RSS is measured per
# configuration, plus the parallel scaling curve (the 100k×16 point at lane
# worker counts 1, 2, 4, NumCPU). Gates: events/s may not drop, nor peak RSS
# rise, more than 8% against the committed record; no point may exceed 1 GiB
# resident; and on ≥4-core machines the 100k×16 point must reach 2.5x its
# P=1 throughput at P=NumCPU.
bench-city:
	$(GO) run ./cmd/wdcbench -city -baseline BENCH_2.json -out BENCH_2.json -max-regress-pct 8 -max-rss-mib 1024

# bench-load refreshes the committed load record BENCH_3.json: the wall-clock
# harness sweeps client fleets (100 and 1000 clients, all eight algorithms)
# against a spawned wdcserved binary over real sockets, records answer-latency
# quantiles, throughput, drops and retries per point, and fails when any
# point's p99 regresses more than 15% (plus a 2 ms noise floor — sub-ms
# quantiles are scheduler noise) against the committed record or any
# stale answer surfaces. The record is written before the gate decides, so a
# failing run leaves its numbers behind. Wall-clock latency is machine-
# relative (see the record's note); the stale-answer gate is absolute.
bench-load:
	$(GO) build -o /tmp/wdcserved ./cmd/wdcserved
	$(GO) run ./cmd/wdcload -bin /tmp/wdcserved -algos all -fleets 100,1000 -out BENCH_3.json -gate-pct 15

# fuzz-smoke runs each wire-decoder fuzz target for 30s from its committed
# seed corpus (internal/ir/testdata/fuzz and internal/serve/testdata/fuzz).
# Short enough to gate a PR; the open-ended exploration is nightly.
fuzz-smoke:
	$(GO) test -run '^FuzzUnmarshal$$' -fuzz '^FuzzUnmarshal$$' -fuzztime 30s ./internal/ir
	$(GO) test -run '^FuzzReportDecode$$' -fuzz '^FuzzReportDecode$$' -fuzztime 30s ./internal/ir
	$(GO) test -run '^FuzzFrameRead$$' -fuzz '^FuzzFrameRead$$' -fuzztime 30s ./internal/serve
	$(GO) test -run '^FuzzDecodeDatagram$$' -fuzz '^FuzzDecodeDatagram$$' -fuzztime 30s ./internal/serve

# soak is the nightly chaos harness: many randomized fault schedules (outages,
# report loss, disconnections with every recovery policy) across all eight
# algorithms under the race detector, asserting zero stale reads, no stuck
# clients and a drained event queue. SOAK=<n> scales the seed count (default
# 3x the PR-gating run). Expect tens of minutes; not part of `make check`.
soak:
	SOAK=$${SOAK:-3} $(GO) test -race -run 'Chaos|HandoffDisconnect' -timeout 45m -count=1 -v ./internal/core

# soak-served is the nightly served-mode chaos leg: the full-length (not
# -short) conformance oracle against a spawned wdcserved binary over real
# sockets, including the chaos schedule — lost and truncated broadcast
# datagrams, stalled query frames cut by the server's IO deadline and retried
# with bounded backoff — still asserting byte-identical streams and zero
# stale answers. Not part of `make check`.
soak-served:
	$(GO) build -o /tmp/wdcserved ./cmd/wdcserved
	WDCSERVED_BIN=/tmp/wdcserved $(GO) test -race -run 'Conformance' -timeout 20m -count=1 -v ./internal/serve/conformance

# soak-load is the nightly load leg: larger fleets (1000 and 2000 clients,
# all eight algorithms, a longer step schedule) against a spawned wdcserved
# binary, with the p99 ratchet armed against the committed BENCH_3.json.
# Race coverage of the fleet machinery lives in load-smoke; this leg runs
# unsanitized so the latency numbers stay comparable to the record. Not part
# of `make check`.
soak-load:
	$(GO) build -o /tmp/wdcserved ./cmd/wdcserved
	$(GO) run ./cmd/wdcload -bin /tmp/wdcserved -algos all -fleets 1000,2000 -steps 40 -out BENCH_3.json -gate-pct 15
