# Tier-1: the gate every PR must keep green.
.PHONY: test
test:
	go build ./...
	go test ./...

# Tier-2: stricter gate for telemetry-touched packages — vet, formatting,
# and the race detector over the packages whose hot paths share atomics
# across goroutines (telemetry registry, tensor/numfmt/dse stats counters,
# nn timing hooks, parallel campaigns in the root package) and over the
# process-wide caches: package lru and its instances in the root package,
# the zoo and the server.
RACE_PKGS = ./internal/telemetry ./internal/tensor ./internal/nn \
            ./internal/numfmt ./internal/inject ./internal/dse \
            ./internal/checkpoint ./internal/detect ./internal/exper \
            ./internal/server ./internal/server/journal \
            ./internal/server/client ./internal/chaos ./internal/fleet \
            ./internal/sampling ./internal/zoo ./internal/dataset \
            ./internal/lru .

.PHONY: check
check:
	go vet ./...
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go vet still ran)"; fi
	go test -shuffle=on ./...
	go test -race $(RACE_PKGS)
	$(MAKE) stress-chaos
	$(MAKE) stress-fleet
	$(MAKE) stress-sample
	$(MAKE) stress-detect
	$(MAKE) stress-cancel
	$(MAKE) bench-smoke
	$(MAKE) bench-check
	$(MAKE) fuzz-smoke
	$(MAKE) purego
	$(MAKE) nofma
	$(MAKE) fma-off

# Short fuzzing runs of the kernel differential targets: the fused
# emulation kernels (whole-tensor and grouped per sample) against the
# generic quantize→dequantize path, accumulator row rounding against the
# scalar round trip, the assembly GEMM kernel against the pure-Go one, and
# the assembly accumulator GEMM against the pure-Go sweep.
# A failing input lands in testdata/fuzz/ as a regression seed that plain
# `go test` then replays.
.PHONY: fuzz-smoke
fuzz-smoke:
	go test -run NONE -fuzz '^FuzzEmulateFusedVsGeneric$$' -fuzztime 10s .
	go test -run NONE -fuzz '^FuzzAccumRoundRowVsScalar$$' -fuzztime 10s .
	go test -run NONE -fuzz '^FuzzGEMMKernelVsPureGo$$' -fuzztime 10s ./internal/tensor
	go test -run NONE -fuzz '^FuzzAccumKernelVsPureGo$$' -fuzztime 10s ./internal/tensor

# Opt-in, and kept out of `check` for its runtime (about 5.5 min on 2
# vCPUs): every one of the 2^32 float32 inputs of posit8, posit16, lns8
# and lns16 must round through the segment-table kernel exactly as
# through the scalar path. The test file builds only under the exhaustive
# tag, so `go test ./...` never runs it.
.PHONY: exhaustive-formats
exhaustive-formats:
	go test -tags exhaustive -run '^TestExhaustiveSegTables$$' -count=1 -timeout 60m -v ./internal/numfmt

# The portable GEMM kernel, which other architectures and CPUs without
# AVX2 run, must keep every golden and bit-identity suite: build without
# the assembly kernel and run the tensor package plus the root suites that
# pin output bytes.
.PHONY: purego
purego:
	go test -tags purego ./internal/tensor
	go test -tags purego -run 'Golden|Pinned|BitIdentical' .

# Architecture-independent bytes: the Go spec lets a compiler fuse x*y + z
# into one FMA, which arm64, ppc64le, s390x and riscv64 do and amd64 never
# does, so every such site in the module is written float64(x*y) + z (or
# float32). Compile every package of the module for those architectures and
# fail on any fused multiply-add instruction in the compiler's assembly
# listing, which shows each package's functions before a linker's dead-code
# elimination could hide a site.
NOFMA_PKGS = ./...
NOFMA_ARCHES = arm64 ppc64le s390x riscv64

.PHONY: nofma
nofma:
	@status=0; for arch in $(NOFMA_ARCHES); do for pkg in $(NOFMA_PKGS); do \
		asm=$$(GOARCH=$$arch go build -gcflags=-S $$pkg 2>&1) || { echo "$$asm"; exit 1; }; \
		fused=$$(printf '%s\n' "$$asm" | grep -E '^\s+0x[0-9a-f]+ [0-9]+ \([^)]*\)\s+([VW]?FN?M(ADD|SUB)[A-Z]*|[VW]FN?M[AS]([DS]B)?)\s' | grep -v '_test\.go:'); \
		if [ -n "$$fused" ]; then echo "fused multiply-add in $$pkg for $$arch:"; echo "$$fused"; status=1; fi; \
	done; done; exit $$status

# The zoo's training and every golden pass through math.Exp, which amd64
# runs on an FMA path when the CPU has one. Retrain the zoo in a fresh
# temporary directory with that path off and re-run the golden suites: they
# pass because every use rounds to float32 afterwards, so the float64
# differences never reach a stored byte.
.PHONY: fma-off
fma-off:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	TMPDIR=$$dir GODEBUG=cpu.fma=off go test -count=1 -run 'Golden|Pinned|BitIdentical' .

# The benchmark is its own Go module (bench/go.mod), so the root module's
# vet and test runs above never reach it: vet it and run its schema, smoke
# and digest tests from inside.
.PHONY: bench-check
bench-check:
	cd bench && go vet ./... && go test ./...

# Cancellation paths are the raciest part of the lifecycle: a cancel can
# land while workers are mid-injection, mid-merge, or not yet started.
# Repeated race-detector runs shake out orderings a single run misses.
.PHONY: stress-cancel
stress-cancel:
	go test -race -run Cancel -count=5 .

# Detection subsystem gate: the fault-free false-positive invariant (every
# calibrated detector rides a campaign without flagging a clean inference),
# serial/batched/parallel detection bit-identity, and the once-per-campaign
# calibration every worker shares (its sealed pipeline armed from several
# goroutines at once, and its failure paths), repeated under the race
# detector; plus ranger-armed sweep cells and daemon jobs sharing one
# calibration through the calibration cache.
.PHONY: stress-detect
stress-detect:
	go test -race -run 'TestCampaignFaultFreeZeroFalsePositives|TestDetect|TestCalibration' -count=3 .
	go test -race -count=2 ./internal/detect
	go test -race -run 'TestRunCellRangerCellsShareCalibration' -count=3 ./internal/exper
	go test -race -run 'TestCacheDirRangerJobsShareCalibration' -count=3 ./internal/server

# Campaign batching: benchstat-comparable sub-benchmarks (pipe two runs
# into `benchstat old.txt new.txt`) plus the machine-readable performance
# matrix in BENCH_campaign.json — format family × kernel path × batch size
# × GOMAXPROCS, bit-identity re-checked per row. `make bench-all` runs the
# full figure-by-figure sweep; docs/PERFORMANCE.md explains the output.
.PHONY: bench
bench:
	go test -run NONE -bench 'BenchmarkCampaignBatched|BenchmarkAssignmentOverhead' -benchmem -count 3 .
	GOLDENEYE_BENCH_CAMPAIGN=BENCH_campaign.json go test -run TestCampaignBenchReport -v -timeout 30m .

# Fast correctness slice of the matrix, wired into `make check`: a reduced
# matrix whose only hard assertion is that every row stays bit-identical
# to its family's serial generic reference. Throughput numbers from this
# target are not meaningful; use `make bench` for those.
.PHONY: bench-smoke
bench-smoke:
	GOLDENEYE_BENCH_CAMPAIGN=$${TMPDIR:-/tmp}/goldeneye_bench_smoke.json GOLDENEYE_BENCH_SMOKE=1 \
		go test -run TestCampaignBenchReport .

# Compare two matrix files: `make benchdiff OLD=old.json NEW=BENCH_campaign.json`.
# Exits non-zero on a >10% injections/sec regression in any matching row,
# or on any bit_identical=false row in the new file.
.PHONY: benchdiff
benchdiff:
	go run ./cmd/benchdiff -old $(OLD) -new $(NEW)

.PHONY: bench-all
bench-all:
	go test -bench=. -benchmem ./...

# Production-line count every change reports (see ROADMAP): non-blank,
# non-comment lines of the non-test .go files outside the bench/ module.
.PHONY: loc
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -print0 | \
		xargs -0 grep -hvE '^\s*(//|$$)' | wc -l

# Fault-tolerance gate: the chaos suite (dropped connections, stalled SSE
# streams, full-queue bursts), journal crash-replay, restart from the disk
# result cache (exhaustive and sampled reports), cancel/complete races,
# and the kill-mid-job end-to-end (a journaling daemon SIGKILLed mid-
# campaign, restarted, every job recovered byte-identically) — all under
# the race detector with shuffled test order.
.PHONY: stress-chaos
stress-chaos:
	go test -race -shuffle=on ./internal/chaos ./internal/server/journal
	go test -race -shuffle=on -run 'TestIdempotent|TestReadyz|TestDeadline|TestJournalReplay|TestCancelRaces|TestSSEResume|TestDrainPersistsCache' ./internal/server
	go test -race -shuffle=on -run 'TestSubmitRetries|TestIdempotentRetry|TestStreamResumes|TestStreamStall|TestBurstSubmit' ./internal/server/client
	go test -race -run TestKillMidJobRecovers ./cmd/goldeneyed

# Distributed-fabric gate: fleet coordinator unit tests (reassignment,
# quarantine/re-admission, insufficient-fleet degradation, idempotent
# replay, shard-merge byte-identity) under the race detector, plus the
# multi-daemon chaos end-to-end: a three-node fleet with one daemon
# SIGKILLed and one network-partitioned mid-campaign must merge a report
# byte-identical to an unfailed single-node run, with completed shards
# replayed idempotently rather than re-executed — and the coordinator's own
# crash: a journaling coordinator SIGKILLed after its first finished shard
# and restarted over its journal must finish the same job byte-identically,
# replaying the completed shards from the nodes.
.PHONY: stress-fleet
stress-fleet:
	go test -race -shuffle=on ./internal/fleet
	go test -race -run 'TestFleetSurvivesKillAndPartition|TestFleetCoordinatorModeE2E|TestFleetCoordinatorKillRecovers' ./cmd/goldeneyed

# Smart-campaign gate: the estimator property tests — fraction-1.0
# byte-identity per format family, shard-merge permutation invariance of
# the per-stratum moments, full-fault-space pruning accounting, and the
# sequential-stopping acceptance bound — under the race detector (the CI
# review barrier synchronizes parallel workers), repeated to shake out
# barrier orderings, plus the estimator unit tests.
.PHONY: stress-sample
stress-sample:
	go test -race -run 'TestSampled|TestParseSamplingPlan' -count=2 .
	go test -race -count=2 ./internal/sampling
