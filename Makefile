# Tier-1 gate (build + tests) plus the longer checks CI and humans run.
# Anything clocked end to end is `bash benchmark/run.sh` (BENCHMARK.json);
# bench-go and microbench are local Go-benchmark conveniences.
GO ?= go

.PHONY: all build test vet lint race check check-metrics check-crash check-trace check-capacity check-doctor fmt bench-go fuzz microbench loc

# Build stamping for the build_info metric: released binaries carry the
# tag and commit, dirty trees fall back to dev/none so builds still
# work outside a git checkout.
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
COMMIT ?= $(shell git rev-parse --short HEAD 2>/dev/null || echo none)
LDFLAGS := -X main.buildVersion=$(VERSION) -X main.buildCommit=$(COMMIT)

all: check

build:
	$(GO) build -ldflags '$(LDFLAGS)' ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint runs staticcheck when it is installed (CI installs it; local
# trees without it skip with a notice rather than failing the build).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

race:
	$(GO) test -race ./...

fmt:
	gofmt -l -w .

# check-metrics boots a real fidrd, drives writes over the wire, lexes
# the Prometheus exposition, and asserts the host-DRAM payload
# invariant (FIDR == 0, baseline > 0) from the scraped counters.
check-metrics:
	$(GO) test -v -run 'TestMetricsEndpointE2E|TestHostDRAMPayloadInvariantE2E' ./cmd/fidrd

# check-crash runs the durability suite under the race detector: the
# randomized crash-injection harness (240 seeded crash/recover cycles
# across four pipeline stages, once with fixed 4-KB chunks and once with
# CDC stream segments; seeds are fixed inside the test), the
# checkpoint-vs-concurrent-writes regression, the group-local WAL
# recovery test, the WAL unit + fault matrix in internal/core, and the
# crash that must drop a container write no pool helper has claimed.
# CRASH_COUNT repeats the whole sweep.
CRASH_COUNT ?= 1
check-crash:
	$(GO) test -race -count $(CRASH_COUNT) \
		-run 'TestCrashRecoveryRandomized|TestCheckpointRacingWrites|TestGroupLocalWALRecovery' .
	$(GO) test -race -count $(CRASH_COUNT) -run 'TestWAL|TestRecoverServerTypedErrors|TestCrashHaltsContainerWrites' ./internal/core

# check-trace boots a 2-group fidrd with group-local WALs, drives
# traced writes through the real CLI, and asserts the returned trace ID
# resolves to a span tree covering proto, async queue, core, batch and
# WAL stages — plus a trace ID taken from /traces/slow resolving at
# /traces/spans, an exemplar-free Prometheus page and the SLO endpoints.
check-trace:
	$(GO) test -v -run TestTraceE2E ./cmd/fidrd

# check-capacity boots a 2-group fidrd, drives mixed dup/unique writes
# and a GC pass through the real CLI, and asserts the attribution
# equation balances on a live /capacity scrape, the heatmap reconciles
# with the garbage ledger, and GC/checkpoint/recovery land in /events.
check-capacity:
	$(GO) test -v -run TestCapacityE2E ./cmd/fidrd

# check-doctor runs the health plane end to end in two halves. In
# process (fidr.NewNode with the recorder armed and a tight watchdog): a
# Maintenance closure held by a channel wedges an async group's owner,
# and the watchdog must trip (watchdog_stall event), the recorder capture
# a snapshot served at /debug/bundle, and the real `fidrcli doctor` binary
# flag the stall (non-zero exit), then report healthy once the closure is
# released. Beside it, the stuck-queue probe's input: blocked callers
# count in the queue depth and trip the probe, a wedged group trips its
# own probe while another group completes requests, and the front-end
# starts no goroutine of its own. On the real daemon: boot with -health-dir,
# `fidrcli doctor` healthy with the recorder armed, and degraded to a
# warning without it.
check-doctor:
	$(GO) test -v -run 'TestDoctorStall|TestAsyncQueueDepthCountsBlockingCallers|TestAsyncStuckQueueProbePerGroup|TestAsyncStartsNoGoroutine' .
	$(GO) test -v -run 'TestDoctorE2E|TestDoctorDisabledRecorderE2E' ./cmd/fidrd

# fuzz runs sixteen fuzzers for a bounded slice of CI time each: the fast
# skip-ahead chunker must cut byte-identical boundaries to the reference
# scalar on every input; the WAL decoder must survive any log (torn,
# corrupt, reordered frames) applying a clean prefix whose records
# round-trip, without building a server, and recovery over any log must
# apply that prefix or fail typed; recovery from any checkpoint image must return a server or fail
# typed, with no length field sizing an allocation past the volume; the
# LBA-snapshot decoder must never panic and must round-trip; the LZ
# compressor must round-trip any input and its decoder must never panic
# or overrun the declared size on any stream, and decoding behind any
# prefix must be the prefix plus that decoding, never reaching into the
# prefix (the fence for compressor work, beside TestLZOutputGolden); the wire frame decoder
# must reject or round-trip any bytes, any payload must survive framing,
# and a connection's buffered decoder fed any stream in any fragments
# must agree with the stateless one frame for frame and error for error
# (the fence for codec work, beside TestWireBytesGolden); whatever
# -slo-spec the objective parser accepts is evaluable (positive
# threshold, target inside (0, 1), unique non-empty names) and re-parses
# to itself, and publishes gauges whose names survive the dump; the dump
# parser stats and doctor read (live scrape, recorder bundle) keeps only
# series whose dump parses back to the same series and the same bytes;
# the journal decoder (live /events, a bundle's events.jsonl) returns
# only events that re-encode to lines decoding to the same events; and
# the bundle lister doctor hands /debug/bundle to returns sorted,
# distinct, non-empty names for any bytes; and the wire trace-context
# decoder refuses short input and round-trips any longer input.
# FUZZ_TIME extends the per-fuzzer budget locally. FUZZ_MINIMIZE bounds
# the shrinking of each new input to 100 runs: at Go's default (60 s),
# shrinking one mutant of a multi-KB seed spent the whole budget of the
# WAL and checkpoint fuzzers, which then ran under 100 execs.
FUZZ_TIME ?= 30s
FUZZ_MINIMIZE = 100x
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzCDCEquivalence$$' -fuzztime $(FUZZ_TIME) -fuzzminimizetime $(FUZZ_MINIMIZE) ./internal/chunk
	$(GO) test -run '^$$' -fuzz '^FuzzWALFrames$$' -fuzztime $(FUZZ_TIME) -fuzzminimizetime $(FUZZ_MINIMIZE) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzWALReplay$$' -fuzztime $(FUZZ_TIME) -fuzzminimizetime $(FUZZ_MINIMIZE) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzCheckpointImage$$' -fuzztime $(FUZZ_TIME) -fuzzminimizetime $(FUZZ_MINIMIZE) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzRestoreTable$$' -fuzztime $(FUZZ_TIME) -fuzzminimizetime $(FUZZ_MINIMIZE) ./internal/lbatable
	$(GO) test -run '^$$' -fuzz '^FuzzLZRoundTrip$$' -fuzztime $(FUZZ_TIME) -fuzzminimizetime $(FUZZ_MINIMIZE) ./internal/blockcomp
	$(GO) test -run '^$$' -fuzz '^FuzzLZDecompress$$' -fuzztime $(FUZZ_TIME) -fuzzminimizetime $(FUZZ_MINIMIZE) ./internal/blockcomp
	$(GO) test -run '^$$' -fuzz '^FuzzLZDecompressAppend$$' -fuzztime $(FUZZ_TIME) -fuzzminimizetime $(FUZZ_MINIMIZE) ./internal/blockcomp
	$(GO) test -run '^$$' -fuzz '^FuzzRead$$' -fuzztime $(FUZZ_TIME) -fuzzminimizetime $(FUZZ_MINIMIZE) ./internal/proto
	$(GO) test -run '^$$' -fuzz '^FuzzWriteRead$$' -fuzztime $(FUZZ_TIME) -fuzzminimizetime $(FUZZ_MINIMIZE) ./internal/proto
	$(GO) test -run '^$$' -fuzz '^FuzzConnReader$$' -fuzztime $(FUZZ_TIME) -fuzzminimizetime $(FUZZ_MINIMIZE) ./internal/proto
	$(GO) test -run '^$$' -fuzz '^FuzzParseObjectives$$' -fuzztime $(FUZZ_TIME) -fuzzminimizetime $(FUZZ_MINIMIZE) ./internal/metrics
	$(GO) test -run '^$$' -fuzz '^FuzzParseMetricsText$$' -fuzztime $(FUZZ_TIME) -fuzzminimizetime $(FUZZ_MINIMIZE) ./internal/metrics
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeEvents$$' -fuzztime $(FUZZ_TIME) -fuzzminimizetime $(FUZZ_MINIMIZE) ./internal/metrics/events
	$(GO) test -run '^$$' -fuzz '^FuzzBundleSnapshots$$' -fuzztime $(FUZZ_TIME) -fuzzminimizetime $(FUZZ_MINIMIZE) ./internal/metrics/health
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeWire$$' -fuzztime $(FUZZ_TIME) -fuzzminimizetime $(FUZZ_MINIMIZE) ./internal/trace/span

# bench-go runs the layer microbenchmarks — the hash lanes, the engine's
# compress loop over a 64-chunk batch (CompressMany, one row), a blocking
# call through the async front-end (idle group / callers meeting on the
# owner lock), the LZ kernel both ways (compression at the workloads'
# 0.5 ratio and over random bytes), the table-cache probe (hit / miss
# that evicts a dirty line), one 4-KB chunk each way over loopback TCP, one
# 64-chunk batch through Server.Write (unique / duplicate at one lane and
# two: the tipping path, ns and allocs) — with benchstat-compatible output
# (pipe COUNT>=10 runs into benchstat to compare commits). BENCH_COUNT sets
# -count. Whole-workload numbers come from `bash benchmark/run.sh`, which
# keeps its harness outside the clock.
BENCH_COUNT ?= 5
bench-go:
	$(GO) test -run '^$$' \
		-bench '^(BenchmarkHashLanes|BenchmarkAsyncCall)$$' \
		-benchmem -count $(BENCH_COUNT) .
	$(GO) test -run '^$$' -bench '^BenchmarkCompressMany$$' \
		-benchmem -count $(BENCH_COUNT) ./internal/engine
	$(GO) test -run '^$$' \
		-bench '^(BenchmarkLZCompress4K|BenchmarkLZCompress4KRandom|BenchmarkLZDecompress4K)$$' \
		-benchmem -count $(BENCH_COUNT) ./internal/blockcomp
	$(GO) test -run '^$$' -bench '^BenchmarkTableCacheLookup$$' \
		-benchmem -count $(BENCH_COUNT) ./internal/tablecache
	$(GO) test -run '^$$' -bench '^BenchmarkWireRoundTrip$$' \
		-benchmem -count $(BENCH_COUNT) ./internal/proto
	$(GO) test -run '^$$' -bench '^BenchmarkWriteBatch$$' \
		-benchmem -count $(BENCH_COUNT) ./internal/core

# microbench runs the Go testing benchmarks.
microbench:
	$(GO) test -bench=. -benchmem ./...

# loc prints the sizes every ROADMAP re-anchor quotes: non-test Go lines
# outside benchmark/ (the "code volume" bar), fidrd's flag count (the
# lines of the golden TestFlagSetGolden pins), then the non-test lines of
# each package ROADMAP sizes (its own directory only; "." is the root
# package), and last the nic + lanes + engine sum that ROADMAP item 2
# bounds.
LOC_PKGS := internal/core internal/nic internal/lanes internal/engine internal/chunk \
	internal/lbatable internal/proto internal/metrics internal/metrics/health \
	internal/experiments .
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs wc -l | tail -1
	@echo "$$(wc -l < cmd/fidrd/testdata/fidrd_flags.txt) fidrd flags"
	@for p in $(LOC_PKGS); do \
		printf '%6d %s\n' "$$(find $$p -maxdepth 1 -name '*.go' -not -name '*_test.go' | xargs cat | wc -l)" "$$p"; \
	done
	@printf '%6d %s\n' "$$(find internal/nic internal/lanes internal/engine -maxdepth 1 -name '*.go' -not -name '*_test.go' | xargs cat | wc -l)" \
		"internal/nic + internal/lanes + internal/engine"

# check is the pre-commit bundle: tier-1 plus static analysis and the
# race detector over the whole module.
check: build test lint race
