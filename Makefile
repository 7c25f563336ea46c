GO ?= go

.PHONY: build test verify names chaos bench size

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# chaos is the short randomized fault-injection suite: the injector's
# determinism properties, the transport-level chaos regressions, and the
# property-based redistribution harness (reduced case count, fixed
# seeds), all under the race detector. See TESTING.md.
chaos:
	$(GO) test -race -short ./internal/chaos/ ./internal/ddrtest/
	$(GO) test -race -short -run 'Chaos|WaitCtxAbandon' ./internal/mpi/

# names fails when a -run, -bench or -fuzz pattern below names a test,
# benchmark or fuzz target that no longer exists in the packages of its
# line (go test -list): a renamed or deleted test would otherwise leave
# its line running nothing, silently. It fails too when README.md,
# DESIGN.md, TESTING.md, EXPERIMENTS.md or bench/README.md names a test,
# benchmark, fuzz target or example that neither the root module nor the
# bench module has, or shows a `go run ./cmd/<bin>` command line with a
# flag that binary's -h does not list.
names:
	GO=$(GO) bash scripts/makenames.sh Makefile README.md DESIGN.md TESTING.md EXPERIMENTS.md bench/README.md

# USEDEXPORTS runs the type-checked audit of the names, exported or not,
# only tests use, over the root module with the bench module as a caller, against
# the allowlist that gives each surviving name its reason. It prints the
# names and fails when one is off the allowlist, or an allowlisted name
# has a non-test use or no longer exists.
USEDEXPORTS = $(GO) run ./scripts/usedexports scripts/usedexports/allowlist.txt . bench

# verify is the pre-merge gate: the stale-name check, formatting, the
# test-only export audit, and static analysis over the whole module, the
# chaos suite, then the race detector over every package with concurrent
# machinery (lock-free counters, mailbox gauges, TCP and shm transports,
# the staging arena, the rank-per-worker schedule compile, the step
# executor) and the in-transit layer; chaos has
# already run the property harness under race. A test in those packages
# is gated by existing — nothing is enumerated by name there. What follows the race lines is only what they
# cannot cover:
#   - tests that skip themselves under -race and so need a plain run: the
#     zero-alloc steady-state guards and the cold-miss allocation guard
#     (the detector allocates per sync event), the arena-recycling guard and the lent-send completion pool
#     (sync.Pool drops Puts under -race), and the planted-bug self-tests
#     of the pipelined executor and of the tcp lent send (each planted bug
#     is a genuine data race the detector would fail before the test's own
#     check fires);
#   - the posted-receive, landing, lent-send, typed-send, shm ring-rewind
#     and rewind-race, ring footprint and record-wait tests, and the FFT
#     differential and landing tests across receive paths, once more
#     without the detector, whose slowdown changes which rank finds whose
#     post open and how long a lent payload stays in the writer;
#   - the golden plan and bounded-step fixtures;
#   - use case B as two processes (internal/experiments, which no race
#     line covers): lbmsim's sim role re-executed as a child process that
#     joins the test's viz role in one tcp world, run to the end and
#     killed after frame 0;
#   - a brief fuzz of the shm ring-record decoder, both TCP wire
#     decoders and the budgeted compile;
#   - one-iteration smokes of the Go micro-benchmarks, so every measured
#     configuration stays runnable;
#   - the tests of bench/ddrperf, the benchmark of record (bash
#     bench/run.sh): bench/ is a module of its own, so ./... skips it.
verify: names chaos
	test -z "$$(gofmt -l .)"
	$(USEDEXPORTS) >/dev/null
	$(GO) vet ./...
	$(GO) test -race ./internal/obs/... ./internal/mpi/... ./internal/trace/... ./internal/core/... ./internal/datatype/... ./internal/fft/...
	$(GO) test -race ./internal/transit/...
	$(GO) test -run 'TestZeroAllocSteadyState|TestBoundedZeroAllocSteadyState|TestPipelineZeroAllocSteadyState|TestTracingDetachedZeroAlloc|TestFlightRecorderRecordZeroAlloc|TestTCPUntracedWireIdentical|TestShmZeroAllocSteadyState|TestShmBackpressureAllocs|TestResizeExchangeRecyclesPayloads|TestStridedStepsZeroAlloc|TestStreamSteadyStateAllocs|TestTCPSendSteadyStateAlloc|TestMissCompileAllocs|TestLentZeroAllocSteadyState' ./internal/core/ ./internal/obs/ ./internal/mpi/ ./internal/transit/
	$(GO) test -run 'TestPipelineHarnessCatchesPlantedBug' ./internal/core/
	$(GO) test -run 'TestBorrowedSendCatchesEarlyDone' ./internal/mpi/
	$(GO) test -short -run 'TestHarnessCatchesPipelinePlantedBug' ./internal/ddrtest/
	$(GO) test -run 'TestPosted|TestTypedPostMatchesUnpacked|TestLandedMatchesEager|TestNobodyWritesAfterReturn|TestShmRingRewind|TestShmRewindRacesConsumer|TestShmTransposeFootprint|TestShmRecordWaitsForPost|TestShmLargerBurstLands|TestShmPressureDrainsWaitingRecords|TestShmLaterTagDrainsEarlierRecord|TestShmSeverDeliversEarlierMessages|TestShmCancelledPostRepostLands|TestDist2DShmEveryReceiveLands|TestTelemetryPackUnpackObserved|TestDist2DStepMatchesAcrossPaths|TestTypedSendMatchesPacked|TestBorrowedSendScribbleAfterReturn|TestTCPWriterDeathReleasesBorrowedSend|TestStagingHandOffEveryTransport|TestLend|TestLentSendsSettleOnEveryExit' ./internal/mpi/ ./internal/core/ ./internal/fft/
	$(GO) test -run 'TestGoldenPlans|TestGoldenBoundedPlans' ./internal/core/
	$(GO) test -run 'TestInTransitTwoProcessMatchesCoupled|TestInTransitSimKilledIsPeerLost' ./internal/experiments/
	$(GO) test -run '^$$' -fuzz FuzzShmRingHeader -fuzztime 10s ./internal/mpi/
	$(GO) test -run '^$$' -fuzz FuzzTCPFrameDecoder -fuzztime 10s ./internal/mpi/
	$(GO) test -run '^$$' -fuzz FuzzTCPSeqFrameDecoder -fuzztime 10s ./internal/mpi/
	$(GO) test -run '^$$' -fuzz FuzzCompileBounded -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -bench BenchmarkPackUnpack -benchtime 1x ./internal/datatype/
	$(GO) test -run '^$$' -bench BenchmarkBoundedExchange -benchtime 1x ./internal/core/
	$(GO) test -run '^$$' -bench BenchmarkFFT2DStep -benchtime 1x ./internal/fft/
	$(GO) test -run '^$$' -bench BenchmarkKernel -benchtime 1x ./internal/fft/
	$(GO) test -run '^$$' -bench BenchmarkReorganizeEngine -benchtime 1x ./internal/core/
	$(GO) test -run '^$$' -bench BenchmarkStackExchange -benchtime 1x ./internal/core/
	$(GO) test -run '^$$' -bench BenchmarkTCPExchange -benchtime 1x ./internal/mpi/
	$(GO) test -run '^$$' -bench BenchmarkShmExchange -benchtime 1x ./internal/mpi/
	$(GO) test -run '^$$' -bench 'BenchmarkSetupMapping/(schedule|plan|bounded)/P=64' -benchtime 1x ./internal/core/
	$(GO) test -run '^$$' -bench BenchmarkRegridderReconnect -benchtime 1x ./internal/transit/
	$(GO) test -run '^$$' -bench BenchmarkCouplingStream -benchtime 1x ./internal/transit/
	$(GO) test -run '^$$' -bench BenchmarkRegridderResize -benchtime 1x ./internal/transit/
	cd bench && $(GO) test ./...

# bench runs the exchange-engine micro-benchmarks for a quick look while
# working. Numbers to quote come from bash bench/run.sh (see bench/README.md).
bench:
	$(GO) test -run '^$$' -bench BenchmarkReorganizeTelemetry -benchmem ./internal/core/
	$(GO) test -run '^$$' -bench 'BenchmarkReorganizeEngine|BenchmarkStackExchange' -benchmem ./internal/core/
	$(GO) test -run '^$$' -bench BenchmarkPackUnpack -benchmem ./internal/datatype/

# size prints the line counts the simplicity acceptance criteria quote:
# non-test Go outside bench/ (the benchmark is its own module), and the
# share of it in internal/core and internal/mpi. It then counts, per
# package, the names the audit finds only tests use, which make
# verify holds to scripts/usedexports/allowlist.txt.
size:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | xargs cat | wc -l | xargs echo "non-test Go outside bench/:"
	@find internal/core -name '*.go' ! -name '*_test.go' | xargs cat | wc -l | xargs echo "  of which internal/core:"
	@find internal/mpi -name '*.go' ! -name '*_test.go' | xargs cat | wc -l | xargs echo "  of which internal/mpi:"
	@echo "names only tests use, per package (scripts/usedexports):"
	@$(USEDEXPORTS) | sed 's/\.[^/]*$$//' | sort | uniq -c | sed 's/^ */  /'
