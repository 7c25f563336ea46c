GO ?= go

.PHONY: build test verify chaos bench bench-json bench-mapping bench-resize bench-shm bench-bounded bench-fft bench-compare

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
	$(GO) test -race -short -run 'Chaos|Partial|WaitCtxAbandon' ./internal/mpi/

# verify is the pre-merge gate: static analysis over the whole module,
# the chaos suite, then the race detector over every package with
# concurrent machinery (lock-free counters, mailbox gauges, TCP and shm
# transports, the pack/unpack worker pool and staging arena, the parallel
# plan compiler, the step executor) and the in-transit layer; chaos has
# already run the property harness under race. A test in those packages
# is gated by existing — nothing is enumerated by name there. What follows the race lines is only what they
# cannot cover:
#   - tests that skip themselves under -race and so need a plain run: the
#     zero-alloc steady-state guards (the detector allocates per sync
#     event), the arena-recycling guard (sync.Pool drops Puts under
#     -race), and the planted-bug self-tests of the pipelined executor
#     (the planted bug is a genuine data race the detector would fail
#     before the harness's own check fires);
#   - the golden plan and bounded-step fixtures;
#   - a brief fuzz of the shm ring-record decoder and both TCP wire
#     decoders;
#   - one-iteration smokes of the benchmarks, so every measured
#     configuration stays runnable.
verify: chaos
	$(GO) vet ./...
	$(GO) test -race ./internal/obs/... ./internal/mpi/... ./internal/trace/... ./internal/core/... ./internal/datatype/... ./internal/fft/...
	$(GO) test -race ./internal/transit/...
	$(GO) test -run 'TestZeroAllocSteadyState|TestBoundedZeroAllocSteadyState|TestPipelineZeroAllocSteadyState|TestTracingDetachedZeroAlloc|TestFlightRecorderRecordZeroAlloc|TestTCPUntracedWireIdentical|TestShmZeroAllocSteadyState|TestDeltaExchangeRecyclesPayloads' ./internal/core/ ./internal/obs/ ./internal/mpi/
	$(GO) test -run 'TestPipelineHarnessCatchesPlantedBug' ./internal/core/
	$(GO) test -short -run 'TestHarnessCatchesPipelinePlantedBug' ./internal/ddrtest/
	$(GO) test -run 'TestGoldenPlans|TestGoldenBoundedPlans' ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzShmRingHeader -fuzztime 10s ./internal/mpi/
	$(GO) test -run '^$$' -fuzz FuzzTCPFrameDecoder -fuzztime 10s ./internal/mpi/
	$(GO) test -run '^$$' -fuzz FuzzTCPSeqFrameDecoder -fuzztime 10s ./internal/mpi/
	$(GO) test -run '^$$' -bench BenchmarkBoundedExchange -benchtime 1x ./internal/core/
	$(GO) test -run '^$$' -bench BenchmarkFFT2DStep -benchtime 1x ./internal/fft/
	$(GO) test -run '^$$' -bench BenchmarkReorganizeEngine -benchtime 1x ./internal/core/
	$(GO) test -run '^$$' -bench BenchmarkTCPExchange -benchtime 1x ./internal/mpi/
	$(GO) test -run '^$$' -bench 'BenchmarkSetupMapping/(schedule|plan)/P=64' -benchtime 1x ./internal/core/
	$(GO) test -run '^$$' -bench BenchmarkRegridderReconnect -benchtime 1x ./internal/transit/
	$(GO) test -run '^$$' -bench BenchmarkRegridderResize -benchtime 1x ./internal/transit/

bench:
	$(GO) test -run XXX -bench BenchmarkReorganizeTelemetry -benchmem ./internal/core/
	$(GO) test -run XXX -bench 'BenchmarkReorganizeEngine|BenchmarkPackUnpackPool' -benchmem ./internal/core/

# bench-json snapshots the transport and exchange-engine benchmarks as a
# JSON artifact (BENCH_tcp.json) for checking in and diffing across
# commits. Pass BASELINE=<file> to embed a prior snapshot for
# before/after ratios.
bench-json:
	{ $(GO) test -run '^$$' -bench BenchmarkTCPExchange -benchmem -benchtime 3s ./internal/mpi/ && \
	  $(GO) test -run '^$$' -bench BenchmarkReorganizeEngine -benchmem ./internal/core/ ; } | \
	  $(GO) run ./cmd/benchjson $(if $(BASELINE),-baseline $(BASELINE)) -o BENCH_tcp.json
	@echo wrote BENCH_tcp.json

# bench-shm snapshots the topology-aware data path: the shm-vs-TCP
# transport pair on the storm and 64 MiB bulk shapes, and the 64-rank /
# 4-node hierarchical storm against flat TCP and flat shm — as
# BENCH_shm.json. Pass BASELINE=<file> to embed a prior snapshot for
# before/after ratios.
bench-shm:
	{ $(GO) test -run '^$$' -bench BenchmarkShmExchange -benchmem -benchtime 2s -count 3 ./internal/mpi/ && \
	  $(GO) test -run '^$$' -bench BenchmarkHierExchange -benchmem -benchtime 3x -count 3 ./internal/mpi/ ; } | \
	  $(GO) run ./cmd/benchjson $(if $(BASELINE),-baseline $(BASELINE)) \
	  -note "shm rings vs TCP loopback vs inproc; 64-rank/4-node two-level leader relay vs flat transports" \
	  -o BENCH_shm.json
	@echo wrote BENCH_shm.json

# bench-compare diffs two benchjson snapshots and fails on regressions
# beyond 10%:  make bench-compare OLD=BENCH_tcp.json NEW=new.json
bench-compare:
	$(GO) run ./cmd/benchjson -compare $(OLD) $(NEW)

# bench-mapping snapshots the mapping-engine benchmarks — indexed vs
# brute-force plan compilation across process counts, and the plan-cache
# cold/warm reconnect pair — as BENCH_mapping.json. Pass BASELINE=<file>
# to embed a prior snapshot for before/after ratios.
bench-mapping:
	{ $(GO) test -run '^$$' -bench BenchmarkSetupMapping -benchtime 5x ./internal/core/ && \
	  $(GO) test -run '^$$' -bench BenchmarkRegridderReconnect -benchtime 5x ./internal/transit/ ; } | \
	  $(GO) run ./cmd/benchjson $(if $(BASELINE),-baseline $(BASELINE)) \
	  -note "mapping engine: indexed sparse compiler vs brute-force baseline; plan-cache reconnect" \
	  -o BENCH_mapping.json
	@echo wrote BENCH_mapping.json

# bench-resize snapshots the elastic-resize benchmarks — the incremental
# delta compiler vs a from-scratch CompileSchedule of the same grow, the
# back-to-back compile_speedup ratio, the moved_frac share of the new
# need that crosses the wire, and the full collective Resize exchange —
# as BENCH_resize.json. Pass BASELINE=<file> to embed a prior snapshot
# for before/after ratios.
bench-resize:
	$(GO) test -run '^$$' -bench BenchmarkRegridderResize -benchmem -benchtime 20x ./internal/transit/ | \
	  $(GO) run ./cmd/benchjson $(if $(BASELINE),-baseline $(BASELINE)) \
	  -note "elastic 64->65 grow: incremental delta compile vs from-scratch schedule; moved_frac vs a cold full re-exchange" \
	  -o BENCH_resize.json
	@echo wrote BENCH_resize.json

# bench-bounded snapshots the memory-bounded exchange against the
# one-shot backend on the same 16-rank regrid: wall time, peak staging
# bytes (the live meter's high-water mark), bounded step count, and
# process peak RSS — as BENCH_bounded.json. Pass BASELINE=<file> to
# embed a prior snapshot for before/after ratios.
bench-bounded:
	$(GO) test -run '^$$' -bench BenchmarkBoundedExchange -benchmem -benchtime 10x -count 3 ./internal/core/ | \
	  $(GO) run ./cmd/benchjson $(if $(BASELINE),-baseline $(BASELINE)) \
	  -note "memory-bounded step schedule vs one-shot exchange, 16-rank 256x256 regrid; peak-staging-B is the measured arena high-water mark, peak-rss-B the process VmHWM" \
	  -o BENCH_bounded.json
	@echo wrote BENCH_bounded.json

# bench-fft snapshots the distributed 2D FFT workload: the full spectral
# timestep (four FFT passes + two slab<->pencil transposes) and the
# transpose phase alone, on 16 ranks over links slowed by an injected
# per-message transfer delay, with the DDR exchange at depth 1 (serial),
# the default double buffer (depth2), the full-ring pipeline
# (pipelined), and the hand-written one-message-per-peer transpose —
# as BENCH_fft.json. The overlap-ratio column is the share of wire time
# the pipelined schedule hid under pack/unpack. Pass BASELINE=<file> to
# embed a prior snapshot for before/after ratios.
bench-fft:
	$(GO) test -run '^$$' -bench BenchmarkFFT2D -benchtime 5x -count 3 ./internal/fft/ | \
	  $(GO) run ./cmd/benchjson $(if $(BASELINE),-baseline $(BASELINE)) \
	  -note "16-rank 256x256 distributed FFT over a 200us-per-message wire: pipelined DDR transpose vs serial rounds vs hand-written transpose; overlap-ratio = hidden wire share" \
	  -o BENCH_fft.json
	@echo wrote BENCH_fft.json
