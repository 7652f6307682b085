# Tier-1 gate (see ROADMAP.md): gofmt cleanliness + no Sscanf in the trace
# analysers + send<->handle pairing state in internal/obsv/causal.go only +
# vet + full build + race-mode tests of the
# engine and protocol core. The sim suite ranges over its own table of
# domain layouts (one cooperative domain, pairs, one domain per processor
# with the minimum lookahead) and runs at -cpu 1,4, so the processor
# coroutines are resumed both inline on a single P and by domain workers
# spread over several OS threads. The full suite (go test ./...) adds the
# application/harness integration tests, which take ~1 min. The analysis
# line covers the stats shards, the observability layer (including the
# request-span reconstruction and its fuzzed degradation tests) and the
# shastatrace CLI goldens and fixtures. It also holds the snapshot's blocks
# section to the old full-row builder on every application (10-16 s on a
# 2-core host) and runs the metrics snapshot's malloc-budget pin,
# TestSnapshotAllocsStayBounded (under 1 s), both without the race detector.
# The allocation line reruns the other malloc-budget pins (hand-off, message
# delivery, emission merge, batch hit, trace emission, untraced handler,
# wake-up, stats shards, the depth buffers' bound and a cluster's
# independence of its heap capacity) without the race detector, whose
# runtime allocates on its own and so cannot hold a malloc budget; the same
# line runs the root package's table of invalid configs, each of which must
# be a shasta: error, never a panic.
.PHONY: check test paper-check bench bench-compare gobench

check:
	@unformatted=$$(gofmt -l . 2>/dev/null); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	@if grep -l Sscanf $$(ls internal/obsv/*.go | grep -v _test.go); then \
		echo "Sscanf in internal/obsv: trace details are decoded once, by protocol.DecodeDetail"; exit 1; fi
	@if grep -nE 'sendKey|[^A-Za-z]Leg\{|Legs *= *append|(pending|fifo|inFlight)[A-Za-z]* *:?= *(map\[[^]]*\]\[\]|newQueues)' \
		$$(ls internal/obsv/*.go | grep -v -e _test.go -e /causal.go); then \
		echo "send<->handle pairing state outside internal/obsv/causal.go: BuildCausal is the one matcher, analysers read its leg table"; exit 1; fi
	go vet ./...
	go build ./...
	go test -race ./internal/protocol/
	go test -race -cpu 1,4 ./internal/sim/
	go test ./internal/stats/ ./internal/obsv/ ./cmd/shastatrace/
	go test -run 'DoesNotAllocate|NoAllocs|FormatsNothing|Amortizes|StayBounded|IndependentOfCapacity|NewClusterValidation' . ./internal/sim/ ./internal/protocol/ ./internal/stats/

test:
	go build ./... && go test ./...

# The paper's evaluation, byte for byte: the reports of Tables 1-3, Figures
# 3-8, the microbenchmark, the ANL comparison and the ablations (about two
# minutes) must equal cmd/shastabench/testdata/paper.golden. A change that
# moves a simulated number on purpose regenerates the golden with the same
# command and shows the diff in review. The exit status of shastabench is
# not the gate — the golden holds the one cell known to fail, as "failed"
# (EXPERIMENTS.md, "Known failure") — the diff is.
PAPER := table1 table2 table3 fig3 fig4 fig5 fig6 fig7 fig8 micro anl ablate
paper-check:
	go run ./cmd/shastabench $(PAPER) > .paper-check.out || true
	diff -u cmd/shastabench/testdata/paper.golden .paper-check.out
	@rm -f .paper-check.out

# Benchmark workflow (see PERFORMANCE.md). `make bench` runs the scale
# experiment's 16-256 processor sweep and writes BENCH_$(LABEL).json;
# `make bench-compare OLD=BENCH_pr22.json NEW=BENCH_local.json` gates the
# new snapshot against the old one (>10% normalized wall-clock growth or
# any virtual-result divergence fails). PROCS/TOPOLOGY narrow the sweep,
# e.g. `make bench PROCS=64`.
LABEL ?= local
TOL   ?= 0.10
BENCH_FLAGS := -label $(LABEL) -snapshot BENCH_$(LABEL).json
ifdef PROCS
BENCH_FLAGS += -procs $(PROCS)
endif
ifdef TOPOLOGY
BENCH_FLAGS += -topology $(TOPOLOGY)
endif

bench:
	go run ./cmd/shastabench $(BENCH_FLAGS) scale

bench-compare:
	@test -n "$(OLD)" -a -n "$(NEW)" || { echo "usage: make bench-compare OLD=BENCH_a.json NEW=BENCH_b.json"; exit 2; }
	go run ./cmd/benchgate -tol $(TOL) $(OLD) $(NEW)

# Host-level Go microbenchmarks (allocation counts, merge heap, stats
# shards); unrelated to the snapshot workflow above.
gobench:
	go test -bench . -benchmem ./...
