# Reproduction of "Self-adaptive applications on the grid" — build and
# verification entry points. `make verify` is the gate every change
# must pass: it compiles everything, runs go vet, refuses files gofmt
# would change, and runs the whole test suite under the race detector
# (the adaptation kernel is fed concurrently by transport handlers in
# the real runtime, so -race is not optional here).

GO ?= go

.PHONY: build test vet fmt race verify scale gridsim chaos bench fuzz-smoke satind-smoke replay-smoke reach goldens

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Fails, listing them, when any file is not gofmt-formatted.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

race:
	$(GO) test -race ./...

verify: build vet fmt race

# The rows too slow for tier-1: the 10,000-node sharded world (45-46 s
# on a shared 2-CPU box that ran the code before the engines' draw
# buffer in 50-53 s, alternated in the same hour; CI fails the step past
# 90 s), next to the 2,000-node row `go test ./...` runs. Not under
# -race: the simulator is single-goroutine and the detector makes it
# ten times slower.
scale:
	$(GO) test -tags scale -run TestShardedScaleWorld ./internal/des

# Fails on a function that no cmd/* or examples/* binary links unless
# scripts/reach_allow.txt lists it with its reason, and on a listed one
# that is linked again or gone (see scripts/check_reach.sh).
reach:
	./scripts/check_reach.sh

# Rewrites every golden the simulator and the coordinator own from
# what the code prints: the period-log digests TestPeriodLogGolden
# reads, the des_paper and des_scale benchmark digests, EXPERIMENTS.md's
# Figure 1 rows and the coordinator tree's decision golden (see
# scripts/goldens.sh). A PR that may move simulated decisions runs it
# and commits what it writes; CI fails when it would change a file.
goldens:
	./scripts/goldens.sh

# Run the paper's evaluation scenarios (Figure 1 table + period logs).
gridsim:
	$(GO) run ./cmd/gridsim -scenario all

# Deque/steal/runtime microbenchmarks (one iteration each: a smoke run
# that proves every benchmark still compiles and executes; for timing
# numbers use -benchtime/-count as in EXPERIMENTS.md), followed by the
# repo's benchmark (BENCHMARK.json): the five workloads at --seed 1
# plus one traced run per workload, reports under results/bench/.
bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x -count=1 ./internal/deque ./internal/steal ./satin ./internal/transport/wire ./internal/coord
	./benchmark/run.sh

# Short fuzz smoke over the adversarial-input paths (`go test -fuzz`
# accepts one target per invocation, hence one line each): the wirefmt
# reader, the task payload decoder, the binary control-frame decoder,
# the batch envelope parser, the receive session's (epoch, seq) cursor
# (every frame it does not refuse reaches its handler before delivery
# returns), the coordinator tree's summary/ack/reset frames, the TCP
# hub's socket envelope, the job service's submit path (decode plus
# spec check), its other frames, its -shape/-load parser and its
# -stages grammar, and the record store's line reader and its index's
# fast path.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzReader -fuzztime=10s ./internal/wirefmt
	$(GO) test -run=NONE -fuzz=FuzzTaskPayload -fuzztime=10s ./satin
	$(GO) test -run=NONE -fuzz=FuzzBinaryFrameDecode -fuzztime=10s ./internal/transport/wire
	$(GO) test -run=NONE -fuzz=FuzzBatchEnvelope -fuzztime=10s ./internal/transport/wire
	$(GO) test -run=NONE -fuzz=FuzzSessionFrames -fuzztime=10s ./internal/transport/wire
	$(GO) test -run=NONE -fuzz=FuzzTreeFrames -fuzztime=10s ./internal/coord
	$(GO) test -run=NONE -fuzz=FuzzTCPFrame -fuzztime=10s ./internal/transport
	$(GO) test -run=NONE -fuzz=FuzzSubmitRequest -fuzztime=10s ./internal/job
	$(GO) test -run=NONE -fuzz=FuzzJobFrames -fuzztime=10s ./internal/job
	$(GO) test -run=NONE -fuzz=FuzzParseKV -fuzztime=10s ./internal/job
	$(GO) test -run=NONE -fuzz=FuzzParseStages -fuzztime=10s ./internal/job
	$(GO) test -run=NONE -fuzz=FuzzReadLogFrom -fuzztime=10s ./internal/store
	$(GO) test -run=NONE -fuzz=FuzzRowKeys -fuzztime=10s ./internal/store

# End-to-end smoke of the multi-job service: start satind, run two
# jobs concurrently through the client, check results and per-job
# metrics, drain with SIGTERM.
satind-smoke:
	./scripts/satind_smoke.sh

# Durable-record smoke: gridsim with -record-db, then cmd/replay must
# reproduce the live period log byte-for-byte from the store and
# -compare must accept a faithful rerun.
replay-smoke:
	./scripts/replay_smoke.sh

# Chaos harness: the full seeded scenario corpora (24 randomized batch
# DES scenarios, 24 sharded-tree scenarios with coordinator kills, and
# 24 streaming scenarios checked against the latency-SLO invariants),
# the fault-transport unit tests, and the live-runtime chaos tests —
# all under the race detector. A failure prints its seed; replay one
# scenario with
#   go test ./internal/chaos -run 'ChaosCorpusDES/seed=N'
chaos:
	$(GO) test -race -run Chaos ./...
