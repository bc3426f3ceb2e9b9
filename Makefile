# Reproduction of "Self-adaptive applications on the grid" — build and
# verification entry points. `make ci` is the gate every change must
# pass and the one step CI runs: scripts/ci.sh, every phase in order,
# each with its timeout and wall time. `make verify` is its main phase:
# it compiles everything, runs go vet, refuses files gofmt would change,
# and runs the whole test suite under the race detector (the adaptation
# kernel is fed concurrently by transport handlers in the real runtime,
# so -race is not optional here). The other targets run one phase each.

GO ?= go

.PHONY: ci build test vet fmt race verify scale gridsim chaos bench bench-smoke fuzz-smoke satind-smoke replay-smoke reach goldens

ci:
	./scripts/ci.sh

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

# The rows too slow for tier-1: the 10,000-node sharded world (26 s on a
# 2-CPU box; CI fails the phase past 90 s), next to the 2,000-node row
# `go test ./...` runs.
# Not under -race: the simulator is single-goroutine and the detector
# makes it ten times slower.
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

# Every go-test benchmark compiles and runs one iteration: a smoke, not
# a timing (for numbers use -benchtime/-count as in EXPERIMENTS.md).
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# The smoke, then the repo's benchmark (BENCHMARK.json): the five
# workloads at --seed 1 plus one traced run per workload, reports under
# results/bench/.
bench: bench-smoke
	./benchmark/run.sh

# Every Fuzz target `go test -list` finds, 10 s each in its own package
# (`go test -fuzz` takes one target per invocation): the codecs' and the
# job service's adversarial-input paths, the wire's receive session, the
# record store's line reader and its index.
fuzz-smoke:
	@list=$$($(GO) test -list '^Fuzz' ./...) || { echo "$$list"; exit 1; }; \
	targets=$$(echo "$$list" | awk '/^Fuzz/ { f[++n] = $$1 } /^ok/ { for (i = 1; i <= n; i++) print f[i], $$2; n = 0 }'); \
	[ -n "$$targets" ] || { echo "fuzz-smoke: go test -list found no Fuzz target"; exit 1; }; \
	echo "$$targets" | while read -r fuzz pkg; do \
		echo "$(GO) test -run=NONE -fuzz=^$$fuzz\$$ -fuzztime=10s $$pkg"; \
		$(GO) test -run=NONE -fuzz="^$$fuzz\$$" -fuzztime=10s "$$pkg" </dev/null || exit 1; \
	done

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
