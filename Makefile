# Convenience targets for the flowsched reproduction.

GO ?= go

.PHONY: all build check lint-gofmt lint-determinism test race perfbench-test bench bench-update bench-go chaos chaos-short experiments quick profile fuzz cover clean

all: build check

build:
	$(GO) build ./...

# check is the default verify path: formatting, static analysis, the
# determinism lint, and the full test suite under the race detector.
check: lint-gofmt lint-determinism
	$(GO) vet ./...
	$(GO) test -race ./...

# lint-gofmt fails when any Go file outside the benchmark's build directory
# is not gofmt-formatted, listing the offenders (fix with gofmt -w).
lint-gofmt:
	@bad=$$(gofmt -l $$(find . -path ./.bench_build -prune -o -name '*.go' -print)); \
	if [ -n "$$bad" ]; then \
		echo "gofmt: files need formatting:"; \
		echo "$$bad"; exit 1; \
	fi
	@echo "gofmt: ok"

# lint-determinism guards the replayable core: non-test files in
# internal/sim, internal/obs, internal/overload and internal/elastic must
# not read wall-clock time or the global math/rand stream. Seeded generators
# (rand.New(rand.NewSource(...)), *rand.Rand parameters) are allowed — the
# grep strips constructor/type mentions, then fails on any remaining
# time.Now() or rand.<Func> hit.
lint-determinism:
	@bad=$$(grep -nE 'time\.Now\(|\brand\.[A-Z]' \
		$$(find internal/sim internal/obs internal/overload internal/elastic internal/hedge internal/resilience -name '*.go' ! -name '*_test.go') \
		| grep -vE 'rand\.(New|NewSource|Rand|Source)' || true); \
	if [ -n "$$bad" ]; then \
		echo "determinism lint: wall clock / global rand in simulator core:"; \
		echo "$$bad"; exit 1; \
	fi
	@echo "determinism lint: ok"

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# perfbench-test runs the tests of the benchmark module (perfbench/, its own
# go.mod), which the root ./... does not reach. perfbench/program.go is the
# benchmark's only door into the program, so an API change that breaks it
# fails here rather than at the next benchmark run.
perfbench-test:
	cd perfbench && $(GO) test ./...

# bench is the regression gate: it runs the registered suite (cmd/bench,
# internal/benchreg) and exits non-zero if any benchmark's ns/op regressed
# more than 15% against the newest checked-in BENCH_<n>.json. It is kept
# out of `check` (tier-1): wall-clock measurements are machine-dependent.
bench:
	$(GO) run ./cmd/bench

# bench-update additionally records the run as the next BENCH_<n>.json.
bench-update:
	$(GO) run ./cmd/bench -update

# bench-go runs the full go test benchmark inventory (bench_test.go).
bench-go:
	$(GO) test -bench=. -benchmem ./...

# chaos is the long soak: thousands of randomized workload × fault plan ×
# router trials through the invariant auditor, with failing trials shrunk
# to replayable repro files under chaos-repros/. A short deterministic-seed
# smoke of the same harness already runs under the race detector in
# `make check` (TestChaosSmoke in internal/chaos).
chaos:
	$(GO) run ./cmd/chaos -trials 5000 -maxm 16 -maxn 5000 -repro chaos-repros

# chaos-short is the 200-trial deterministic spot run (same seed as the
# checked-in smoke test). About a third of the trials churn membership
# (scripted scale events, occasionally the autoscaler) and another third
# hedge aged dispatches (delay, quantile or tied triggers, sampled in
# SampleParams), so this doubles as the membership-churn and hedged-
# execution soak CI runs on every push. The second step injects
# a known-broken router and asserts the black box works: a caught failure
# carries a flight-recorder dump that is written, read back and replayed to
# the identical event sequence.
chaos-short:
	$(GO) run ./cmd/chaos -trials 200
	$(GO) test ./internal/chaos -run 'TestFlightRecorderDumpReplay|TestRunAttachesFlightEvents' -count=1

# Regenerate every table and figure at paper sizes (m=15, 10k tasks,
# 100 permutations).
experiments:
	$(GO) run ./cmd/experiments all

# Fast smoke run of the whole evaluation.
quick:
	$(GO) run ./cmd/experiments -quick all

# profile captures CPU and heap profiles of a representative simulation
# sweep (flowsim with the observability probes attached). Inspect with
# `go tool pprof cpu.pprof` / `go tool pprof mem.pprof`.
profile:
	$(GO) run ./cmd/flowsim -m 15 -k 3 -n 20000 \
		-cpuprofile cpu.pprof -memprofile mem.pprof
	@echo "profiles written: cpu.pprof mem.pprof (go tool pprof <file>)"

fuzz:
	$(GO) test -fuzz=FuzzEFTDispatch -fuzztime=30s ./internal/sched/
	$(GO) test -fuzz=FuzzReadInstanceJSON -fuzztime=30s ./internal/core/
	$(GO) test -fuzz=FuzzReadScheduleJSON -fuzztime=30s ./internal/core/
	$(GO) test -fuzz=FuzzReadPlanJSON -fuzztime=30s ./internal/faults/
	$(GO) test -fuzz=FuzzRouterEquivalence -fuzztime=30s ./internal/sim/
	$(GO) test -fuzz=FuzzRunRejectsLikeValidate -fuzztime=30s ./internal/sim/
	$(GO) test -fuzz=FuzzGuardedDisposition -fuzztime=30s ./internal/sim/
	$(GO) test -fuzz=FuzzElasticMembership -fuzztime=30s ./internal/sim/
	$(GO) test -fuzz=FuzzHedgedDispatch -fuzztime=30s ./internal/sim/
	$(GO) test -fuzz=FuzzBreakerStateMachine -fuzztime=30s ./internal/resilience/
	$(GO) test -fuzz=FuzzAuditMatchesSortedScan -fuzztime=30s ./internal/audit/
	$(GO) test -fuzz=FuzzValidateMatchesSortedScan -fuzztime=30s ./internal/core/

cover:
	$(GO) test -coverprofile=cover.out ./... && $(GO) tool cover -func=cover.out | tail -1

clean:
	rm -f cover.out test_output.txt bench_output.txt cpu.pprof mem.pprof
