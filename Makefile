GO ?= go
PROFILE_FIG ?= 5

.PHONY: all build vet fmt-check verify test race bench profile fuzz fuzz-smoke parity-smoke shard-smoke policy-smoke scen-smoke daemon-smoke bench-smoke cover-check results results-check quick-results clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails if any file is not gofmt-clean (prints the offenders).
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Local/CI gate: tier-1 (build + test) plus lint. Tier-1 proper stays
# `go build ./... && go test ./...`; vet and gofmt ride along here.
verify: build vet fmt-check test

test:
	$(GO) test ./...

# The parallel experiment runner and the engine's concurrent callers run
# under the race detector; any data race here is a release blocker. The
# second line drives the gated path (internal/scenario over
# internal/harness) on every committed package at 4 shards: the trace
# Digest keeps scratch state between events and relies on the
# check.Hooks mutex to serialize the shard workers that feed it.
race:
	$(GO) test -race ./...
	$(GO) run -race ./cmd/realtor-scen run -all -shards 4

# The repo benchmark declared by BENCHMARK.json: five workloads, medians
# over repeated runs, one JSON result per workload on stdout
# (bench/README.md; `go run ./bench -workload W -repeat N -trace 1` for
# one workload, more samples, or the per-layer pass). The in-package
# microbenchmarks are plain `go test -bench . ./internal/<pkg>`.
bench:
	$(GO) run ./bench

# CPU+heap profile of one figure regeneration; open with `go tool pprof
# cpu.pprof`. `make profile PROFILE_FIG=5` (the default: Fig. 5, all five
# protocols on the 5x5 mesh) is the figure sweep the bench's `fig-sweep`
# workload times and the profile ROADMAP "Move the floor" quotes;
# override with PROFILE_FIG=scale-large etc.
profile:
	$(GO) run ./cmd/realtor-sim -fig $(PROFILE_FIG) -cpuprofile cpu.pprof -memprofile mem.pprof > /dev/null
	@echo "wrote cpu.pprof mem.pprof (go tool pprof cpu.pprof)"

# Short fuzz pass over every fuzz target (stdlib fuzzing, no deps).
fuzz:
	$(GO) test -fuzz FuzzPledgeList -fuzztime 15s ./internal/protocol
	$(GO) test -fuzz FuzzRunQueue -fuzztime 15s ./internal/agile/sched
	$(GO) test -fuzz FuzzCUS -fuzztime 15s ./internal/agile/sched
	$(GO) test -fuzz FuzzMeshMetrics -fuzztime 15s ./internal/topology
	$(GO) test -fuzz FuzzRemoveNodeLinks -fuzztime 15s ./internal/topology
	$(GO) test -fuzz FuzzCutRestoreEqualsRebuild -fuzztime 15s ./internal/topology
	$(GO) test -fuzz FuzzVariateBounds -fuzztime 15s ./internal/rng
	$(GO) test -fuzz FuzzDigestMatchesReference -fuzztime 15s ./internal/scenario

# Scenario-fuzzer smoke pass (CI gate, ~1 minute): a wide sweep of
# generated scenarios through the invariant oracle + fast-vs-reference
# differential, the metamorphic relations on a subset, and a mutation
# run that must catch the seeded soft-state-expiry bug.
fuzz-smoke:
	$(GO) run ./cmd/realtor-fuzz -seed 1 -n 500
	$(GO) run ./cmd/realtor-fuzz -seed 1 -n 150 -meta
	$(GO) run ./cmd/realtor-fuzz -seed 1 -n 100 -mutant

# Sharded-kernel smoke (CI gate, ~1 minute): the fuzz sweep — invariant
# oracle plus fast-vs-reference differential — replayed on the
# conservative-parallel kernel at 4 shards, and the seeded
# soft-state-expiry mutant must still be caught there. Divergence
# between this and the plain fuzz-smoke sweep means the sharded kernel
# reordered events.
shard-smoke:
	$(GO) run ./cmd/realtor-fuzz -backend sim -shards 4 -n 50
	$(GO) run ./cmd/realtor-fuzz -backend sim -shards 4 -n 50 -mutant

# Policy-middleware smoke (CI gate, ~1 minute): generated scenarios with
# the full traffic-protection stack forced on must stay oracle-clean
# (I1–I11) and differential-exact, on the sequential and the sharded
# kernel, and the seeded miswired-breaker mutant must be caught by the
# I10 audit.
policy-smoke:
	$(GO) run ./cmd/realtor-fuzz -seed 1 -n 200 -policy all
	$(GO) run ./cmd/realtor-fuzz -backend sim -shards 4 -n 50 -policy all
	$(GO) run ./cmd/realtor-fuzz -seed 1 -n 100 -mutant-breaker

# Sim/live parity smoke (CI gate, well under 2 minutes): the invariant
# oracle must stay silent on live-cluster replays of generated
# scenarios, the seeded mutant must be caught on the live backend too,
# and one fault-free scenario must agree across sim and live within the
# documented tolerance bands (EXPERIMENTS.md V2) at a high clock scale.
parity-smoke:
	$(GO) run ./cmd/realtor-fuzz -backend live -n 5
	$(GO) run ./cmd/realtor-fuzz -backend live -n 10 -mutant
	$(GO) run ./cmd/realtor-fuzz -parity -n 1 -seed 13 -scale 200

# Scenario-package smoke (CI gate, well under a minute): every committed
# package under scenarios/ gated on the sim backend at 1 and 4 shards —
# oracle clean, inside its expect bands, and byte-identical to its
# blessed golden.json (including the order-insensitive trace digest) at
# both shard counts — plus one package replayed on the live cluster,
# where only the expect bands apply (wall-clock runs are not
# digest-stable). Bless intentional behaviour changes with
# `realtor-scen bless -all` and review the golden diff in the PR.
scen-smoke:
	$(GO) run ./cmd/realtor-scen run -all
	$(GO) run ./cmd/realtor-scen run -all -shards 4
	$(GO) run ./cmd/realtor-scen run -backend live baseline-poisson

# Daemon smoke (CI gate, well under a minute): realtord booted against
# the committed scenario packages; two concurrent thin-client runs
# byte-compared (cmp) against local `realtor-scen run -json` output at
# 1 and 4 shards, a live-backend run cancelled mid-flight (must end
# "canceled" with no summary), and a SIGTERM drain that must exit 0.
# The daemon's goroutine-leak and HTTP error-path regressions live in
# internal/httpapi and run under `make race`.
daemon-smoke:
	sh scripts/daemon_smoke.sh

# Benchmark smoke (CI gate, a few seconds): the repo benchmark's unit
# tests, then one op per workload at reduced size through the real
# driver path, each byte-compared against its reference. A plumbing
# check — it prints no numbers worth reading; `go run ./bench` does
# (bench/README.md).
bench-smoke:
	$(GO) test ./bench
	$(GO) run ./bench -smoke

# Total line coverage with a pinned floor. The post-PR-10 baseline is
# 76.3% (the runsvc/httpapi/buildinfo management plane arrived fully
# tested, nudging the total up from 76.2%); the ~1-point cushion
# absorbs run-to-run noise from timing-dependent live-transport paths.
# Re-measured at PR 15, after the old benchmark differ and its tests
# left: 80.9%, the same as its parent commit, so the floor stands.
# Raise the floor as coverage grows; lowering it needs a written
# rationale in the PR.
COVER_FLOOR = 75.4
cover-check:
	$(GO) test -count=1 -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	echo "total coverage: $$total% (floor: $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { if (t+0 < f+0) { print "FAIL: coverage below floor"; exit 1 } }'

# Regenerate the checked-in experiment outputs (≈ 34 min on 2 cores,
# ≈ 30 of them one D1 cell: flood-REALTOR under exhaust at ~100k nodes;
# parallelised over GOMAXPROCS, output identical at any width).
results:
	$(GO) run ./cmd/realtor-report -out results

# The committed simulator tables are what the code produces, top rungs
# included: a full regeneration into a scratch directory compared file
# by file (skipped: the three live-cluster tables, which are wall-clock
# runs, and INDEX.md, whose committed line order is not the generator's
# and which TestResultsIndexMatchesDirectory checks as a set), then the
# two ladders again on the 4-shard kernel — `make results` writes with
# the classic one, so equality is the cross-shard proof at full scale.
# `go test ./cmd/realtor-report` pins every table but the ladders' top
# rungs on every test run; this is for those. ≈ 50 min on 2 cores at
# PR 22 (34 min, 13 s and — the D1 flood cell being where the sharded
# kernel does win — 17 min).
results-check:
	tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
		$(GO) run ./cmd/realtor-report -out "$$tmp" && \
		diff -r -x INDEX.md -x figure_9.txt -x deadlines.txt -x live_attack.txt results "$$tmp"
	$(GO) run ./cmd/realtor-sim -fig scale-large -shards 4 | cmp - results/scale_large.txt
	$(GO) run ./cmd/realtor-sim -fig discovery -shards 4 | cmp - results/discovery.txt

# CI-sized version of the same.
quick-results:
	$(GO) run ./cmd/realtor-report -quick -out results

clean:
	$(GO) clean ./...
