GO ?= go

.PHONY: all build test race race-runner lint determinism fault-smoke chaos-smoke timeline-smoke fleet-smoke crash-smoke perfbench-test bench-smoke bench-gate bench-json bench-baseline profile-sweep flaky figures-gate goldens

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race job runs the short suite: long soak tests carry testing.Short()
# guards so the race detector's ~10x slowdown stays within CI budget.
race:
	$(GO) test -race -short ./...

# The parallel fan-out path under the race detector, uncached: the worker
# pool's claiming/panic plumbing plus the serial-vs-parallel equivalence
# sweep that runs real rigs on concurrent goroutines.
race-runner:
	$(GO) test -race -count=1 -run 'Pool|Harness|SerialParallel|SetDigest' ./internal/experiments/ ./internal/trace/

lint:
	@fmt_out=$$(gofmt -l .); \
	if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; \
	fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (CI runs the pinned version)"; \
	fi
	@if command -v shellcheck >/dev/null 2>&1; then \
		shellcheck scripts/*.sh; \
	else \
		echo "lint: shellcheck not installed; skipping (CI runs it)"; \
	fi

# The determinism gate: every replay scenario twice with the same seed,
# asserting bit-identical trace digests (see internal/trace/replay_test.go).
determinism:
	$(GO) test -run Determinism -count=1 ./...

# Fault-injection smoke: a faulted fiosim run must complete (the driver's
# timeout/retry recovery absorbs the injections), count them, and stay
# byte-identical between serial and parallel execution.
fault-smoke:
	bash scripts/fault_smoke.sh

# Chaos-campaign smoke: a fixed-seed campaign of generated fault schedules
# under a write-then-verify workload must come back green (no data-integrity
# or CID-accounting invariant violated), catch at least one injected hazard,
# and stay byte-identical between serial and parallel execution. Failing
# seeds are printed with their copy-pasteable `fiosim -chaos <seed>,1`
# replay.
chaos-smoke:
	bash scripts/chaos_smoke.sh

# Always-on telemetry smoke: a timeline-recording fiosim run must export a
# Perfetto trace that is byte-identical between serial and parallel
# execution, matches the committed golden digest
# (goldens/timeline_smoke.sha256), and round-trips through the offline
# viewer (`bmsctl timeline`) to the same tail-attribution summary.
timeline-smoke:
	bash scripts/timeline_smoke.sh

# Fleet-simulator smoke: a small rolling hot-upgrade fleet must PASS the
# health gate with zero tenant I/O errors, report byte-identically between
# serial and parallel execution, match the committed fleet digest
# (goldens/fleet_smoke.digest), and round-trip through `bmsctl fleet`.
fleet-smoke:
	bash scripts/fleet_smoke.sh

# Crash-recovery smoke: a fixed-seed crash-point sweep (one crash per
# pipeline-stage boundary, verified through recovery by the chaos oracle)
# must PASS, report byte-identically across serial/parallel and
# GOMAXPROCS 1/2/8, match the committed sweep digest
# (goldens/crash_smoke.digest), and load in `bmsctl crash`. Failing
# points are printed as exact replay commands.
crash-smoke:
	bash scripts/crash_smoke.sh

# The host-cost benchmark's tests (perfbench/ is its own Go module, so the
# root `go test ./...` does not reach them): the simulated-result oracle on
# every committed seed and the held-out seed, fused == digest-traced
# results, sliced == one-shot run digests, and the layer-accounting checks.
# Like perfbench/run.sh it builds with -mod=mod, so a perfbench/go.mod whose
# `go` line trails the root module's still builds; -modfile points that
# rewrite at a temporary copy, leaving perfbench/ untouched.
perfbench-test:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	cp perfbench/go.mod "$$tmp/go.mod" && \
	cd perfbench && GOFLAGS=-mod=mod $(GO) test -modfile="$$tmp/go.mod" .

# One iteration of every benchmark — catches bit-rot in benchmark code and
# gives a cheap overhead spot-check without a full measurement run.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Alloc-regression gate: the kernel throughput benchmarks AND the
# end-to-end I/O path benchmark must stay at the committed allocs/op
# baseline (scripts/bench_allocs_baseline.txt).
bench-gate:
	bash scripts/check_bench_allocs.sh

# Re-bless the alloc baselines after an intentional allocation change; the
# commit diff is the written justification the baseline header asks for.
bench-baseline:
	bash scripts/bless_bench_allocs.sh

# Machine-readable performance snapshot: fast-sweep wall clock (serial and
# parallel), ns/event, and allocs/op of the gated benchmarks, written to
# BENCH_7.json (override with BENCH_JSON_OUT). CI uploads it as an artifact.
bench-json:
	bash scripts/bench_json.sh

# CPU and heap profile of the serial fast sweep plus pprof -top summaries;
# artifacts land in PROFILE_OUT (default /tmp/bmstore-profile).
PROFILE_OUT ?= /tmp/bmstore-profile
profile-sweep:
	mkdir -p $(PROFILE_OUT)
	$(GO) run ./cmd/bmstore-bench -scale fast -parallel 1 \
		-cpuprofile $(PROFILE_OUT)/cpu.pprof -memprofile $(PROFILE_OUT)/mem.pprof \
		> $(PROFILE_OUT)/bench_tables.txt
	$(GO) tool pprof -top -nodecount=25 $(PROFILE_OUT)/cpu.pprof
	$(GO) tool pprof -top -nodecount=25 -sample_index=alloc_objects $(PROFILE_OUT)/mem.pprof

# Paper-fidelity gate: regenerate the fast evaluation sweep, compare every
# structured Result against goldens/*.json (exact cells + the paper-shape
# assertions in internal/fidelity), and verify the committed
# bench_tables.txt matches the regenerated rendering byte for byte.
# Artifacts (results.json, fidelity_report.txt, bench_tables.txt/diff)
# land in $$FIGURES_OUT for CI upload.
figures-gate:
	bash scripts/figures_gate.sh

# Bless the current fast-sweep numbers: rewrite goldens/*.json and
# bench_tables.txt in one run. Refused if the fresh results violate any
# paper-shape rule — recalibration may move numbers, never the story.
goldens:
	$(GO) run ./cmd/bmstore-bench -scale fast -trace-digest -write-goldens goldens > bench_tables.txt

# Flakiness sweep: the full suite twice, fresh processes, no test cache.
flaky:
	$(GO) test -count=2 ./...
