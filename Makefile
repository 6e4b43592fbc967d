# Developer targets for the RPM reproduction. `make check` is what CI
# (and the next PR's author) should run.

GO ?= go

# Scratch artifacts (coverage profile, bench-gate JSON) land here, not
# in the worktree root. The whole directory is git-ignored; CI uploads
# it as the run's artifact bundle.
OUT_DIR ?= out

# Seconds of fuzzing per target in `make fuzz`.
FUZZTIME ?= 10s

# --- Benchmark-regression gate (see README "Benchmark gate") ---------------
# The gated benchmarks cover the pipeline's hot paths: end-to-end fixed-
# parameter training, single prediction, the transform and predict-batch
# parallel kernels, the single-query transform kernel, the serving-layer
# predict round trip, the 1NN baselines, the Matcher short-query
# path, and the streaming append path. `make bench-baseline` refreshes the committed
# baseline; `make bench-gate` re-runs the benches and fails on a
# >$(MAX_REGRESS)% ns/op regression or any allocs/op increase against it
# (benchjson aggregates -count samples by min). Both the selection regex and the package list
# are overridable (`make bench-json BENCH_GATE_RE=...`) so one-off runs
# can benchmark a subset without editing this file.
BENCH_GATE_RE ?= ^Benchmark(RPMTrainFixed|RPMPredict|TransformParallel|TransformInto|PredictBatchParallel|ServePredict|NNEDParallel|NNDTWParallel|MatcherBestShort|StreamAppend|StreamAppendServed)$$
BENCH_GATE_PKGS ?= . ./internal/core ./internal/nn ./internal/dist ./internal/serve ./internal/stream
BENCH_BASELINE = BENCH_PR8.json
BENCH_CURRENT = $(OUT_DIR)/BENCH_PR8.tmp.json
MAX_REGRESS ?= 25
BENCH_GATE_RUN = $(GO) test -run xxx -bench '$(BENCH_GATE_RE)' -benchmem -benchtime 100ms -count 3 $(BENCH_GATE_PKGS)

# Minimum total test coverage (%) across the covered packages; `make
# cover` fails below this floor. Raise it as coverage grows; never lower
# it to make a PR pass.
COVER_FLOOR = 88.0

# Packages counted toward the coverage floor: the public API plus the
# pipeline-critical internals (the UCR reader, transform math, grammar
# induction, selection, instrumentation, the parallel substrate, and the
# serving layer).
COVER_PKGS = . \
	./internal/dataset \
	./internal/experiments/archive \
	./internal/serve \
	./internal/serve/client \
	./internal/faults \
	./internal/core \
	./internal/ts \
	./internal/paa \
	./internal/sax \
	./internal/dist \
	./internal/stream \
	./internal/sequitur \
	./internal/repair \
	./internal/cluster \
	./internal/features \
	./internal/stats \
	./internal/parallel \
	./internal/obs

.PHONY: all build test race vet fmt-check lint lint-drill bench fuzz cover check \
	bench-json bench-gate bench-baseline served-smoke chaos \
	archive-smoke perfbench-check examples-check golden-check golden-update

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detect every package. This used to be a 15-package allowlist of
# the parallel layer and its fan-out targets; it now covers the whole
# tree so a package cannot silently grow unraced concurrency.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Fail when any Go file is not gofmt-formatted, listing the offenders.
fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "files need gofmt:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi

# Project-specific static analysis (internal/lint via cmd/rpmlint): the
# determinism, error-taxonomy, concurrency-discipline, and nil-safe-obs
# invariants, mechanically enforced. Exit 1 on any finding; deliberate
# exceptions carry //rpmlint:ignore <analyzer> <reason> at the site.
# See DESIGN.md §11.
lint:
	$(GO) run ./cmd/rpmlint ./...

# Seeded-violation drill: one deliberately violating package per
# interprocedural analyzer (hotpathalloc, ctxflow, obsnames, faultsite,
# staleignore); rpmlint must exit 1 naming the analyzer, proving the
# gate can still fail.
lint-drill:
	./scripts/lint_drill.sh

# Parallel-stage benchmarks with the speedup metric (sequential vs
# GOMAXPROCS), at 1 and 4 procs.
bench:
	$(GO) test -run xxx -bench Parallel -cpu 1,4 ./internal/core ./internal/nn

# Boundary fuzzers: arbitrary bytes into the UCR reader, the model
# loader, and the serving layer's HTTP decode+validation boundary must
# yield a typed error or a working result — never a panic, and (for the
# HTTP surface) never a 500. FuzzRequestDecode is differential: the
# serving layer's canonical request decoder must decline or agree with
# encoding/json, value for value and response for response. One target
# per invocation (a Go fuzzing constraint).
fuzz:
	$(GO) test -run xxx -fuzz FuzzDatasetRead -fuzztime $(FUZZTIME) ./internal/dataset
	$(GO) test -run xxx -fuzz FuzzLoadClassifier -fuzztime $(FUZZTIME) .
	$(GO) test -run xxx -fuzz FuzzPredictRequest -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run xxx -fuzz FuzzStreamAppend -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run xxx -fuzz FuzzRequestDecode -fuzztime $(FUZZTIME) ./internal/serve

# Total test coverage over COVER_PKGS, enforced against COVER_FLOOR.
# `go tool cover -func` prints a trailing "total:" line; awk compares it
# to the floor and fails the target when coverage regresses.
cover:
	@mkdir -p $(OUT_DIR)
	$(GO) test -coverprofile=$(OUT_DIR)/coverage.out -covermode=atomic $(COVER_PKGS)
	@$(GO) tool cover -func=$(OUT_DIR)/coverage.out | tail -n 1
	@$(GO) tool cover -func=$(OUT_DIR)/coverage.out | awk -v floor=$(COVER_FLOOR) \
		'/^total:/ { got = $$3 + 0; if (got < floor) { \
			printf "coverage %.1f%% below floor %.1f%%\n", got, floor; exit 1 } \
		else printf "coverage %.1f%% >= floor %.1f%%\n", got, floor }'

# Run the gated benchmarks and write the machine-readable results to
# $(BENCH_CURRENT) (git-ignored).
bench-json:
	@mkdir -p $(OUT_DIR)
	$(BENCH_GATE_RUN) | $(GO) run ./cmd/benchjson -o $(BENCH_CURRENT)

# Fail when any gated benchmark regressed ns/op by more than
# $(MAX_REGRESS)% against the committed baseline $(BENCH_BASELINE).
bench-gate: bench-json
	$(GO) run ./cmd/benchjson -compare -max-regress $(MAX_REGRESS) $(BENCH_BASELINE) $(BENCH_CURRENT)

# Refresh the committed baseline (run on an idle machine; commit the
# result together with the change that legitimately moved the numbers).
bench-baseline:
	$(BENCH_GATE_RUN) | $(GO) run ./cmd/benchjson -o $(BENCH_BASELINE)

# Served smoke: build, train a model and serve it once with rpmserved,
# then drive it with rpmload under -strict: closed-loop predict traffic
# for SERVED_SMOKE_DURATION, 2s of open-loop traffic at 200 req/s, and
# streaming ingest (chunked appends round-robin over live streams) for
# SERVED_SMOKE_DURATION, then spot-check the stream registry listing and
# SSE framing. Fails on zero completed requests or any error envelope /
# transport error, and when retraining changes rpmcli's output.
SERVED_SMOKE_DURATION ?= 2s
served-smoke:
	./scripts/served_smoke.sh $(SERVED_SMOKE_DURATION)

# Chaos gate (DESIGN.md §13): the scripted fault-injection scenarios
# (TestChaos*, each run twice with the same seed — identical injected
# sequences and outcomes or the test fails) plus the binary-level chaos
# smoke (rpmserved under a live fault storm + corrupt reloads, driven by
# the retrying client, then drained mid-chaos). CI runs this as its own
# fail-fast job.
CHAOS_SMOKE_DURATION ?= 2s
chaos:
	$(GO) test -run 'TestChaos' -count 1 ./internal/serve
	./scripts/chaos_smoke.sh $(CHAOS_SMOKE_DURATION)

# Archive smoke (DESIGN.md §15): crash-resume proof for cmd/rpmarchive
# and one pass of every paper artifact through it, all under -strict.
# Trains a 3-dataset synthetic mini-archive, SIGKILLs the run after its
# first checkpoint lands, resumes, and requires the deterministic JSON
# table to be byte-identical to an uninterrupted run at a different
# worker count and to testdata/archive/fixed_seed3.json. It then
# re-runs an ablation table with -resume and requires the same bytes,
# and finally runs -exp all -quick -svg (Tables 1-4, Figs. 7-9, the
# §6.2 alarm case) on a 3-dataset subset; any failed row fails it.
archive-smoke:
	./scripts/archive_smoke.sh

# Cross-commit pin of the example programs: each examples/<name> is
# deterministic and prints no timings, so its stdout must match
# testdata/examples/<name>.txt byte for byte. A change that moves an
# output on purpose regenerates the file (README "Examples") and says
# why in CHANGES.md.
EXAMPLES = medicalalarm motifs patterns quickstart rotation
examples-check:
	@mkdir -p $(OUT_DIR)/examples
	@for e in $(EXAMPLES); do \
		$(GO) build -o $(OUT_DIR)/examples/$$e ./examples/$$e || exit 1; \
		$(OUT_DIR)/examples/$$e > $(OUT_DIR)/examples/$$e.txt || exit 1; \
		diff -u testdata/examples/$$e.txt $(OUT_DIR)/examples/$$e.txt || \
			{ echo "examples/$$e output differs from testdata/examples/$$e.txt" >&2; exit 1; }; \
	done
	@echo "examples-check: $(words $(EXAMPLES)) programs match testdata/examples"

# Cross-commit model ledger (ROADMAP item 1): TestGolden trains every
# cell of GOLDEN.json at Workers 1 and 8 and fails when the two disagree
# or when a model or prediction digest moved. `make golden-update`
# rewrites the file and is deliberate, like `bench-baseline`: a change
# that moves a digest on purpose says why in CHANGES.md.
golden-check:
	$(GO) test -count 1 -run '^TestGolden$$' ./internal/core

golden-update:
	$(GO) test -count 1 -run '^TestGolden$$' ./internal/core -args -golden.update

# The repo benchmark (perfbench/, run by perfbench/run.sh) is its own Go
# module built against this one, so `go test ./...` never compiles it.
# Vet and short-test it so a change to an API it uses fails the check.
perfbench-check:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test -short ./...

check: fmt-check build vet lint lint-drill test race cover fuzz served-smoke archive-smoke perfbench-check examples-check golden-check
