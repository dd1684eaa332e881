GO ?= go

.PHONY: all build test race vet lint lint-json perfbench-check determinism bench bench-smoke bench-baseline scale-smoke

all: vet lint build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# lint runs congestlint (the repository's go/analysis suite: detmap,
# errflow, hotalloc, ledger, purity, seededrand, zeromask) plus a gofmt
# cleanliness check.
lint:
	$(GO) run ./cmd/congestlint ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi

# lint-json emits the same findings as machine-readable JSON (for CI
# annotations and tooling).
lint-json:
	$(GO) run ./cmd/congestlint -json ./...

# perfbench-check vets and short-tests the benchmark harness. perfbench is
# a module of its own, so the root `go test ./...` never compiles it; this
# catches a rename of any API it imports before the benchmark run does.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test -short ./...

# determinism builds allbench once and fails unless every registry table
# prints byte-identically at the default GOMAXPROCS and at GOMAXPROCS=1 —
# the engine's headline guarantee (a diff is a map-iteration order or
# scheduler race, never noise) — and identically to the committed golden
# tables in testdata/allbench.golden. A change that moves a table on
# purpose regenerates the golden file (go run ./cmd/allbench >
# testdata/allbench.golden) and says why.
determinism:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o "$$dir/allbench" ./cmd/allbench && \
	"$$dir/allbench" > "$$dir/default.txt" && \
	GOMAXPROCS=1 "$$dir/allbench" > "$$dir/one.txt" && \
	diff "$$dir/default.txt" "$$dir/one.txt" && \
	diff testdata/allbench.golden "$$dir/default.txt" && \
	echo "determinism: allbench identical at GOMAXPROCS=default and 1, and to testdata/allbench.golden"

bench:
	$(GO) test -bench=. -benchmem -run=NONE .

# bench-smoke regenerates seven registry tables once each. A sub-benchmark
# regex that matches nothing still exits 0, so the target also fails
# unless exactly seven BenchmarkTables/ results print.
bench-smoke:
	@out=$$($(GO) test -run '^$$' -bench 'Tables/^(E5|E9|E13|E14|E15|E18|E19)$$' -benchtime=1x .) || \
		{ echo "$$out"; exit 1; }; echo "$$out"; \
	n=$$(echo "$$out" | grep -c '^BenchmarkTables/'); \
	if [ "$$n" -ne 7 ]; then echo "bench-smoke: $$n BenchmarkTables/ results, want 7"; exit 1; fi

# scale-smoke runs the full zero-witness pipeline at 10⁵ nodes (grid +
# wheel, hybrid mode) with a bounded wall-clock — the CI guard that the
# million-node path stays subquadratic. The 10⁶ run itself lives in
# BenchmarkScaleMillionPipeline (make bench-baseline).
scale-smoke:
	$(GO) test -run 'TestScaleSmoke100k' -count=1 -v ./internal/experiments

# bench-baseline records the full benchmark suite as JSON for perf
# trajectory tracking across PRs (compare with benchstat or jq).
bench-baseline:
	$(GO) test -bench=. -benchtime=1x -run=NONE -json . > BENCH_baseline.json
