GO ?= go

.PHONY: all build test check race bench bench-json cover loc clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check fails if vet reports problems, any file is not gofmt-clean, or
# a metric family violates the naming conventions (telemetry.Lint).
check:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) test -run 'Lint' ./internal/telemetry/ ./internal/campaign/ ./internal/campaign/pool/

# race runs the whole test suite under the race detector; the campaign
# service makes every package a concurrency consumer.
race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem .

# bench-json runs the full benchmark suite and writes a dated,
# machine-readable snapshot (BENCH_<date>.json) for committing alongside
# perf-sensitive changes; cmd/benchjson aggregates the BENCH_COUNT runs of
# each benchmark (about 80 s per run) into means.
BENCH_COUNT ?= 5
bench-json:
	$(GO) test -run '^$$' -bench=. -benchmem -count $(BENCH_COUNT) -timeout 60m . | $(GO) run ./cmd/benchjson -o BENCH_$$(date +%Y-%m-%d).json

cover:
	$(GO) test -cover ./...

# loc prints the non-test Go line count outside bench/ — the size number
# ROADMAP item 3 asks every PR to record in CHANGES.md.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | xargs cat | wc -l

clean:
	$(GO) clean ./...
