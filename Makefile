GO ?= go

.PHONY: all build test check race bench bench-json cover serve chaos pool-smoke loc clean

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

# serve builds the campaign HTTP server and smoke-tests it end to end:
# POST the Table 2 campaign to a loopback listener, cold then warm cache.
serve:
	$(GO) build ./cmd/ensembled
	$(GO) run ./cmd/ensembled -smoke

# chaos is the crash-recovery smoke: start a server, SIGKILL it
# mid-campaign, restart it on the same state dir, and require the resumed
# campaign to complete with results identical to an uninterrupted run.
chaos:
	$(GO) run ./cmd/ensembled -smoke-chaos

# pool-smoke is the distributed-fabric smoke: three ensembled processes
# form a localhost pool, a campaign sharded across them must fingerprint
# identically to a single-node run (even with one peer SIGKILLed
# mid-campaign), and the pool metrics must show cross-node cache hits.
pool-smoke:
	$(GO) run ./cmd/ensembled -smoke-pool

cover:
	$(GO) test -cover ./...

# loc prints the non-test Go line count outside bench/ — the size number
# ROADMAP item 3 asks every PR to record in CHANGES.md.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | xargs cat | wc -l

clean:
	$(GO) clean ./...
