# DiGamma reproduction — build / test / benchmark entry points.

GO ?= go

.PHONY: all build vet test race check bench bench-smoke loadgen clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/evalcache/ ./internal/evalstore/ ./internal/par/ ./internal/cost/ ./internal/coopt/ ./internal/core/ ./internal/figures/ ./internal/serve/ ./internal/dist/

# loadgen runs the bench runner's serve-unique workload: open-loop unique
# requests through a durable digammad, each timed from due to done (see
# scripts/loadgen.sh; KILL_AFTER=N runs its crash-recovery smoke instead).
loadgen:
	./scripts/loadgen.sh -workload serve-unique -seconds 10

# check is the CI gate: everything tier-1 plus a one-iteration benchmark
# smoke so the figure pipelines stay runnable.
check: vet build test bench-smoke

bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem .

# bench records the core benchmark trajectory into BENCH_core.json
# (ns/op, B/op, allocs/op per benchmark) for cross-PR comparison.
bench:
	./scripts/bench.sh

clean:
	rm -f BENCH_core.json
