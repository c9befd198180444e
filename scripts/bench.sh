#!/bin/sh
# bench.sh — record the core benchmark trajectory.
#
# Runs the evaluation-hot-path benchmarks with -benchmem and writes
# BENCH_core.json: one record per benchmark with ns/op, B/op and allocs/op
# (plus bestfit/op, reused/op and fullevals/op for the search rows), so
# future PRs can compare against the numbers this tree produces.
#
# Usage:
#   scripts/bench.sh [output.json]
#   BENCHTIME=2s scripts/bench.sh     # longer runs for stabler numbers
#   ISLANDS=8 scripts/bench.sh        # island count for the served island row
set -eu

cd "$(dirname "$0")/.."
OUT=${1:-BENCH_core.json}
BENCHTIME=${BENCHTIME:-1s}
ISLANDS=${ISLANDS:-4}

RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

go test -run '^$' \
    -bench 'BenchmarkEvaluate$|BenchmarkEvaluatePhysical$|BenchmarkCostAnalyze$|BenchmarkDiGammaSearch$|BenchmarkDiGammaSearchDelta$|BenchmarkDiGammaSearchPruned$|BenchmarkDiGammaSearchIslands$|BenchmarkDiGammaSearchTraced$|BenchmarkDiGammaSearchSharedCache$' \
    -benchmem -benchtime "$BENCHTIME" . | tee "$RAW"

# One-generation rung: a single breed-and-score step on a fresh resnet50
# and ncf population, at one core (the serial path) and two (the island's
# evaluation crew scores children while the brood is still being bred).
# Rows are named .../cpu=N, since the awk below strips the -N suffix.
go test -run '^$' -bench 'BenchmarkGeneration$' -cpu 1,2 \
    -benchmem -benchtime "$BENCHTIME" ./internal/core/ |
    sed -E 's#^(BenchmarkGeneration/[a-z0-9]+)-([0-9]+)([[:space:]])#\1/cpu=\2\3#; s#^(BenchmarkGeneration/[a-z0-9]+)([[:space:]])#\1/cpu=1\2#' |
    tee -a "$RAW"

# Warm-start index rung under the served rows: filing one finished search
# into a disk-backed store whose index holds 48 or 1024 records of a
# 12-layer model (one 'R' segment frame, flushed to the OS).
go test -run '^$' -bench 'BenchmarkRecordResult$' \
    -benchmem -benchtime "$BENCHTIME" ./internal/evalstore/ | tee -a "$RAW"

# Serving rows: one end-to-end served search (submit → queue → run →
# long-poll), the same search on the K-island engine (ISLANDS knob), one
# dedup hit served straight from the result store, the near-duplicate
# warm-traffic pair (cold vs shared-tier + warm-start + time-to-target;
# the warm/cold ratio is the cross-request reuse headline, gated ≥ 2× by
# bench_guard.sh), the K=32 sweep pair (independent submits vs one batch;
# the independent/batch ratio is the batch amortization headline, gated
# ≥ 1.5× by bench_guard.sh), and the 4-tenant fair-scheduling mix.
DIGAMMAD_BENCH_ISLANDS=$ISLANDS go test -run '^$' \
    -bench 'BenchmarkServeOptimize$|BenchmarkServeOptimizeIslands$|BenchmarkServeDedup$|BenchmarkServeWarmTraffic$|BenchmarkServeBatchSweep$|BenchmarkServeMultiTenant$' \
    -benchmem -benchtime "$BENCHTIME" ./internal/serve/ | tee -a "$RAW"

# Distributed island sharding: the same 8-island EvalDelay-bound search
# in-process vs sharded across 4 spawned worker processes. bestfit/op must
# be identical between the rows — distribution is a pure wall-clock
# optimization (bench_guard.sh gates the speedup and the equality).
go test -run '^$' -bench 'BenchmarkDistIslands$' \
    -benchtime "$BENCHTIME" ./internal/dist/ | tee -a "$RAW"

# Wire rung under the distributed row: one 8-island resnet50 migration
# boundary through the real framing, with no search around it (binary round
# acks encoded and decoded, their exports forwarded as the next rounds'
# deliveries, deliveries decoded to elites).
go test -run '^$' -bench 'BenchmarkBoundaryWire$' \
    -benchmem -benchtime "$BENCHTIME" ./internal/dist/ | tee -a "$RAW"

# Served tail latency: the selftest's open-loop sustained phase over a
# small rate sweep, recorded as mean/p95/p99 rows so SLO drift shows up in
# the same trajectory file as the throughput rows.
for RATE in ${SUSTAIN_RATES:-2 6}; do
    go run ./cmd/digammad -selftest -requests 8 -clients 4 -no-warm \
        -budget "${SUSTAIN_BUDGET:-240}" -sustain "${SUSTAIN_DUR:-4s}" \
        -rate "$RATE" -bench-lines -log-level error | grep '^Benchmark' | tee -a "$RAW"
done

awk '
BEGIN { print "[" ; first = 1 }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)           # strip the GOMAXPROCS suffix
    ns = ""; bytes = ""; allocs = ""; bestfit = ""; reused = ""; fullevals = ""; hitrate = ""; sharedhits = ""; p95 = ""; p99 = ""; wire = ""
    for (i = 2; i <= NF; i++) {
        if ($(i) == "ns/op")         ns         = $(i - 1)
        if ($(i) == "B/op")          bytes      = $(i - 1)
        if ($(i) == "allocs/op")     allocs     = $(i - 1)
        if ($(i) == "bestfit/op")    bestfit    = $(i - 1)
        if ($(i) == "reused/op")     reused     = $(i - 1)
        if ($(i) == "fullevals/op")  fullevals  = $(i - 1)
        if ($(i) == "hitrate/op")    hitrate    = $(i - 1)
        if ($(i) == "sharedhits/op") sharedhits = $(i - 1)
        if ($(i) == "p95_ns/op")     p95        = $(i - 1)
        if ($(i) == "p99_ns/op")     p99        = $(i - 1)
        if ($(i) == "wire_B/boundary") wire     = $(i - 1)
    }
    if (ns == "") next
    if (!first) print ","
    first = 0
    printf "  {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s", \
        name, ns, (bytes == "" ? "null" : bytes), (allocs == "" ? "null" : allocs)
    if (bestfit != "") printf ", \"bestfit_per_op\": %s", bestfit
    if (reused != "") printf ", \"reused_per_op\": %s", reused
    if (fullevals != "") printf ", \"fullevals_per_op\": %s", fullevals
    if (hitrate != "") printf ", \"hitrate_per_op\": %s", hitrate
    if (sharedhits != "") printf ", \"sharedhits_per_op\": %s", sharedhits
    if (p95 != "") printf ", \"p95_ns_per_op\": %s", p95
    if (p99 != "") printf ", \"p99_ns_per_op\": %s", p99
    if (wire != "") printf ", \"wire_bytes_per_boundary\": %s", wire
    printf "}"
}
END { print "\n]" }
' "$RAW" > "$OUT"

echo "wrote $OUT"
