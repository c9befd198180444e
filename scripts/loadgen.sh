#!/bin/sh
# loadgen.sh — load generation for digammad.
#
# Without KILL_AFTER it runs the repo's one load generator, the bench
# runner (bench/run.sh), passing every argument on. Its served workloads
# pace requests open-loop and time each one from the moment it was due
# until its job is done:
#   scripts/loadgen.sh -workload serve-unique -seconds 10 -out su.json
#   scripts/loadgen.sh -workload serve-neardup -seconds 20
#
# Kill-after mode (crash-recovery smoke): starts a durable digammad, POSTs
# REQUESTS optimize requests at BUDGET with curl, SIGKILLs the server
# KILL_AFTER seconds in, restarts it over the same data dir, and verifies
# the interrupted jobs are recovered and finish.
#   KILL_AFTER=2 BUDGET=20000 REQUESTS=8 scripts/loadgen.sh
#   KILL_AFTER=2 ADDR=127.0.0.1:18418 BUDGET=20000 scripts/loadgen.sh
set -eu

cd "$(dirname "$0")/.."
KILL_AFTER=${KILL_AFTER:-}
if [ -z "$KILL_AFTER" ]; then
    exec bash bench/run.sh "$@"
fi
REQUESTS=${REQUESTS:-24}
BUDGET=${BUDGET:-300}
ADDR=${ADDR:-127.0.0.1:18418}

TMP=$(mktemp -d)
BIN=$TMP/digammad
trap 'rm -rf "$TMP"; [ -n "${SRV_PID:-}" ] && kill -9 "$SRV_PID" 2>/dev/null || true' EXIT
go build -o "$BIN" ./cmd/digammad

DATA=$TMP/data
URL="http://$ADDR"

wait_healthy() {
    i=0
    while ! curl -fsS "$URL/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        [ "$i" -ge 100 ] && { echo "loadgen: digammad did not come up at $URL" >&2; exit 1; }
        sleep 0.1
    done
}

metric() { # metric NAME -> value (0 when absent)
    curl -fsS "$URL/metrics" | awk -v m="$1" '$1 == m { print $2; found = 1 } END { if (!found) print 0 }'
}

"$BIN" -addr "$ADDR" -data-dir "$DATA" -checkpoint-every 2 &
SRV_PID=$!
wait_healthy
echo "loadgen: durable digammad up (pid $SRV_PID, data $DATA)"

# Fire the load in the background and SIGKILL the server mid-flight: a
# mix of four request shapes, each request with its own seed, so every
# one is a distinct job and jobs are still queued when the kill lands. A
# submit that races the kill fails, so curl's status is not checked.
i=0
while [ "$i" -lt "$REQUESTS" ]; do
    case $((i % 4)) in
    0) REQ='"model":"resnet18","platform":"edge","objective":"latency"' ;;
    1) REQ='"model":"mnasnet","platform":"edge","objective":"edp"' ;;
    2) REQ='"model":"resnet18","platform":"cloud","objective":"energy"' ;;
    3) REQ='"model":"mobilenetv2","platform":"edge","objective":"latency"' ;;
    esac
    curl -sS -o /dev/null "$URL/v1/optimize" -d "{$REQ,\"budget\":$BUDGET,\"seed\":$((100 + i))}" 2>>"$TMP/load.log" || true
    i=$((i + 1))
done &
LOAD_PID=$!
sleep "$KILL_AFTER"
kill -9 "$SRV_PID"
wait "$SRV_PID" 2>/dev/null || true
wait "$LOAD_PID" 2>/dev/null || true
echo "loadgen: SIGKILLed digammad after ${KILL_AFTER}s of load"

"$BIN" -addr "$ADDR" -data-dir "$DATA" -checkpoint-every 2 &
SRV_PID=$!
wait_healthy
RECOVERED=$(metric digammad_jobs_recovered_total)
echo "loadgen: restarted; digammad_jobs_recovered_total=$RECOVERED"
if [ "$RECOVERED" -lt 1 ]; then
    echo "loadgen: FAIL — no jobs recovered after SIGKILL (accepted work was lost)" >&2
    exit 1
fi

# Wait for every recovered job to reach a terminal state.
i=0
while :; do
    LIVE=$(curl -fsS "$URL/v1/jobs" | grep -c '"state": "\(queued\|running\)"' || true)
    [ "$LIVE" -eq 0 ] && break
    i=$((i + 1))
    [ "$i" -ge 600 ] && { echo "loadgen: FAIL — $LIVE recovered jobs still unfinished" >&2; exit 1; }
    sleep 0.5
done
DONE=$(metric 'digammad_jobs{state="done"}')
echo "loadgen: recovery complete — $DONE jobs done after restart"

# Observability smoke on the recovered server: the histogram metrics must
# expose well-formed families, and one finished job must serve its report.
# A job recovered terminal serves its persisted report but may have no
# trace (its flight recorder died with the first process), so the trace
# is reported and not required.
curl -fsS "$URL/metrics" | grep -q '^# TYPE digammad_build_info gauge$' \
    || { echo "loadgen: FAIL — /metrics missing digammad_build_info" >&2; exit 1; }
curl -fsS "$URL/metrics" | grep -q '^# TYPE digammad_search_latency_seconds histogram$' \
    || { echo "loadgen: FAIL — /metrics missing the latency histogram" >&2; exit 1; }
JOB=$(curl -fsS "$URL/v1/jobs" | sed -n 's/.*"id": "\(j[0-9]*\)".*/\1/p' | head -1)
if [ -n "$JOB" ]; then
    EVENTS=$(curl -fsS "$URL/v1/jobs/$JOB/trace" 2>/dev/null | grep -o '"ph":' | wc -l || true)
    PHASES=$(curl -fsS "$URL/v1/jobs/$JOB/report" | jq '.search.phases | length' || true)
    if [ "${PHASES:-0}" -lt 1 ]; then
        echo "loadgen: FAIL — job $JOB served no report phases" >&2
        exit 1
    fi
    echo "loadgen: observability smoke — job $JOB: $EVENTS trace events, $PHASES report rows"
fi
kill "$SRV_PID" 2>/dev/null
wait "$SRV_PID" 2>/dev/null || true
SRV_PID=
echo "loadgen: kill-after smoke PASS"
