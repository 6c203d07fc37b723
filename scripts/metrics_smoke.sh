#!/usr/bin/env bash
# End-to-end smoke test of the observability pipeline with a real daemon:
#
#   1. `GET /v1/metrics` serves valid Prometheus text exposition before
#      any traffic, with every core serve family pre-registered;
#   2. after a real job executes, the request/queue/execute histograms
#      and job counters have moved, and `ops_report --require` validates
#      the scrape offline;
#   3. a second job on the same workload reuses the daemon's synthesised
#      program instead of building it again (`ops_report --require` on
#      the program build/reuse counters);
#   4. `/v1/stats` carries per-endpoint latency percentiles;
#   5. a graceful drain exports `spans.trace.json`, which the shared
#      Chrome-trace validator (via telemetry_check) accepts and
#      `ops_report --spans` folds into a per-span table.
#
# Needs: target/release/{ipsim_serve,ops_report,telemetry_check}
# (make build), curl, jq.
set -euo pipefail

SERVE=${SERVE:-target/release/ipsim_serve}
OPS_REPORT=${OPS_REPORT:-target/release/ops_report}
TELEMETRY_CHECK=${TELEMETRY_CHECK:-target/release/telemetry_check}
PORT=$((21000 + RANDOM % 20000))
ADDR="127.0.0.1:${PORT}"
ROOT=$(mktemp -d /tmp/ipsim-metrics-smoke.XXXXXX)
DAEMON_PID=""

SPEC='{"v":1,"runs":[{"config":"single_core","workload":"db","prefetcher":"nl_tagged","policy":"install_both","warm":50000,"measure":100000}]}'
# Same workload, different prefetcher: a new run over the same program.
SPEC2='{"v":1,"runs":[{"config":"single_core","workload":"db","prefetcher":"none","policy":"install_both","warm":50000,"measure":100000}]}'

# Families the scrape must always carry (pre-registered at Service::open).
REQUIRED="ipsim_serve_requests_total,ipsim_serve_request_micros,ipsim_serve_queue_depth,ipsim_serve_inflight_jobs,ipsim_serve_jobs_submitted_total,ipsim_serve_dedup_total,ipsim_serve_rejected_total,ipsim_serve_jobs_total,ipsim_serve_queue_wait_micros,ipsim_serve_job_execute_micros"

cleanup() {
    [ -n "${DAEMON_PID}" ] && kill -9 "${DAEMON_PID}" 2>/dev/null || true
    rm -rf "${ROOT}"
}
trap cleanup EXIT

fail() {
    echo "metrics_smoke: FAIL: $*" >&2
    exit 1
}

echo "== boot =="
"${SERVE}" --bind "${ADDR}" --dir "${ROOT}/serve" --cache "${ROOT}/cache" \
    --traces none --workers 2 >>"${ROOT}/daemon.log" 2>&1 &
DAEMON_PID=$!
for _ in $(seq 1 100); do
    curl -sf "http://${ADDR}/v1/healthz" >/dev/null 2>&1 && break
    kill -0 "${DAEMON_PID}" 2>/dev/null || fail "daemon died during boot"
    sleep 0.1
done
curl -sf "http://${ADDR}/v1/healthz" >/dev/null || fail "daemon never answered healthz"

echo "== cold scrape: valid exposition, every family pre-registered =="
CTYPE=$(curl -s -o "${ROOT}/cold.prom" -w '%{content_type}' "http://${ADDR}/v1/metrics")
case "${CTYPE}" in
text/plain*) ;;
*) fail "unexpected /v1/metrics content type '${CTYPE}'" ;;
esac
"${OPS_REPORT}" --metrics "${ROOT}/cold.prom" --require "${REQUIRED}" >/dev/null ||
    fail "cold scrape missing required families"
echo "   ok: cold scrape parses and carries all $(echo "${REQUIRED}" | tr ',' '\n' | wc -l) families"

# Submits a job spec and waits until it is done.
run_job() {
    local id state
    id=$(curl -s -X POST -H 'Content-Type: application/json' -H 'X-Client-Id: smoke' \
        -d "$1" "http://${ADDR}/v1/jobs" | jq -r .id)
    [ "${id}" != "null" ] || fail "submit returned no job id"
    for _ in $(seq 1 600); do
        state=$(curl -s "http://${ADDR}/v1/jobs/${id}" | jq -r .state)
        [ "${state}" = "done" ] && return 0
        [ "${state}" = "failed" ] && fail "job failed"
        sleep 0.2
    done
    fail "job never finished"
}

echo "== run a job, metrics move =="
run_job "${SPEC}"

curl -s "http://${ADDR}/v1/metrics" >"${ROOT}/warm.prom"
"${OPS_REPORT}" --metrics "${ROOT}/warm.prom" --require "${REQUIRED}" >"${ROOT}/ops.txt" ||
    fail "warm scrape failed validation"
grep -q 'ipsim_serve_jobs_total{state="done"} 1' "${ROOT}/warm.prom" ||
    fail "jobs_total{state=done} did not reach 1"
grep -q 'ipsim_serve_job_execute_micros_count 1' "${ROOT}/warm.prom" ||
    fail "execute histogram did not record the run"
grep -q '== histograms ==' "${ROOT}/ops.txt" || fail "ops_report rendered no histogram table"
echo "   ok: job counters and execute histogram moved; ops_report renders"

echo "== a second job on the same workload reuses its program =="
run_job "${SPEC2}"
curl -s "http://${ADDR}/v1/metrics" >"${ROOT}/reuse.prom"
"${OPS_REPORT}" --metrics "${ROOT}/reuse.prom" \
    --require "ipsim_harness_program_builds_total>0,ipsim_harness_program_reuses_total>0" \
    >/dev/null || fail "program cache did not reuse the first job's program"
grep -q '^ipsim_harness_program_builds_total 1$' "${ROOT}/reuse.prom" ||
    fail "the daemon built the db program more than once"
echo "   ok: one program build, reused by the second job"

echo "== /v1/stats carries latency percentiles =="
curl -s "http://${ADDR}/v1/stats" | jq -e '.latency_micros.jobs.p50' >/dev/null ||
    fail "stats has no latency_micros.jobs.p50"
echo "   ok: per-endpoint percentiles in /v1/stats"

echo "== graceful drain exports a valid span trace =="
kill -TERM "${DAEMON_PID}"
wait "${DAEMON_PID}" 2>/dev/null || true
DAEMON_PID=""
SPANS="${ROOT}/serve/spans.trace.json"
[ -s "${SPANS}" ] || fail "daemon wrote no ${SPANS}"
"${TELEMETRY_CHECK}" "${SPANS}" || fail "span trace failed the shared Chrome-trace validator"
"${OPS_REPORT}" --spans "${SPANS}" | grep -q 'serve.request' ||
    fail "ops_report found no serve.request spans"
echo "   ok: spans.trace.json validates and folds into a span table"

echo "metrics_smoke: PASS"
