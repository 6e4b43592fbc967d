#!/usr/bin/env bash
# Chaos smoke: the binary-level leg of `make chaos`. Trains a small
# model, serves it with rpmserved running a REAL fault storm (injected
# model-load failures, predict stalls, full admission, deadline
# exhaustion), hot-reloads a corrupt snapshot mid-traffic, and drives it
# with rpmload through the retrying client. The run proves the
# resilience story end to end at the process boundary:
#
#   - the server survives the storm and keeps answering (rpmload -strict
#     fails on any terminal error; retries + Retry-After absorb the
#     injected shedding and stalls),
#   - a corrupt model file never evicts the serving version,
#   - /debug/faults shows the storm fired at every request-path site
#     (server.predict, server.admit, server.deadline),
#   - SIGTERM still drains cleanly mid-chaos (exit 0, drain log line).
#
# Usage: scripts/chaos_smoke.sh [duration] [concurrency]
set -euo pipefail

duration="${1:-2s}"
concurrency="${2:-4}"
port="${CHAOS_SMOKE_PORT:-18081}"
seed="${CHAOS_SMOKE_SEED:-7}"

cd "$(dirname "$0")/.."
work="$(mktemp -d)"
served_pid=""
cleanup() {
    [ -n "$served_pid" ] && kill "$served_pid" 2>/dev/null || true
    [ -n "$served_pid" ] && wait "$served_pid" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

echo "== build"
go build -o "$work/bin/" ./cmd/ucrgen ./cmd/rpmcli ./cmd/rpmserved ./cmd/rpmload

echo "== train"
"$work/bin/ucrgen" -dir "$work/data" -name SynCBF -seed 1
mkdir -p "$work/models"
"$work/bin/rpmcli" \
    -train "$work/data/SynCBF_TRAIN" -test "$work/data/SynCBF_TEST" \
    -mode fixed -window 40 -paa 6 -alpha 4 \
    -save "$work/models/cbf.json"

echo "== serve under fault storm (seed $seed)"
# Low-probability faults at every serving-path site: enough to fire
# repeatedly under load without starving the run. store.load skips the
# initial scan so the server comes up serving.
spec="store.load:skip=1:p=0.5;server.predict:p=0.05:d=10ms;server.admit:p=0.02;server.deadline:p=0.02"
"$work/bin/rpmserved" -addr "127.0.0.1:$port" -models "$work/models" \
    -faults "$spec" -faults-seed "$seed" >"$work/served.log" 2>&1 &
served_pid=$!

echo "== corrupt-reload mid-traffic"
# A corrupt snapshot plus injected load failures: neither may evict the
# serving model. Kick a reload storm in the background while loading.
(
    sleep 0.5
    echo '{"garbage": tru' > "$work/models/broken.json"
    for _ in 1 2 3; do
        curl -fsS -X POST "http://127.0.0.1:$port/admin/reload" >/dev/null || true
        sleep 0.3
    done
) &
reload_pid=$!

echo "== load ($duration, $concurrency workers, retrying client)"
# -retries: terminal failures only after the client's backoff budget is
# spent; injected 429/504/stalls must all be absorbed. -strict makes
# any terminal error fail the smoke.
"$work/bin/rpmload" \
    -addr "http://127.0.0.1:$port" -model cbf \
    -duration "$duration" -concurrency "$concurrency" \
    -retries 4 -wait 10s -strict
wait "$reload_pid"

echo "== model survived the storm"
curl -fsS "http://127.0.0.1:$port/v1/models" | grep -q '"name":"cbf"' \
    || { echo "chaos smoke FAIL: model cbf gone after reload storm"; exit 1; }

echo "== faults actually fired"
events="$(curl -fsS "http://127.0.0.1:$port/debug/faults")"
for site in server.predict server.admit server.deadline; do
    echo "$events" | grep -q "\"site\":\"$site\"" \
        || { echo "chaos smoke FAIL: /debug/faults shows no $site event: $events"; exit 1; }
done

echo "== drain under chaos"
kill -TERM "$served_pid"
wait "$served_pid"
rc=$?
served_pid=""
[ "$rc" -eq 0 ] || { echo "chaos smoke FAIL: rpmserved exited $rc on SIGTERM"; exit 1; }
grep -q "drained cleanly" "$work/served.log" \
    || { echo "chaos smoke FAIL: no clean-drain log line"; tail "$work/served.log"; exit 1; }

echo "chaos smoke OK"
