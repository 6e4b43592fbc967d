#!/usr/bin/env bash
# Load smoke: train a small model end to end, serve it with rpmserved,
# and drive it with rpmload: 2 seconds of closed-loop traffic, then 2
# seconds of open-loop traffic at 200 req/s, the light load where each
# request finds the server idle. The run fails (rpmload -strict) when
# nothing completed or any request came back as an error envelope or
# transport error — the whole predict path (HTTP decode → admission →
# pooled transform kernel → SVM → encode) has to hold up under
# sustained concurrent load, not just unit tests.
#
# Usage: scripts/load_smoke.sh [duration] [concurrency]
set -euo pipefail

duration="${1:-2s}"
concurrency="${2:-4}"
port="${LOAD_SMOKE_PORT:-18080}"

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
train() {
    "$work/bin/rpmcli" \
        -train "$work/data/SynCBF_TRAIN" -test "$work/data/SynCBF_TEST" \
        -mode fixed -window 40 -paa 6 -alpha 4 \
        -save "$work/models/cbf.json"
}
train | tee "$work/train1.txt"

# Fixed-mode training is deterministic, so rpmcli's stdout (per-class
# lines included) must be byte-identical across runs.
echo "== train again (rpmcli output must not change)"
train > "$work/train2.txt"
diff -u "$work/train1.txt" "$work/train2.txt"

echo "== serve"
"$work/bin/rpmserved" -addr "127.0.0.1:$port" -models "$work/models" &
served_pid=$!

echo "== load ($duration, $concurrency workers)"
"$work/bin/rpmload" \
    -addr "http://127.0.0.1:$port" -model cbf \
    -duration "$duration" -concurrency "$concurrency" \
    -wait 10s -strict

echo "== open-loop load (200 req/s, 2s)"
"$work/bin/rpmload" \
    -addr "http://127.0.0.1:$port" -model cbf \
    -rate 200 -duration 2s -strict

echo "load smoke OK"
