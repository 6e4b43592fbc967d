#!/usr/bin/env bash
# Served smoke: build the binaries, train a small model end to end, serve
# it once with rpmserved, and drive every served path against that one
# server with rpmload under -strict:
#
#   1. closed-loop /v1/predict traffic for the duration;
#   2. 2 seconds of open-loop traffic at 200 req/s, the light load where
#      each request finds the server idle;
#   3. streaming ingest: dozens of live streams receiving chunked appends
#      round-robin for the duration.
#
# Each phase fails when nothing completed or any request came back as an
# error envelope or transport error — the predict path (HTTP decode →
# admission → pooled transform kernel → SVM → encode) and the stream
# path (HTTP decode → registry → rolling z-norm fan-out → hysteresis
# gate → encode) have to hold up under sustained concurrent load, not
# just unit tests. Training runs twice and rpmcli's output must not
# change; afterwards the script spot-checks the stream registry listing
# and the SSE feed framing of one loaded stream.
#
# Usage: scripts/served_smoke.sh [duration] [concurrency] [streams]
set -euo pipefail

duration="${1:-2s}"
concurrency="${2:-4}"
streams="${3:-32}"
port="${SERVED_SMOKE_PORT:-18080}"

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
"$work/bin/rpmserved" -addr "127.0.0.1:$port" -models "$work/models" \
    -stream-confirm 1 &
served_pid=$!
addr="http://127.0.0.1:$port"

echo "== load ($duration, $concurrency workers)"
"$work/bin/rpmload" -addr "$addr" -model cbf \
    -duration "$duration" -concurrency "$concurrency" \
    -wait 10s -strict

echo "== open-loop load (200 req/s, 2s)"
"$work/bin/rpmload" -addr "$addr" -model cbf \
    -rate 200 -duration 2s -strict

echo "== stream load ($duration, $streams streams)"
"$work/bin/rpmload" -addr "$addr" -model cbf \
    -streams "$streams" -stream-chunk 128 \
    -duration "$duration" -concurrency "$concurrency" -strict

echo "== verify stream state"
# The load generator's streams must be live with samples ingested; the
# registry listing is the authoritative count.
curl -fsS "$addr/v1/streams" | grep -q '"load-0000"' \
    || { echo "stream load-0000 missing from /v1/streams" >&2; exit 1; }

# The SSE feed must answer with event-stream framing. --max-time bounds
# the open-ended feed; curl exits 28 (timeout) after capturing the
# header, which is the expected shape for a live feed.
headers="$(curl -s --max-time 1 -D - -o /dev/null \
    "$addr/v1/streams/load-0000/events" 2>/dev/null || true)"
echo "$headers" | grep -qi '^content-type: text/event-stream' \
    || { echo "SSE feed lacks text/event-stream framing:" >&2; echo "$headers" >&2; exit 1; }

echo "served smoke OK"
