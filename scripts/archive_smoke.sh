#!/usr/bin/env bash
# Archive smoke: the crash-resume proof for cmd/rpmarchive. Run B is
# started on a 3-dataset synthetic mini-archive and SIGKILLed as soon as
# its first checkpoint lands — the dataset list is chosen so the
# heaviest dataset (SynTrace) sorts last, leaving a wide window where
# some checkpoints exist and some datasets are still untrained. The
# resumed run must serve the surviving checkpoints from disk, train the
# rest, and produce a deterministic table byte-identical to run A,
# which ran uninterrupted at a different worker count — covering
# crash-safety and worker-independence in one diff. Run A must also
# match testdata/archive/fixed_seed3.json byte for byte, which pins the
# archive output (config hash included) across commits. A one-dataset
# -deterministic rpm run with the default DIRECT search and -report text
# must then print its training report, the search's inner-fit stages
# included.
#
# A paper table resumes the same way: an ablation run is repeated with
# -resume, and its rendered table, wall times included, must be
# byte-identical, because every row now comes from a checkpoint.
#
# Last, every paper artifact is produced once through its only front
# end: -exp all (Tables 1-4, Figs. 7-9 as text and SVG, the §6.2 alarm
# case) on a 3-dataset subset. Every run here is -strict, so any failed
# row fails the smoke.
#
# Usage: scripts/archive_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."
work="$(mktemp -d)"
cleanup() { rm -rf "$work"; }
trap cleanup EXIT

datasets="SynECG200,SynItalyPower,SynTrace"
args=(-datasets "$datasets" -mode fixed -window 12 -paa 4 -alpha 4 -seed 3 -deterministic -json -strict)

echo "== build"
go build -o "$work/rpmarchive" ./cmd/rpmarchive

echo "== run A (uninterrupted, workers=2)"
"$work/rpmarchive" -out "$work/a" -workers 2 "${args[@]}" > "$work/a.json"

echo "== diff run A against the pinned output"
if ! diff -u testdata/archive/fixed_seed3.json "$work/a.json"; then
    echo "archive smoke FAILED: run A differs from testdata/archive/fixed_seed3.json" >&2
    exit 1
fi

echo "== training report of a deterministic DIRECT rpm run (-report text)"
"$work/rpmarchive" -out "$work/r" -exp rpm -datasets SynItalyPower -deterministic \
    -report text > "$work/report.txt" 2> "$work/report.log" || {
    cat "$work/report.log" >&2
    echo "archive smoke FAILED: rpmarchive -exp rpm -report text exited non-zero" >&2
    exit 1
}
if ! grep -q '^  train\.candidates ' "$work/report.txt"; then
    echo "archive smoke FAILED: -report text printed no train.candidates line" >&2
    exit 1
fi
if ! grep -q '^ *search\.candidates  *wall=' "$work/report.txt"; then
    echo "archive smoke FAILED: -report text printed no search.candidates stage line" >&2
    exit 1
fi

# kill_midrun starts a sequential run and SIGKILLs it once the first
# checkpoint file appears. Success: the killed run left some — but not
# all — checkpoints behind.
kill_midrun() {
    rm -rf "$work/b"
    set +e
    "$work/rpmarchive" -out "$work/b" -workers 1 "${args[@]}" > /dev/null 2>&1 &
    local bpid=$!
    for _ in $(seq 1 500); do
        if compgen -G "$work/b/rpm/*.ckpt.json" > /dev/null; then
            break
        fi
        sleep 0.01
    done
    kill -9 "$bpid" 2>/dev/null
    wait "$bpid" 2>/dev/null
    set -e
    ckpts=$(ls "$work/b"/rpm/*.ckpt.json 2>/dev/null | wc -l)
    [ "$ckpts" -ge 1 ] && [ "$ckpts" -lt 3 ]
}

echo "== run B (workers=1, killed after first checkpoint)"
killed=no
for attempt in 1 2 3 4 5; do
    if kill_midrun; then
        killed=yes
        echo "   attempt $attempt: killed at $ckpts/3 checkpoints"
        break
    fi
    echo "   attempt $attempt: kill landed at $ckpts/3 checkpoints, retrying"
done
if [ "$killed" != yes ]; then
    echo "archive smoke FAILED: could not kill run B mid-archive in 5 attempts" >&2
    exit 1
fi

echo "== run B resume"
"$work/rpmarchive" -out "$work/b" -workers 1 -resume "${args[@]}" > "$work/b.json"

echo "== diff deterministic tables"
if ! diff -u "$work/a.json" "$work/b.json"; then
    echo "archive smoke FAILED: resumed table differs from uninterrupted run" >&2
    exit 1
fi

echo "== paper table: ablation, then the same run resumed"
ablate=(-out "$work/p" -exp ablate -quick -strict -datasets SynItalyPower,SynGunPoint)
"$work/rpmarchive" "${ablate[@]}" > "$work/p1.txt" 2> /dev/null
"$work/rpmarchive" "${ablate[@]}" -resume > "$work/p2.txt" 2> /dev/null
if ! diff -u "$work/p1.txt" "$work/p2.txt"; then
    echo "archive smoke FAILED: resumed ablation table differs from the first run" >&2
    exit 1
fi
resumed=$("$work/rpmarchive" "${ablate[@]}" -resume -json 2> /dev/null | sed -n 's/^  "resumed": \([0-9]*\),\{0,1\}$/\1/p')
if [ "$resumed" != 18 ]; then
    echo "archive smoke FAILED: resumed ablation run served ${resumed:-0} of 18 rows from checkpoints" >&2
    exit 1
fi

echo "== paper artifacts: -exp all"
"$work/rpmarchive" -out "$work/all" -exp all -quick -strict -svg "$work/svg" \
    -datasets SynItalyPower,SynECGFiveDays,SynMoteStrain > "$work/all.txt" 2> "$work/all.log" || {
    cat "$work/all.log" >&2
    echo "archive smoke FAILED: rpmarchive -exp all exited non-zero" >&2
    exit 1
}
for artifact in "Table 1" "Table 2" "Table 3" "Table 4" "Figure 7" "Figure 8" "Figure 9" "Case study"; do
    if ! grep -q "$artifact" "$work/all.txt"; then
        echo "archive smoke FAILED: -exp all printed no $artifact" >&2
        exit 1
    fi
done
svgs=$(ls "$work/svg"/*.svg 2> /dev/null | wc -l)
if [ "$svgs" -lt 3 ]; then
    echo "archive smoke FAILED: -exp all wrote $svgs SVG figure(s)" >&2
    exit 1
fi

echo "archive smoke OK (killed at $ckpts/3 checkpoints, resume byte-identical; ablation resumed 18/18 rows; -exp all wrote $svgs SVGs)"
