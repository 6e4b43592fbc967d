#!/usr/bin/env bash
# Same-machine A/B of the repository benchmark: the tree at <rev> (the
# base) against the working tree (the change). Both are extracted with
# git archive under out/ab/ and built once; then N pairs of
#
#   bash perfbench/run.sh --workload W --seconds S --seed E
#
# run alternately in the two trees, the base first on odd pairs. Each
# run's full output is kept in out/ab/runs/. cmd/abstat then prints,
# for every metric of the JSON last line, each side's median and IQR,
# the change of the median and the pairs the change won, with a verdict
# for each end-to-end metric against its BENCHMARK.json bound. Last, the
# perfbench predictions_sha256 lines of the two sides are compared.
#
# Usage: scripts/ab.sh [-w workload] [-n pairs] [-s seconds] [-e seed] <rev>
#   (defaults: -w train -n 10 -s 30 -e 1)
#
# The change side is the working tree's tracked files, uncommitted
# edits and staged new files included (git stash create); untracked
# files are left out. Run nothing else on the machine meanwhile.
set -euo pipefail

workload=train pairs=10 seconds=30 seed=1
while getopts "w:n:s:e:" opt; do
	case $opt in
	w) workload=$OPTARG ;;
	n) pairs=$OPTARG ;;
	s) seconds=$OPTARG ;;
	e) seed=$OPTARG ;;
	*) echo "usage: scripts/ab.sh [-w workload] [-n pairs] [-s seconds] [-e seed] <rev>" >&2; exit 2 ;;
	esac
done
shift $((OPTIND - 1))
if [ $# -ne 1 ]; then
	echo "usage: scripts/ab.sh [-w workload] [-n pairs] [-s seconds] [-e seed] <rev>" >&2
	exit 2
fi

cd "$(dirname "$0")/.."
base_rev=$(git rev-parse --verify "$1^{commit}")
change_rev=$(git stash create)
change_rev=${change_rev:-HEAD}

ab=out/ab
rm -rf "$ab"
mkdir -p "$ab/runs"
go build -o "$ab/abstat" ./cmd/abstat

# The same build environment as perfbench/run.sh, so that its builds in
# the timed loop are cache hits.
for side in base change; do
	rev=$base_rev
	[ "$side" = change ] && rev=$change_rev
	mkdir -p "$ab/$side"
	git archive "$rev" | tar -x -C "$ab/$side"
	echo "== build $side ($(git rev-parse --short "$rev"))" >&2
	(
		cd "$ab/$side"
		out="$(pwd)/.bench_build"
		export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off
		go -C perfbench build -o "$out/perfbench" .
		go -C perfbench build -o "$out/rpmserved" rpm/cmd/rpmserved
	)
done

# bench runs one side's benchmark and appends its JSON last line to
# out/ab/<side>.jsonl. A run that fails its correctness checks exits
# non-zero but still prints that line, which abstat counts as incorrect.
bench() {
	local side=$1 i=$2
	echo "== pair $i/$pairs: $side" >&2
	(cd "$ab/$side" && bash perfbench/run.sh --workload "$workload" --seconds "$seconds" --seed "$seed") \
		>"$ab/runs/$side.$i.txt" || echo "   $side run $i exited $?" >&2
	tail -n 1 "$ab/runs/$side.$i.txt" >>"$ab/$side.jsonl"
}

for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		bench base "$i"
		bench change "$i"
	else
		bench change "$i"
		bench base "$i"
	fi
done

echo "workload=$workload pairs=$pairs seconds=$seconds seed=$seed base=$(git rev-parse --short "$base_rev") change=$(git rev-parse --short "$change_rev")"
status=0
"$ab/abstat" -bench BENCHMARK.json "$ab/base.jsonl" "$ab/change.jsonl" || status=$?

# predictions_sha256 lines name each dataset's prediction digest; the
# rest of those lines (timings) varies between runs.
digests() {
	sed -n 's/^detail dataset \([^ ]*\) .*predictions_sha256=\([0-9a-f]*\).*$/\1 \2/p' "$ab/runs/$1".*.txt | sort -u
}
if [ -n "$(digests base)" ]; then
	if [ "$(digests base)" = "$(digests change)" ]; then
		echo "predictions_sha256: identical on both sides"
	else
		echo "predictions_sha256: the sides differ" >&2
		diff <(digests base) <(digests change) >&2 || true
		status=1
	fi
fi
exit $status
