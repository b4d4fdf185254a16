#!/usr/bin/env bash
# Back-to-back A/B of perfbench's end-to-end metrics between two revisions.
#
# Usage: scripts/ab.sh <parent-rev> [<child-rev>]
#
# Adds one detached git worktree per revision under a temp dir, each with its
# own CARGO_TARGET_DIR, so the first perfbench/run.py call in a tree builds
# that tree's perfbench; perfbench itself is not edited. Then, per workload,
# it runs AB_PAIRS pairs of `python3 perfbench/run.py --trace 0`, alternating
# which side goes first (AB, BA, AB, ...); pair i (from 1) runs seed i on
# both sides. For each end-to-end metric it prints the median child/parent
# ratio over the pairs with its min-max, next to the metric's better
# direction, and the number of pairs the child won (ties count for
# neither). With one revision it runs A/A (the same build on both sides),
# which measures the spread an A/B ratio has to clear.
#
# Report-only: no gate, no bootstrap interval. Exits non-zero when a build
# fails or a run fails its correctness checks. Removes its worktrees on exit
# and writes no tracked file.
#
# Environment (defaults in brackets):
#   AB_WORKLOADS  workloads to run ["paper_sweep failover_costed mega"]
#   AB_PAIRS      pairs per workload [10]
#   AB_SECONDS    --seconds per run [6]
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 ]]; then
  echo "usage: $0 <parent-rev> [<child-rev>]" >&2
  exit 2
fi

cd "$(dirname "$0")/.."
repo=$(pwd)
workloads=${AB_WORKLOADS:-paper_sweep failover_costed mega}
pairs=${AB_PAIRS:-10}
seconds=${AB_SECONDS:-6}

rev_a=$(git rev-parse --verify "$1^{commit}")
rev_b=$(git rev-parse --verify "${2:-$1}^{commit}")

tmp=$(mktemp -d "${TMPDIR:-/tmp}/l3-ab.XXXXXX")
worktrees=()
cleanup() {
  for wt in "${worktrees[@]}"; do
    git -C "$repo" worktree remove --force "$wt" 2>/dev/null || true
  done
  git -C "$repo" worktree prune
  rm -rf "$tmp"
}
trap cleanup EXIT

# Checks out one revision; sets side_dir to its worktree.
prepare() {
  local name=$1 rev=$2
  side_dir="$tmp/$name"
  git -C "$repo" worktree add --quiet --detach "$side_dir" "$rev"
  worktrees+=("$side_dir")
}

prepare a "$rev_a"
dir_a=$side_dir
target_a="$tmp/a-target"
if [[ "$rev_a" == "$rev_b" ]]; then
  dir_b=$dir_a
  target_b=$target_a
  echo "==> A/A: $rev_a against itself" >&2
else
  prepare b "$rev_b"
  dir_b=$side_dir
  target_b="$tmp/b-target"
fi

results="$tmp/results.tsv"
: > "$results"

# run <side> <workload> <seed> <pair>: one measurement, appended to results.
# run.py's stderr (its build output included) is shown only when it fails.
run() {
  local side=$1 workload=$2 seed=$3 pair=$4 dir target last
  if [[ $side == a ]]; then
    dir=$dir_a target=$target_a
  else
    dir=$dir_b target=$target_b
  fi
  last=$(cd "$dir" && CARGO_TARGET_DIR="$target" \
      python3 perfbench/run.py --workload "$workload" --seed "$seed" \
      --seconds "$seconds" --trace 0 2>"$tmp/stderr" | tail -n 1) || {
    cat "$tmp/stderr" >&2
    echo "FAIL: $workload seed $seed on side $side: $last" >&2
    exit 1
  }
  python3 - "$workload" "$pair" "$side" "$last" >> "$results" <<'PY'
import json, sys
workload, pair, side, line = sys.argv[1:]
for name, m in json.loads(line)["metrics"].items():
    print(f"{workload}\t{pair}\t{side}\t{name}\t{m['value']!r}")
PY
}

for workload in $workloads; do
  for ((i = 0; i < pairs; i++)); do
    seed=$((i + 1))
    echo "==> $workload pair $((i + 1))/$pairs (seed $seed)" >&2
    if ((i % 2 == 0)); then
      run a "$workload" "$seed" "$i"; run b "$workload" "$seed" "$i"
    else
      run b "$workload" "$seed" "$i"; run a "$workload" "$seed" "$i"
    fi
  done
done

fingerprint=$(nproc)" x "$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -n 1)
python3 - "$results" "$rev_a" "$rev_b" "$fingerprint" "$pairs" "$seconds" <<'PY'
import collections, json, os, statistics, sys
path, rev_a, rev_b, fingerprint, pairs, seconds = sys.argv[1:]
better = {}
bench = os.path.join(os.getcwd(), "BENCHMARK.json")
if os.path.exists(bench):
    for m in json.load(open(bench))["end_to_end"]:
        better[m["name"]] = m["better"]
values = collections.defaultdict(dict)
for line in open(path):
    workload, pair, side, name, value = line.split("\t")
    values[(workload, name)][(int(pair), side)] = float(value)
kind = "A/A" if rev_a == rev_b else "A/B"
print(f"{kind}  parent {rev_a[:12]}  child {rev_b[:12]}  "
      f"{pairs} pairs x {seconds} s  ({fingerprint})")
print(f"{'workload':<16} {'metric':<15} {'better':<7} "
      f"{'median child/parent':>19}  {'[min - max]':<15}  child wins")
for (workload, name), by in values.items():
    ratios = [by[(p, "b")] / by[(p, "a")]
              for p in sorted({p for p, _ in by})
              if (p, "a") in by and (p, "b") in by and by[(p, "a")] != 0]
    if not ratios:
        continue
    direction = better.get(name, "?")
    wins = sum(r > 1 if direction == "higher" else r < 1 for r in ratios)
    print(f"{workload:<16} {name:<15} {direction:<7} "
          f"{statistics.median(ratios):>19.3f}  "
          f"{f'[{min(ratios):.3f} - {max(ratios):.3f}]':<15}  "
          f"{wins}/{len(ratios)}")
PY
