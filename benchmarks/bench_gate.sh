#!/usr/bin/env bash
# Gate a change's `python -m repro.obs bench` suites against its parent.
#
#   bash benchmarks/bench_gate.sh PARENT_TREE CHANGE_TREE OUT_DIR
#
# Both trees are checkouts of this repository (the parent one, say, from
# `git worktree add <dir> HEAD^1`).  Per suite, each side runs 5
# single-round iterations on this one host, alternating which side goes
# first; each run imports `repro` from its own tree's src/ and prints
# where it came from.  `python -m repro.obs compare` then pools each
# side's times per workload and fails on any pooled median slower than
# the parent's by more than 1.15x; a workload whose parent times spread
# wider than that is reported unresolved and does not fail.  A suite the
# parent does not list is skipped.  The bench files are written to
# OUT_DIR/{parent,change}/<iteration>/BENCH_<suite>.json.
set -euo pipefail

parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
mkdir -p "$3"
out=$(cd "$3" && pwd)

run_side() {  # side tree iteration suite
    local dir="$out/$1/$3"
    mkdir -p "$dir"
    (
        cd "$2"
        export PYTHONPATH="$2/src"
        python -c 'import sys, repro
print(sys.argv[1], repro.__file__)
assert repro.__file__.startswith(sys.argv[2])' "$1" "$2/src/"
        python -m repro.obs bench --suite "$4" --rounds 1 --out "$dir" --quiet
    )
}

parent_suites=$(cd "$parent" && PYTHONPATH="$parent/src" python -m repro.obs suites | cut -d: -f1)

status=0
for suite in batched recovery; do
    if ! grep -qx "$suite" <<< "$parent_suites"; then
        echo "== $suite: not compared (the parent has no such suite)"
        continue
    fi
    for i in 1 2 3 4 5; do
        if (( i % 2 )); then
            run_side parent "$parent" "$i" "$suite"
            run_side change "$change" "$i" "$suite"
        else
            run_side change "$change" "$i" "$suite"
            run_side parent "$parent" "$i" "$suite"
        fi
    done
    echo "== $suite: parent vs change, 5 alternating single-round runs each"
    PYTHONPATH="$change/src" python -m repro.obs compare \
        "$out/parent/*/BENCH_$suite.json" "$out/change/*/BENCH_$suite.json" \
        --threshold 1.15 || status=1
done
exit "$status"
