#!/usr/bin/env bash
# Output and timing gate of the checkout against a base revision, both
# built and timed on this host:
#
#   ci/perf-gate.sh <base-rev>
#
# Builds `xxi` and perfbench at <base-rev> (in a temporary `git
# worktree`, removed on exit) and at the checkout, then runs three checks:
#
#   output  `xxi run --all --format json --threads 1`, `runtime` masked,
#           must be identical on both builds unless a file under
#           crates/xxi-bench/tests/golden/ changed. Failure: exit 1.
#   digest  each perfbench workload runs one pass at `--seed 1 --seconds 0`
#           on the base, and the checkout must fold the same pass digest
#           (`--expect-digest`) unless a file under perfbench/ changed.
#           CI's canonical-seed run checks only the recorded digests; this
#           one checks a seed no digest was recorded for. Failure: exit 1.
#   timing  `xxi bench --all` (5 iterations, 1 warm-up) runs four times,
#           base, change, change, base. An id fails only when
#           `xxi compare --threshold 25` marks it REGRESSED in both
#           base/change pairs: one pair alone flags the microsecond-scale
#           experiments whenever one whole process runs slow. 25 % is the
#           `wall_s` bound of BENCHMARK.json. Failure: exit 3.
#
# Usage errors exit 2. The bench documents, compare tables and perfbench
# outputs are left in target/perf-gate/. perfbench builds into target
# directories outside perfbench/, and its Cargo.lock, which cargo
# rewrites at every build, is restored on exit. Needs git, cargo and jq.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: ci/perf-gate.sh <base-rev>" >&2
    exit 2
fi
root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
base=$(git -C "$root" rev-parse --verify --quiet "$1^{commit}") || {
    echo "error: not a commit: $1" >&2
    exit 2
}
threshold=25
out="$root/target/perf-gate"
tmp=$(mktemp -d)
lock="$root/perfbench/Cargo.lock"
cp "$lock" "$tmp/perfbench.lock"
cleanup() {
    cp "$tmp/perfbench.lock" "$lock"
    git -C "$root" worktree remove --force "$tmp/base" 2>/dev/null || true
    rm -rf "$tmp"
    git -C "$root" worktree prune || true
}
trap cleanup EXIT
rm -rf "$out"
mkdir -p "$out"

echo "== building xxi at base ${base:0:12} and at the checkout" >&2
git -C "$root" worktree add --quiet --detach "$tmp/base" "$base"
cargo build --release --quiet --manifest-path "$tmp/base/Cargo.toml" \
    --target-dir "$tmp/target" -p xxi-bench --bin xxi
target=${CARGO_TARGET_DIR:-$root/target}
cargo build --release --quiet --manifest-path "$root/Cargo.toml" \
    --target-dir "$target" -p xxi-bench --bin xxi
cp "$tmp/target/release/xxi" "$out/xxi-base"
cp "$target/release/xxi" "$out/xxi-change"

echo "== output check" >&2
for side in base change; do
    "$out/xxi-$side" run --all --format json --threads 1 | jq -c 'del(.runtime)' >"$out/$side.jsonl"
done
if ! cmp -s "$out/base.jsonl" "$out/change.jsonl"; then
    changed=$({ diff "$out/base.jsonl" "$out/change.jsonl" || true; } | sed -n 's/^[<>] //p' | jq -r .experiment | sort -u | paste -sd' ')
    if git -C "$root" diff --quiet "$base" -- crates/xxi-bench/tests/golden/; then
        echo "FAIL: report output changed with no golden changed: $changed" >&2
        exit 1
    fi
    echo "output changed ($changed) and goldens changed with it" >&2
fi

echo "== perfbench digest check at --seed 1" >&2
perfbench_changed=0
git -C "$root" diff --quiet "$base" -- perfbench/ || perfbench_changed=1
perfbench() { # <checkout> <target-dir> <workload> [flags...]: one pass
    local dir=$1 tdir=$2 w=$3
    shift 3
    cargo run --release --offline --quiet --manifest-path "$dir/perfbench/Cargo.toml" \
        --target-dir "$tdir" -- --workload "$w" --seed 1 --seconds 0 "$@"
}
for w in sensor-epochs tail-serving noc-mem-fabric; do
    perfbench "$tmp/base" "$tmp/target" "$w" >"$out/perfbench-$w-base.txt"
    digest=$(sed -n '1s/.*digest \(0x[0-9a-f]*\)$/\1/p' "$out/perfbench-$w-base.txt")
    if [ -z "$digest" ]; then
        echo "error: no digest in the base's perfbench output for $w" >&2
        exit 1
    fi
    code=0
    perfbench "$root" "$target/perfbench" "$w" --expect-digest "$digest" \
        >"$out/perfbench-$w-change.txt" || code=$?
    if [ "$code" -ne 0 ]; then
        if [ "$perfbench_changed" -eq 0 ]; then
            echo "FAIL: perfbench $w at --seed 1 failed against the base's digest $digest (see $out/perfbench-$w-change.txt), and no file under perfbench/ changed" >&2
            exit 1
        fi
        echo "perfbench $w moved off the base's digest $digest, and perfbench/ changed with it" >&2
    fi
done

echo "== timing check: base, change, change, base" >&2
n=0
for side in base change change base; do
    n=$((n + 1))
    echo "-- run $n/4: $side" >&2
    "$out/xxi-$side" bench --all --out "$out/bench-$n-$side.json"
done
regressed() { # <base.json> <change.json> <table>: the ids compare flags
    local code=0
    "$out/xxi-change" compare "$1" "$2" --threshold "$threshold" >"$3" || code=$?
    if [ "$code" -ne 0 ] && [ "$code" -ne 3 ]; then
        echo "error: xxi compare exited $code" >&2
        exit 1
    fi
    awk '$NF == "REGRESSED" { print $1 }' "$3" | sort
}
first=$(regressed "$out/bench-1-base.json" "$out/bench-2-change.json" "$out/compare-1.txt")
second=$(regressed "$out/bench-4-base.json" "$out/bench-3-change.json" "$out/compare-2.txt")
cat "$out/compare-1.txt" "$out/compare-2.txt"
both=$(comm -12 <(echo "$first") <(echo "$second") | sed '/^$/d' | paste -sd' ')
if [ -n "$both" ]; then
    echo "FAIL: regressed past $threshold% in both pairs: $both" >&2
    exit 3
fi
echo "ok: output and digest checks passed; no id regressed past $threshold% in both pairs" >&2
