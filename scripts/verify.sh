#!/usr/bin/env bash
# Tier-1 verification gate: everything that must be green before a merge.
#
# Usage: scripts/verify.sh
# Runs, in order: release build; the tier-1 and workspace test suites;
# the plan-equivalence and packed-kernel identity tests again in release
# (the plan's i64 epilogue ships with overflow checks off); clippy with
# warnings as errors; rustfmt --check; the T2C_PROFILE smoke; t2c-check's
# lint and error-bound reports, which must match the committed copies;
# the serve and cluster smokes; and the five gate benches (loadgen,
# sparse_speedup, gemm_pack, plan_speedup, cluster_loadgen). Each gate
# bench exits non-zero when a floor or a case fails and writes a report in
# the one t2c_bench::report schema, which check_report reads. The benches
# run in a temporary directory because their reports carry timestamps;
# the reports are copied to the git-ignored .bench_build/bench_results/
# (which CI uploads), and the run must leave `git status` as it found it.
set -euo pipefail
cd "$(dirname "$0")/.."
status_before=$(git status --porcelain)

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test (tier-1 gate)"
cargo test -q

echo "==> cargo test --workspace"
cargo test -q --workspace

echo "==> release-mode bit identity (overflow checks off, as shipped)"
cargo test --release -q --test plan_equivalence
cargo test --release -q -p t2c-tensor --test packed_identity

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all --check

# `cargo build --release --workspace` above built every bench binary.
bin="${CARGO_TARGET_DIR:-$PWD/target}/release"
case "$bin" in /*) ;; *) bin="$PWD/$bin" ;; esac
# Timestamped reports land here, not in the committed bench_results/.
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

echo "==> profile smoke (T2C_PROFILE=1)"
(cd "$work" && T2C_PROFILE=1 "$bin/profile_smoke")
report=$work/bench_results/profile_smoke.json
for key in version tag counters gauges histograms series layers dual_path \
    saturation_rate macs forward_ns; do
    grep -q "\"$key\"" "$report" || { echo "missing key '$key' in $report"; exit 1; }
done

echo "==> lint-models (t2c-check)"
lint_report=bench_results/t2c_check.json
cargo run --release -q -p t2c-lint --bin t2c-check -- --json "$lint_report"
for key in version tag summary findings nodes verdict; do
    grep -q "\"$key\"" "$lint_report" || { echo "missing key '$key' in $lint_report"; exit 1; }
done

echo "==> error-bound certification (t2c-check --error-bound)"
eb_report=bench_results/error_bound.json
cargo run --release -q -p t2c-lint --bin t2c-check -- --error-bound "$eb_report"
for key in version model per_layer end_to_end_steps tolerance pass; do
    grep -q "\"$key\"" "$eb_report" || { echo "missing key '$key' in $eb_report"; exit 1; }
done
grep -q '"pass": true' "$eb_report" || { echo "$eb_report did not pass"; exit 1; }

echo "==> lint and certificate reports match the committed copies"
git diff --exit-code -- "$lint_report" "$eb_report" \
    || { echo "t2c-check reports changed; commit them if the change is intended"; exit 1; }

echo "==> serve and cluster smokes (ephemeral ports)"
(cd "$work" && "$bin/t2c-serve" --smoke)
(cd "$work" && "$bin/t2c-cluster" --smoke)

# Every gate report carries the shared schema and a top-level verdict;
# bench-specific conditions are folded into each case's own pass.
check_report() {
    for key in version bench created_unix host threads isa cases gates metric \
        threshold measured pass; do
        grep -q "\"$key\"" "$1" || { echo "missing key '$key' in $1"; exit 1; }
    done
    grep -qx '  "pass": true' "$1" || { echo "$1 did not pass"; exit 1; }
}

echo "==> gate benches"
(cd "$work" && "$bin/loadgen")
(cd "$work" && "$bin/sparse_speedup")
(cd "$work" && T2C_THREADS=4 "$bin/gemm_pack")
(cd "$work" && "$bin/plan_speedup")
(cd "$work" && "$bin/cluster_loadgen")
reports=("$work"/bench_results/{serve_loadgen,sparse_speedup,gemm_pack,plan_speedup,cluster_loadgen}.json)
for report in "${reports[@]}"; do check_report "$report"; done

# Keep this run's gate reports where CI uploads them (git-ignored).
mkdir -p .bench_build/bench_results
cp "${reports[@]}" .bench_build/bench_results/

echo "==> the run left the tree as it found it"
status_after=$(git status --porcelain)
[ "$status_after" = "$status_before" ] || {
    echo "verify changed the working tree:"
    diff <(echo "$status_before") <(echo "$status_after") || true
    exit 1
}

echo "verify: all green"
