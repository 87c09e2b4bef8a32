#!/usr/bin/env bash
# Tier-1 verification gate: everything that must be green before a merge.
#
# Usage: scripts/verify.sh
# Runs, in order:
#   1. release build of the whole workspace
#   2. the full test suite (root package = tier-1 gate, plus all members)
#   2b. release-mode bit identity: the plan-vs-interpreter equivalence
#      tests and the packed/fused kernel proptests again in a release
#      build, where the shipped plan runs its i64 epilogue arithmetic with
#      overflow checks off
#   3. clippy (workspace-wide, pedantic subset) with warnings promoted
#      to errors
#   4. rustfmt in check mode
#   5. the T2C_PROFILE observability smoke: profile_smoke must emit a
#      schema-valid report with the keys downstream tooling depends on
#   6. lint-models: t2c-check runs the static integer-pipeline verifier
#      over the e2e model zoo + exported packages; any error-level
#      finding fails the gate, and the JSON report must be schema-valid
#   6b. error-bound: t2c-check --error-bound certifies a sound static
#      float↔int divergence bound for every zoo model (all must be
#      finite), round-trips each certificate through the package
#      manifest (T2C605 cross-check) and emits a schema-valid
#      error_bound.json
#   6c. report drift: both regenerated reports carry no timestamps, so
#      they must match the committed copies byte for byte (git diff);
#      an unintended change to an op label or an analysis fails here
#   7. serve_smoke: t2c-serve --smoke binds an ephemeral port and
#      round-trips one request per zoo model over TCP against direct
#      execution, then the loadgen sweep must demonstrate the batching
#      win (device-paced, cluster_loadgen-style: max_batch=16 ≥ 2×
#      max_batch=1 on the zoo MLP at 32-way concurrency with a fixed
#      per-batch device service time; the gate ran unpaced before
#      admission-compiled plans made the batch-1 host baseline ~3×
#      faster) and emit a schema-valid serve_loadgen.json
#   8. sparse_speedup: the skip-zero kernel must be bit-identical to the
#      dense path and at least 1.5× faster on the zoo MLP at both 80%
#      unstructured and 2:4 structured sparsity, with a schema-valid
#      sparse_speedup.json
#   9. gemm_pack: gemm_fused_into, the packed panel GEMM the compiled
#      plan's fused Gemm steps run (identity epilogue, on the ISA the
#      host dispatches to), must be bit-identical to the dense
#      interpreter path (per-call transpose + naive saturating matmul)
#      at every swept shape and at least 1.5× faster at 64×1024×1024
#      with 4 host threads, with a schema-valid gemm_pack.json that
#      names the dispatched ISA
#   9b. plan_speedup: the compiled execution plan (fused MAC epilogues +
#      arena-backed intermediates) must be bit-identical to the
#      interpreter on the zoo MLP and on every conv/ViT zoo model, faster
#      single-threaded end to end at batch 16 (≥ 1.3× on the MLP, ≥ 1.2×
#      on each zoo model), and perform zero steady-state heap allocations
#      on every one of them (counting-allocator odometer), with a
#      schema-valid plan_speedup.json (naming the kernel ISA it ran)
#      whose every case passes
#   10. cluster_smoke: t2c-cluster --smoke spins up a replicated tier on
#      an ephemeral port and exercises TCP round-trips for every zoo
#      model, a rolling model update, a replica kill with continued
#      service, and a structured rejection; then the cluster_loadgen
#      sweep must demonstrate the scale-out win (4 replicas ≥ 2.5× 1
#      replica on the zoo MLP at 32-way concurrency, device-paced) with
#      zero requests lost when a replica is killed mid-run, and emit a
#      schema-valid cluster_loadgen.json
#   11. clean tree: the timing reports of steps 5 and 7–10 carry
#      timestamps, so their binaries run from a temporary directory and
#      are checked there; the five gate reports are then copied to the
#      git-ignored .bench_build/bench_results/ (which CI uploads), and the
#      run must leave `git status` as it found it
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

echo "==> serve smoke (t2c-serve --smoke, ephemeral port)"
(cd "$work" && "$bin/t2c-serve" --smoke)

echo "==> serve loadgen (batching throughput gate)"
serve_report=$work/bench_results/serve_loadgen.json
(cd "$work" && "$bin/loadgen")
for key in version bench created_unix gate_pace_batch_ns configs model \
    max_batch pace_batch_ns concurrency \
    completed throughput_rps p50_ns p99_ns mean_batch_rows \
    mlp_speedup_b16_vs_b1 pass; do
    grep -q "\"$key\"" "$serve_report" || { echo "missing key '$key' in $serve_report"; exit 1; }
done
grep -q '"pass": true' "$serve_report" || { echo "$serve_report did not pass"; exit 1; }

echo "==> sparse speedup (skip-zero deployment gate)"
sparse_report=$work/bench_results/sparse_speedup.json
(cd "$work" && "$bin/sparse_speedup")
for key in version bench created_unix configs model layout sparsity \
    dense_ns sparse_ns speedup bit_identical unstructured_speedup \
    nm_speedup pass; do
    grep -q "\"$key\"" "$sparse_report" || { echo "missing key '$key' in $sparse_report"; exit 1; }
done
grep -q '"pass": true' "$sparse_report" || { echo "$sparse_report did not pass"; exit 1; }

echo "==> gemm pack (plan panel-kernel gate, T2C_THREADS=4)"
pack_report=$work/bench_results/gemm_pack.json
(cd "$work" && T2C_THREADS=4 "$bin/gemm_pack")
for key in version bench created_unix threads isa shapes dense_ns packed_ns \
    speedup bit_identical gate_speedup pass; do
    grep -q "\"$key\"" "$pack_report" || { echo "missing key '$key' in $pack_report"; exit 1; }
done
grep -q '"pass": true' "$pack_report" || { echo "$pack_report did not pass"; exit 1; }

echo "==> plan speedup (compiled execution-plan gate, 1 thread)"
plan_report=$work/bench_results/plan_speedup.json
(cd "$work" && "$bin/plan_speedup")
for key in version bench created_unix threads isa batch unplanned_ns planned_ns \
    speedup bit_identical steady_allocs arena_bytes fused_nodes \
    gate_speedup cases model pass; do
    grep -q "\"$key\"" "$plan_report" || { echo "missing key '$key' in $plan_report"; exit 1; }
done
# The top level repeats the MLP case; every case carries its own
# allocation count and verdict.
cases=$(grep -c '"model"' "$plan_report")
[ "$(grep -c '"steady_allocs": 0,' "$plan_report")" -eq $((cases + 1)) ] \
    || { echo "$plan_report reports steady-state allocations"; exit 1; }
[ "$(grep -c '"pass": true' "$plan_report")" -eq $((cases + 1)) ] \
    || { echo "$plan_report has a failing case"; exit 1; }

echo "==> cluster smoke (t2c-cluster --smoke, ephemeral port)"
(cd "$work" && "$bin/t2c-cluster" --smoke)

echo "==> cluster loadgen (scale-out throughput gate)"
cluster_report=$work/bench_results/cluster_loadgen.json
(cd "$work" && "$bin/cluster_loadgen")
for key in version bench created_unix device_paced pace_batch_ns configs \
    replicas concurrency requests completed errors retries hedges wall_ns \
    throughput_rps p50_ns p99_ns killed_replica scaleout_4v1 \
    kill_lost_requests pass; do
    grep -q "\"$key\"" "$cluster_report" || { echo "missing key '$key' in $cluster_report"; exit 1; }
done
grep -q '"pass": true' "$cluster_report" || { echo "$cluster_report did not pass"; exit 1; }

# Keep this run's gate reports where CI uploads them (git-ignored).
mkdir -p .bench_build/bench_results
cp "$serve_report" "$sparse_report" "$pack_report" "$plan_report" "$cluster_report" \
    .bench_build/bench_results/

echo "==> the run left the tree as it found it"
status_after=$(git status --porcelain)
[ "$status_after" = "$status_before" ] || {
    echo "verify changed the working tree:"
    diff <(echo "$status_before") <(echo "$status_after") || true
    exit 1
}

echo "verify: all green"
