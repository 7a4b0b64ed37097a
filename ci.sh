#!/usr/bin/env bash
# Local CI gate: build, test, lint. Run from the repo root.
# Mirrors what reviewers run before merging; keep it green.
set -euo pipefail

echo "==> cargo build --release"
cargo build --release
# The smoke runs below execute the experiment binaries straight from
# target/release, which the root build does not produce.
cargo build --release -p easis-bench

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> trace_dump smoke test (fixed-seed flight-recorder trial)"
cargo run --release -q -p easis-bench --bin trace_dump > /dev/null

echo "==> hotpath_bench smoke run (schema check, alloc gate)"
# Run from a scratch dir so the smoke run's JSON does not clobber the
# committed full-iteration BENCH_hotpath.json; speedup assertions are
# skipped below 1M iterations, the zero-alloc gate always applies.
hotpath_scratch="$(mktemp -d)"
(cd "$hotpath_scratch" && "$OLDPWD/target/release/hotpath_bench" 20000 > /dev/null)
for key in schema_version iterations monitored_runnables ns_per_heartbeat \
           ns_per_pfc_check ns_per_cycle_check steady_state_cycle_allocs \
           direct_dispatch; do
  grep -q "\"$key\"" "$hotpath_scratch/BENCH_hotpath.json" \
    || { echo "BENCH_hotpath.json missing key: $key"; exit 1; }
done
rm -rf "$hotpath_scratch"

echo "==> campaign_bench smoke run (forked vs pooled vs fresh, schema + alloc gates)"
# Reduced trial count from a scratch dir: the bit-identical forked-vs-
# pooled-vs-fresh stats assertions, the steady-state allocation floor,
# the faulty-trial allocation floor and the horizon-scaling zero-alloc
# gate always apply, as does the snapshot-probe warm capture allocation
# floor; the prefix-reuse
# (>=1.5x) and pooled-vs-fresh (>=2x) speedup assertions are skipped
# below the full 200 trials/class so smoke runs stay timing-noise-proof,
# and the committed BENCH_campaign.json (full-scale record) is not
# clobbered.
campaign_scratch="$(mktemp -d)"
(cd "$campaign_scratch" && EASIS_WORKERS=2 "$OLDPWD/target/release/campaign_bench" 10 > /dev/null)
for key in schema_version trials workers simulated_ms_per_trial setup \
           forked pooled fresh prefix_reuse speedup_vs_pooled \
           speedup_pooled_vs_fresh steady_state clean_trial_allocs \
           faulty_trial_allocs horizon_scaling_allocs snapshot \
           capture_ns restore_ns snapshot_allocs \
           tail_fastforward ffwd_span_fraction fallbacks certifications \
           speedup_vs_baseline parallel_efficiency \
           worker_sweep worker_sweep_note host_cores; do
  grep -q "\"$key\"" "$campaign_scratch/BENCH_campaign.json" \
    || { echo "BENCH_campaign.json missing key: $key"; exit 1; }
done
# Macro-stepping must have engaged even at smoke scale: the forked path's
# quiescent tails are hyperperiodic regardless of trial count.
ffwd="$(grep '"ffwd_span_fraction"' "$campaign_scratch/BENCH_campaign.json" \
  | head -n1 | sed 's/[^0-9.]//g')"
awk -v f="$ffwd" 'BEGIN { exit !(f > 0.0) }' \
  || { echo "ffwd_span_fraction is $ffwd (must be > 0): macro-stepping never engaged"; exit 1; }
rm -rf "$campaign_scratch"

echo "==> effect dispatch stays move-free (split-borrow kernel invariant)"
# The split-borrow kernel runs effects on bodies in place; a reappearing
# take/restore of the body slot would silently reintroduce the double
# move per effect. Scoped to the kernel sources: hotpath_bench keeps a
# deliberate take/restore replica as its moved-body baseline.
if grep -rn 'take().expect("body present")' crates/osek/src/; then
  echo "moved-body dispatch crept back into the kernel effect path"; exit 1
fi

echo "==> soak smoke run (short horizon via EASIS_SOAK_HORIZON_MS)"
# The full soak defaults to two simulated hours; one simulated minute
# still crosses several 2^24-us timer-wheel rotations, so the overflow
# cascade path — including the long-horizon central-node scenario that
# injects a fault across the rotation boundary — is exercised on every
# CI run.
EASIS_SOAK_HORIZON_MS=60000 cargo test -q --test soak

echo "==> campaign golden across worker/chunk/fast-forward configurations (forked path)"
# campaign_regression drives scenario::run_plan — the snapshot-forking
# engine with tail collapsing — so this loop proves the prefix-reuse
# report bytes stay identical to the golden at every worker count, with
# hyperperiod macro-stepping enabled (the default) and disabled: the
# certified jumps must be unobservable in the report bytes.
for ff in 1 0; do
  for w in 1 2 4; do
    EASIS_FASTFORWARD=$ff EASIS_WORKERS=$w EASIS_CHUNK=5 \
      cargo test -q --test campaign_regression
  done
done

echo "==> easis_bench correctness (unit tests + quick run, must report correct:true)"
# The frozen benchmark builds against the product API from its own
# manifest; its tests pin the state digests and the run_trial oracle, and
# a quick run must still end with a correct:true verdict.
cargo test --offline --manifest-path crates/bench/src/bin/easis_bench/Cargo.toml
bench_last="$(cargo run --release -q --offline \
  --manifest-path crates/bench/src/bin/easis_bench/Cargo.toml -- --seed 1 --quick | tail -n1)"
case "$bench_last" in
  *'"correct":true'*) ;;
  *) echo "easis_bench --quick did not report correct:true: $bench_last"; exit 1 ;;
esac

echo "CI green."
