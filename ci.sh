#!/usr/bin/env bash
# Local CI gate: build, test, lint. Run from the repo root.
# Mirrors what reviewers run before merging; keep it green.
set -euo pipefail

echo "==> cargo build --release"
cargo build --release
# The smoke runs below execute the experiment binaries straight from
# target/release, which the root build does not produce.
cargo build --release -p easis-bench

echo "==> paper-experiment binaries (shape checks, pinned JSON records)"
# Each binary asserts the paper's shape on its own results and writes one
# JSON record to target/experiments/; together they take under a second
# in release. They also run kernel paths the campaign node skips: the
# kernel trace, alarm-cycle scaling, the S12XF CPU scale and runtime
# reconfiguration. The records are pinned by digest (hil_closed_loop.json
# alone is 3 MB); stdout is not compared, because table_coverage prints
# wall time there.
experiments="ablation_passive_active ablation_threshold ablation_wd_period
  exp_arrival_rate exp_program_flow fig5_aliveness fig6_collaboration
  hil_closed_loop outlook_reconfig outlook_s12xf table_coverage
  table_granularity table_latency table_overhead table_safety_impact"
for bin in $experiments; do
  rm -f "target/experiments/$bin.json"
  "./target/release/$bin" > /dev/null
done
sha256sum -c --quiet tests/goldens/experiments.sha256

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

echo "==> campaign_bench smoke run (run_plan engine, schema + alloc gates)"
# Reduced trial count from a scratch dir: the steady-state allocation
# floor, the faulty-, overrunning- and slowdown-trial allocation floors, the
# horizon-scaling zero-alloc gate, the snapshot-probe warm capture
# allocation floor and the worker
# sweep's stats-equal-headline assertion always apply; the fast-forward
# and worker-scaling gates are skipped below the full 200 trials/class so
# smoke runs stay timing-noise-proof, and the committed
# BENCH_campaign.json (full-scale record) is not clobbered.
campaign_scratch="$(mktemp -d)"
(cd "$campaign_scratch" && EASIS_WORKERS=2 "$OLDPWD/target/release/campaign_bench" 10 > /dev/null)
for key in schema_version trials workers simulated_ms_per_trial setup \
           blueprint_compile_ns node_build_ns node_rewind_ns forked \
           steady_state clean_trial_allocs \
           faulty_trial_allocs overrun_trial_allocs slowdown_trial_allocs \
           horizon_scaling_allocs snapshot \
           capture_ns restore_ns snapshot_allocs \
           tail_fastforward ffwd_span_fraction fallbacks certifications \
           parallel_efficiency worker_sweep worker_sweep_note host_cores; do
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

echo "==> component state is the checkpoint (no mirror snapshot types)"
# Every runtime component below the central node keeps its runtime fields
# in one state struct that a checkpoint clones field by field; a mirror
# type with hand-written copy functions would let a new field silently
# miss the checkpoint again.
if grep -rnE 'struct [A-Za-z]*Snapshot|fn snapshot_into|fn restore_from' \
     crates/{sim,osek,core,rte,fmf,baselines}/src; then
  echo "a mirror snapshot type or copy function crept back below the node"; exit 1
fi

echo "==> campaign executor runs on std threads (no crossbeam calls)"
# The executor hands each worker one share on std::thread::scope; the
# crossbeam manifest line and vendor/crossbeam remain only until the next
# benchmark change, because removing them rewrites easis_bench's frozen
# Cargo.lock.
if grep -rnE --include='*.rs' 'crossbeam[:]{2}' crates/*/src src tests; then
  echo "a crossbeam call crept back in"; exit 1
fi

echo "==> soak smoke run (short horizon via EASIS_SOAK_HORIZON_MS)"
# The full soak defaults to two simulated hours; one simulated minute
# still crosses several multiples of 2^24 us and schedules events further
# ahead than that, so the long-horizon ordering, cancellation and
# detection checks — including the central-node scenario that injects a
# fault across the first 2^24 us boundary — run on every CI run.
EASIS_SOAK_HORIZON_MS=60000 cargo test -q --test soak
# Once more with every certified jump shadowed by event-level simulation
# from its checkpoint: any divergence panics, naming the first differing
# checkpoint field.
EASIS_FASTFORWARD=verify EASIS_SOAK_HORIZON_MS=60000 cargo test -q --test soak

echo "==> macro-stepping and mid-window round-trip property tests in verify mode (fresh proptest draws)"
# The dead-ready-key trials and the macro-stepping tests hit dead
# scheduler state that the soak and the golden campaign rarely reach;
# their own end-state comparison misses a stale key that a later
# dispatch overwrites, while verify mode compares right at each jump.
# The armed-window property jumps inside armed injection windows of all
# seven error classes, where certification replays the faulty steady
# state's detection bookkeeping. The round-trip test restores a capture taken inside an armed injection
# window onto a dirtied node, the one rewind the campaign engine never
# makes. A fixed salt draws 100 cases per property beyond the fixed ones
# that `cargo test` runs, so this run covers new trials and stays
# reproducible.
EASIS_FASTFORWARD=verify PROPTEST_CASES=100 PROPTEST_SEED_SALT=1 \
  cargo test -q --test properties -- dead_ready_keys macro_stepp capture_inside

echo "==> validator unit tests in verify mode"
# The validator's unit tests jump too: the forked-runner tests at
# horizons around 2H and the node's certification tests. Under verify
# mode each of those jumps is replayed at event level from its certified
# checkpoint and compared with the jumped one.
EASIS_FASTFORWARD=verify cargo test -q -p easis-validator --lib

echo "==> campaign golden across worker/fast-forward configurations (forked path)"
# campaign_regression drives scenario::run_plan — the snapshot-forking
# engine with tail collapsing — so this loop proves the prefix-reuse
# report bytes stay identical to the golden at every worker count, with
# hyperperiod macro-stepping enabled (the default), disabled, and in
# verify mode (every jump shadowed at event level and compared): the
# certified jumps must be unobservable in the report bytes.
for ff in 1 0 verify; do
  for w in 1 2 4; do
    EASIS_FASTFORWARD=$ff EASIS_WORKERS=$w \
      cargo test -q --test campaign_regression
  done
done

echo "==> easis_bench correctness (unit tests + quick runs, plain and verify mode, must report correct:true)"
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
# Once more with every certified jump shadowed at event level: the
# `armed` plans are where all three parameterised classes (slowdown,
# duplicate dispatch, loop overrun) jump inside armed windows, and verify
# mode compares each such jump's whole checkpoint with its replay.
bench_last="$(EASIS_FASTFORWARD=verify cargo run --release -q --offline \
  --manifest-path crates/bench/src/bin/easis_bench/Cargo.toml -- --seed 1 --quick | tail -n1)"
case "$bench_last" in
  *'"correct":true'*) ;;
  *) echo "easis_bench --quick under verify mode did not report correct:true: $bench_last"; exit 1 ;;
esac

echo "CI green."
