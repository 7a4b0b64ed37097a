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

echo "==> cargo fmt --check (the kernel, runnable-layer, simulation, FMF, baseline, bus, vehicle, watchdog, injection and validator crates)"
# The rest of the tree is not rustfmt-clean yet; these ten crates are and
# stay so.
cargo fmt --check -p easis-osek -p easis-rte -p easis-sim -p easis-fmf \
  -p easis-baselines -p easis-bus -p easis-vehicle -p easis-watchdog \
  -p easis-injection -p easis-validator

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
# take/restore of the body slot would silently reintroduce two moves of
# the body per effect.
if grep -rn 'take().expect("body present")' crates/osek/src/; then
  echo "moved-body dispatch crept back into the kernel effect path"; exit 1
fi

echo "==> effects reach the kernel one way (no service seam, no detached contexts)"
# An effect's context borrows the scheduler core and calls its methods,
# so every service call from an effect has the kernel's semantics and
# errors. A service trait, a forwarding wrapper or a context that records
# calls without running them would bring back a second path.
if grep -rnE --include='*.rs' --exclude-dir=target \
     'ServiceCore|KernelServices|EffectCtx::for_kernel|Services::Detached' crates/*/src; then
  echo "a second service path from effects to the kernel crept back"; exit 1
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

echo "==> kernel state is canonical (no monotonic scheduler counters)"
# The kernel keeps its ready tasks in priority order, breaks timer ties by
# position and counts only queued activations, so a hyperperiod moves its
# checkpoint only in time. A ready key, a timer sequence number or an
# activation counter that grows forever would have to be measured and
# advanced by certification again.
if grep -rnE 'ready_key|next_back_key|next_front_key|next_seq|EventId|d_issued' \
     crates/{sim,osek}/src; then
  echo "a monotonic scheduler counter crept back into the kernel state"; exit 1
fi

echo "==> campaign executor runs on std threads (no crossbeam calls)"
# The executor hands each worker one share on std::thread::scope; the
# crossbeam manifest line and vendor/crossbeam remain only until the next
# benchmark change, because removing them rewrites easis_bench's frozen
# Cargo.lock.
if grep -rnE --include='*.rs' --exclude-dir=target 'crossbeam[:]{2}' crates/*/src src tests; then
  echo "a crossbeam call crept back in"; exit 1
fi

echo "==> one record of each detection (no second log, count, verdict or PFC front-end)"
# The watchdog service's detection log is the one record of every
# detection of all six detectors (the three watchdog units, the kernel's
# deadline and budget checks, the hardware watchdog): error counts, first
# detections and expiries are queries over it, and the FMF receives the
# watchdog's entries past a hand-over cursor. The FMF keeps the one
# ECU-reset count and the TSI the one task verdict; the watchdog service
# is the one front-end of its monitoring units and the one ingestion path
# into the FMF. A second copy has to be captured, compared and replayed
# by every checkpoint and certification.
if grep -rnE --include='*.rs' --exclude-dir=target \
     '\b(FaultRecord|SeverityMap|ProgramFlowChecker|MonitoringUnit|task_faulty|TaskMonitorStats|StatsHandle|fault_log|d_aliveness_errors|d_arrival_rate_errors|d_pfc_errors|d_expirations)\b|\bfn (add_errors|ingest_all|take_faults)\b' \
     crates/*/src; then
  echo "a duplicate detection record, monitoring front-end or ingestion path crept back"; exit 1
fi

echo "==> trial outcomes stay inline; the hardware watchdog stays a plain timeout"
# A trial outcome keeps its detections in one inline slot per detector, so
# a campaign allocates nothing per trial; a map of detections would put a
# heap block back into every detecting trial and double the campaign's
# peak heap. A window mode on the hardware watchdog would be state that
# every capture clones and every certification compares, for a mode the
# node never uses.
if grep -rnE --include='*.rs' --exclude-dir=target 'BTreeMap<DetectorId' crates/injection/src \
   || grep -rnE --include='*.rs' --exclude-dir=target 'with_window|early_kicks|window_closed' crates/*/src; then
  echo "a per-trial detection map or the hardware watchdog's window mode crept back"; exit 1
fi

echo "==> the runnable layer runs one declaration-order chart (no branch layer, schedule tables or paused sinks)"
# Every task body runs its runnables in declaration order; an invalid
# execution branch is a skipped runnable (the runnable control's `skip`).
# A sequencer, a per-task control map with a branch override, an error
# class that forces one, a schedule table or a sink that can be paused
# would be configurability no node uses; the control map would also be
# state that every capture clones and every certification compares.
if grep -rnE --include='*.rs' --exclude-dir=target \
     '\b(Sequencer|FixedSequencer|BranchingSequencer|with_sequencer|TaskControl|branch_override|BranchOverride|ScheduleTable)\b|\bfn (pause|resume)\b' \
     crates/*/src; then
  echo "a branch layer, schedule table or sink pause flag crept back"; exit 1
fi

echo "==> the FMF keeps plain data (no interned names, record pool or action queue)"
# DTC records with their freeze frames and decided treatments are `Copy`
# data: a freeze frame holds signal ids and values, which the node's
# signal database names, and a treatment is its own reason. The FMF's
# state, which every capture clones and every certification compares, is
# the DTC records, the restart budgets, the terminated flags and the
# ECU-reset count. An interned string, a spare-record pool or an action
# queue would bring back heap data and the machinery that serves it; no
# policy decides a task restart, so that treatment stays deleted too.
if grep -rnE --include='*.rs' --exclude-dir=target 'Arc<str>|\bspare\b' crates/fmf/src \
   || grep -rnE --include='*.rs' --exclude-dir=target \
     '\b(record_ref|take_actions|drain_actions_into|pending_actions|app_reasons|app_faulty_reason|ecu_faulty_reason|ingest_fault_with_conditions|freeze_conditions|RestartTask)\b' \
     crates/*/src; then
  echo "heap data, a record pool, an action queue or a task restart crept back into the FMF"; exit 1
fi

echo "==> the watchdog addresses runnables and tasks by id"
# The runnable registry and the kernel number runnables and tasks densely
# from 0, so every per-runnable and per-task table of the watchdog is an
# array indexed by id, as the TSI unit's are. An interner onto dense slots
# would be the identity map on every node, and the heartbeat unit's copy
# would be state that every capture clones and every certification
# compares. Every node turns the ECU faulty once all its applications
# are, so that threshold is no option either.
if grep -rnE --include='*.rs' --exclude-dir=target \
     '\b(IdIndex|runnable_index|task_index|slot_scope|slot_of|slot_of_runnable|slot_of_task|NO_SLOT|DIRECT_MAP_LIMIT|ecu_faulty_after_apps|ecu_faulty_app_threshold)\b' \
     crates/*/src; then
  echo "an id interner or the ECU threshold option crept back"; exit 1
fi

echo "==> plans are replayed, not rebuilt (copyable steps read by cursor)"
# A task's plan is a retained vector of plain 16-byte steps that the
# kernel reads by cursor and replays until the body's plan key changes. A
# deque with a front insert, or a step type that carries the world's
# closures, would bring back the per-activation rebuild and the step
# copies that dominated event-level simulation.
if grep -nE 'VecDeque|fn push_front' crates/osek/src/plan.rs \
   || grep -rnE --include='*.rs' --exclude-dir=target 'Step<W>' crates/*/src; then
  echo "a rebuilt plan or a world-typed step crept back"; exit 1
fi

echo "==> task bodies own their effects (one effect step, world-free plans and kernel state)"
# A body plans each effect as a `Step::EffectRef` token and runs it when
# the kernel hands the token back; a `Script` keeps its closures itself.
# A closure stored in the plan would be a second effect path, make the
# plan and the kernel checkpoint generic over the world again, and make
# capturing a checkpoint with a closure still to run panic.
if grep -rnE --include='*.rs' --exclude-dir=target \
     'Step::Effect\(|\bpush_effect\(|\btake_closure\b|\bClosures<|\bOsState<|\bPlan<' \
     crates/*/src; then
  echo "a closure in the plan or a world-typed plan or kernel state crept back"; exit 1
fi

echo "==> the kernel models the OSEK subset the platform runs"
# Every node runs basic tasks with multiple activation, activated by
# alarms, effects and ISRs, under full preemption, and the Software
# Watchdog touches the OS only through dispatch, activation and hooks.
# Extended tasks with events, priority-ceiling resources, ChainTask,
# Schedule, non-preemptable tasks, autostart and shutdown would be kernel
# paths that nothing runs, state that every capture clones and every
# certification compares, and surface for bugs that no node can reach.
if grep -rnE --include='*.rs' --exclude-dir=target \
     '\b(TaskKind|EventMask|ResourceId|HeldResources|add_resource|set_event|non_preemptable|is_preemptable|autostart|is_autostart|reprioritize|current_priority|shutdown)\b|Step::(SetEvent|WaitEvent|ClearEvent|GetResource|ReleaseResource|ChainTask|Schedule)\b|TaskState::Waiting|HookEvent::Shutdown|AlarmAction::SetEvent' \
     crates/*/src; then
  echo "an OSEK feature the platform does not run crept back into the crates"; exit 1
fi

echo "==> the campaign path keeps no process-wide cache"
# Every pooled campaign node is built from the campaign configuration, and
# every trial outcome carries its class's static tag. A blueprint that
# builds and drops a node to keep its watchdog configuration, a
# configuration shared behind an `Arc`, or a table of interned tags would
# be a process-wide cache that no per-trial build needs. The heartbeat
# sink trait was a second path into the watchdog that no glue code took.
if grep -rnE --include='*.rs' --exclude-dir=target \
     '\b(interned_tag|from_shared|shared_config|campaign_blueprint|watchdog_config|HeartbeatSink)\b' \
     crates/*/src \
   || grep -rnF --include='*.rs' --exclude-dir=target 'Arc<str>' crates/injection/src \
   || grep -nF 'OnceLock' crates/validator/src/scenario.rs \
   || grep -rnF --include='*.rs' --exclude-dir=target 'OnceLock' crates/injection/src; then
  echo "a process-wide cache or the heartbeat sink crept back onto the campaign path"; exit 1
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
# The fault-tail trials and the macro-stepping tests certify samples
# that the soak and the golden campaign rarely reach (tails just after
# slowdown and loop-overrun windows); their own end-state comparison
# misses a difference that later simulation overwrites, while verify
# mode compares right at each jump.
# The armed-window property jumps inside armed injection windows of all
# six error classes, where certification replays the faulty steady
# state's detection bookkeeping. The round-trip test restores a capture taken inside an armed injection
# window onto a dirtied node, the one rewind the campaign engine never
# makes. A fixed salt draws 100 cases per property beyond the fixed ones
# that `cargo test` runs, so this run covers new trials and stays
# reproducible.
EASIS_FASTFORWARD=verify PROPTEST_CASES=100 PROPTEST_SEED_SALT=1 \
  cargo test -q --test properties -- fault_tails_certify macro_stepp capture_inside

echo "==> scheduler property tests (fresh proptest draws)"
# The kernel keeps its ready list in priority bands and decides by its
# head; debug builds assert the band order at every decision, so fresh
# random task sets check the order as well as the fixed-priority
# properties. A fixed salt keeps the run reproducible.
PROPTEST_CASES=100 PROPTEST_SEED_SALT=1 \
  cargo test -q -p easis-osek --test scheduler_properties

echo "==> plan replay property test (fresh proptest draws)"
# Replayed plans must match planning at every activation on task sets
# and control writes that the fixed draws do not reach; in this debug
# build the kernel also checks every replay against a fresh plan. A
# fixed salt keeps the run reproducible.
PROPTEST_CASES=500 PROPTEST_SEED_SALT=1 \
  cargo test -q --test properties -- replayed_plans

echo "==> validator unit tests in verify mode"
# The validator's unit tests jump too: the forked-runner tests at
# horizons around 2H and the node's certification tests. Under verify
# mode each of those jumps is replayed at event level from its certified
# checkpoint and compared with the jumped one.
EASIS_FASTFORWARD=verify cargo test -q -p easis-validator --lib

echo "==> mutant catalogue (every mutant must fail its test command)"
# tests/mutants/catalogue.txt keeps the mutation checks of earlier changes:
# each sed expression must still match exactly one line, and the mutated
# tree must build and fail the mutant's test command. The script works on
# a copy under target/mutants, whose build stays warm between runs.
tests/mutants/run.sh target/mutants

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
# a quick run must still end with a correct:true verdict. `--locked`
# fails a manifest edit that would rewrite the frozen Cargo.lock.
cargo test --locked --offline --manifest-path crates/bench/src/bin/easis_bench/Cargo.toml
bench_last="$(cargo run --locked --release -q --offline \
  --manifest-path crates/bench/src/bin/easis_bench/Cargo.toml -- --seed 1 --quick | tail -n1)"
case "$bench_last" in
  *'"correct":true'*) ;;
  *) echo "easis_bench --quick did not report correct:true: $bench_last"; exit 1 ;;
esac
# Once more with every certified jump shadowed at event level: the
# `armed` plans are where all three parameterised classes (slowdown,
# duplicate dispatch, loop overrun) jump inside armed windows, and verify
# mode compares each such jump's whole checkpoint with its replay.
bench_last="$(EASIS_FASTFORWARD=verify cargo run --locked --release -q --offline \
  --manifest-path crates/bench/src/bin/easis_bench/Cargo.toml -- --seed 1 --quick | tail -n1)"
case "$bench_last" in
  *'"correct":true'*) ;;
  *) echo "easis_bench --quick under verify mode did not report correct:true: $bench_last"; exit 1 ;;
esac

echo "CI green."
