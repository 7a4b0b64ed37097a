//! **CAMPAIGN-THROUGHPUT** — end-to-end trial throughput of the fault
//! campaign engine.
//!
//! The coverage/latency tables of the paper's outlook need thousands of
//! injection trials, each simulating a full central node to its horizon —
//! so campaign wall-clock is the cost that decides how dense a coverage
//! grid is affordable. This bin measures the T-COV campaign (the same
//! plan shape as the golden campaign report, scaled up) through three
//! execution paths:
//!
//! 1. **forked** — [`run_plan`]: golden-run prefix checkpointing. Each
//!    worker sorts its chunk by injection time, simulates the clean
//!    (injection-free) prefix once, snapshots the node at each distinct
//!    fork instant and restores every trial from its checkpoint, so only
//!    the post-injection tail is re-simulated (the default path since
//!    prefix checkpointing landed);
//! 2. **pooled** — [`run_plan_pooled`]: the previous engine. One pooled
//!    node per worker, `reset()` between trials, but every trial
//!    re-simulates its full prefix under the per-millisecond tick loop;
//! 3. **fresh** — [`run_plan_fresh`]: every trial builds its own node
//!    from scratch — config compile included — with the kernel execution
//!    trace recording, exactly how campaigns ran before the throughput
//!    engine (the pre-engine node had no switch to turn the trace off).
//!
//! All three paths must produce bit-identical [`CampaignStats`]
//! (asserted). At the full 1000-trial campaign the `prefix_reuse` probe
//! asserts the forked path at **≥1.5× the pooled trials/sec** (restore
//! is cheaper than re-simulating the prefix, and the uninterrupted tail
//! spans skip the baseline's per-millisecond injector round-trips); on
//! ≥4 workers the pooled path must additionally stay **≥2× fresh**. The
//! setup-vs-run split (per-trial node build vs pooled reset vs one-off
//! blueprint compile) is measured separately so the report shows *where*
//! the speedup comes from.
//!
//! Since the plan-arena task bodies landed, the bin additionally proves
//! the steady-state claim under a counting global allocator: a clean
//! (no-fault) pooled trial on a warmed node is measured at the reference
//! horizon and at twice the horizon, and the counts must be **equal** —
//! doubling the simulated time (and with it every task activation) adds
//! zero heap allocations, i.e. the plan/effect/step-buffer path is
//! allocation-free (asserted). A *faulty* trial — one whose injection
//! fires inside the horizon and is detected — is probed the same way:
//! with the pooled fault records, drained-into treatment actions and the
//! in-place DTC freeze frame it may allocate at most
//! [`FAULTY_TRIAL_ALLOC_FLOOR`] blocks (asserted; the residue is the
//! outcome's detection map plus first-occurrence DTC inserts). A
//! per-worker-count trials/sec sweep over 1/2/4/8 workers records how
//! the forked path scales.
//!
//! The `snapshot` probe measures the checkpoint machinery itself on a
//! standalone node: a warm capacity-retained capture
//! ([`CentralNode::snapshot_into`]), a full-copy restore after a clean
//! (injection-free) tail run to the horizon, and the heap allocations of
//! a warmed capture. One gate is asserted at every size: a warmed capture
//! allocates at most [`SNAPSHOT_ALLOC_FLOOR`] blocks.
//!
//! Since hyperperiod macro-stepping landed (`easis_validator::ffwd`), the
//! `tail_fastforward` probe brackets the forked headline run with the
//! process-wide fast-forward metrics: the fraction of forked span skipped
//! by certified macro-jumps, the certification/fallback counts, and the
//! speedup against the pre-macro-stepping forked baseline
//! ([`FORKED_BASELINE_TRIALS_PER_SEC`]). At full scale the forked path
//! must reach [`FFWD_SPEEDUP_FLOOR`]× that baseline, and the worker
//! sweep's workers=2 entry must reach [`SWEEP_SCALING_FLOOR`]× the
//! workers=1 rate — the latter only on hosts with more than one core,
//! because an oversubscribed sweep measures contention, not scaling.
//!
//! Results land in `BENCH_campaign.json` (stable schema,
//! `schema_version` 6; `host_cores` records the recording host's
//! available parallelism next to the sweep so readers can tell scaling
//! from oversubscription; each sweep entry carries its
//! `parallel_efficiency` = trials/sec ÷ (workers × workers=1 trials/sec)).
//!
//! Usage: `campaign_bench [trials_per_class]` (default 200 → 1000 trials
//! over the 5 error classes; the speedup assertions are skipped below
//! the default so CI smoke runs stay timing-noise-proof — the
//! allocation gates always apply). Worker count comes from
//! `EASIS_WORKERS` (default: available parallelism).
//!
//! [`run_plan`]: easis_validator::scenario::run_plan
//! [`run_plan_pooled`]: easis_validator::scenario::run_plan_pooled
//! [`run_plan_fresh`]: easis_validator::scenario::run_plan_fresh
//! [`NodeBlueprint`]: easis_validator::node::NodeBlueprint
//! [`CampaignStats`]: easis_injection::stats::CampaignStats

use easis_injection::campaign::{CampaignBuilder, CampaignPlan, TrialSpec};
use easis_injection::executor::CampaignExecutor;
use easis_injection::injector::{ErrorClass, Injection};
use easis_rte::runnable::RunnableId;
use easis_sim::time::{Duration, Instant};
use easis_validator::node::{CentralNode, NodeBlueprint, NodeSnapshot};
use easis_validator::scenario::{
    campaign_node_config, run_plan, run_plan_fresh, run_plan_pooled, run_trial_pooled,
};
use serde::Serialize;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation so the steady-state trial path can be proven
/// allocation-free, not just claimed.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to the system allocator; the counter is a
// relaxed atomic with no other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// trials_per_class of the full campaign (5 error classes → 1000 trials).
const DEFAULT_TRIALS_PER_CLASS: usize = 200;
/// Below the full campaign the speedup assertions are timing noise, not
/// signal.
const ASSERT_FLOOR_TRIALS_PER_CLASS: usize = DEFAULT_TRIALS_PER_CLASS;
/// The pooled-vs-fresh ≥2× assertion also needs real parallelism to be
/// meaningful (the prefix-reuse gate does not: checkpointing is a
/// per-worker saving, so it holds at any worker count).
const ASSERT_FLOOR_WORKERS: usize = 4;
/// Campaign passes per path; the fastest pass is reported (interference
/// only ever adds time, so the best pass is the closest observation).
const CAMPAIGN_REPS: u32 = 3;
/// Passes for the cheap per-node setup measurements.
const SETUP_REPS: u32 = 10;

/// Simulated horizon of every trial.
const HORIZON: Instant = Instant::from_millis(1_500);

/// Forked-path trials/sec of the reference T-COV campaign *before*
/// hyperperiod macro-stepping landed (BENCH_campaign.json of the prefix-
/// checkpointing PR, workers=1 on the single-core reference host). The
/// tail-fastforward probe asserts the macro-stepped forked path at
/// ≥[`FFWD_SPEEDUP_FLOOR`]× this figure at the full campaign.
const FORKED_BASELINE_TRIALS_PER_SEC: f64 = 4_865.0;

/// Required forked-path speedup over [`FORKED_BASELINE_TRIALS_PER_SEC`].
const FFWD_SPEEDUP_FLOOR: f64 = 1.5;

/// Required scaling of the forked path from one to two workers when the
/// recording host actually has more than one core (on a single-core host
/// the sweep measures oversubscription and the gate is skipped).
const SWEEP_SCALING_FLOOR: f64 = 1.3;

/// Maximum heap blocks a clean steady-state pooled trial may allocate.
/// With the pooled injector (`Injector::reload`) and the interned
/// outcome tag (`ErrorClass::interned_tag`) the per-trial constants are
/// gone — a warmed trial measures 0; one block of slack absorbs
/// collection growth-point jitter without letting a real per-trial
/// allocation through.
const STEADY_STATE_ALLOC_FLOOR: u64 = 1;

/// Maximum heap blocks a warmed `CentralNode::snapshot_into` capture may
/// allocate. Every snapshot buffer is capacity-retained, so a warm
/// capture measures 0; one block of slack absorbs collection
/// growth-point jitter without letting a real per-capture allocation
/// through.
const SNAPSHOT_ALLOC_FLOOR: u64 = 1;

/// Maximum heap blocks a *fault-detecting* pooled trial may allocate on
/// a warmed node. Fault records, state changes, treatment actions and
/// the DTC freeze frame are pooled/rewritten in place; what remains is
/// the outcome's detection `BTreeMap` node plus the DTC store's
/// first-occurrence inserts (each fault class re-enters an emptied map
/// after `reset()`).
const FAULTY_TRIAL_ALLOC_FLOOR: u64 = 4;

/// The T-COV campaign plan: same seed, target set and injection window as
/// the golden campaign report (`tests/goldens/campaign_report.json`),
/// scaled to `trials_per_class`.
fn t_cov_plan(trials_per_class: usize) -> CampaignPlan {
    CampaignBuilder::new(0xC0FFEE, (0..9).map(RunnableId).collect())
        .loop_targets(vec![RunnableId(4), RunnableId(7)])
        .trials_per_class(trials_per_class)
        .window(Instant::from_millis(300), Duration::from_millis(400))
        .with_horizon(HORIZON)
        .build()
}

/// Runs `op` `reps` times and returns the fastest elapsed nanoseconds.
fn best_of<F: FnMut()>(reps: u32, mut op: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = std::time::Instant::now();
        op();
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    best
}

// ---------------------------------------------------------------------
// Report schema (schema_version 6 — keep stable, future PRs diff this).
// ---------------------------------------------------------------------

/// One campaign execution path, full-plan wall clock and derived rates.
#[derive(Serialize)]
struct PathTiming {
    elapsed_ms: f64,
    trials_per_sec: f64,
    /// Host nanoseconds spent per simulated millisecond, aggregated over
    /// all workers (wall clock / total simulated time).
    ns_per_simulated_ms: f64,
}

impl PathTiming {
    fn new(elapsed_ns: f64, trials: u64, simulated_ms_per_trial: u64) -> Self {
        PathTiming {
            elapsed_ms: elapsed_ns / 1e6,
            trials_per_sec: trials as f64 / (elapsed_ns / 1e9),
            ns_per_simulated_ms: elapsed_ns / (trials * simulated_ms_per_trial) as f64,
        }
    }
}

/// Where the per-trial time goes before any simulation happens.
#[derive(Serialize)]
struct SetupSplit {
    /// One-off cost of compiling the watchdog config into a blueprint
    /// (paid once per campaign on the pooled path).
    blueprint_compile_ns: f64,
    /// Per-trial node construction on the fresh path (config compile
    /// included).
    fresh_build_ns_per_trial: f64,
    /// Per-trial `CentralNode::reset` on the pooled path.
    pooled_reset_ns_per_trial: f64,
    /// Fraction of the fresh path's wall clock spent building nodes.
    fresh_setup_fraction: f64,
    /// Fraction of the pooled path's wall clock spent resetting nodes.
    pooled_setup_fraction: f64,
}

/// Steady-state allocation probe of one clean and one faulty pooled
/// trial. The doubling delta is the gate: zero means no per-activation
/// (plan/effect/step-buffer) allocation survives on the hot path.
#[derive(Serialize)]
struct AllocProbe {
    /// Heap allocations of one clean (no-fault) pooled trial on a warmed
    /// node, reference horizon.
    clean_trial_allocs: u64,
    /// Same probe at twice the simulated horizon (twice the activations).
    clean_trial_allocs_2x_horizon: u64,
    /// `2x − 1x`: allocations attributable to simulated time. Must be 0.
    horizon_scaling_allocs: i64,
    /// Heap allocations of one fault-detecting pooled trial on a warmed
    /// node (pooled fault records + in-place DTC freeze frame; floor
    /// [`FAULTY_TRIAL_ALLOC_FLOOR`]).
    faulty_trial_allocs: u64,
}

/// Golden-run prefix checkpointing: the forked path measured against the
/// pooled (full-prefix re-simulation) baseline on the same executor.
#[derive(Serialize)]
struct PrefixReuseProbe {
    /// Forked trials/sec over pooled trials/sec. Asserted ≥ 1.5 at the
    /// full campaign.
    speedup_vs_pooled: f64,
}

/// Snapshot probe on a standalone node: what one capture and one
/// clean-tail restore cost.
#[derive(Serialize)]
struct SnapshotProbe {
    /// Warm `CentralNode::snapshot_into` into a capacity-retained buffer.
    capture_ns: f64,
    /// `restore_from` after a clean (injection-free) tail run from the
    /// fork instant to the horizon.
    restore_ns: f64,
    /// Heap allocations of a warmed capture (floor
    /// [`SNAPSHOT_ALLOC_FLOOR`]).
    snapshot_allocs: u64,
}

/// Hyperperiod macro-stepping (tail fast-forward) on the forked path:
/// how much of the simulated span the engine skipped and what the
/// headline throughput gained over the pre-macro-stepping baseline.
#[derive(Serialize)]
struct TailFastforwardProbe {
    /// Fraction of the simulated time covered by `run_span` during the
    /// forked headline reps that was fast-forwarded by certified
    /// hyperperiod jumps. Asserted > 0 at the full campaign.
    ffwd_span_fraction: f64,
    /// Rejected certifications plus rotation-boundary crossings simulated
    /// event-by-event during the forked headline reps.
    fallbacks: u64,
    /// Successful certifications during the forked headline reps.
    certifications: u64,
    /// The forked headline trials/sec (same figure as `forked`).
    trials_per_sec: f64,
    /// Forked trials/sec over [`FORKED_BASELINE_TRIALS_PER_SEC`].
    /// Asserted ≥ [`FFWD_SPEEDUP_FLOOR`] at the full campaign.
    speedup_vs_baseline: f64,
}

/// Forked-path throughput at one worker count (the multi-core sweep).
#[derive(Serialize)]
struct SweepEntry {
    workers: u64,
    trials_per_sec: f64,
    /// `trials_per_sec / (workers × workers-1 trials_per_sec)`: 1.0 is
    /// perfect linear scaling, values near `1/workers` mean no scaling
    /// (expected when the host has fewer cores than workers).
    parallel_efficiency: f64,
}

#[derive(Serialize)]
struct Report {
    schema_version: u32,
    trials: u64,
    workers: u64,
    simulated_ms_per_trial: u64,
    setup: SetupSplit,
    forked: PathTiming,
    pooled: PathTiming,
    fresh: PathTiming,
    prefix_reuse: PrefixReuseProbe,
    tail_fastforward: TailFastforwardProbe,
    speedup_pooled_vs_fresh: f64,
    steady_state: AllocProbe,
    snapshot: SnapshotProbe,
    worker_sweep: Vec<SweepEntry>,
    /// Caveat stamped next to the recorded numbers: on a host with fewer
    /// cores than workers the sweep measures thread scheduling overhead,
    /// not scaling — workers>1 can legitimately trail workers=1 there.
    worker_sweep_note: &'static str,
    /// Available parallelism of the recording host — the sweep entries
    /// beyond this count measure oversubscription, not scaling.
    host_cores: u64,
}

/// Caveat recorded alongside the sweep (see [`Report::worker_sweep_note`]).
const WORKER_SWEEP_NOTE: &str = "trials/sec by worker count on this recording \
     host; with fewer physical cores than workers the entries measure \
     oversubscription (thread scheduling), not scaling — on a single-core \
     host workers=2 trailing workers=1 is expected, not a regression";

/// Measures the one-off and per-trial setup costs outside the campaign.
fn measure_setup() -> (f64, f64, f64) {
    let compile_ns = best_of(SETUP_REPS, || {
        black_box(NodeBlueprint::compile(campaign_node_config()));
    });
    let build_ns = best_of(SETUP_REPS, || {
        black_box(CentralNode::build(campaign_node_config()));
    });
    // Reset a node that has actually run a trial's worth of simulation, so
    // the measured reset covers dirty state, not a no-op on a clean world.
    let blueprint = NodeBlueprint::compile(campaign_node_config());
    let mut node = CentralNode::build_from_blueprint(&blueprint);
    let mut injector = easis_injection::injector::Injector::none();
    let mut reset_ns = f64::INFINITY;
    for _ in 0..SETUP_REPS {
        node.start();
        node.run_until(Instant::from_millis(100), &mut injector);
        let start = std::time::Instant::now();
        node.reset();
        reset_ns = reset_ns.min(start.elapsed().as_nanos() as f64);
    }
    (compile_ns, build_ns, reset_ns)
}

/// A trial whose injection window lies beyond any probed horizon: the
/// node runs entirely nominal cycles — the steady state of a campaign.
fn clean_spec() -> TrialSpec {
    TrialSpec {
        seed: 0xA11C,
        injection: Injection::new(
            ErrorClass::SkipRunnable {
                runnable: RunnableId(0),
            },
            Instant::from_millis(10_000_000),
            Instant::from_millis(10_000_100),
        ),
    }
}

/// A trial whose injection fires inside the horizon and is detected by
/// the watchdog: skipping SAFE_CC (a monitored, loop-bearing runnable)
/// for 400 ms trips aliveness, arrival-rate and program-flow faults, so
/// the probe exercises fault records, DTC inserts, freeze-frame capture
/// and the (observe-only) treatment pipeline.
fn faulty_spec() -> TrialSpec {
    TrialSpec {
        seed: 0xFA17,
        injection: Injection::new(
            ErrorClass::SkipRunnable {
                runnable: RunnableId(4),
            },
            Instant::from_millis(300),
            Instant::from_millis(700),
        ),
    }
}

/// Measures heap allocations of one pooled trial of `spec` on a warmed
/// node (minimum over several runs, so incidental lazy initialisation
/// cannot inflate the figure). Runs on the calling thread's pool slot.
fn measure_trial_allocs(blueprint: &NodeBlueprint, spec: &TrialSpec, horizon: Instant) -> u64 {
    // Warm the pool: the first trial builds the node, the following ones
    // grow every retained buffer (arena slots, timer wheel, logs, fault
    // records) to the steady state of this horizon and fault profile.
    for _ in 0..3 {
        black_box(run_trial_pooled(blueprint, spec, horizon));
    }
    let mut best = u64::MAX;
    for _ in 0..5 {
        let before = allocations();
        black_box(run_trial_pooled(blueprint, spec, horizon));
        best = best.min(allocations() - before);
    }
    best
}

/// Measures the snapshot machinery on a standalone node (not the
/// campaign thread pool's slot, which the headline runs must keep
/// undisturbed): warm capture cost and allocations, then the restore
/// after a clean tail run from the fork instant to the horizon —
/// the checkpoint pattern of the forked campaign path.
fn measure_snapshot_probe(blueprint: &NodeBlueprint) -> SnapshotProbe {
    let fork = Instant::from_millis(300);
    let mut node = CentralNode::build_from_blueprint(blueprint);
    node.start();
    node.run_span(fork);
    let mut snap = NodeSnapshot::default();
    // First capture grows every retained buffer to its steady size.
    node.snapshot_into(&mut snap);
    let mut snapshot_allocs = u64::MAX;
    for _ in 0..5 {
        let before = allocations();
        node.snapshot_into(&mut snap);
        snapshot_allocs = snapshot_allocs.min(allocations() - before);
    }
    let capture_ns = best_of(SETUP_REPS, || {
        node.snapshot_into(&mut snap);
    });
    // The restore is timed against a freshly run clean tail each pass.
    let mut restore_ns = f64::INFINITY;
    for _ in 0..SETUP_REPS {
        node.run_span(HORIZON);
        let start = std::time::Instant::now();
        node.restore_from(&snap);
        restore_ns = restore_ns.min(start.elapsed().as_nanos() as f64);
    }
    SnapshotProbe {
        capture_ns,
        restore_ns,
        snapshot_allocs,
    }
}

fn validate_emitted_json(path: &str) {
    let text = std::fs::read_to_string(path).expect("BENCH_campaign.json written");
    let value = serde_json::parse_value(&text).expect("BENCH_campaign.json parses");
    let serde::Value::Map(entries) = value else {
        panic!("BENCH_campaign.json must be a JSON object");
    };
    for key in [
        "schema_version",
        "trials",
        "workers",
        "simulated_ms_per_trial",
        "setup",
        "forked",
        "pooled",
        "fresh",
        "prefix_reuse",
        "speedup_pooled_vs_fresh",
        "steady_state",
        "snapshot",
        "tail_fastforward",
        "worker_sweep",
        "worker_sweep_note",
        "host_cores",
    ] {
        assert!(
            entries.iter().any(|(k, _)| k == key),
            "BENCH_campaign.json missing key {key:?}"
        );
    }
    let snapshot = entries
        .iter()
        .find(|(k, _)| k == "snapshot")
        .map(|(_, v)| v)
        .expect("snapshot key checked above");
    let serde::Value::Map(snapshot) = snapshot else {
        panic!("BENCH_campaign.json `snapshot` must be a JSON object");
    };
    for key in [
        "capture_ns",
        "restore_ns",
        "snapshot_allocs",
    ] {
        assert!(
            snapshot.iter().any(|(k, _)| k == key),
            "BENCH_campaign.json snapshot probe missing key {key:?}"
        );
    }
    let tail = entries
        .iter()
        .find(|(k, _)| k == "tail_fastforward")
        .map(|(_, v)| v)
        .expect("tail_fastforward key checked above");
    let serde::Value::Map(tail) = tail else {
        panic!("BENCH_campaign.json `tail_fastforward` must be a JSON object");
    };
    for key in [
        "ffwd_span_fraction",
        "fallbacks",
        "certifications",
        "trials_per_sec",
        "speedup_vs_baseline",
    ] {
        assert!(
            tail.iter().any(|(k, _)| k == key),
            "BENCH_campaign.json tail_fastforward probe missing key {key:?}"
        );
    }
}

fn main() {
    let trials_per_class = std::env::args()
        .nth(1)
        .map(|raw| raw.parse::<usize>().expect("trials_per_class must be a number"))
        .unwrap_or(DEFAULT_TRIALS_PER_CLASS);

    let plan = t_cov_plan(trials_per_class);
    let trials = plan.len() as u64;
    let executor = CampaignExecutor::from_env();
    let workers = executor.workers();
    let simulated_ms_per_trial = HORIZON.as_millis();

    println!("================================================================");
    println!("experiment CAMPAIGN-THROUGHPUT — forked vs pooled vs fresh trials");
    println!("{trials} trials (T-COV plan), horizon {simulated_ms_per_trial} ms, {workers} workers");
    println!("================================================================");

    let (compile_ns, build_ns, reset_ns) = measure_setup();

    // Steady-state allocation probe: a clean pooled trial at the reference
    // horizon and at twice the horizon. Equal counts prove the per-
    // activation path (plans, effects, step buffers) allocates nothing —
    // only the per-trial constants (injector, outcome) remain.
    let probe_blueprint = NodeBlueprint::compile(campaign_node_config());
    let allocs_1x = measure_trial_allocs(&probe_blueprint, &clean_spec(), HORIZON);
    let allocs_2x = measure_trial_allocs(
        &probe_blueprint,
        &clean_spec(),
        Instant::from_millis(2 * HORIZON.as_millis()),
    );
    let scaling = allocs_2x as i64 - allocs_1x as i64;
    println!(
        "steady-state allocs/trial: {allocs_1x} at {simulated_ms_per_trial} ms, \
         {allocs_2x} at {} ms (horizon-scaling delta {scaling})",
        2 * simulated_ms_per_trial
    );
    assert!(
        scaling <= 0,
        "doubling the simulated horizon must add zero allocations (got \
         +{scaling}) — the plan/effect/step-buffer path has regressed from \
         allocation-free"
    );
    // Absolute floor: with the pooled injector and the interned outcome
    // tag a clean steady-state trial allocates nothing. Gate with one
    // block of slack so a new per-trial or per-activation allocation
    // anywhere in the kernel/RTE/watchdog cycle fails loudly.
    assert!(
        allocs_1x <= STEADY_STATE_ALLOC_FLOOR,
        "clean steady-state trial allocated {allocs_1x} heap blocks \
         (floor {STEADY_STATE_ALLOC_FLOOR}) — a per-trial or per-activation \
         allocation crept back in"
    );

    // Faulty-cycle probe: a trial that detects real faults must stay
    // within the pooled-buffer floor — fault records, state changes,
    // treatment actions and the freeze frame are reused, so only the
    // outcome map and first-occurrence DTC inserts remain.
    let faulty_allocs = measure_trial_allocs(&probe_blueprint, &faulty_spec(), HORIZON);
    println!("faulty-trial allocs/trial: {faulty_allocs} (floor {FAULTY_TRIAL_ALLOC_FLOOR})");
    assert!(
        faulty_allocs <= FAULTY_TRIAL_ALLOC_FLOOR,
        "fault-detecting trial allocated {faulty_allocs} heap blocks \
         (floor {FAULTY_TRIAL_ALLOC_FLOOR}) — a per-fault allocation \
         (record, freeze frame, action) crept back in"
    );

    // Snapshot probe: the checkpoint machinery the forked path is built
    // on, measured in isolation. The allocation gate holds at every size —
    // it is structural, not timing.
    let snapshot = measure_snapshot_probe(&probe_blueprint);
    println!(
        "snapshot probe: capture {:.0} ns ({} allocs), clean-tail \
         restore {:.0} ns",
        snapshot.capture_ns,
        snapshot.snapshot_allocs,
        snapshot.restore_ns,
    );
    assert!(
        snapshot.snapshot_allocs <= SNAPSHOT_ALLOC_FLOOR,
        "warmed snapshot capture allocated {} heap blocks (floor \
         {SNAPSHOT_ALLOC_FLOOR}) — a snapshot buffer has stopped retaining \
         its capacity",
        snapshot.snapshot_allocs
    );

    // Fresh first so the later paths cannot inherit any warmed-up state
    // (they could not anyway — pools are per worker thread and the
    // executor spawns fresh threads per run — but the order makes that
    // obvious). Forked last: it is the production path, measured after
    // its own baseline.
    let mut fresh_stats = None;
    let fresh_ns = best_of(CAMPAIGN_REPS, || {
        fresh_stats = Some(run_plan_fresh(&plan, HORIZON, &executor));
    });
    let mut pooled_stats = None;
    let pooled_ns = best_of(CAMPAIGN_REPS, || {
        pooled_stats = Some(run_plan_pooled(&plan, HORIZON, &executor));
    });
    // Bracket the forked headline reps with the process-wide macro-
    // stepping counters: the span fraction is a ratio, so aggregating
    // over all reps does not skew it.
    easis_validator::ffwd::reset_metrics();
    let mut forked_stats = None;
    let forked_ns = best_of(CAMPAIGN_REPS, || {
        forked_stats = Some(run_plan(&plan, HORIZON, &executor));
    });
    let ffwd_metrics = easis_validator::ffwd::metrics();
    let fresh_stats = fresh_stats.expect("fresh campaign ran");
    let pooled_stats = pooled_stats.expect("pooled campaign ran");
    let forked_stats = forked_stats.expect("forked campaign ran");
    assert_eq!(
        pooled_stats, fresh_stats,
        "pooled and fresh campaigns must produce bit-identical stats"
    );
    assert_eq!(
        forked_stats, pooled_stats,
        "snapshot-forked and pooled campaigns must produce bit-identical stats"
    );

    let forked = PathTiming::new(forked_ns, trials, simulated_ms_per_trial);
    let pooled = PathTiming::new(pooled_ns, trials, simulated_ms_per_trial);
    let fresh = PathTiming::new(fresh_ns, trials, simulated_ms_per_trial);
    let speedup = fresh_ns / pooled_ns;
    let prefix_speedup = pooled_ns / forked_ns;
    let setup = SetupSplit {
        blueprint_compile_ns: compile_ns,
        fresh_build_ns_per_trial: build_ns,
        pooled_reset_ns_per_trial: reset_ns,
        // Builds/resets run on `workers` threads; compare against the
        // aggregate CPU time, not wall clock, so the fraction stays in
        // [0, 1] regardless of parallelism.
        fresh_setup_fraction: (build_ns * trials as f64) / (fresh_ns * workers as f64),
        pooled_setup_fraction: (reset_ns * trials as f64) / (pooled_ns * workers as f64),
    };

    println!(
        "{:<28} {:>12} {:>14} {:>16}",
        "path", "elapsed ms", "trials/sec", "ns/simulated ms"
    );
    for (name, t) in [
        ("forked (run_plan)", &forked),
        ("pooled (run_plan_pooled)", &pooled),
        ("fresh (run_plan_fresh)", &fresh),
    ] {
        println!(
            "{:<28} {:>12.1} {:>14.0} {:>16.0}",
            name, t.elapsed_ms, t.trials_per_sec, t.ns_per_simulated_ms
        );
    }
    let tail_fastforward = TailFastforwardProbe {
        ffwd_span_fraction: ffwd_metrics.span_fraction(),
        fallbacks: ffwd_metrics.fallbacks,
        certifications: ffwd_metrics.certifications,
        trials_per_sec: forked.trials_per_sec,
        speedup_vs_baseline: forked.trials_per_sec / FORKED_BASELINE_TRIALS_PER_SEC,
    };
    println!("prefix-reuse speedup (forked vs pooled): {prefix_speedup:.2}x");
    println!(
        "tail fast-forward: {:.1}% of forked span skipped, {} certifications, \
         {} fallbacks, {:.2}x vs pre-macro-stepping baseline \
         ({FORKED_BASELINE_TRIALS_PER_SEC:.0} trials/sec)",
        tail_fastforward.ffwd_span_fraction * 100.0,
        tail_fastforward.certifications,
        tail_fastforward.fallbacks,
        tail_fastforward.speedup_vs_baseline,
    );
    println!("pooled vs fresh speedup: {speedup:.2}x");
    println!(
        "setup: blueprint compile {:.0} ns (once), fresh build {:.0} ns/trial \
         ({:.0}% of fresh cpu), pooled reset {:.0} ns/trial ({:.1}% of pooled cpu)",
        setup.blueprint_compile_ns,
        setup.fresh_build_ns_per_trial,
        setup.fresh_setup_fraction * 100.0,
        setup.pooled_reset_ns_per_trial,
        setup.pooled_setup_fraction * 100.0,
    );

    if trials_per_class >= ASSERT_FLOOR_TRIALS_PER_CLASS {
        assert!(
            prefix_speedup >= 1.5,
            "prefix checkpointing must be ≥1.5× pooled trials/sec at the \
             full campaign, got {prefix_speedup:.2}×"
        );
        assert!(
            tail_fastforward.ffwd_span_fraction > 0.0,
            "macro-stepping fast-forwarded nothing over the full campaign — \
             the engine is disabled or every certification is rejected"
        );
        assert!(
            tail_fastforward.fallbacks < ffwd_metrics.span_us / 1_000,
            "{} macro-stepping fallbacks over {} simulated ms — the engine \
             is thrashing on rejected certifications instead of standing down",
            tail_fastforward.fallbacks,
            ffwd_metrics.span_us / 1_000,
        );
        assert!(
            tail_fastforward.speedup_vs_baseline >= FFWD_SPEEDUP_FLOOR,
            "macro-stepped forked path must reach ≥{FFWD_SPEEDUP_FLOOR}× the \
             pre-macro-stepping baseline of {FORKED_BASELINE_TRIALS_PER_SEC:.0} \
             trials/sec at the full campaign, got {:.0} trials/sec ({:.2}×)",
            tail_fastforward.trials_per_sec,
            tail_fastforward.speedup_vs_baseline,
        );
    } else {
        println!(
            "(prefix-reuse and tail-fastforward assertions skipped below \
             {ASSERT_FLOOR_TRIALS_PER_CLASS} trials/class)"
        );
    }
    if trials_per_class >= ASSERT_FLOOR_TRIALS_PER_CLASS && workers >= ASSERT_FLOOR_WORKERS {
        assert!(
            speedup >= 2.0,
            "pooled campaign must be ≥2× fresh trials/sec at the full \
             campaign on ≥{ASSERT_FLOOR_WORKERS} workers, got {speedup:.2}×"
        );
    } else {
        println!(
            "(pooled-vs-fresh assertion skipped below \
             {ASSERT_FLOOR_TRIALS_PER_CLASS} trials/class or \
             {ASSERT_FLOOR_WORKERS} workers)"
        );
    }

    // Multi-core scaling of the forked path: one sweep entry per worker
    // count, regardless of what EASIS_WORKERS says about the headline
    // runs. Read alongside `worker_sweep_note`: entries beyond the host's
    // core count measure oversubscription, not scaling.
    let sweep_reps = if trials_per_class >= ASSERT_FLOOR_TRIALS_PER_CLASS {
        2
    } else {
        1
    };
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1) as u64;
    let mut worker_sweep: Vec<SweepEntry> = Vec::new();
    println!(
        "{:<28} {:>14} {:>12}",
        "worker sweep (forked)", "trials/sec", "efficiency"
    );
    for w in [1usize, 2, 4, 8] {
        let ex = CampaignExecutor::new(w);
        let ns = best_of(sweep_reps, || {
            black_box(run_plan(&plan, HORIZON, &ex));
        });
        let tps = trials as f64 / (ns / 1e9);
        let w1_tps = worker_sweep
            .first()
            .map(|e| e.trials_per_sec)
            .unwrap_or(tps);
        let efficiency = tps / (w1_tps * w as f64);
        println!(
            "{:<28} {:>14.0} {:>12.2}",
            format!("  {w} worker(s)"),
            tps,
            efficiency
        );
        worker_sweep.push(SweepEntry {
            workers: w as u64,
            trials_per_sec: tps,
            parallel_efficiency: efficiency,
        });
    }
    if trials_per_class >= ASSERT_FLOOR_TRIALS_PER_CLASS && host_cores > 1 {
        let w1_tps = worker_sweep[0].trials_per_sec;
        let w2_tps = worker_sweep[1].trials_per_sec;
        assert!(
            w2_tps >= SWEEP_SCALING_FLOOR * w1_tps,
            "forked path must scale across workers on a multi-core host: \
             workers=2 reached {w2_tps:.0} trials/sec, below \
             {SWEEP_SCALING_FLOOR}× the workers=1 rate of {w1_tps:.0}"
        );
    } else {
        println!(
            "(worker-scaling assertion skipped: host has {host_cores} core(s) \
             or reduced scale — oversubscribed sweeps measure contention, \
             not scaling)"
        );
    }

    let report = Report {
        schema_version: 6,
        trials,
        workers: workers as u64,
        simulated_ms_per_trial,
        setup,
        forked,
        pooled,
        fresh,
        prefix_reuse: PrefixReuseProbe {
            speedup_vs_pooled: prefix_speedup,
        },
        speedup_pooled_vs_fresh: speedup,
        steady_state: AllocProbe {
            clean_trial_allocs: allocs_1x,
            clean_trial_allocs_2x_horizon: allocs_2x,
            horizon_scaling_allocs: scaling,
            faulty_trial_allocs: faulty_allocs,
        },
        snapshot,
        tail_fastforward,
        worker_sweep,
        worker_sweep_note: WORKER_SWEEP_NOTE,
        host_cores,
    };
    let path = "BENCH_campaign.json";
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write(path, json).expect("BENCH_campaign.json writable");
    validate_emitted_json(path);
    println!("[record written to {path}]");
}
