//! **CAMPAIGN-THROUGHPUT** — end-to-end trial throughput of the fault
//! campaign engine.
//!
//! The coverage/latency tables of the paper's outlook need thousands of
//! injection trials, each simulating a full central node to its horizon —
//! so campaign wall-clock is the cost that decides how dense a coverage
//! grid is affordable. This bin measures the T-COV campaign (the same
//! plan shape as the golden campaign report, scaled up) through the one
//! campaign engine, [`run_plan`]: golden-run prefix checkpointing. Each
//! worker takes a pooled node, sorts its share of the plan (one
//! contiguous share per worker) by fork tick and tail key, simulates the
//! clean (injection-free) prefix once, snapshots the node at each
//! distinct fork instant and restores every trial from its checkpoint,
//! so only the post-injection tail is re-simulated; adjacent twins with
//! the same effective tail read their outcome off one simulation, and
//! quiescent tail spans fast-forward by certified hyperperiod jumps. The
//! raw setup costs (one-off [`NodeBlueprint`] compile, one full node
//! build, one rewind to a t=0 snapshot) are measured separately.
//!
//! The bin proves the steady-state claim under a counting global
//! allocator: a clean (no-fault) trial on a warmed, reused node
//! (`restore_from` t=0 → `Injector::reload` → `run_until`) is measured at
//! the reference horizon and at twice the horizon, and the counts must be
//! **equal** — doubling the simulated time (and with it every task
//! activation) adds zero heap allocations, i.e. the plan/effect/step-buffer
//! path is allocation-free (asserted), and a clean trial allocates nothing
//! at all (asserted). A *faulty* trial — one whose injection fires inside
//! the horizon and is detected — is probed the same way: its detections,
//! decided treatments and DTC records with their plain-data freeze frames
//! land in retained buffers, so it allocates nothing either (asserted). An *overrunning*
//! trial — a loop overrun that makes its task miss deadlines, exceed its
//! budget and raise an activation-limit error every period — allocates
//! nothing as well (asserted): the kernel formats an OS error only for a
//! recording trace, and the timing monitors count into retained buffers.
//! Two *severe-slowdown* trials — SAFE_CC slowed 100× and 300× — leave
//! six DTC codes live at the horizon; they allocate nothing either
//! (asserted), because the DTC memory is a sorted vector that keeps its
//! capacity across the rewind.
//!
//! The `snapshot` probe measures the checkpoint machinery itself on a
//! standalone node: a warm capacity-retained capture
//! ([`CentralNode::snapshot_into`]), a full-copy restore after a clean
//! (injection-free) tail run to the horizon, and the heap allocations of
//! a warmed capture. One gate is asserted at every size: a warmed capture
//! allocates nothing.
//!
//! The `tail_fastforward` probe brackets the headline run with the
//! process-wide fast-forward metrics (`easis_validator::ffwd`): the
//! fraction of the simulated span skipped by certified macro-jumps, the
//! successful certifications and the rejected ones (fallbacks). At full
//! scale some span must be skipped and fallbacks must stay below one per
//! simulated millisecond (asserted).
//!
//! A per-worker-count sweep over 1/2/4/8 workers records how the engine
//! scales; every sweep run's stats must equal the headline run's
//! (asserted). The workers=2 entry must reach [`SWEEP_SCALING_FLOOR`]× the
//! workers=1 rate — only on hosts with more than one core, because an
//! oversubscribed sweep measures contention, not scaling.
//!
//! Results land in `BENCH_campaign.json` (stable schema,
//! `schema_version` 10; `host_cores` records the recording host's
//! available parallelism next to the sweep so readers can tell scaling
//! from oversubscription; each sweep entry carries its
//! `parallel_efficiency` = trials/sec ÷ (workers × workers=1 trials/sec)).
//!
//! Usage: `campaign_bench [trials_per_class]` (default 200 → 1000 trials
//! over the 5 error classes; the throughput gates are skipped below the
//! default so CI smoke runs stay timing-noise-proof — the allocation
//! gates and the sweep's stats equality always apply). Worker count comes
//! from `EASIS_WORKERS` (default: available parallelism).
//!
//! [`run_plan`]: easis_validator::scenario::run_plan
//! [`NodeBlueprint`]: easis_validator::node::NodeBlueprint

use easis_injection::campaign::{CampaignBuilder, CampaignPlan, TrialSpec};
use easis_injection::executor::CampaignExecutor;
use easis_injection::injector::{ErrorClass, Injection, Injector};
use easis_rte::runnable::RunnableId;
use easis_sim::time::{Duration, Instant};
use easis_validator::node::{CentralNode, NodeBlueprint, NodeSnapshot};
use easis_validator::scenario::{campaign_node_config, run_plan};
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
/// Below the full campaign the throughput gates are timing noise, not
/// signal.
const ASSERT_FLOOR_TRIALS_PER_CLASS: usize = DEFAULT_TRIALS_PER_CLASS;
/// Headline campaign passes; the fastest pass is reported (interference
/// only ever adds time, so the best pass is the closest observation).
const CAMPAIGN_REPS: u32 = 3;
/// Passes for the cheap per-node setup measurements.
const SETUP_REPS: u32 = 10;

/// Simulated horizon of every trial.
const HORIZON: Instant = Instant::from_millis(1_500);

/// Required scaling of the engine from one to two workers when the
/// recording host actually has more than one core (on a single-core host
/// the sweep measures oversubscription and the gate is skipped).
const SWEEP_SCALING_FLOOR: f64 = 1.3;

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
// Report schema (schema_version 10 — keep stable, future changes diff this).
// ---------------------------------------------------------------------

/// The headline campaign run: full-plan wall clock and derived rates.
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

/// Raw node setup costs, measured outside the campaign.
#[derive(Serialize)]
struct SetupSplit {
    /// One-off cost of compiling the watchdog config into a blueprint
    /// (paid once per process).
    blueprint_compile_ns: f64,
    /// One full node construction, config compile included (paid by the
    /// event-level reference `run_trial` on every trial).
    node_build_ns: f64,
    /// One `CentralNode::restore_from` of the t=0 snapshot on a node
    /// dirtied by 100 ms of simulation (paid by a campaign worker whenever
    /// a trial forks before its checkpoint).
    node_rewind_ns: f64,
}

/// Steady-state allocation probe of one clean and one faulty trial on a
/// reused node. The doubling delta is the gate: zero means no per-activation
/// (plan/effect/step-buffer) allocation survives on the hot path.
#[derive(Serialize)]
struct AllocProbe {
    /// Heap allocations of one clean (no-fault) trial on a warmed node,
    /// reference horizon.
    clean_trial_allocs: u64,
    /// Same probe at twice the simulated horizon (twice the activations).
    clean_trial_allocs_2x_horizon: u64,
    /// `2x − 1x`: allocations attributable to simulated time. Must be 0.
    horizon_scaling_allocs: i64,
    /// Heap allocations of one fault-detecting trial on a warmed node
    /// (retained detection, treatment and DTC buffers). Must be 0.
    faulty_trial_allocs: u64,
    /// Heap allocations of one overrunning trial on a warmed node (OS
    /// errors, deadline misses and budget overruns every period). Must
    /// be 0.
    overrun_trial_allocs: u64,
    /// Heap allocations of the worse of two severe-slowdown trials on a
    /// warmed node (SAFE_CC slowed 100× and 300×: six DTC codes live at
    /// the horizon). Must be 0.
    slowdown_trial_allocs: u64,
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
    /// Heap allocations of a warmed capture. Must be 0.
    snapshot_allocs: u64,
}

/// Hyperperiod macro-stepping (tail fast-forward) during the headline
/// runs: how much of the simulated span the engine skipped.
#[derive(Serialize)]
struct TailFastforwardProbe {
    /// Fraction of the simulated time covered by `run_span` during the
    /// headline reps that was fast-forwarded by certified hyperperiod
    /// jumps. Asserted > 0 at the full campaign.
    ffwd_span_fraction: f64,
    /// Rejected certification attempts during the headline reps.
    fallbacks: u64,
    /// Successful certifications during the headline reps.
    certifications: u64,
}

/// Engine throughput at one worker count (the multi-core sweep).
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
    tail_fastforward: TailFastforwardProbe,
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

/// Measures the raw setup costs outside the campaign.
fn measure_setup() -> SetupSplit {
    let blueprint_compile_ns = best_of(SETUP_REPS, || {
        black_box(NodeBlueprint::compile(campaign_node_config()));
    });
    let node_build_ns = best_of(SETUP_REPS, || {
        black_box(CentralNode::build(campaign_node_config()));
    });
    // Rewind a node that has actually run a trial's worth of simulation,
    // so the measured restore covers dirty state, not a no-op on a clean
    // world.
    let blueprint = NodeBlueprint::compile(campaign_node_config());
    let mut node = CentralNode::build_from_blueprint(&blueprint);
    node.start();
    let cold = node.snapshot();
    let mut injector = Injector::none();
    let mut node_rewind_ns = f64::INFINITY;
    for _ in 0..SETUP_REPS {
        node.run_until(Instant::from_millis(100), &mut injector);
        let start = std::time::Instant::now();
        node.restore_from(&cold);
        node_rewind_ns = node_rewind_ns.min(start.elapsed().as_nanos() as f64);
    }
    SetupSplit {
        blueprint_compile_ns,
        node_build_ns,
        node_rewind_ns,
    }
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

/// A trial whose injection makes SAFE_CC's task overrun its period: 20 000
/// forced loop iterations from 300 to 700 ms keep the task running past
/// its next activation, so the kernel raises activation-limit errors,
/// misses deadlines and exceeds the budget while the watchdog logs
/// faults.
fn overrun_spec() -> TrialSpec {
    TrialSpec {
        seed: 0x0F10,
        injection: Injection::new(
            ErrorClass::LoopOverrun {
                runnable: RunnableId(4),
                iterations: 20_000,
            },
            Instant::from_millis(300),
            Instant::from_millis(700),
        ),
    }
}

/// A trial that slows SAFE_CC `factor`× from 300 to 700 ms: its task
/// overruns, and the node ends the horizon with six DTC codes live.
fn slowdown_spec(factor: u64) -> TrialSpec {
    TrialSpec {
        seed: 0x5100 + factor,
        injection: Injection::new(
            ErrorClass::ExecutionSlowdown {
                runnable: RunnableId(4),
                scale_ppm: factor * 1_000_000,
            },
            Instant::from_millis(300),
            Instant::from_millis(700),
        ),
    }
}

/// Measures heap allocations of one trial of `spec` on a warmed, reused
/// node — `restore_from` of its t=0 snapshot, `Injector::reload`,
/// `run_until`, the way a campaign worker reuses its node (minimum over
/// several runs, so incidental lazy initialisation cannot inflate the
/// figure).
fn measure_trial_allocs(blueprint: &NodeBlueprint, spec: &TrialSpec, horizon: Instant) -> u64 {
    let mut node = CentralNode::build_from_blueprint(blueprint);
    node.start();
    let cold = node.snapshot();
    let mut injector = Injector::none();
    let mut trial = || {
        node.restore_from(&cold);
        injector.reload([spec.injection.clone()]);
        node.run_until(horizon, &mut injector);
        black_box(&node);
    };
    // Warm up: the first trials grow every retained buffer (arena slots,
    // timer queue, logs, fault records) to the steady state of this
    // horizon and fault profile.
    for _ in 0..3 {
        trial();
    }
    let mut best = u64::MAX;
    for _ in 0..5 {
        let before = allocations();
        trial();
        best = best.min(allocations() - before);
    }
    best
}

/// Measures the snapshot machinery on a standalone node: warm capture
/// cost and allocations, then the restore
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

/// Asserts that the emitted record parses and carries every schema key,
/// top level and inside each probe object.
fn validate_emitted_json(path: &str) {
    let text = std::fs::read_to_string(path).expect("BENCH_campaign.json written");
    let value = serde_json::parse_value(&text).expect("BENCH_campaign.json parses");
    let serde::Value::Map(entries) = value else {
        panic!("BENCH_campaign.json must be a JSON object");
    };
    let probe = |name: &str| match entries.iter().find(|(k, _)| k == name) {
        Some((_, serde::Value::Map(fields))) => fields,
        _ => panic!("BENCH_campaign.json `{name}` must be a JSON object"),
    };
    for (object, keys) in [
        (
            &entries,
            &[
                "schema_version",
                "trials",
                "workers",
                "simulated_ms_per_trial",
                "setup",
                "forked",
                "steady_state",
                "snapshot",
                "tail_fastforward",
                "worker_sweep",
                "worker_sweep_note",
                "host_cores",
            ][..],
        ),
        (
            probe("setup"),
            &["blueprint_compile_ns", "node_build_ns", "node_rewind_ns"][..],
        ),
        (
            probe("steady_state"),
            &[
                "clean_trial_allocs",
                "clean_trial_allocs_2x_horizon",
                "horizon_scaling_allocs",
                "faulty_trial_allocs",
                "overrun_trial_allocs",
                "slowdown_trial_allocs",
            ][..],
        ),
        (probe("snapshot"), &["capture_ns", "restore_ns", "snapshot_allocs"][..]),
        (
            probe("tail_fastforward"),
            &["ffwd_span_fraction", "fallbacks", "certifications"][..],
        ),
    ] {
        for key in keys {
            assert!(
                object.iter().any(|(k, _)| k == key),
                "BENCH_campaign.json missing key {key:?}"
            );
        }
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
    println!("experiment CAMPAIGN-THROUGHPUT — the run_plan campaign engine");
    println!("{trials} trials (T-COV plan), horizon {simulated_ms_per_trial} ms, {workers} workers");
    println!("================================================================");

    let setup = measure_setup();

    // Steady-state allocation probe: a clean trial on a reused node at the
    // reference horizon and at twice the horizon. Equal counts prove the
    // per-activation path (plans, effects, step buffers) allocates nothing.
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
    // Absolute gate: with the reloaded injector and every retained
    // buffer warm, a clean steady-state trial allocates nothing, so a
    // single new per-trial or per-activation allocation anywhere in the
    // kernel/RTE/watchdog cycle fails loudly.
    assert_eq!(
        allocs_1x, 0,
        "clean steady-state trial allocated {allocs_1x} heap blocks — a \
         per-trial or per-activation allocation crept back in"
    );

    // Faulty-cycle probe: a trial that detects real faults allocates
    // nothing either — detections, state changes and treatment actions
    // land in retained buffers, and DTC records with their freeze frames
    // are plain data copied into the DTC memory's retained capacity, so
    // re-inserting the same fault classes allocates nothing.
    let faulty_allocs = measure_trial_allocs(&probe_blueprint, &faulty_spec(), HORIZON);
    println!("faulty-trial allocs/trial: {faulty_allocs}");
    assert_eq!(
        faulty_allocs, 0,
        "fault-detecting trial allocated {faulty_allocs} heap blocks — a \
         per-fault allocation (record, freeze frame, action) crept back in"
    );

    // Overrunning-trial probe: OS errors, deadline misses and budget
    // overruns every period allocate nothing on a warmed node — no error
    // text is formatted for a trace that is off, and the timing monitors'
    // per-task counters keep their capacity across the rewind.
    let overrun_allocs = measure_trial_allocs(&probe_blueprint, &overrun_spec(), HORIZON);
    println!("overrunning-trial allocs/trial: {overrun_allocs}");
    assert_eq!(
        overrun_allocs, 0,
        "overrunning trial allocated {overrun_allocs} heap blocks — a \
         per-error or per-detection allocation crept back in"
    );

    // Severe-slowdown probe: a task slowed far past its period records
    // more DTC codes than a skipped runnable does, and the rewind retires
    // them; re-recording them must reuse the retained DTC memory.
    let slowdown_allocs = [100, 300].map(|factor| {
        let allocs = measure_trial_allocs(&probe_blueprint, &slowdown_spec(factor), HORIZON);
        println!("{factor}x-slowdown-trial allocs/trial: {allocs}");
        assert_eq!(
            allocs, 0,
            "{factor}x-slowdown trial allocated {allocs} heap blocks — the DTC \
             memory stopped reusing its retained records"
        );
        allocs
    });

    // Snapshot probe: the checkpoint machinery the engine is built on,
    // measured in isolation. The allocation gate holds at every size — it
    // is structural, not timing.
    let snapshot = measure_snapshot_probe(&probe_blueprint);
    println!(
        "snapshot probe: capture {:.0} ns ({} allocs), clean-tail \
         restore {:.0} ns",
        snapshot.capture_ns,
        snapshot.snapshot_allocs,
        snapshot.restore_ns,
    );
    assert_eq!(
        snapshot.snapshot_allocs, 0,
        "warmed snapshot capture allocated {} heap blocks — a snapshot \
         buffer has stopped retaining its capacity",
        snapshot.snapshot_allocs
    );

    // Bracket the headline reps with the process-wide macro-stepping
    // counters: the span fraction is a ratio, so aggregating over all
    // reps does not skew it.
    easis_validator::ffwd::reset_metrics();
    let mut headline_stats = None;
    let forked_ns = best_of(CAMPAIGN_REPS, || {
        headline_stats = Some(run_plan(&plan, HORIZON, &executor));
    });
    let ffwd_metrics = easis_validator::ffwd::metrics();
    let headline_stats = headline_stats.expect("headline campaign ran");
    let forked = PathTiming::new(forked_ns, trials, simulated_ms_per_trial);
    let tail_fastforward = TailFastforwardProbe {
        ffwd_span_fraction: ffwd_metrics.span_fraction(),
        fallbacks: ffwd_metrics.fallbacks,
        certifications: ffwd_metrics.certifications,
    };
    println!(
        "run_plan: {:.1} ms, {:.0} trials/sec, {:.0} ns/simulated ms",
        forked.elapsed_ms, forked.trials_per_sec, forked.ns_per_simulated_ms
    );
    println!(
        "tail fast-forward: {:.1}% of span skipped, {} certifications, {} fallbacks",
        tail_fastforward.ffwd_span_fraction * 100.0,
        tail_fastforward.certifications,
        tail_fastforward.fallbacks,
    );
    println!(
        "setup: blueprint compile {:.0} ns (once per process), node build \
         {:.0} ns, node rewind to t=0 {:.0} ns",
        setup.blueprint_compile_ns, setup.node_build_ns, setup.node_rewind_ns,
    );

    if trials_per_class >= ASSERT_FLOOR_TRIALS_PER_CLASS {
        assert!(
            tail_fastforward.ffwd_span_fraction > 0.0,
            "macro-stepping fast-forwarded nothing over the full campaign — \
             the engine is disabled or every certification is rejected"
        );
        assert!(
            tail_fastforward.fallbacks < ffwd_metrics.span_us / 1_000,
            "{} rejected macro-stepping certifications over {} simulated ms \
             — the engine keeps retrying instead of standing down",
            tail_fastforward.fallbacks,
            ffwd_metrics.span_us / 1_000,
        );
    } else {
        println!(
            "(tail-fastforward assertions skipped below \
             {ASSERT_FLOOR_TRIALS_PER_CLASS} trials/class)"
        );
    }

    // Multi-core scaling: one sweep entry per worker count, regardless of
    // what EASIS_WORKERS says about the headline runs. Read alongside
    // `worker_sweep_note`: entries beyond the host's core count measure
    // oversubscription, not scaling.
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
        "worker sweep", "trials/sec", "efficiency"
    );
    for w in [1usize, 2, 4, 8] {
        let ex = CampaignExecutor::new(w);
        let mut stats = None;
        let ns = best_of(sweep_reps, || {
            stats = Some(run_plan(&plan, HORIZON, &ex));
        });
        assert!(
            stats.as_ref() == Some(&headline_stats),
            "the {w}-worker sweep run's stats differ from the headline run's"
        );
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
            "the engine must scale across workers on a multi-core host: \
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
        schema_version: 10,
        trials,
        workers: workers as u64,
        simulated_ms_per_trial,
        setup,
        forked,
        tail_fastforward,
        steady_state: AllocProbe {
            clean_trial_allocs: allocs_1x,
            clean_trial_allocs_2x_horizon: allocs_2x,
            horizon_scaling_allocs: scaling,
            faulty_trial_allocs: faulty_allocs,
            overrun_trial_allocs: overrun_allocs,
            slowdown_trial_allocs: slowdown_allocs.into_iter().max().unwrap_or(0),
        },
        snapshot,
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
