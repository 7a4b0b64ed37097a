//! The evaluation scenario library.
//!
//! Each function regenerates one evaluation artifact of the paper (see
//! DESIGN.md's per-experiment index): the Figure 5 aliveness test, the
//! Figure 6 unit-collaboration test, the arrival-rate and program-flow
//! tests described in prose, and the campaign trial runner behind the
//! coverage/latency/granularity tables of the outlook.

use crate::node::{CentralNode, NodeBlueprint, NodeConfig, NodeSnapshot};
use easis_injection::campaign::TrialSpec;
use easis_injection::injector::{ErrorClass, Injection, Injector};
use easis_injection::stats::{DetectorId, TrialOutcome};
use easis_sim::series::SeriesSet;
use easis_sim::time::{Duration, Instant};
use easis_watchdog::report::{FaultKind, HealthState};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

/// Sampling interval of the figure series (the paper's plots use a 10 ms
/// scalar on the x axis).
pub const SAMPLE_PERIOD: Duration = Duration::from_millis(10);

fn ms(n: u64) -> Instant {
    Instant::from_millis(n)
}

/// Runs `node` to `end`, sampling `sample(node, series)` every
/// [`SAMPLE_PERIOD`], offset 5 ms from the watchdog checks so the counter
/// sawtooth is visible mid-cycle.
fn run_sampled(
    node: &mut CentralNode,
    injector: &mut Injector,
    end: Instant,
    series: &mut SeriesSet,
    mut sample: impl FnMut(&CentralNode, Instant, &mut SeriesSet),
) {
    // +7 ms lands between the heartbeat (task phase +5 ms) and the next
    // watchdog check, so the counter sawtooth is visible.
    let mut next = ms(7);
    while node.os.now() < end {
        let slice = next.min(end);
        node.run_until(slice, injector);
        sample(node, node.os.now(), series);
        next = slice + SAMPLE_PERIOD;
    }
}

/// **FIG5** — test with an injected aliveness error.
///
/// The SafeSpeed task's activation alarm is slowed to `scale_ppm` of
/// nominal between 1.0 s and 2.0 s (the ControlDesk "time scalar" slider),
/// so the runnables heartbeat too rarely. Series: the Aliveness Counter
/// (AC) and Cycle Counter (CCA) of `SAFE_CC_process` and the cumulative
/// "AM Result". The monitoring window spans two watchdog cycles so the
/// AC/CCA sawtooth of the paper's plot is visible; the error threshold is
/// raised so the counter series keep evolving for the whole window.
pub fn fig5_aliveness(scale_ppm: u64) -> SeriesSet {
    let mut node = CentralNode::build(NodeConfig {
        error_threshold: 1_000, // keep counting for the plot
        window_factor: 2,
        ..NodeConfig::safespeed_only()
    });
    node.start();
    let alarm = node.alarms["SafeSpeedTask"];
    let mut injector = Injector::new([Injection::new(
        ErrorClass::AlarmScale {
            alarm,
            scale_ppm,
        },
        ms(1_000),
        ms(2_000),
    )]);
    let mut series = SeriesSet::new("fig5_aliveness");
    run_sampled(&mut node, &mut injector, ms(3_000), &mut series, |n, t, s| {
        let c = n.counters_of("SAFE_CC_process");
        s.push(t, "AC", c.ac as f64);
        s.push(t, "CCA", c.cca as f64);
        s.push(t, "AM Result", c.aliveness_errors as f64);
    });
    series
}

/// **FIG6** — collaboration of the fault detection units.
///
/// An invalid execution branch skips `SAFE_CC_process` from 1.0 s on. The
/// PFC unit reports a program-flow error every period; the aliveness
/// window is two watchdog cycles, so exactly one aliveness window closes
/// before the PFC error count crosses the threshold of 3 and flips the
/// task state to faulty — "after the detection of three program flow
/// errors … the task state is set to faulty. Only one accumulated
/// aliveness error is reported."
pub fn fig6_collaboration() -> SeriesSet {
    let mut node = CentralNode::build(NodeConfig {
        window_factor: 2,
        error_threshold: 3,
        // Leave the faulty state visible for the plot: no treatment.
        policy: easis_fmf::policy::TreatmentPolicy::observe_only(),
        ..NodeConfig::safespeed_only()
    });
    node.start();
    let target = node.runnable("SAFE_CC_process");
    let task = node.tasks["SafeSpeedTask"];
    let mut injector = Injector::new([Injection::new(
        ErrorClass::SkipRunnable { runnable: target },
        ms(1_000),
        ms(2_000),
    )]);
    let mut series = SeriesSet::new("fig6_collaboration");
    run_sampled(&mut node, &mut injector, ms(2_000), &mut series, |n, t, s| {
        s.push(t, "PFC Result", n.world.watchdog.pfc_errors_total() as f64);
        let am: u32 = ["GetSensorValue", "SAFE_CC_process", "Speed_process"]
            .iter()
            .map(|r| n.counters_of(r).aliveness_errors)
            .sum();
        s.push(t, "AM Result", am as f64);
        let faulty = n.world.watchdog.task_state(task).is_faulty();
        s.push(t, "Task State", if faulty { 1.0 } else { 0.0 });
    });
    series
}

/// **E-ARR** — test with an injected arrival-rate error: duplicate
/// aliveness indications of `GetSensorValue` between 1.0 s and 2.0 s.
pub fn exp_arrival_rate(extra: u32) -> SeriesSet {
    let mut node = CentralNode::build(NodeConfig {
        error_threshold: 1_000,
        ..NodeConfig::safespeed_only()
    });
    node.start();
    let target = node.runnable("GetSensorValue");
    let mut injector = Injector::new([Injection::new(
        ErrorClass::DuplicateDispatch {
            runnable: target,
            extra,
        },
        ms(1_000),
        ms(2_000),
    )]);
    let mut series = SeriesSet::new("exp_arrival_rate");
    run_sampled(&mut node, &mut injector, ms(3_000), &mut series, |n, t, s| {
        let c = n.counters_of("GetSensorValue");
        s.push(t, "ARC", c.arc as f64);
        s.push(t, "CCAR", c.ccar as f64);
        s.push(t, "ARM Result", c.arrival_rate_errors as f64);
    });
    series
}

/// **E-PFC** — test with an injected control-flow error: the actuator
/// runnable `Speed_process` is bypassed between 1.0 s and 2.0 s.
pub fn exp_program_flow() -> SeriesSet {
    let mut node = CentralNode::build(NodeConfig {
        error_threshold: 1_000,
        ..NodeConfig::safespeed_only()
    });
    node.start();
    let target = node.runnable("Speed_process");
    let mut injector = Injector::new([Injection::new(
        ErrorClass::SkipRunnable { runnable: target },
        ms(1_000),
        ms(2_000),
    )]);
    let mut series = SeriesSet::new("exp_program_flow");
    run_sampled(&mut node, &mut injector, ms(3_000), &mut series, |n, t, s| {
        s.push(t, "PFC Result", n.world.watchdog.pfc_errors_total() as f64);
        // Violations are attributed to the *observed* unexpected successor:
        // with Speed_process bypassed, that is the next cycle's entry.
        s.push(
            t,
            "PFC on observed successor",
            n.counters_of("GetSensorValue").program_flow_errors as f64,
        );
    });
    series
}

/// Maps a watchdog fault kind onto its coverage-table detector column.
fn detector_of(kind: FaultKind) -> DetectorId {
    match kind {
        FaultKind::Aliveness => DetectorId::SwAliveness,
        FaultKind::ArrivalRate => DetectorId::SwArrivalRate,
        FaultKind::ProgramFlow => DetectorId::SwProgramFlow,
    }
}

/// The node configuration every campaign trial runs on: the full node
/// (all three applications), treatment disabled and monitoring kept past
/// the faulty verdict so a fast unit (PFC) does not mask a slower one
/// (arrival rate) — campaign trials measure raw detection capability per
/// unit.
pub fn campaign_node_config() -> NodeConfig {
    NodeConfig {
        keep_monitoring_faulty: true,
        policy: easis_fmf::policy::TreatmentPolicy::observe_only(),
        // Outcomes come from the fault log and monitor stats; the kernel
        // trace would only burn three allocations per dispatch-path event.
        kernel_trace: false,
        ..NodeConfig::default()
    }
}

/// Runs one campaign trial on a freshly built full node (all three
/// applications) and reports which detectors caught the injected error,
/// with their latencies relative to the injection start.
pub fn run_trial(spec: &TrialSpec, horizon: Instant) -> TrialOutcome {
    let mut node = CentralNode::build(campaign_node_config());
    let mut injector = Injector::new([spec.injection.clone()]);
    run_trial_on(&mut node, &mut injector, spec, horizon)
}

/// One worker's pooled campaign state: the node and injector the worker
/// reuses across trials, plus the pooled [`NodeSnapshot`] checkpoint
/// buffer the forked runner refills via [`CentralNode::snapshot_into`] —
/// capacity-retained, so steady-state capture allocates nothing.
struct PoolSlot {
    /// Blueprint stamp the node was built from; a different stamp rebuilds
    /// the slot.
    stamp: u64,
    node: CentralNode,
    injector: Injector,
    /// Golden-prefix checkpoint buffer; contents are only meaningful when
    /// `ckpt_at` is set.
    ckpt: NodeSnapshot,
    /// The fork instant `ckpt` captures, or `None` before the first
    /// capture. The buffer always holds *golden* (injection-free) state:
    /// it is only ever filled right after the node reached a fork along
    /// the detector-free prefix, so it stays valid across chunks even
    /// though each chunk resets the node: every restore is a full copy.
    ckpt_at: Option<Instant>,
}

impl PoolSlot {
    fn build(blueprint: &NodeBlueprint, injector: Injector) -> Self {
        PoolSlot {
            stamp: blueprint.stamp(),
            node: CentralNode::build_from_blueprint(blueprint),
            injector,
            ckpt: NodeSnapshot::default(),
            ckpt_at: None,
        }
    }
}

thread_local! {
    /// Per-worker pooled campaign state, tagged with the blueprint stamp
    /// the node was built from. One pooled world per worker thread covers
    /// a whole campaign: trials reset the node and reload the injector
    /// instead of rebuilding either.
    static NODE_POOL: std::cell::RefCell<Option<PoolSlot>> =
        const { std::cell::RefCell::new(None) };
}

/// Campaign-wide caches shared by every worker of one [`run_plan`] call.
///
/// * `prefix` — golden-prefix checkpoints keyed by `(blueprint stamp,
///   fork instant)`. The first worker whose chunk has to simulate a long
///   stretch of golden prefix publishes the resulting snapshot behind an
///   [`Arc`]; other workers restore from it instead of re-simulating the
///   prefix, turning N×prefix work into 1×. Publications are spaced by
///   [`PREFIX_PUBLISH_SPACING`] so the map stays small and the lock cold.
/// * `memo` — the equivalence-collapsing tail cache (see [`TailKey`]),
///   formerly per-chunk, now shared so twins in different chunks collapse
///   too.
///
/// Both caches only ever hold state derived from the deterministic golden
/// run, so hits cannot change outcomes — the serial≡parallel test and the
/// campaign golden pin that stats are bit-identical at any worker count.
#[derive(Default)]
struct CampaignCaches {
    prefix: Mutex<BTreeMap<(u64, Instant), Arc<NodeSnapshot>>>,
    memo: Mutex<HashMap<TailKey, SharedDetections>>,
}

/// Memoised tail record: per-detector first absolute detection instants
/// (see [`absolute_detections`]), shared behind an `Arc` so a memo hit
/// clones a pointer, not the list.
type SharedDetections = Arc<Vec<(DetectorId, Instant)>>;

/// Minimum golden-prefix gap a shared checkpoint must close before a
/// worker consults or feeds the campaign-wide `prefix` cache. Below this,
/// the worker's own pooled checkpoint (or a short `run_span`) is cheaper
/// than a lock round-trip plus a restore from the shared checkpoint.
const PREFIX_PUBLISH_SPACING: Duration = Duration::from_millis(64);

/// Runs one campaign trial on this worker's pooled node, building it from
/// `blueprint` on first use and [`CentralNode::reset`]ting it afterwards.
/// The worker's pooled [`Injector`] is [`Injector::reload`]ed with this
/// trial's injection, so steady-state trials reuse its arming buffer too.
/// The reset≡fresh property test pins that the outcome is byte-identical
/// to [`run_trial`] on a fresh build.
pub fn run_trial_pooled(
    blueprint: &NodeBlueprint,
    spec: &TrialSpec,
    horizon: Instant,
) -> TrialOutcome {
    NODE_POOL.with(|pool| {
        let mut slot = pool.borrow_mut();
        match slot.as_mut() {
            Some(s) if s.stamp == blueprint.stamp() => {
                s.node.reset();
                s.injector.reload([spec.injection.clone()]);
            }
            _ => {
                *slot = Some(PoolSlot::build(
                    blueprint,
                    Injector::new([spec.injection.clone()]),
                ));
            }
        }
        let s = slot.as_mut().expect("pool populated above");
        run_trial_on(&mut s.node, &mut s.injector, spec, horizon)
    })
}

/// The shared trial body: starts the (fresh or just-reset) node, runs the
/// already-loaded injector to the horizon and extracts the detector
/// outcome.
fn run_trial_on(
    node: &mut CentralNode,
    injector: &mut Injector,
    spec: &TrialSpec,
    horizon: Instant,
) -> TrialOutcome {
    node.start();
    node.run_until(horizon, injector);
    extract_outcome(node, spec)
}

/// Reads the detector outcome of a finished trial off the node's fault
/// log, hardware watchdog and baseline-monitor statistics. The outcome's
/// class tag is the process-interned handle, so stamping it allocates
/// nothing.
fn extract_outcome(node: &CentralNode, spec: &TrialSpec) -> TrialOutcome {
    let from = spec.injection.from;
    let mut outcome = TrialOutcome::new(spec.injection.class.interned_tag());
    for fault in &node.world.fault_log {
        if fault.at >= from {
            outcome.record(
                detector_of(fault.kind),
                fault.at.saturating_duration_since(from),
            );
        }
    }
    if let Some(expiry) = node.world.hw_watchdog.first_expiry() {
        if expiry >= from {
            outcome.record(DetectorId::HwWatchdog, expiry.saturating_duration_since(from));
        }
    }
    if let Some((_, at)) = node.deadline_monitor.stats().first_detection() {
        if at >= from {
            outcome.record(
                DetectorId::DeadlineMonitor,
                at.saturating_duration_since(from),
            );
        }
    }
    if let Some((_, at)) = node.exec_monitor.stats().first_detection() {
        if at >= from {
            outcome.record(
                DetectorId::ExecTimeMonitor,
                at.saturating_duration_since(from),
            );
        }
    }
    outcome
}

/// The first instant at which the baseline per-millisecond tick loop of
/// [`CentralNode::run_until`] would call `Injector::tick` with `now >= at`
/// — ticks land on every whole millisecond up to and including the
/// (whole-millisecond) horizon.
fn ceil_to_tick(at: Instant) -> Instant {
    Instant::from_micros(at.as_micros().div_ceil(1_000) * 1_000)
}

/// The fork point of a trial: the tick instant at which the baseline loop
/// would arm its injection, clamped to the horizon (an injection past the
/// horizon never arms — golden trials fork at the horizon itself).
/// Everything before the fork is injection-independent golden prefix.
fn fork_instant(spec: &TrialSpec, horizon: Instant) -> Instant {
    ceil_to_tick(spec.injection.from).min(horizon)
}

/// The tick instant at which the baseline loop would disarm the
/// injection: the first tick at or after `to` that comes *after* the
/// arming tick (one `Injector::tick` call performs at most one phase
/// transition per injection). `None` when the injection stays armed to
/// the horizon (or never arms).
fn disarm_instant(spec: &TrialSpec, fork: Instant, horizon: Instant) -> Option<Instant> {
    if ceil_to_tick(spec.injection.from) > horizon {
        return None; // never armed
    }
    let step = Duration::from_millis(1);
    let disarm = ceil_to_tick(spec.injection.to).max(fork + step);
    (disarm <= horizon).then_some(disarm)
}

/// Key identifying a trial's *effective* tail behavior: the error class
/// plus the tick instants at which the baseline loop would arm and disarm
/// it. `Injector::tick` only acts on whole-tick phase edges and the node
/// never reads a trial's seed or raw (sub-tick) window bounds, so two
/// trials with equal keys simulate identically from the fork onward —
/// only the latency baseline (`injection.from`) differs between them.
type TailKey = (ErrorClass, Instant, Option<Instant>);

/// `true` when no detector has fired on `node` yet — i.e. the golden
/// prefix up to the current instant is detection-free. Only then may a
/// trial tail be memoized: every detection instant of such a tail is at
/// or after the fork tick, hence at or after *any* sub-tick `from` that
/// maps to this fork, so [`extract_outcome`]'s `at >= from` filter is
/// vacuous and its latencies are a constant offset of the absolute
/// instants cached by [`absolute_detections`].
fn prefix_is_detection_free(node: &CentralNode) -> bool {
    node.world.fault_log.is_empty()
        && node.world.hw_watchdog.first_expiry().is_none()
        && node.deadline_monitor.stats().first_detection().is_none()
        && node.exec_monitor.stats().first_detection().is_none()
}

/// The per-detector *first* detection instants of a finished trial, in
/// absolute simulated time. This is [`extract_outcome`] before the
/// subtraction of the injection start: `TrialOutcome::record` keeps the
/// earliest latency per detector, and subtracting a constant commutes
/// with taking the minimum, so replaying this list through
/// [`outcome_from_cached`] reproduces the extracted outcome exactly.
fn absolute_detections(node: &CentralNode) -> Vec<(DetectorId, Instant)> {
    let mut firsts: std::collections::BTreeMap<DetectorId, Instant> =
        std::collections::BTreeMap::new();
    let mut note = |detector: DetectorId, at: Instant| {
        firsts
            .entry(detector)
            .and_modify(|first| {
                if at < *first {
                    *first = at;
                }
            })
            .or_insert(at);
    };
    for fault in &node.world.fault_log {
        note(detector_of(fault.kind), fault.at);
    }
    if let Some(expiry) = node.world.hw_watchdog.first_expiry() {
        note(DetectorId::HwWatchdog, expiry);
    }
    if let Some((_, at)) = node.deadline_monitor.stats().first_detection() {
        note(DetectorId::DeadlineMonitor, at);
    }
    if let Some((_, at)) = node.exec_monitor.stats().first_detection() {
        note(DetectorId::ExecTimeMonitor, at);
    }
    firsts.into_iter().collect()
}

/// Rebuilds a [`TrialOutcome`] for `spec` from the cached absolute
/// detection instants of a behaviorally identical trial.
fn outcome_from_cached(cached: &[(DetectorId, Instant)], spec: &TrialSpec) -> TrialOutcome {
    let from = spec.injection.from;
    let mut outcome = TrialOutcome::new(spec.injection.class.interned_tag());
    for &(detector, at) in cached {
        outcome.record(detector, at.saturating_duration_since(from));
    }
    outcome
}

/// Runs one trial's tail on a node already restored to this trial's fork
/// instant, with `injector` freshly loaded: ticks once at the fork (the
/// arming tick), runs uninterrupted to the disarm tick, ticks, then runs
/// uninterrupted to the horizon. Exactly three kernel re-entries replace
/// the baseline's ~one-per-millisecond, and every skipped tick is provably
/// a no-op (`Injector::tick` only acts on the Pending→Armed and
/// Armed→Done edges), so the outcome is bit-identical to
/// [`CentralNode::run_until`] over the same window.
fn run_trial_tail(
    node: &mut CentralNode,
    injector: &mut Injector,
    spec: &TrialSpec,
    horizon: Instant,
) -> TrialOutcome {
    injector.attach_obs(node.world.obs.clone());
    let fork = node.os.now();
    // Macro-stepping stands down while the injection window is armed: the
    // armed injector rewrites runnable controls, state the closed-form
    // hyperperiod delta does not cover. The golden prefix and the
    // post-disarm tail remain eligible.
    let arms = ceil_to_tick(spec.injection.from) <= horizon;
    injector.tick(fork, &mut node.world.controls, &mut node.os);
    node.set_injection_armed(arms);
    if let Some(disarm) = disarm_instant(spec, fork, horizon) {
        node.run_span(disarm);
        injector.tick(disarm, &mut node.world.controls, &mut node.os);
        node.set_injection_armed(false);
    }
    if node.os.now() < horizon {
        node.run_span(horizon);
        injector.tick(horizon, &mut node.world.controls, &mut node.os);
    }
    node.set_injection_armed(false);
    extract_outcome(node, spec)
}

/// Runs one contiguous chunk of campaign trials on this worker's pooled
/// node with **golden-run prefix checkpointing**: the chunk is processed
/// in injection-time order, the pooled node is advanced once along the
/// golden (injection-free) prefix, and the pooled [`NodeSnapshot`] buffer
/// is refilled at each distinct fork instant; every trial forks from its
/// checkpoint instead of re-simulating the prefix. Each rewind is one
/// exact full copy of the checkpoint into the node's retained buffers, so
/// it allocates nothing once warm. Outcomes are returned in spec order, so
/// the merged stats are bit-identical to the per-trial runners.
///
/// Two campaign-wide caches (shared across chunks and workers, see
/// [`CampaignCaches`]) sit on top:
///
/// * **Shared prefix checkpoints** — when a chunk would have to simulate
///   more than [`PREFIX_PUBLISH_SPACING`] of golden prefix, it first looks
///   for a published checkpoint at or before the fork and restores from
///   that (exact, like every restore), then
///   publishes the checkpoint it captured so the next worker skips the
///   same stretch.
/// * **Equivalence collapsing** (the fault-list collapsing of hardware
///   fault-injection campaigns): trials that share a [`TailKey`] — same
///   error class, same arming tick, same disarm tick — are simulated
///   once; later twins synthesize their outcome from the cached
///   per-detector detection instants. The cache is only fed while the
///   golden prefix is detection-free (see [`prefix_is_detection_free`]),
///   which makes the synthesis provably exact, and a campaign whose
///   parameters never repeat simply never hits.
fn run_chunk_forked(
    blueprint: &NodeBlueprint,
    caches: &CampaignCaches,
    specs: &[TrialSpec],
    horizon: Instant,
) -> Vec<TrialOutcome> {
    NODE_POOL.with(|pool| {
        let mut slot = pool.borrow_mut();
        match slot.as_mut() {
            Some(s) if s.stamp == blueprint.stamp() => {
                s.node.reset();
            }
            _ => {
                *slot = Some(PoolSlot::build(blueprint, Injector::none()));
            }
        }
        let s = slot.as_mut().expect("pool populated above");
        s.node.start();

        // Group trials by fork instant (stable within a fork, so equal
        // forks replay in spec order — not that order could matter: each
        // trial starts from the same restored checkpoint).
        let mut order: Vec<usize> = (0..specs.len()).collect();
        order.sort_by_key(|&i| fork_instant(&specs[i], horizon));

        let mut outcomes: Vec<Option<TrialOutcome>> = specs.iter().map(|_| None).collect();
        for &i in &order {
            let spec = &specs[i];
            let fork = fork_instant(spec, horizon);
            let key: TailKey = (
                spec.injection.class.clone(),
                fork,
                disarm_instant(spec, fork, horizon),
            );
            // A behaviorally identical trial already ran (here or on
            // another worker): synthesize the outcome without touching
            // the node.
            let cached = caches.memo.lock().expect("memo lock").get(&key).cloned();
            if let Some(cached) = cached {
                outcomes[i] = Some(outcome_from_cached(&cached, spec));
                continue;
            }
            if s.ckpt_at == Some(fork) {
                // The common case: another trial of this fork instant just
                // ran — rewind to the checkpoint.
                s.node.restore_from(&s.ckpt);
            } else {
                // The fork moved. Rewind to the worker's own checkpoint if
                // it lies at or before the fork (forks ascend within a
                // chunk, but a *new* chunk may fork earlier than the last
                // chunk's final checkpoint — such a stale buffer must not
                // be used as a base), and close a large remaining gap from
                // a checkpoint another worker already published.
                let local_at = s.ckpt_at.filter(|&at| at <= fork);
                let gap = fork.saturating_duration_since(local_at.unwrap_or(Instant::ZERO));
                let published = if gap > PREFIX_PUBLISH_SPACING {
                    let prefix = caches.prefix.lock().expect("prefix lock");
                    prefix
                        .range((blueprint.stamp(), Instant::ZERO)..=(blueprint.stamp(), fork))
                        .next_back()
                        .filter(|((_, at), _)| Some(*at) > local_at)
                        .map(|(_, snap)| Arc::clone(snap))
                } else {
                    None
                };
                match (&published, local_at) {
                    (Some(snap), _) => {
                        s.node.restore_from(snap);
                    }
                    (None, Some(_)) => {
                        s.node.restore_from(&s.ckpt);
                    }
                    // Cold start: the node sits freshly started at t=0.
                    (None, None) => {}
                }
                let base = s.node.os.now();
                if base < fork {
                    s.node.run_span(fork);
                }
                s.node.snapshot_into(&mut s.ckpt);
                s.ckpt_at = Some(fork);
                // This chunk just simulated a stretch of golden prefix no
                // published checkpoint covered — publish ours so other
                // workers skip it. The spacing bound keeps publications
                // rare (a handful per campaign), so the extra full
                // capture and the lock stay off the per-trial path.
                if fork.saturating_duration_since(base) > PREFIX_PUBLISH_SPACING {
                    let snap = Arc::new(s.node.snapshot());
                    caches
                        .prefix
                        .lock()
                        .expect("prefix lock")
                        .entry((blueprint.stamp(), fork))
                        .or_insert(snap);
                }
            }
            let fork_clean = prefix_is_detection_free(&s.node);
            s.injector.reload([spec.injection.clone()]);
            let outcome = run_trial_tail(&mut s.node, &mut s.injector, spec, horizon);
            if fork_clean {
                caches
                    .memo
                    .lock()
                    .expect("memo lock")
                    .entry(key)
                    .or_insert_with(|| Arc::new(absolute_detections(&s.node)));
            }
            outcomes[i] = Some(outcome);
        }
        outcomes
            .into_iter()
            .map(|o| o.expect("every ordered index ran"))
            .collect()
    })
}

/// Runs every trial of `plan` on the given executor with golden-run
/// prefix checkpointing (`run_chunk_forked`): the watchdog configuration
/// is compiled once into a [`NodeBlueprint`], each worker pools one node
/// built from it, and within each chunk the injection-free prefix is
/// simulated once and snapshot-forked per trial, with golden
/// checkpoints shared across workers through the campaign-wide caches
/// created for this call. Restore is exact — the prefix-reuse≡pooled property
/// test and the campaign golden pin that any worker count produces stats
/// bit-identical to a serial per-trial run.
pub fn run_plan(
    plan: &easis_injection::campaign::CampaignPlan,
    horizon: Instant,
    executor: &easis_injection::executor::CampaignExecutor,
) -> easis_injection::stats::CampaignStats {
    let blueprint = NodeBlueprint::compile(campaign_node_config());
    let caches = CampaignCaches::default();
    executor.run_chunked(plan, |specs, _base| {
        run_chunk_forked(&blueprint, &caches, specs, horizon)
    })
}

/// Runs every trial of `plan` with per-worker node pooling but without
/// prefix checkpointing: every trial re-simulates its golden prefix under
/// the baseline per-millisecond tick loop ([`run_trial_pooled`]). This is
/// the engine [`run_plan`] is measured against in `campaign_bench`'s
/// `prefix_reuse` probe; outcomes are bit-identical.
pub fn run_plan_pooled(
    plan: &easis_injection::campaign::CampaignPlan,
    horizon: Instant,
    executor: &easis_injection::executor::CampaignExecutor,
) -> easis_injection::stats::CampaignStats {
    let blueprint = NodeBlueprint::compile(campaign_node_config());
    executor.run(plan, |spec| run_trial_pooled(&blueprint, spec, horizon))
}

/// Runs every trial of `plan` the way campaigns ran before the throughput
/// engine: each trial builds its own node from scratch — watchdog config
/// compile included — with the kernel execution trace recording (the
/// pre-engine node had no way to switch it off). No pooling, no shared
/// compiled config. Kept as the baseline `campaign_bench` measures the
/// engine against; the outcomes are bit-identical to [`run_plan`] (the
/// trace never feeds a trial outcome), which the bench asserts.
pub fn run_plan_fresh(
    plan: &easis_injection::campaign::CampaignPlan,
    horizon: Instant,
    executor: &easis_injection::executor::CampaignExecutor,
) -> easis_injection::stats::CampaignStats {
    let config = NodeConfig {
        kernel_trace: true,
        ..campaign_node_config()
    };
    executor.run(plan, move |spec| {
        let mut node = CentralNode::build(config.clone());
        let mut injector = Injector::new([spec.injection.clone()]);
        run_trial_on(&mut node, &mut injector, spec, horizon)
    })
}

/// A quick health check of a golden (fault-free) run: returns `true` when
/// no detector fired over the horizon. Used by tests and as the campaign's
/// false-positive control.
pub fn golden_run_is_clean(horizon: Instant) -> bool {
    let mut node = CentralNode::build(NodeConfig::default());
    node.start();
    let mut injector = Injector::none();
    node.run_until(horizon, &mut injector);
    node.world.fault_log.is_empty()
        && node.world.hw_watchdog.expirations() == 0
        && node.deadline_monitor.stats().total() == 0
        && node.exec_monitor.stats().total() == 0
        && node.world.watchdog.ecu_state() == HealthState::Ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_run_stays_clean() {
        assert!(golden_run_is_clean(ms(500)));
    }

    #[test]
    fn fig5_shows_aliveness_errors_only_inside_the_window() {
        let series = fig5_aliveness(3_000_000); // 3× slower task
        let am = series.series("AM Result").expect("AM series");
        // No errors before the injection…
        let before: f64 = am
            .samples()
            .iter()
            .filter(|s| s.at < ms(1_000))
            .map(|s| s.value)
            .fold(0.0, f64::max);
        assert_eq!(before, 0.0);
        // …a growing count inside it…
        let during = am.samples().iter().rfind(|s| s.at < ms(2_000)).unwrap();
        assert!(during.value >= 10.0, "AM Result during: {}", during.value);
        // …and no further growth after disarm (plus one residual window).
        let last = am.last_value().unwrap();
        let at_2100: f64 = am
            .samples()
            .iter()
            .rfind(|s| s.at <= ms(2_100))
            .unwrap()
            .value;
        assert!(last - at_2100 <= 1.0, "post-window growth: {at_2100} → {last}");
    }

    #[test]
    fn fig6_pfc_crosses_threshold_before_aliveness_accumulates() {
        let series = fig6_collaboration();
        let pfc = series.series("PFC Result").expect("PFC series");
        let am = series.series("AM Result").expect("AM series");
        let task = series.series("Task State").expect("task series");
        // Task flipped to faulty when PFC reached 3.
        let faulty_at = task.first_reached(1.0).expect("task went faulty");
        let pfc_at_flip = pfc
            .samples()
            .iter()
            .rfind(|s| s.at <= faulty_at)
            .unwrap()
            .value;
        assert!((3.0..=4.0).contains(&pfc_at_flip), "PFC at flip: {pfc_at_flip}");
        // Exactly one accumulated aliveness error, as in the paper.
        assert_eq!(am.last_value().unwrap(), 1.0);
        // PFC freezes after deactivation.
        assert!(pfc.last_value().unwrap() <= pfc_at_flip + 1.0);
    }

    #[test]
    fn arrival_rate_errors_step_during_duplicate_dispatch() {
        let series = exp_arrival_rate(2);
        let arm = series.series("ARM Result").expect("ARM series");
        assert_eq!(
            arm.samples()
                .iter()
                .filter(|s| s.at < ms(1_000))
                .map(|s| s.value)
                .fold(0.0, f64::max),
            0.0
        );
        assert!(arm.last_value().unwrap() >= 50.0, "{}", arm.last_value().unwrap());
    }

    #[test]
    fn program_flow_errors_attributed_to_observed_successor() {
        let series = exp_program_flow();
        let total = series.series("PFC Result").unwrap().last_value().unwrap();
        assert!(total >= 50.0, "PFC total {total}");
    }

    #[test]
    fn heartbeat_loss_trial_is_caught_only_by_the_software_watchdog() {
        use easis_injection::injector::{ErrorClass, Injection};
        let spec = TrialSpec {
            seed: 1,
            injection: Injection::new(
                ErrorClass::HeartbeatLoss {
                    runnable: easis_rte::runnable::RunnableId(4), // SAFE_CC in full node
                },
                ms(300),
                ms(600),
            ),
        };
        let outcome = run_trial(&spec, ms(1_000));
        assert!(outcome.detected_by(DetectorId::SwAliveness));
        assert!(!outcome.detected_by(DetectorId::HwWatchdog));
        assert!(!outcome.detected_by(DetectorId::DeadlineMonitor));
        assert!(!outcome.detected_by(DetectorId::ExecTimeMonitor));
    }

    #[test]
    fn forked_pooled_and_fresh_runners_agree() {
        use easis_injection::campaign::CampaignBuilder;
        use easis_injection::executor::CampaignExecutor;
        let horizon = ms(700);
        let plan =
            CampaignBuilder::new(23, (3..6).map(easis_rte::runnable::RunnableId).collect())
                .loop_targets(vec![easis_rte::runnable::RunnableId(4)])
                .trials_per_class(2)
                .window(ms(200), easis_sim::time::Duration::from_millis(200))
                .with_horizon(horizon)
                .build();
        let exec = CampaignExecutor::serial();
        let forked = run_plan(&plan, horizon, &exec);
        let pooled = run_plan_pooled(&plan, horizon, &exec);
        let fresh = run_plan_fresh(&plan, horizon, &exec);
        assert_eq!(forked, pooled);
        assert_eq!(forked, fresh);
    }

    #[test]
    fn forked_runner_handles_window_edges_like_the_baseline() {
        use easis_injection::campaign::CampaignPlan;
        use easis_injection::executor::CampaignExecutor;
        let horizon = ms(600);
        let target = easis_rte::runnable::RunnableId(4);
        let mk = |from_us: u64, to_us: u64| TrialSpec {
            seed: 5,
            injection: Injection::new(
                ErrorClass::HeartbeatLoss { runnable: target },
                Instant::from_micros(from_us),
                Instant::from_micros(to_us),
            ),
        };
        let plan = CampaignPlan::from_trials(vec![
            mk(300_500, 300_900), // sub-millisecond window between ticks
            mk(250_000, 250_001), // disarm lands on the tick after arming
            mk(400_000, 900_000), // stays armed through the horizon
            mk(599_500, 800_000), // arms on the final tick
            mk(700_000, 800_000), // entirely past the horizon (golden)
            mk(250_000, 450_000), // plain whole-millisecond window
        ]);
        let exec = CampaignExecutor::serial();
        assert_eq!(
            run_plan(&plan, horizon, &exec),
            run_plan_pooled(&plan, horizon, &exec)
        );
    }

    #[test]
    fn run_plan_is_identical_serial_and_parallel() {
        use easis_injection::campaign::CampaignBuilder;
        use easis_injection::executor::CampaignExecutor;
        let horizon = ms(700);
        let plan = CampaignBuilder::new(11, (3..6).map(easis_rte::runnable::RunnableId).collect())
            .loop_targets(vec![easis_rte::runnable::RunnableId(4)])
            .trials_per_class(1)
            .window(ms(200), easis_sim::time::Duration::from_millis(200))
            .with_horizon(horizon)
            .build();
        let serial = run_plan(&plan, horizon, &CampaignExecutor::serial());
        let parallel = run_plan(&plan, horizon, &CampaignExecutor::new(2));
        assert_eq!(serial, parallel);
        assert_eq!(serial.len(), plan.len());
    }

    #[test]
    fn extreme_slowdown_trial_is_caught_by_task_monitors_too() {
        use easis_injection::injector::{ErrorClass, Injection};
        let spec = TrialSpec {
            seed: 2,
            injection: Injection::new(
                ErrorClass::ExecutionSlowdown {
                    runnable: easis_rte::runnable::RunnableId(4),
                    scale_ppm: 300_000_000, // 300× ≈ 36ms for SAFE_CC
                },
                ms(300),
                ms(600),
            ),
        };
        let outcome = run_trial(&spec, ms(1_000));
        assert!(outcome.detected_by(DetectorId::SwAliveness));
        assert!(outcome.detected_by(DetectorId::DeadlineMonitor));
        assert!(outcome.detected_by(DetectorId::ExecTimeMonitor));
    }
}

