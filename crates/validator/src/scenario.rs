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
use easis_injection::stats::{Detections, TrialOutcome};
use easis_sim::series::SeriesSet;
use easis_sim::time::{Duration, Instant};
use std::sync::{Mutex, OnceLock};

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

/// The node configuration every campaign trial runs on: the full node
/// (all three applications), treatment disabled and monitoring kept past
/// the faulty verdict so a fast unit (PFC) does not mask a slower one
/// (arrival rate) — campaign trials measure raw detection capability per
/// unit.
pub fn campaign_node_config() -> NodeConfig {
    NodeConfig {
        keep_monitoring_faulty: true,
        policy: easis_fmf::policy::TreatmentPolicy::observe_only(),
        // Outcomes come from the detection log; the kernel trace would
        // only burn three allocations per dispatch-path event.
        kernel_trace: false,
        ..NodeConfig::default()
    }
}

/// Runs one campaign trial on a freshly built full node (all three
/// applications) under the per-millisecond tick loop and reports which
/// detectors caught the injected error, with their latencies relative to
/// the injection start. This is the event-level reference [`run_plan`] is
/// checked against.
pub fn run_trial(spec: &TrialSpec, horizon: Instant) -> TrialOutcome {
    let mut node = CentralNode::build(campaign_node_config());
    let mut injector = Injector::new([spec.injection.clone()]);
    node.start();
    node.run_until(horizon, &mut injector);
    extract_outcome(&node, spec)
}

/// The blueprint every campaign node is built from, compiled once per
/// process: every [`run_plan`] call runs [`campaign_node_config`], so one
/// compilation serves them all and a pooled node always matches it.
fn campaign_blueprint() -> &'static NodeBlueprint {
    static BLUEPRINT: OnceLock<NodeBlueprint> = OnceLock::new();
    BLUEPRINT.get_or_init(|| NodeBlueprint::compile(campaign_node_config()))
}

/// One share's pooled campaign state: the node and injector the share
/// reuses for every trial it runs, plus two golden (injection-free)
/// [`NodeSnapshot`]s of the one campaign blueprint that every trial
/// rewinds to — capacity-retained, so steady-state capture and restore
/// allocate nothing. A share takes a slot from [`NODE_POOL`] and puts it
/// back when it is done, so slots outlive the executor's scoped threads
/// and carry over from one [`run_plan`] call to the next.
struct PoolSlot {
    node: CentralNode,
    injector: Injector,
    /// The node just after `start()` at t=0, captured once per slot.
    cold: NodeSnapshot,
    /// Golden-prefix checkpoint buffer; contents are only meaningful when
    /// `ckpt_at` is set.
    ckpt: NodeSnapshot,
    /// The fork instant `ckpt` captures, or `None` before the first
    /// capture. It is only ever filled right after the node reached a fork
    /// along the golden prefix, so it stays valid across calls: every
    /// restore is a full copy.
    ckpt_at: Option<Instant>,
}

impl PoolSlot {
    fn new() -> Self {
        let mut node = CentralNode::build_from_blueprint(campaign_blueprint());
        node.start();
        PoolSlot {
            cold: node.snapshot(),
            node,
            injector: Injector::none(),
            ckpt: NodeSnapshot::default(),
            ckpt_at: None,
        }
    }
}

/// The process's free campaign slots. A share pops one, building a slot
/// only when none is free, rewinds its node for every trial instead of
/// rebuilding it, and pushes the slot back when it is done. The pool thus
/// holds as many slots as shares ever ran at once: one for serial
/// campaigns. A share that panics drops its slot, so no half-run node
/// returns. The lock is held for one `pop` or `push` only, so it is never
/// poisoned.
static NODE_POOL: Mutex<Vec<PoolSlot>> = Mutex::new(Vec::new());

/// Reads the detections of a finished trial off the node's detection
/// log, with latencies measured from the trial's own injection start
/// `from`. One pass over the log's reported entries keeps the earliest at
/// or after the start per detector in that detector's inline slot, so a
/// faulty trial's hundreds of entries allocate nothing. A Software
/// Watchdog entry counts once the watchdog task has handed it to the FMF,
/// the kernel's and the hardware watchdog's from the moment they are
/// logged; a golden prefix logs nothing, so the earliest entry at or
/// after the start is each detector's first detection.
fn detections_since(node: &CentralNode, from: Instant) -> Detections {
    let mut detections = Detections::default();
    for detection in node.world.watchdog.log().reported() {
        if detection.at >= from {
            detections.record(detection.detector, detection.at.saturating_duration_since(from));
        }
    }
    detections
}

/// The outcome of a finished trial: its detections since `spec`'s
/// injection start, stamped with the process-interned class tag, so
/// stamping it allocates nothing.
fn extract_outcome(node: &CentralNode, spec: &TrialSpec) -> TrialOutcome {
    TrialOutcome {
        class: spec.injection.class.interned_tag(),
        detections: detections_since(node, spec.injection.from),
    }
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

/// Key identifying a trial's *effective* tail behavior: the tick instants
/// at which the baseline loop would arm (the fork) and disarm it, and the
/// error class. `Injector::tick` only acts on whole-tick phase edges and
/// the node never reads a trial's seed or raw (sub-tick) window bounds, so
/// trials with equal keys — *twins* — share their detections: the same
/// detection log and hand-over cursor, which is all [`extract_outcome`]
/// reads. Twins need not leave the same node state: one that arms on the
/// horizon tick and one that never arms share a key but leave different
/// runnable controls. The fork leads, so sorting by the key keeps forks
/// ascending.
fn tail_key(spec: &TrialSpec, horizon: Instant) -> (Instant, &ErrorClass, Option<Instant>) {
    let fork = fork_instant(spec, horizon);
    (fork, &spec.injection.class, disarm_instant(spec, fork, horizon))
}

/// Runs one trial's tail on a node already restored to this trial's fork
/// instant, with `injector` freshly loaded: ticks once at the fork (the
/// arming tick), runs uninterrupted to the disarm tick, ticks, then runs
/// uninterrupted to the horizon. Exactly three kernel re-entries replace
/// the baseline's ~one-per-millisecond, and every skipped tick is provably
/// a no-op (`Injector::tick` only acts on the Pending→Armed and
/// Armed→Done edges), so the node ends bit-identical to
/// [`CentralNode::run_until`] over the same window.
fn run_trial_tail(
    node: &mut CentralNode,
    injector: &mut Injector,
    spec: &TrialSpec,
    horizon: Instant,
) {
    injector.attach_obs(node.world.obs.clone());
    let fork = node.os.now();
    // Every span may macro-step, the armed window included: the injector
    // changes runnable controls only at these ticks.
    injector.tick(fork, &mut node.world.controls, &mut node.os);
    if let Some(disarm) = disarm_instant(spec, fork, horizon) {
        node.run_span(disarm);
        injector.tick(disarm, &mut node.world.controls, &mut node.os);
    }
    if node.os.now() < horizon {
        node.run_span(horizon);
        injector.tick(horizon, &mut node.world.controls, &mut node.os);
    }
}

/// Runs one worker's contiguous share of campaign trials on a pooled node
/// with **golden-run prefix checkpointing**: the share is processed in
/// [`tail_key`] order (forks ascending), the node is advanced once along
/// the golden (injection-free) prefix, and the checkpoint buffer is
/// refilled at each distinct fork instant; every trial forks from its
/// checkpoint instead of re-simulating the prefix. Each rewind is one
/// exact full copy of a golden snapshot into the node's retained buffers,
/// so it allocates nothing once warm. Outcomes are returned in spec
/// order, so the campaign's stats are bit-identical to per-trial
/// [`run_trial`] runs. The share's whole heap is the outcome vector,
/// pre-stamped with the interned class tags, and the `u32` trial order.
///
/// On top sits **equivalence collapsing** (the fault-list collapsing of
/// hardware fault-injection campaigns): the sort puts twins next to each
/// other, only the first trial of each key is simulated, and every later
/// twin reads its outcome off the node that trial left, against its own
/// injection start. Twins in different workers' shares each simulate.
fn run_chunk_forked(specs: &[TrialSpec], horizon: Instant) -> Vec<TrialOutcome> {
    let pooled = NODE_POOL.lock().expect("no share panics holding the pool lock").pop();
    let mut s = pooled.unwrap_or_else(PoolSlot::new);

    let trials = u32::try_from(specs.len()).expect("a share holds under 2^32 trials");
    let mut order: Vec<u32> = (0..trials).collect();
    order.sort_by_key(|&i| tail_key(&specs[i as usize], horizon));

    let mut outcomes: Vec<TrialOutcome> = specs
        .iter()
        .map(|spec| TrialOutcome::new(spec.injection.class.interned_tag()))
        .collect();
    let mut simulated = None;
    for i in order.into_iter().map(|i| i as usize) {
        let spec = &specs[i];
        let key = tail_key(spec, horizon);
        if simulated != Some(key) {
            let fork = key.0;
            // Rewind to the latest golden base at or before the fork.
            // Forks ascend within a share, but the slot's next share may
            // fork earlier than its last checkpoint; such a stale
            // checkpoint must not be used, and t=0 serves instead.
            let base_at = s.ckpt_at.filter(|&at| at <= fork);
            s.node
                .restore_from(if base_at.is_some() { &s.ckpt } else { &s.cold });
            if base_at != Some(fork) {
                // The fork moved: advance along the golden prefix and
                // recapture.
                if s.node.os.now() < fork {
                    s.node.run_span(fork);
                }
                s.node.snapshot_into(&mut s.ckpt);
                s.ckpt_at = Some(fork);
            }
            s.injector.reload([spec.injection.clone()]);
            run_trial_tail(&mut s.node, &mut s.injector, spec, horizon);
            simulated = Some(key);
        }
        // A twin of the trial just simulated reads the same node.
        outcomes[i].detections = detections_since(&s.node, spec.injection.from);
    }
    NODE_POOL.lock().expect("no share panics holding the pool lock").push(s);
    outcomes
}

/// Runs every trial of `plan` on the given executor with golden-run
/// prefix checkpointing (`run_chunk_forked`): each share of the plan runs
/// on a pooled node built from the process-wide campaign
/// [`NodeBlueprint`], the injection-free prefix is simulated once and
/// snapshot-forked per trial, and adjacent twins are collapsed onto one
/// tail. The pooled nodes carry over to the next call at any worker
/// count: a call builds, starts and captures a node only when more of its
/// shares run at once than ever before.
/// Restore is exact — the forked≡fresh property test and the campaign
/// golden pin that any worker count produces stats bit-identical to a
/// serial per-trial [`run_trial`] run.
pub fn run_plan(
    plan: &easis_injection::campaign::CampaignPlan,
    horizon: Instant,
    executor: &easis_injection::executor::CampaignExecutor,
) -> easis_injection::stats::CampaignStats {
    executor.run_chunked(plan, |specs| run_chunk_forked(specs, horizon))
}

#[cfg(test)]
mod tests {
    use super::*;
    use easis_injection::stats::DetectorId;

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
    fn forked_runner_agrees_with_traced_fresh_builds() {
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
        // Every trial on its own fresh build with the kernel trace
        // recording: the trace never feeds an outcome.
        let traced = NodeConfig {
            kernel_trace: true,
            ..campaign_node_config()
        };
        let fresh = exec.run(&plan, |spec| {
            let mut node = CentralNode::build(traced.clone());
            let mut injector = Injector::new([spec.injection.clone()]);
            node.start();
            node.run_until(horizon, &mut injector);
            extract_outcome(&node, spec)
        });
        assert_eq!(run_plan(&plan, horizon, &exec), fresh);
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
            mk(250_000, 450_000), // exact duplicate
            mk(250_200, 450_000), // sub-tick twins: same fork, own `from`
            mk(250_700, 450_000),
            mk(350_000, 450_300), // disarm ticks equal, `to` differs
            mk(350_000, 450_900),
        ]);
        let reference = CampaignExecutor::serial().run(&plan, |spec| run_trial(spec, horizon));
        // Serially every twin collapses onto the tail simulated before
        // it; with one trial per worker every twin simulates its own.
        for exec in [CampaignExecutor::serial(), CampaignExecutor::new(plan.len())] {
            let stats = run_plan(&plan, horizon, &exec);
            assert_eq!(stats, reference, "{exec:?}");
            let aliveness = |i: usize| stats.trials()[i].detections[&DetectorId::SwAliveness];
            assert_eq!(aliveness(7) - aliveness(8), Duration::from_micros(500));
        }
    }

    #[test]
    fn forked_runner_matches_the_baseline_around_the_jump_threshold() {
        use easis_injection::campaign::CampaignPlan;
        use easis_injection::executor::CampaignExecutor;
        // Certification consumes one hyperperiod and needs a second to
        // jump, so 2H = 40 ms is the shortest span the engine may skip:
        // the horizons straddle H, 2H and 3H.
        assert_eq!(
            CentralNode::build(campaign_node_config()).hyperperiod(),
            Duration::from_millis(20)
        );
        let target = easis_rte::runnable::RunnableId(4);
        let loss = ErrorClass::HeartbeatLoss { runnable: target };
        let skip = ErrorClass::SkipRunnable { runnable: target };
        let slowdown = ErrorClass::ExecutionSlowdown {
            runnable: target,
            scale_ppm: 50_000_000,
        };
        let mk = |class: &ErrorClass, from_us: u64, to_us: u64| TrialSpec {
            seed: 3,
            injection: Injection::new(
                class.clone(),
                Instant::from_micros(from_us),
                Instant::from_micros(to_us),
            ),
        };
        let plan = CampaignPlan::from_trials(vec![
            mk(&loss, 5_000, 15_000),
            mk(&skip, 10_000, 30_000),
            mk(&loss, 19_500, 20_500),
            mk(&slowdown, 500, 100_000),
            // Past every horizon: a golden run.
            mk(&skip, 200_000, 300_000),
        ]);
        for horizon_ms in [1, 19, 20, 21, 39, 40, 41, 59, 60, 61] {
            let horizon = ms(horizon_ms);
            let reference = CampaignExecutor::serial().run(&plan, |spec| run_trial(spec, horizon));
            for exec in [CampaignExecutor::serial(), CampaignExecutor::new(plan.len())] {
                assert_eq!(
                    run_plan(&plan, horizon, &exec),
                    reference,
                    "{exec:?} at a {horizon_ms} ms horizon"
                );
            }
        }
    }

    /// The hand-over rule at the horizon: a Software Watchdog fault counts
    /// once the watchdog task has handed it to the FMF, a kernel timing
    /// check's detection as soon as the kernel reports it. The 600 ms
    /// watchdog cycle ends past a 600 ms horizon, so the faults of the last
    /// 10 ms are never handed over.
    #[test]
    fn outcomes_read_watchdog_faults_once_handed_over_and_kernel_checks_at_once() {
        use easis_injection::campaign::CampaignPlan;
        use easis_injection::executor::CampaignExecutor;
        let horizon = ms(600);
        let target = easis_rte::runnable::RunnableId(0);
        let trial = |class, from| TrialSpec {
            seed: 7,
            injection: Injection::new(class, ms(from), ms(700)),
        };
        // The skip's PFC faults at 592.545 and 597.545 ms are still pending
        // at the horizon.
        let skip = trial(ErrorClass::SkipRunnable { runnable: target }, 590);
        let mut node = CentralNode::build(campaign_node_config());
        node.start();
        node.run_until(horizon, &mut Injector::new([skip.injection.clone()]));
        assert_eq!(node.world.watchdog.pending_faults(), 2);
        // Both kernel checks fire after the 590 ms cycle's hand-over.
        let slowdown = trial(
            ErrorClass::ExecutionSlowdown {
                runnable: target,
                scale_ppm: 400_000_000,
            },
            588,
        );
        let plan = CampaignPlan::from_trials(vec![skip, slowdown]);
        let stats = run_plan(&plan, horizon, &CampaignExecutor::serial());
        for (spec, outcome) in plan.trials().iter().zip(stats.trials()) {
            assert_eq!(*outcome, run_trial(spec, horizon), "{:?}", spec.injection);
        }
        assert!(stats.trials()[0].detections.is_empty(), "{:?}", stats.trials()[0]);
        assert_eq!(
            stats.trials()[1].detections,
            Detections::from([
                (DetectorId::DeadlineMonitor, Duration::from_micros(9_500)),
                (DetectorId::ExecTimeMonitor, Duration::from_micros(5_180)),
            ])
        );
    }

    #[test]
    fn pooled_checkpoints_carry_across_calls_like_fresh_runs() {
        use easis_injection::campaign::CampaignPlan;
        use easis_injection::executor::CampaignExecutor;
        let horizon = ms(600);
        let exec = CampaignExecutor::serial();
        // Each call leaves its last golden checkpoint in its pooled slot:
        // the 450 ms call restores the 300 ms one, and the 250 ms call
        // must rewind to t=0 instead of using the stale 450 ms one. (Other
        // tests' campaigns share the pool; any slot they leave is golden.)
        for from in [300, 450, 250] {
            let plan = CampaignPlan::from_trials(vec![TrialSpec {
                seed: 9,
                injection: Injection::new(
                    ErrorClass::SkipRunnable {
                        runnable: easis_rte::runnable::RunnableId(4),
                    },
                    ms(from),
                    ms(from + 100),
                ),
            }]);
            assert_eq!(
                run_plan(&plan, horizon, &exec),
                exec.run(&plan, |spec| run_trial(spec, horizon)),
                "call forking at {from} ms"
            );
        }
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

    #[test]
    fn extract_outcome_keeps_the_earliest_reported_entry_per_detector_from_the_start() {
        use easis_osek::task::TaskId;
        use easis_watchdog::detection::Detection;
        let runnable = easis_rte::runnable::RunnableId(4); // SAFE_CC, not a flow entry
        let spec = TrialSpec {
            seed: 1,
            injection: Injection::new(ErrorClass::SkipRunnable { runnable }, ms(100), ms(200)),
        };
        let on_task = |at: u64, detector| Detection::on_task(ms(at), detector, TaskId(1));
        let mut node = CentralNode::build(campaign_node_config());
        let watchdog = &mut node.world.watchdog;
        // Kernel and hardware entries count as soon as they are logged:
        // entries before the start, detectors interleaved and out of time
        // order, one on the start itself, and several at one instant.
        for detection in [
            on_task(40, DetectorId::DeadlineMonitor),
            on_task(150, DetectorId::ExecTimeMonitor),
            Detection::expiry(ms(99)),
            on_task(130, DetectorId::DeadlineMonitor),
            on_task(120, DetectorId::ExecTimeMonitor),
            Detection::expiry(ms(130)),
            on_task(110, DetectorId::DeadlineMonitor),
            on_task(120, DetectorId::ExecTimeMonitor),
            Detection::expiry(ms(100)),
            on_task(120, DetectorId::DeadlineMonitor),
        ] {
            watchdog.log_detection(detection);
        }
        // A cycle check with no heartbeats finds aliveness faults, handed
        // over; a PFC fault after it is still pending and counts nowhere.
        watchdog.run_cycle(ms(115));
        watchdog.hand_over_faults(&mut Vec::new());
        watchdog.heartbeat(runnable, ms(107));
        assert_eq!(watchdog.pending_faults(), 1);
        let outcome = extract_outcome(&node, &spec);
        let latency = Duration::from_millis;
        assert_eq!(
            outcome.detections,
            Detections::from([
                (DetectorId::SwAliveness, latency(15)),
                (DetectorId::HwWatchdog, latency(0)),
                (DetectorId::DeadlineMonitor, latency(10)),
                (DetectorId::ExecTimeMonitor, latency(20)),
            ])
        );
        assert_eq!(&*outcome.class, "skip_runnable");
    }
}

