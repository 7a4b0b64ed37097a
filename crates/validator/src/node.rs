//! Central-node assembly.
//!
//! [`CentralNode`] builds the validator's central node (the paper's
//! AutoBox) from application bundles: OSEK tasks and alarms per
//! application, the Software Watchdog as the highest-priority periodic
//! task, a lowest-priority hardware-watchdog kick task, the deployment
//! mapping, the derived fault hypotheses, and a hook observer that logs the
//! kernel's task-granularity timing checks. Every detector writes the one
//! detection log the watchdog service keeps. The watchdog task's effect
//! also plays the integration role of §4.4: it hands the watchdog's new
//! detections and state changes to the Fault Management Framework and
//! executes the decided treatments.

use crate::ffwd::Mode;
use crate::world::CentralWorld;
use easis_apps::bundle::AppBundle;
use easis_apps::{lightctl, safelane, safespeed, steer};
use easis_fmf::dtc::FreezeFrame;
use easis_fmf::framework::{FaultManagementFramework, FmfCycleDelta, FmfState};
use easis_fmf::policy::{Treatment, TreatmentAction, TreatmentPolicy};
use easis_injection::injector::Injector;
use easis_osek::alarm::{AlarmAction, AlarmId};
use easis_osek::hooks::{HookEvent, HookMask, HookObserver};
use easis_osek::kernel::{CycleProgram, Os};
use easis_osek::plan::{EffectCtx, Plan, TaskBody};
use easis_osek::task::{Priority, TaskConfig, TaskId};
use easis_rte::assembly::SequencedTask;
use easis_rte::mapping::{ApplicationId, SystemMapping};
use easis_rte::runnable::{RunnableId, RunnableRegistry};
use easis_rte::signal::{SignalDb, SignalId, SignalState};
use easis_sim::snap::RestoreStats;
use easis_sim::time::{Duration, Instant};
use easis_osek::kernel::OsState;
use easis_rte::control::RunnableControls;
use easis_watchdog::config::{RunnableHypothesis, WatchdogConfig};
use easis_watchdog::detection::{Detection, DetectorId};
use easis_watchdog::report::{DetectedFault, RunnableCounters, StateChange};
use easis_watchdog::{CycleReport, SoftwareWatchdog, WatchdogCycleDelta, WatchdogState};
use easis_baselines::hw_watchdog::{HardwareWatchdog, HwCycleDelta};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Configuration of a central node build.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Host the SafeSpeed application.
    pub safespeed: bool,
    /// Host the SafeLane application.
    pub safelane: bool,
    /// Host the steer-by-wire path.
    pub steer: bool,
    /// Host the light-control function (50 ms body-domain task). Off by
    /// default to keep the paper's evaluation workload; the distributed
    /// rig enables it on its CAN-domain node.
    pub light: bool,
    /// Watchdog cycle (check period).
    pub wd_period: Duration,
    /// TSI error threshold.
    pub error_threshold: u32,
    /// Multiplies every monitoring window (1 = one task period per
    /// window; 4 reproduces the Figure 6 configuration where aliveness
    /// reporting is slower than PFC).
    pub window_factor: u32,
    /// Keep monitoring runnables of faulty tasks (ablation switch).
    pub keep_monitoring_faulty: bool,
    /// Fault-treatment policy.
    pub policy: TreatmentPolicy,
    /// Global CPU-speed scale in ppm: every compute cost is multiplied by
    /// this (1_000_000 = the AutoBox reference; ~9_600_000 models the
    /// outlook's 50 MHz S12XF running the same code).
    pub cpu_scale_ppm: u64,
    /// Flight-recorder capacity of the node's observability sink.
    /// `None` (the default) leaves the sink disabled: every recording
    /// call is a no-op and the node's behaviour — including the campaign
    /// goldens — is bit-identical to a build without observability.
    pub obs_capacity: Option<usize>,
    /// Record the kernel's execution trace (dispatches, alarms,
    /// activations …). On by default — figures and tests read it. Campaign
    /// trials switch it off: they extract outcomes from the detection log
    /// only, and every trace record costs three small heap
    /// allocations on the dispatch path, which dominates trial wall-clock
    /// at campaign scale.
    pub kernel_trace: bool,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            safespeed: true,
            safelane: true,
            steer: true,
            light: false,
            wd_period: Duration::from_millis(10),
            error_threshold: 3,
            window_factor: 1,
            keep_monitoring_faulty: false,
            policy: TreatmentPolicy::default(),
            cpu_scale_ppm: 1_000_000,
            obs_capacity: None,
            kernel_trace: true,
        }
    }
}

impl NodeConfig {
    /// A node hosting only SafeSpeed (the paper's evaluation setup).
    pub fn safespeed_only() -> Self {
        NodeConfig {
            safelane: false,
            steer: false,
            ..NodeConfig::default()
        }
    }
}

/// Hardware-watchdog timeout.
const HW_TIMEOUT: Duration = Duration::from_millis(50);

/// Cycle of the hardware-watchdog kick task.
const HW_KICK_PERIOD: Duration = Duration::from_millis(10);

/// Execution budget per application task = nominal cost × this factor.
const BUDGET_FACTOR: u64 = 8;

/// Rejected certifications in one span that retry after the 1 ms phase
/// nudge alone. Every later rejection first runs an event-level back-off.
const NUDGED_REJECTIONS: u32 = 3;

/// The back-off doubles from one hyperperiod at most this many times: 1,
/// 2, 4, 8, then 16 hyperperiods.
const BACKOFF_DOUBLINGS: u32 = 4;

/// Hyperperiods above this bound disable macro-stepping structurally: a
/// jump engine that rarely fits a whole hyperperiod into a span cannot pay
/// for its certification overhead, and the closed-form deltas would live on
/// transients that never settle within one certification window.
const FFWD_MAX_HYPERPERIOD: Duration = Duration::from_millis(1_000);

/// A campaign-shared node recipe: the node configuration plus the
/// watchdog configuration built from it exactly once (hypothesis
/// derivation, flow table, deployment mapping), frozen behind an
/// `Arc`. Campaigns compile one blueprint per process and every worker
/// thread builds (and then pools) its node from it, so no trial recompiles
/// what the configuration already determines.
#[derive(Debug, Clone)]
pub struct NodeBlueprint {
    config: NodeConfig,
    watchdog_config: Arc<easis_watchdog::config::WatchdogConfig>,
}

impl NodeBlueprint {
    /// Compiles the blueprint for a node configuration by running one
    /// full assembly and freezing its compiled watchdog configuration.
    pub fn compile(config: NodeConfig) -> Self {
        let node = CentralNode::build(config.clone());
        NodeBlueprint {
            config,
            watchdog_config: node.world.watchdog.shared_config(),
        }
    }

    /// The node configuration the blueprint was compiled from.
    pub fn config(&self) -> &NodeConfig {
        &self.config
    }
}

/// The assembled central node.
pub struct CentralNode {
    /// The OSEK OS instance.
    pub os: Os<CentralWorld>,
    /// The shared world (signals, services, controls).
    pub world: CentralWorld,
    /// Runnable registry (naming authority).
    pub registry: RunnableRegistry,
    /// Task id per task name.
    pub tasks: BTreeMap<String, TaskId>,
    /// Activation alarm per task name.
    pub alarms: BTreeMap<String, AlarmId>,
    /// Application id per app name.
    pub apps: BTreeMap<String, ApplicationId>,
    /// Activation period per app task name.
    pub periods: BTreeMap<String, Duration>,
    config: NodeConfig,
    started: bool,
    /// The hyperperiod macro-stepping engine (see [`CentralNode::run_span`]).
    ffwd: FfwdState,
}

impl std::fmt::Debug for CentralNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CentralNode")
            .field("tasks", &self.tasks)
            .field("apps", &self.apps)
            .finish()
    }
}

impl CentralNode {
    /// Builds the node from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if no application is enabled, or if an enabled application's
    /// period is not compatible with the watchdog period (one must divide
    /// the other).
    pub fn build(config: NodeConfig) -> Self {
        Self::build_inner(config, None)
    }

    /// Builds the node from a campaign blueprint, reusing its compiled
    /// watchdog configuration instead of recompiling it.
    pub fn build_from_blueprint(blueprint: &NodeBlueprint) -> Self {
        Self::build_inner(
            blueprint.config.clone(),
            Some(Arc::clone(&blueprint.watchdog_config)),
        )
    }

    fn build_inner(
        config: NodeConfig,
        shared: Option<Arc<easis_watchdog::config::WatchdogConfig>>,
    ) -> Self {
        let mut signals = SignalDb::new();
        let mut registry = RunnableRegistry::new();
        let mut bundles: Vec<AppBundle<CentralWorld>> = Vec::new();
        if config.steer {
            bundles.push(steer::build(&mut signals, &mut registry));
        }
        if config.safespeed {
            bundles.push(safespeed::build(&mut signals, &mut registry));
        }
        if config.safelane {
            bundles.push(safelane::build(&mut signals, &mut registry));
        }
        if config.light {
            bundles.push(lightctl::build(&mut signals, &mut registry));
        }
        assert!(!bundles.is_empty(), "enable at least one application");

        let mut os: Os<CentralWorld> = if config.kernel_trace {
            Os::new()
        } else {
            Os::with_disabled_trace()
        };
        let mut mapping = SystemMapping::new();
        let mut tasks = BTreeMap::new();
        let mut alarms = BTreeMap::new();
        let mut apps = BTreeMap::new();
        let mut periods: BTreeMap<String, Duration> = BTreeMap::new();
        let mut app_alarm_raw: BTreeMap<ApplicationId, u32> = BTreeMap::new();
        let mut app_prefixes: BTreeMap<ApplicationId, &'static str> = BTreeMap::new();
        let mut wd_builder = WatchdogConfig::builder(config.wd_period)
            .error_threshold(config.error_threshold)
            .deactivate_on_faulty_task(!config.keep_monitoring_faulty);

        for bundle in bundles {
            let app = mapping.add_application(bundle.app_name);
            apps.insert(bundle.app_name.to_string(), app);
            app_prefixes.insert(app, bundle.signal_prefix);
            let ids = bundle.runnable_ids();
            let cpu_scale = config.cpu_scale_ppm as f64 / 1_000_000.0;
            let nominal: Duration = ids
                .iter()
                .map(|&r| registry.spec(r).expect("registered").nominal_cost())
                .fold(Duration::ZERO, |a, b| a + b)
                .mul_f64(cpu_scale);
            let task_cfg = TaskConfig::new(bundle.task_name, bundle.priority)
                .with_deadline(bundle.period)
                .with_execution_budget(nominal * BUDGET_FACTOR)
                .with_max_activations(2);
            let body = SequencedTask::fixed(bundle.runnables);
            let task = os.add_task(task_cfg, body);
            tasks.insert(bundle.task_name.to_string(), task);
            mapping.assign_task(task, app);
            for &rid in &ids {
                mapping.assign_runnable(rid, task);
            }
            let alarm = os.add_alarm(
                format!("{}Cycle", bundle.task_name),
                AlarmAction::ActivateTask(task),
            );
            alarms.insert(bundle.task_name.to_string(), alarm);
            periods.insert(bundle.task_name.to_string(), bundle.period);
            app_alarm_raw.insert(app, alarm.0);

            // Fault hypothesis per runnable, derived from the period ratio.
            let (cycles, expected) = Self::hypothesis_shape(
                bundle.period,
                config.wd_period,
                config.window_factor,
            );
            for &rid in &ids {
                wd_builder = wd_builder.monitor(
                    RunnableHypothesis::new(rid)
                        .alive_at_least(expected, cycles)
                        .arrive_at_most(expected, cycles),
                );
            }
            // Program-flow table: the bundle's nominal cycle.
            let entry = ids[0];
            wd_builder = wd_builder.allow_entry(entry);
            for w in ids.windows(2) {
                wd_builder = wd_builder.allow_flow(w[0], w[1]);
            }
            if ids.len() > 1 {
                wd_builder = wd_builder.allow_flow(*ids.last().expect("non-empty"), entry);
            }
        }

        let obs = match config.obs_capacity {
            Some(capacity) => easis_obs::ObsSink::enabled(capacity),
            None => easis_obs::ObsSink::disabled(),
        };
        // A blueprint-backed build skips assembling the watchdog
        // configuration and shares the frozen artifact.
        let wd_config = match shared {
            Some(compiled) => compiled,
            None => Arc::new(wd_builder.mapping(mapping.clone()).build()),
        };
        let mut watchdog = SoftwareWatchdog::from_shared(wd_config);
        watchdog.attach_obs(obs.clone());
        let mut fmf = FaultManagementFramework::new(config.policy, mapping.application_count());
        fmf.attach_obs(obs.clone());
        let mut world = CentralWorld::new(signals, watchdog, fmf, HW_TIMEOUT);
        world.obs = obs;
        world
            .controls
            .set_global_exec_scale_ppm(config.cpu_scale_ppm);
        world.app_alarms = app_alarm_raw;
        world.app_signal_prefixes = app_prefixes;
        world.initial_signals = world.signals.iter().map(|(_, _, v)| v).collect();

        // The watchdog task: highest priority, runs the cycle check and the
        // FMF integration. The freeze-frame signals are resolved once here.
        let wd_cost =
            Duration::from_micros(60).mul_f64(config.cpu_scale_ppm as f64 / 1_000_000.0);
        let freeze_signals =
            ["speed_measured", "lateral_measured"].map(|name| world.signals.id_of(name));
        let wd_task = os.add_task(
            TaskConfig::new("SoftwareWatchdogTask", Priority(10)),
            WatchdogTaskBody {
                cost: wd_cost,
                freeze_signals,
                report: CycleReport::default(),
                faults: Vec::new(),
                changes: Vec::new(),
                actions: Vec::new(),
            },
        );
        let wd_alarm = os.add_alarm("WatchdogCycle", AlarmAction::ActivateTask(wd_task));
        alarms.insert("SoftwareWatchdogTask".to_string(), wd_alarm);
        tasks.insert("SoftwareWatchdogTask".to_string(), wd_task);

        // Hardware-watchdog kick task: lowest priority, so a saturated CPU
        // starves it and the hardware watchdog fires.
        let kick_task = os.add_task(TaskConfig::new("HwKickTask", Priority(0)), HwKickBody);
        let kick_alarm = os.add_alarm("HwKickCycle", AlarmAction::ActivateTask(kick_task));
        alarms.insert("HwKickTask".to_string(), kick_alarm);
        tasks.insert("HwKickTask".to_string(), kick_task);

        os.add_observer(TimingChecks);

        let hyperperiod = Self::hyperperiod_of(&config, &periods);

        CentralNode {
            os,
            world,
            registry,
            tasks,
            alarms,
            apps,
            periods,
            config,
            started: false,
            ffwd: FfwdState::new(hyperperiod),
        }
    }

    /// The steady-state hyperperiod of this configuration: the least
    /// common multiple of every activation period (app tasks, the
    /// watchdog cycle, the hardware-watchdog kick cycle) *and* every
    /// fault-hypothesis window span (`cycles × wd_period`). After one
    /// hyperperiod, every alarm is back on the same grid offset and every
    /// monitoring window is back at the same phase, so all monitor
    /// counters land on the values they started from — the precondition
    /// for certification's whole-checkpoint comparison.
    /// Returns [`Duration::ZERO`] (macro-stepping structurally disabled)
    /// when the lcm exceeds [`FFWD_MAX_HYPERPERIOD`].
    fn hyperperiod_of(config: &NodeConfig, periods: &BTreeMap<String, Duration>) -> Duration {
        fn gcd(a: u64, b: u64) -> u64 {
            if b == 0 { a } else { gcd(b, a % b) }
        }
        fn lcm(a: u128, b: u64) -> u128 {
            a / gcd(a as u64, b) as u128 * b as u128
        }
        let wd_us = config.wd_period.as_micros();
        let mut h_us: u128 = lcm(wd_us as u128, HW_KICK_PERIOD.as_micros());
        for &period in periods.values() {
            let (cycles, _) = Self::hypothesis_shape(period, config.wd_period, config.window_factor);
            h_us = lcm(h_us, period.as_micros());
            h_us = lcm(h_us, cycles as u64 * wd_us);
            if h_us > FFWD_MAX_HYPERPERIOD.as_micros() as u128 {
                return Duration::ZERO;
            }
        }
        Duration::from_micros(h_us as u64)
    }

    /// Derives the (cycles, expected indications) shape of a fault
    /// hypothesis from the task period, the watchdog period and the window
    /// factor.
    fn hypothesis_shape(period: Duration, wd: Duration, factor: u32) -> (u32, u32) {
        let factor = factor.max(1);
        if period >= wd {
            assert!(
                (period % wd).is_zero(),
                "task period must be a multiple of the watchdog period"
            );
            let ratio = (period / wd) as u32;
            (ratio * factor, factor)
        } else {
            assert!(
                (wd % period).is_zero(),
                "watchdog period must be a multiple of the task period"
            );
            let per_cycle = (wd / period) as u32;
            (factor, per_cycle * factor)
        }
    }

    fn execute_treatment(
        w: &mut CentralWorld,
        ctx: &mut easis_osek::plan::EffectCtx<'_, CentralWorld>,
        treatment: &Treatment,
    ) {
        match treatment {
            Treatment::RestartApplication(app) => {
                let tasks = w.watchdog.config().mapping().tasks_of_app(*app);
                for task in tasks {
                    w.watchdog.acknowledge_task_recovered(task);
                }
                // A restarted component starts from initialised state.
                if let Some(&prefix) = w.app_signal_prefixes.get(app) {
                    w.reset_signals_with_prefix(prefix, ctx.now());
                }
            }
            Treatment::TerminateApplication(app) => {
                // Stop the activation source and leave supervision off.
                // Direct synchronous cancel on the kernel core; a second
                // terminate of an already-stopped app is a no-op, so the
                // AlarmNotInUse error is intentionally ignored (the legacy
                // request path swallowed it the same way).
                if let Some(&raw) = w.app_alarms.get(app) {
                    let _ = ctx.cancel_alarm(raw);
                }
            }
            Treatment::EcuReset => {
                let tasks: Vec<TaskId> =
                    w.watchdog.config().mapping().tasks().collect();
                for task in tasks {
                    w.watchdog.acknowledge_task_recovered(task);
                }
                let prefixes: Vec<&'static str> =
                    w.app_signal_prefixes.values().copied().collect();
                for prefix in prefixes {
                    w.reset_signals_with_prefix(prefix, ctx.now());
                }
                w.fmf.reset_budgets();
                ctx.trace("fmf", "ecu_reset", "software reset executed");
            }
        }
    }

    /// Starts the OS and arms all cyclic alarms. The watchdog's first
    /// check fires after one watchdog period and app tasks are offset by
    /// half their period, so every monitoring window — including the very
    /// first — contains exactly the expected number of activations
    /// ("checked shortly before the next period begins").
    pub fn start(&mut self) {
        assert!(!self.started, "node started twice");
        self.started = true;
        self.os.start(&mut self.world);
        let wd_period = self.config.wd_period;
        for (name, &alarm) in &self.alarms {
            let (offset, cycle) = match name.as_str() {
                "SoftwareWatchdogTask" => (wd_period, wd_period),
                "HwKickTask" => (Duration::from_millis(1), HW_KICK_PERIOD),
                task_name => {
                    let period = self.periods[task_name];
                    (period / 2, period)
                }
            };
            self.os
                .set_rel_alarm(alarm, offset, Some(cycle))
                .expect("alarms arm exactly once");
        }
    }

    /// Captures a deterministic checkpoint of the started node — see
    /// [`CentralNode::snapshot_into`]. Allocates a fresh snapshot; campaign
    /// workers keep one [`NodeSnapshot`] each and reuse it.
    ///
    /// # Panics
    ///
    /// Panics if the node was never started.
    pub fn snapshot(&self) -> NodeSnapshot {
        let mut snap = NodeSnapshot::default();
        self.snapshot_into(&mut snap);
        snap
    }

    /// Captures a deterministic checkpoint of the started node into
    /// `snap`: one `clone_from` per component state — kernel (tasks,
    /// timers, plans, alarms, trace) and world (signals, controls, watchdog
    /// with its detection log, FMF, hardware watchdog, treatment log,
    /// mailbox).
    /// Every state keeps its buffers, so re-capturing into a warm snapshot
    /// is allocation-free in the steady state. See [`NodeSnapshot`] for
    /// what is deliberately excluded.
    ///
    /// # Panics
    ///
    /// See [`CentralNode::snapshot`].
    pub fn snapshot_into(&self, snap: &mut NodeSnapshot) {
        assert!(self.started, "snapshot a started node");
        let world = &self.world;
        snap.os.clone_from(self.os.state());
        snap.signals.clone_from(world.signals.state());
        snap.controls.clone_from(&world.controls);
        snap.watchdog.clone_from(world.watchdog.state());
        snap.fmf.clone_from(world.fmf.state());
        snap.hw_watchdog.clone_from(&world.hw_watchdog);
        snap.treatments.clone_from(&world.treatments);
        snap.rx_mailbox.clone_from(&world.rx_mailbox);
    }

    /// Restores the node to a previously captured checkpoint: one
    /// `clone_from` per component state, so a reused node's capacity
    /// survives repeated restores. Only valid on the node the snapshot was
    /// taken from or a structurally identical one (same blueprint); the
    /// kernel asserts that its task and alarm tables match.
    ///
    /// Every restore is a full copy, so the returned [`RestoreStats`]
    /// always report the whole node as one copied region.
    pub fn restore_from(&mut self, snap: &NodeSnapshot) -> RestoreStats {
        let world = &mut self.world;
        self.os.restore(&snap.os);
        world.signals.restore(&snap.signals);
        world.controls.clone_from(&snap.controls);
        world.watchdog.restore(&snap.watchdog);
        world.fmf.restore(&snap.fmf);
        world.hw_watchdog.clone_from(&snap.hw_watchdog);
        world.treatments.clone_from(&snap.treatments);
        world.rx_mailbox.clone_from(&snap.rx_mailbox);
        self.started = true;
        RestoreStats {
            regions_total: 1,
            regions_copied: 1,
        }
    }

    /// Runs the kernel until `end` in one uninterrupted span, without any
    /// injector ticking. The forked campaign runner
    /// ([`crate::scenario::run_plan`]) uses this between injection
    /// boundaries, where `Injector::tick` is provably a no-op (nothing to
    /// arm or disarm): chopping the simulation at exactly the arm/disarm
    /// instants reproduces the per-millisecond tick loop of
    /// [`CentralNode::run_until`] bit-identically while skipping ~1500
    /// redundant kernel re-entries per trial.
    ///
    /// When the span is eligible ([`CentralNode::set_fastforward`],
    /// `EASIS_FASTFORWARD`, no enabled traces), the hyperperiod
    /// macro-stepping engine first certifies the steady-state schedule —
    /// capture a sample, simulate one hyperperiod, measure the counter
    /// advances and the growth of write-only detection bookkeeping from
    /// the sample to the live node, advance the sample by them and require
    /// it to equal the live node — and then fast-forwards every whole
    /// hyperperiod left in the span in one jump. That holds inside an
    /// armed injection window too: the injector acts only at its arming
    /// and disarming ticks, which bound the span, and a persistent fault
    /// settles into a faulty steady state whose detection log and DTC
    /// occurrences grow by the same amount every hyperperiod.
    /// Certification is *exact*: any state that the advance
    /// does not reproduce (a treatment, a TSI count on a task not yet
    /// faulty, a DTC age-out inside the sampled hyperperiod, stale timers,
    /// a changed ready order) rejects the sample and the engine falls back
    /// to event-level simulation, so the final node state is bit-identical
    /// to a never-fast-forwarded run.
    /// `EASIS_FASTFORWARD=verify` checks that claim on every jump
    /// ([`crate::ffwd::Mode::Verify`]).
    pub fn run_span(&mut self, end: Instant) {
        assert!(self.started, "call start() first");
        let start = self.os.now();
        let span = end.saturating_duration_since(start);
        let before = self.ffwd.stats;
        if self.ffwd_eligible() {
            self.macro_step_span(end);
        }
        // The residue below one hyperperiod — or the entire span when
        // macro-stepping stood down — runs at event level.
        self.os.run_until(end, &mut self.world);
        self.ffwd.stats.span += span;
        let after = self.ffwd.stats;
        crate::ffwd::record(
            (after.fastforwarded - before.fastforwarded).as_micros(),
            span.as_micros(),
            after.fallbacks - before.fallbacks,
            after.certifications - before.certifications,
        );
    }

    /// Whether [`CentralNode::run_span`] may macro-step right now.
    /// Enabled kernel or observability traces stand the engine down
    /// entirely: they append per-event records whose absence would be
    /// observable.
    fn ffwd_eligible(&self) -> bool {
        !self.ffwd.h.is_zero()
            && self
                .ffwd
                .enabled_override
                .unwrap_or_else(|| crate::ffwd::mode() != Mode::Off)
            && !self.os.trace().is_enabled()
            && !self.world.obs.is_enabled()
    }

    /// The macro-stepping loop behind [`CentralNode::run_span`]:
    /// certify the per-hyperperiod delta on one simulated hyperperiod,
    /// then apply it once over every whole hyperperiod left in the span.
    /// The first [`NUDGED_REJECTIONS`] rejected certifications run one
    /// millisecond at event level and retry, so transients — post-treatment
    /// settling, a DTC age-out inside a sample, samples phased onto a
    /// task-period boundary — drain before the next attempt. Each later
    /// rejection first runs 1, 2, 4, 8 and then 16 hyperperiods at event
    /// level, so an armed window that never settles costs few
    /// certifications.
    fn macro_step_span(&mut self, end: Instant) {
        // The buffers move out while the node simulates (`run_until` needs
        // `&mut self.os`/`&mut self.world` alongside them); a box moves
        // without building a placeholder checkpoint in their place.
        let mut buffers = self.ffwd.buffers.take().unwrap_or_default();
        let CertBuffers { sample, delta } = &mut *buffers;
        let h = self.ffwd.h;
        let mut rejections = 0;
        loop {
            let now = self.os.now();
            // Certification consumes one hyperperiod; anything shorter
            // than two leaves no jump to pay for it.
            if end.saturating_duration_since(now) < h * 2 {
                break;
            }
            self.snapshot_into(sample);
            self.os.run_until(now + h, &mut self.world);
            if !certify(sample, self, h, delta) {
                self.ffwd.stats.fallbacks += 1;
                rejections += 1;
                // One-millisecond phase nudge: a rejected sample may sit
                // exactly on a task-period boundary where the kernel is
                // mid-dispatch every hyperperiod, and h-spaced resampling
                // would stay on that phase forever. The nudge walks the
                // sampler off such instants. After the first few
                // rejections a back-off of whole hyperperiods precedes it.
                // Both run at event level in one call, which ends before
                // `end` or on it (at least one hyperperiod remains), so
                // they cost time, never exactness.
                let mut resume = Duration::from_millis(1);
                if rejections > NUDGED_REJECTIONS {
                    let doublings = (rejections - NUDGED_REJECTIONS - 1).min(BACKOFF_DOUBLINGS);
                    resume += h * (1 << doublings);
                }
                let resume_at = (self.os.now() + resume).min(end);
                self.os.run_until(resume_at, &mut self.world);
                continue;
            }
            self.ffwd.stats.certifications += 1;
            // One jump over every whole hyperperiod left (at least one:
            // two remained before the certification hyperperiod).
            // DTC age-outs on the way need no simulation: nothing in a
            // certified hyperperiod reads a pending record's aging count
            // (the FMF acts only on fault and state-change ingestion, and
            // certification proves that pending records gain no
            // occurrences and no verdict changes), and `apply_aging`
            // retires the records the event level would. The same advance
            // functions moved the sample in `certify`.
            let k = end.saturating_duration_since(self.os.now()) / h;
            self.advance(delta, k);
            self.ffwd.stats.fastforwarded += h * k;
            if self.ffwd.verify {
                // Shadow the jump: rewind to the advanced sample, which
                // equalled the live node when certification accepted it,
                // run the same span at event level and compare end states.
                let jumped = self.snapshot();
                let certified_at = sample.taken_at();
                self.restore_from(sample);
                self.os.run_until(jumped.taken_at(), &mut self.world);
                self.snapshot_into(sample);
                if let Some(difference) = first_difference(&jumped, sample) {
                    panic!(
                        "EASIS_FASTFORWARD=verify: a {k}-hyperperiod jump from {certified_at:?} \
                         diverged from event-level simulation at {difference}"
                    );
                }
            }
            break;
        }
        self.ffwd.buffers = Some(buffers);
    }

    /// Jumps the live node `k` certified hyperperiods ahead: the same
    /// advance [`NodeSnapshot::advance`] applies to a certification
    /// sample, through one-line delegations on the live components.
    fn advance(&mut self, delta: &NodeCycleDelta, k: u64) {
        let now = self.os.now();
        let world = &mut self.world;
        world.fmf.advance(&delta.fmf, k);
        world.hw_watchdog.advance(&delta.hw_watchdog, k);
        self.os.advance(&delta.os, k);
        world.signals.advance(&delta.signal_slots, delta.h * k);
        world.watchdog.advance(&delta.watchdog, now, k);
    }

    /// Per-node macro-stepping override: `Some(false)` disables tail
    /// fast-forwarding for this node regardless of `EASIS_FASTFORWARD`,
    /// `Some(true)` forces it on, `None` (the default) follows the
    /// process-wide [`crate::ffwd::mode`].
    pub fn set_fastforward(&mut self, enabled: Option<bool>) {
        self.ffwd.enabled_override = enabled;
    }

    /// Does nothing: macro-stepping certifies armed injection windows
    /// like any other span, because the injector acts only at the ticks
    /// that bound a `run_span`. Kept only because the `easis_bench`
    /// benchmark calls it.
    pub fn set_injection_armed(&mut self, _armed: bool) {}

    /// This node's macro-stepping counters since build (a restore leaves
    /// them running).
    pub fn ffwd_stats(&self) -> FfwdStats {
        self.ffwd.stats
    }

    /// The configuration-derived steady-state hyperperiod
    /// ([`Duration::ZERO`] when macro-stepping is structurally disabled).
    pub fn hyperperiod(&self) -> Duration {
        self.ffwd.h
    }

    /// Runs the node until `end`, ticking the injector once per
    /// millisecond (the injection granularity of the experiments). The
    /// injector inherits the node's observability sink, so arm/disarm
    /// markers land on the same trace as the detections they provoke.
    pub fn run_until(&mut self, end: Instant, injector: &mut Injector) {
        assert!(self.started, "call start() first");
        injector.attach_obs(self.world.obs.clone());
        let step = Duration::from_millis(1);
        while self.os.now() < end {
            let slice_end = (self.os.now() + step).min(end);
            injector.tick(self.os.now(), &mut self.world.controls, &mut self.os);
            self.os.run_until(slice_end, &mut self.world);
        }
        injector.tick(self.os.now(), &mut self.world.controls, &mut self.os);
    }

    /// Runnable id by name (panics on unknown names — experiment code).
    pub fn runnable(&self, name: &str) -> RunnableId {
        self.registry
            .id_of(name)
            .unwrap_or_else(|| panic!("unknown runnable {name}"))
    }

    /// Live watchdog counters of a runnable by name.
    pub fn counters_of(&self, name: &str) -> RunnableCounters {
        self.world
            .watchdog
            .counters(self.runnable(name))
            .expect("monitored runnable")
    }

    /// The node configuration.
    pub fn config(&self) -> &NodeConfig {
        &self.config
    }
}

/// Per-node macro-stepping counters (see [`CentralNode::ffwd_stats`];
/// process-wide aggregation lives in [`crate::ffwd`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FfwdStats {
    /// Simulated time skipped by certified hyperperiod jumps.
    pub fastforwarded: Duration,
    /// Simulated time [`CentralNode::run_span`] covered in total,
    /// fast-forwarded or not (the fraction's denominator).
    pub span: Duration,
    /// Rejected certification attempts.
    pub fallbacks: u64,
    /// Successful certifications: one sampled hyperperiod, advanced by its
    /// measured delta, equalled the next checkpoint, and the engine
    /// jumped.
    pub certifications: u64,
}

/// The per-node macro-stepping engine: the configuration-derived
/// hyperperiod, the per-node override, whether jumps are shadowed
/// ([`crate::ffwd::Mode::Verify`]), the retained sample and delta buffers
/// (so repeated certifications are allocation-free in the steady state),
/// and the per-node counters.
#[derive(Debug, Default)]
struct FfwdState {
    h: Duration,
    enabled_override: Option<bool>,
    verify: bool,
    /// `None` until the first certification attempt, and while
    /// [`CentralNode::macro_step_span`] has the buffers out.
    buffers: Option<Box<CertBuffers>>,
    stats: FfwdStats,
}

impl FfwdState {
    fn new(h: Duration) -> Self {
        FfwdState {
            h,
            verify: crate::ffwd::mode() == Mode::Verify,
            ..FfwdState::default()
        }
    }
}

/// Certification's buffers: the one sample it captures per attempt and
/// the delta it measures from that sample to the live node.
#[derive(Debug, Default)]
struct CertBuffers {
    sample: NodeSnapshot,
    delta: NodeCycleDelta,
}

/// One hyperperiod's motion, measured from a sample to the live node by
/// [`certify`]: the kernel's cycle program, the watchdog's meter advance,
/// detection-log entries and latched TSI counts, the FMF's DTC aging and
/// occurrence growth, the hardware watchdog's kick shift and the signal
/// slots stamped every hyperperiod. Every buffer is reused, so
/// steady-state certification allocates nothing once warm.
#[derive(Debug, Default)]
struct NodeCycleDelta {
    h: Duration,
    fmf: FmfCycleDelta,
    hw_watchdog: HwCycleDelta,
    os: CycleProgram,
    watchdog: WatchdogCycleDelta,
    signal_slots: Vec<u32>,
}

/// Certifies that the live `node`, `h` after it was captured in sample
/// `a`, is `a` one hyperperiod on: refuse, measure, advance, compare.
/// Four O(1) refusals run first: a changed DTC record count, a different
/// running task or task state, changed runnable controls, changed
/// verdicts. Then each component measures its independent counter
/// advances and the growth of its write-only detection bookkeeping — the
/// detection log, latched TSI counts, confirmed DTC occurrences — from
/// the sample to its live state into `delta` (the watchdog lends the
/// mapping that tells which TSI counts are latched); `a` is advanced by
/// them once, by the same functions that later jump the live node `k`
/// hyperperiods, and the sample certifies only when the result equals the
/// live node ([`NodeSnapshot::matches`]). No second capture is taken: the
/// components are read in place. Every field that no advance moves —
/// treatments, controls, scheduling state, verdicts, values, the
/// detection log's past entries, pending DTC records, and any field added
/// later — must therefore be unchanged, and every linked counter must
/// have moved with the one it follows. A new counter that no advance moves
/// makes every certification reject: the engine then runs at event level,
/// slower but exact. On success `a` equals the live node.
fn certify(
    a: &mut NodeSnapshot,
    node: &CentralNode,
    h: Duration,
    delta: &mut NodeCycleDelta,
) -> bool {
    let world = &node.world;
    let (os, fmf, watchdog) = (node.os.state(), world.fmf.state(), world.watchdog.state());
    if !FmfState::same_dtc_count(&a.fmf, fmf)
        || !OsState::same_schedule(&a.os, os)
        || a.controls != world.controls
        || !WatchdogState::same_verdicts(&a.watchdog, watchdog)
    {
        return false;
    }
    delta.h = h;
    if !world.watchdog.measure(&a.watchdog, watchdog, a.taken_at(), h, &mut delta.watchdog)
        || !FmfState::measure(&a.fmf, fmf, h, &mut delta.fmf)
    {
        return false;
    }
    delta.os = OsState::measure(&a.os, os, h);
    delta.hw_watchdog = HardwareWatchdog::measure(&a.hw_watchdog, &world.hw_watchdog, h);
    SignalState::measure(&a.signals, world.signals.state(), h, &mut delta.signal_slots);
    a.advance(delta, 1);
    a.matches(node)
}

/// Names the first checkpoint field, in declaration order (the order in
/// which `==` compares them), on which a jumped node and its event-level
/// replay differ, with both values; `None` when they are equal. The
/// destructure has no `..`, so a field added to the checkpoint does not
/// compile here until verify mode names it.
fn first_difference(jumped: &NodeSnapshot, replayed: &NodeSnapshot) -> Option<String> {
    let NodeSnapshot {
        treatments,
        rx_mailbox,
        controls,
        fmf,
        hw_watchdog,
        os,
        signals,
        watchdog,
    } = jumped;
    macro_rules! compare {
        ($($field:ident),*) => {$(
            if *$field != replayed.$field {
                return Some(format!(
                    "field `{}`: jumped {:?}, event-level {:?}",
                    stringify!($field),
                    $field,
                    replayed.$field
                ));
            }
        )*};
    }
    compare!(treatments, rx_mailbox, controls, fmf, hw_watchdog, os, signals, watchdog);
    None
}

/// A deterministic checkpoint of a started [`CentralNode`] at one instant:
/// the campaign prefix-reuse primitive and the node's only way back to a
/// known state. Trials sharing an injection point fork from the snapshot
/// taken there instead of re-simulating the golden prefix
/// ([`crate::scenario::run_plan`]); each campaign worker keeps one capture
/// taken just after `start()` at t=0 and one capacity-retained checkpoint
/// it refills at every fork instant.
///
/// It is a struct of the components' own runtime states — no mirror
/// types, no world handles, no closures — so a field added to a
/// component's state reaches the checkpoint, its equality and verify
/// mode's diff with no further edit. Wiring is deliberately excluded: the
/// runnable registry, the compiled watchdog configuration and flow table,
/// task bodies (their buffers are per-cycle scratch), the deployment
/// tables, the node configuration and the observability sink are not
/// captured. A snapshot therefore only restores onto the node it was taken
/// from, or a structurally identical one built from the same blueprint.
///
/// Equality is exact: two checkpoints compare equal only when every
/// captured field does (signal values bit for bit), which is how tests
/// compare a macro-stepped run with an event-level one; certification
/// compares a sample with the live node the same way
/// (`NodeSnapshot::matches`). Both compare fields in declaration order
/// and stop at the first difference: the treatment log and the runnable
/// controls come first, then the FMF, the hardware watchdog, the kernel,
/// the signals and the watchdog. The watchdog comes last, with its
/// detection log last within it, because certification replays the log's
/// growth and it is the longest field to compare.
#[derive(Debug, PartialEq)]
pub struct NodeSnapshot {
    treatments: Vec<TreatmentAction>,
    rx_mailbox: Vec<(u16, Vec<u8>)>,
    controls: RunnableControls,
    fmf: FmfState,
    hw_watchdog: HardwareWatchdog,
    os: OsState,
    signals: SignalState,
    watchdog: WatchdogState,
}

impl Default for NodeSnapshot {
    fn default() -> Self {
        NodeSnapshot {
            treatments: Vec::new(),
            rx_mailbox: Vec::new(),
            controls: RunnableControls::default(),
            fmf: FmfState::default(),
            // Placeholder until the first capture `clone_from`s the real
            // one (`HardwareWatchdog` has no Default: a zero timeout is
            // rejected by construction).
            hw_watchdog: HardwareWatchdog::new(Duration::from_micros(1)),
            os: OsState::default(),
            signals: SignalState::default(),
            watchdog: WatchdogState::default(),
        }
    }
}

impl NodeSnapshot {
    /// The simulated instant at which the snapshot was taken.
    pub fn taken_at(&self) -> Instant {
        self.os.taken_at()
    }

    /// Whether the checkpoint equals `node`'s live state: the `==` of a
    /// capture of `node`, field by field in declaration order, without
    /// taking the capture. The destructure has no `..`, so a field added
    /// to the checkpoint does not compile here until it is compared.
    fn matches(&self, node: &CentralNode) -> bool {
        let NodeSnapshot {
            treatments,
            rx_mailbox,
            controls,
            fmf,
            hw_watchdog,
            os,
            signals,
            watchdog,
        } = self;
        let world = &node.world;
        *treatments == world.treatments
            && *rx_mailbox == world.rx_mailbox
            && *controls == world.controls
            && fmf == world.fmf.state()
            && *hw_watchdog == world.hw_watchdog
            && os == node.os.state()
            && signals == world.signals.state()
            && watchdog == world.watchdog.state()
    }

    /// Advances the checkpoint `k` hyperperiods by `delta`: the
    /// certification half of [`CentralNode::advance`], field for field.
    fn advance(&mut self, delta: &NodeCycleDelta, k: u64) {
        let now = self.taken_at();
        self.fmf.advance(&delta.fmf, k);
        self.hw_watchdog.advance(&delta.hw_watchdog, k);
        self.os.advance(&delta.os, k);
        self.signals.advance(&delta.signal_slots, delta.h * k);
        self.watchdog.advance(&delta.watchdog, now, k);
    }
}

/// Arena body of the watchdog task: plans `Compute(cost) + EffectRef(0)`
/// into the kernel's retained buffer; the effect runs the cycle check and
/// the FMF integration of §4.4.
///
/// Every buffer the effect needs lives in the body and is reused across
/// cycles: the cycle report (`run_cycle_into` target), the hand-over
/// vectors and the cycle's decided treatments. A freeze frame is plain
/// data, the values of the freeze signals read when a fault is ingested.
/// A fault-detecting cycle therefore allocates only where genuinely new
/// state is born (first occurrence of a DTC code, growth of the detection
/// and treatment logs past their pooled capacity).
///
/// The buffers are per-cycle scratch — cleared or overwritten before each
/// use — so they carry no state across cycles and are deliberately outside
/// [`NodeSnapshot`].
struct WatchdogTaskBody {
    cost: Duration,
    /// The signals a freeze frame captures: the measured speed and lateral
    /// offset, where the node declares them.
    freeze_signals: [Option<SignalId>; 2],
    report: CycleReport,
    faults: Vec<DetectedFault>,
    changes: Vec<StateChange>,
    actions: Vec<TreatmentAction>,
}

impl TaskBody<CentralWorld> for WatchdogTaskBody {
    fn plan_into(&mut self, _world: &CentralWorld, out: &mut Plan) {
        out.push_compute(self.cost);
        out.push_effect_ref(0);
    }

    /// The plan never changes: planned once, replayed at every cycle.
    fn plan_key(&self, _world: &CentralWorld) -> Option<u64> {
        Some(0)
    }

    fn run_effect(&mut self, _token: u32, w: &mut CentralWorld, ctx: &mut EffectCtx<'_, CentralWorld>) {
        let now = ctx.now();
        w.watchdog.run_cycle_into(now, &mut self.report);
        if ctx.trace_enabled() {
            for fault in &self.report.faults {
                ctx.trace("watchdog", "fault", fault.to_string());
            }
        }
        if let Some(at) = w.hw_watchdog.poll(now) {
            w.watchdog.log_detection(Detection::expiry(at));
        }
        if w.hw_watchdog.is_expired() {
            ctx.trace("hw_wd", "hw_expired", "");
        }
        // The Software Watchdog's detections since the last cycle reach
        // the FMF in detection order; the kernel's and the hardware
        // watchdog's stay in the log only.
        self.faults.clear();
        self.changes.clear();
        self.actions.clear();
        w.watchdog.hand_over_faults(&mut self.faults);
        w.watchdog.drain_state_changes_into(&mut self.changes);
        if self.faults.is_empty() {
            w.fmf.healthy_cycle(); // DTC aging
        } else {
            // Freeze frame: the operating conditions at detection (the
            // signals a tester would want).
            let freeze = FreezeFrame {
                conditions: self.freeze_signals.map(|id| id.map(|id| (id, w.signals.read(id)))),
            };
            for &fault in &self.faults {
                w.fmf.ingest_fault(fault, freeze);
            }
        }
        // Every change is decided before any treatment runs: an ECU reset
        // clears the restart budgets only after the cycle's decisions.
        for &change in &self.changes {
            self.actions.extend(w.fmf.ingest_state_change(change));
        }
        for &action in &self.actions {
            if ctx.trace_enabled() {
                ctx.trace("fmf", "treatment", action.treatment.to_string());
            }
            CentralNode::execute_treatment(w, ctx, &action.treatment);
            w.treatments.push(action);
        }
    }
}

/// Arena body of the hardware-watchdog kick task.
struct HwKickBody;

/// The task-granularity baselines of the paper's §2 — OSEKTime-style
/// deadline monitoring and AUTOSAR-OS-style execution-time monitoring —
/// are the kernel's own per-task checks; this observer logs their hook
/// events at the hook instant, with the task as subject.
struct TimingChecks;

impl HookObserver<CentralWorld> for TimingChecks {
    fn on_hook(&mut self, now: Instant, event: HookEvent, world: &mut CentralWorld) {
        let (detector, task) = match event {
            HookEvent::DeadlineMiss { task, .. } => (DetectorId::DeadlineMonitor, task),
            HookEvent::BudgetExceeded { task, .. } => (DetectorId::ExecTimeMonitor, task),
            _ => return,
        };
        world.watchdog.log_detection(Detection::on_task(now, detector, task));
    }

    /// The two timing checks only: the default interest, every kind,
    /// would deliver every dispatch hook to the observer too.
    fn interest(&self) -> HookMask {
        HookMask::DEADLINE_MISS.union(HookMask::BUDGET_EXCEEDED)
    }
}

impl TaskBody<CentralWorld> for HwKickBody {
    fn plan_into(&mut self, _world: &CentralWorld, out: &mut Plan) {
        out.push_compute(Duration::from_micros(5));
        out.push_effect_ref(0);
    }

    /// The plan never changes: planned once, replayed at every kick.
    fn plan_key(&self, _world: &CentralWorld) -> Option<u64> {
        Some(0)
    }

    fn run_effect(&mut self, _token: u32, w: &mut CentralWorld, ctx: &mut EffectCtx<'_, CentralWorld>) {
        // A kick polls first: an expiry since the watchdog task's last poll
        // is logged like a polled one.
        if let Some(at) = w.hw_watchdog.kick(ctx.now()) {
            w.watchdog.log_detection(Detection::expiry(at));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easis_watchdog::report::HealthState;
    use std::collections::BTreeSet;

    fn ms(n: u64) -> Instant {
        Instant::from_millis(n)
    }

    #[test]
    fn nominal_full_node_runs_clean_for_a_second() {
        let mut node = CentralNode::build(NodeConfig::default());
        node.start();
        let mut injector = Injector::none();
        node.run_until(ms(1_000), &mut injector);
        // No detector fired: no watchdog fault, hardware-watchdog expiry,
        // deadline miss or budget overrun.
        let log = node.world.watchdog.log();
        assert!(log.is_empty(), "{log:?}");
        assert_eq!(node.world.watchdog.ecu_state(), HealthState::Ok);
        assert!(node.world.watchdog.cycles_run() >= 98);
        // All three apps heartbeat: 9 runnables monitored.
        assert_eq!(node.world.watchdog.config().monitored().count(), 9);
    }

    #[test]
    fn safespeed_only_node_monitors_three_runnables() {
        let mut node = CentralNode::build(NodeConfig::safespeed_only());
        node.start();
        let mut injector = Injector::none();
        node.run_until(ms(200), &mut injector);
        assert_eq!(node.world.watchdog.config().monitored().count(), 3);
        assert!(node.world.watchdog.log().is_empty());
        let c = node.counters_of("SAFE_CC_process");
        assert!(c.activation);
        assert_eq!(c.aliveness_errors, 0);
    }

    #[test]
    fn hypothesis_shape_handles_both_ratio_directions() {
        // 10ms task, 10ms wd: 1 per cycle.
        assert_eq!(
            CentralNode::hypothesis_shape(Duration::from_millis(10), Duration::from_millis(10), 1),
            (1, 1)
        );
        // 20ms task, 10ms wd: 1 per 2 cycles.
        assert_eq!(
            CentralNode::hypothesis_shape(Duration::from_millis(20), Duration::from_millis(10), 1),
            (2, 1)
        );
        // 5ms task, 10ms wd: 2 per cycle.
        assert_eq!(
            CentralNode::hypothesis_shape(Duration::from_millis(5), Duration::from_millis(10), 1),
            (1, 2)
        );
        // Factor stretches the window.
        assert_eq!(
            CentralNode::hypothesis_shape(Duration::from_millis(10), Duration::from_millis(10), 4),
            (4, 4)
        );
    }

    #[test]
    fn snapshot_restore_replays_a_faulty_run_identically() {
        use easis_injection::injector::{ErrorClass, Injection};
        let mut node = CentralNode::build(NodeConfig::safespeed_only());
        node.start();
        let mut pre = Injector::none();
        node.run_until(ms(200), &mut pre);
        let snap = node.snapshot();
        assert_eq!(snap.taken_at(), ms(200));
        let run_tail = |node: &mut CentralNode| {
            let target = node.runnable("SAFE_CC_process");
            let mut injector = Injector::new([Injection::new(
                ErrorClass::SkipRunnable { runnable: target },
                ms(250),
                ms(400),
            )]);
            node.run_until(ms(1_000), &mut injector);
            (
                node.world.watchdog.log().entries().to_vec(),
                node.world.treatments.clone(),
                format!("{:?}", node.os.trace()),
                node.world.watchdog.cycles_run(),
                node.world.fmf.dtc().iter().copied().collect::<Vec<_>>(),
            )
        };
        let first = run_tail(&mut node);
        assert!(!first.0.is_empty(), "tail must detect the injected fault");
        assert!(!first.4.is_empty(), "tail must record DTCs");
        node.restore_from(&snap);
        assert_eq!(node.os.now(), ms(200));
        assert!(node.world.watchdog.log().is_empty());
        assert!(node.world.fmf.dtc().is_empty());
        let second = run_tail(&mut node);
        assert_eq!(first.0, second.0);
        assert_eq!(first.1, second.1);
        assert_eq!(first.2, second.2);
        assert_eq!(first.3, second.3);
        assert_eq!(first.4, second.4);
    }

    #[test]
    fn hyperperiod_covers_every_period_and_window() {
        for config in [NodeConfig::default(), NodeConfig::safespeed_only()] {
            let node = CentralNode::build(config);
            let h = node.hyperperiod();
            assert!(!h.is_zero());
            assert!((h % node.config().wd_period).is_zero());
            assert!((h % HW_KICK_PERIOD).is_zero(), "HwKick cycle");
            for &period in node.periods.values() {
                assert!((h % period).is_zero(), "{h:?} vs {period:?}");
            }
        }
    }

    #[test]
    fn macro_stepped_span_matches_event_level_simulation() {
        let build = |ffwd: bool| {
            let mut node = CentralNode::build(NodeConfig {
                kernel_trace: false,
                ..NodeConfig::default()
            });
            node.set_fastforward(Some(ffwd));
            node.start();
            node.run_span(Instant::from_millis(1_500));
            node
        };
        let fast = build(true);
        let plain = build(false);
        let stats = fast.ffwd_stats();
        assert!(stats.certifications >= 1, "{stats:?}");
        assert!(stats.fastforwarded > Duration::ZERO, "{stats:?}");
        assert_eq!(plain.ffwd_stats().fastforwarded, Duration::ZERO);
        assert_eq!(fast.os.now(), plain.os.now());
        assert_eq!(
            fast.snapshot(),
            plain.snapshot(),
            "macro-stepped state diverged"
        );
    }

    #[test]
    fn certification_compares_the_whole_checkpoint() {
        // Each perturbation hits the live node just before certification
        // compares the advanced sample with it.
        // Only injector ticks touch runnable controls, and they bound every
        // span, but certification still compares the controls rather than
        // trusting that. A detection-log entry handed over like the
        // others is the one perturbation that certifies: the log is
        // write-only, so its growth is replayed, not compared. One left
        // past the hand-over cursor does not, because the sample held none.
        type Perturbation = fn(&mut CentralNode);
        fn miss(node: &mut CentralNode) {
            let at = node.os.now();
            let detection = Detection::on_task(at, DetectorId::DeadlineMonitor, TaskId(0));
            node.world.watchdog.log_detection(detection);
        }
        let cases: [(&str, bool, Perturbation); 10] = [
            ("unperturbed", true, |_| {}),
            ("handed-over log entry", true, |node| {
                miss(node);
                node.world.watchdog.hand_over_faults(&mut Vec::new());
            }),
            ("pending log entry", false, miss),
            ("treatment", false, |node| {
                node.world.treatments.push(TreatmentAction {
                    at: node.os.now(),
                    treatment: Treatment::EcuReset,
                });
            }),
            ("runnable control", false, |node| {
                node.world.controls.runnable_mut(RunnableId(4)).exec_scale_ppm = 2_000_000;
            }),
            ("stray heartbeat", false, |node| {
                let runnable = node.runnable("SAFE_CC_process");
                node.world.watchdog.heartbeat(runnable, node.os.now());
            }),
            ("extra task activation", false, |node| {
                let task = node.tasks["SafeSpeedTask"];
                node.os.activate_task(task, &mut node.world).unwrap();
            }),
            ("hardware-watchdog kick", false, |node| {
                node.world.hw_watchdog.kick(node.os.now());
            }),
            ("signal write", false, |node| {
                node.world.signals.write(SignalId(0), 1e6, node.os.now());
            }),
            ("DTC occurrence", false, |node| {
                let fault = DetectedFault {
                    at: node.os.now(),
                    runnable: RunnableId(4),
                    kind: easis_watchdog::report::FaultKind::Aliveness,
                };
                node.world.fmf.ingest_fault(fault, FreezeFrame::default());
            }),
        ];
        for (case, certifies, perturb) in cases {
            let mut node = quiescent_node();
            let h = node.hyperperiod();
            let mut a = node.snapshot();
            node.os.run_until(ms(1_003) + h, &mut node.world);
            perturb(&mut node);
            let mut delta = NodeCycleDelta::default();
            let certified = certify(&mut a, &node, h, &mut delta);
            assert_eq!(certified, certifies, "{case}");
            assert_eq!(a == node.snapshot(), certified, "{case}");
            assert_eq!(a.matches(&node), certified, "{case}");
        }
    }

    /// A node past start-up, off every task-period boundary, at 1 003 ms.
    fn quiescent_node() -> CentralNode {
        let mut node = CentralNode::build(NodeConfig {
            kernel_trace: false,
            ..NodeConfig::default()
        });
        node.set_fastforward(Some(true));
        node.start();
        node.os.run_until(ms(1_003), &mut node.world);
        node
    }

    /// The kernel's deadline misses and budget overruns land in the log at
    /// the hook instant, with the late task as subject, and no other hook
    /// reaches the observer. Only the slowed task overruns its budget; it
    /// also delays a lower-priority task past its deadline.
    #[test]
    fn timing_checks_log_the_kernel_hooks_with_their_task() {
        use easis_injection::injector::{ErrorClass, Injection};
        assert_eq!(
            HookObserver::<CentralWorld>::interest(&TimingChecks),
            HookMask::DEADLINE_MISS.union(HookMask::BUDGET_EXCEEDED)
        );
        let mut node = CentralNode::build(crate::scenario::campaign_node_config());
        node.start();
        let mut injector = Injector::new([Injection::new(
            ErrorClass::ExecutionSlowdown {
                runnable: node.runnable("SAFE_CC_process"),
                scale_ppm: 300_000_000,
            },
            ms(300),
            ms(600),
        )]);
        node.run_until(ms(1_000), &mut injector);
        let log = node.world.watchdog.log();
        let tasks_of = |detector| {
            let entries = log.entries().iter().filter(move |d| d.detector == detector);
            assert!(entries.clone().all(|d| d.at >= ms(300)));
            entries.map(|d| d.task().expect("a task subject")).collect::<BTreeSet<_>>()
        };
        let (slowed, starved) = (node.tasks["SafeSpeedTask"], node.tasks["SafeLaneTask"]);
        assert_eq!(tasks_of(DetectorId::ExecTimeMonitor), BTreeSet::from([slowed]));
        assert_eq!(tasks_of(DetectorId::DeadlineMonitor), BTreeSet::from([slowed, starved]));
    }

    /// A kick polls first: when the countdown runs out after the watchdog
    /// task's poll and before the next kick, the kick task logs the expiry,
    /// stamped when the countdown ran out, like a polled one.
    #[test]
    fn a_late_kick_logs_the_expiry_it_finds() {
        let mut node = quiescent_node();
        // Runs out at 1 010.5 ms, after the watchdog task's 1 010 ms poll
        // and before the kick task's 1 011 ms kick.
        let mut hw = HardwareWatchdog::new(HW_TIMEOUT);
        hw.kick(Instant::from_micros(960_500));
        node.world.hw_watchdog = hw;
        node.os.run_until(ms(1_020), &mut node.world);
        let expiry = Detection::expiry(Instant::from_micros(1_010_500));
        assert_eq!(node.world.watchdog.log().entries(), [expiry]);
        assert!(!node.world.hw_watchdog.is_expired(), "the kick restarted the countdown");
    }

    #[test]
    fn a_span_of_two_hyperperiods_certifies_once_and_jumps_one() {
        let mut node = quiescent_node();
        let h = node.hyperperiod();
        node.run_span(ms(1_003) + h * 2);
        let stats = node.ffwd_stats();
        assert_eq!(stats.certifications, 1, "{stats:?}");
        assert_eq!(stats.fallbacks, 0, "{stats:?}");
        assert_eq!(stats.fastforwarded, h, "{stats:?}");
        let mut plain = quiescent_node();
        plain.set_fastforward(Some(false));
        plain.run_span(ms(1_003) + h * 2);
        assert_eq!(node.snapshot(), plain.snapshot());

        // One millisecond short of 2H leaves no whole hyperperiod to jump
        // after certification, so the engine does not try.
        let mut short = quiescent_node();
        short.run_span(ms(1_002) + h * 2);
        assert_eq!(
            short.ffwd_stats(),
            FfwdStats {
                span: h * 2 - Duration::from_millis(1),
                ..FfwdStats::default()
            }
        );
    }

    /// A persistent duplicate dispatch settles into a faulty steady state:
    /// arrival-rate faults every window, SafeSpeed `Faulty`, its TSI counts
    /// and confirmed DTC rising. The armed window certifies and jumps, and
    /// the jump replays the detection log and the counts to the
    /// event-level checkpoint.
    #[test]
    fn an_armed_window_jumps_across_its_faulty_steady_state() {
        use easis_injection::injector::{ErrorClass, Injection};
        let run = |ffwd: bool| {
            let mut node = CentralNode::build(crate::scenario::campaign_node_config());
            node.set_fastforward(Some(ffwd));
            node.start();
            node.run_span(ms(300));
            let mut injector = Injector::new([Injection::new(
                ErrorClass::DuplicateDispatch {
                    runnable: node.runnable("SAFE_CC_process"),
                    extra: 3,
                },
                ms(300),
                ms(1_300),
            )]);
            injector.tick(ms(300), &mut node.world.controls, &mut node.os);
            let before = node.ffwd_stats();
            node.run_span(ms(1_000));
            (node, before)
        };
        let (fast, before) = run(true);
        let (plain, _) = run(false);
        let armed = fast.ffwd_stats();
        assert!(armed.certifications > before.certifications, "{armed:?}");
        let jumped = armed.fastforwarded - before.fastforwarded;
        assert!(jumped >= Duration::from_millis(400), "{armed:?}");
        let faults = fast.world.watchdog.log().faults().count();
        assert!(faults > 20, "{faults}");
        assert_eq!(fast.snapshot(), plain.snapshot());
    }

    #[test]
    fn verify_mode_shadows_jumps_without_changing_the_outcome() {
        let run = |verify: bool| {
            let mut node = quiescent_node();
            node.ffwd.verify = verify;
            node.run_span(ms(1_500));
            node
        };
        let verified = run(true);
        let fast = run(false);
        assert!(verified.ffwd_stats().certifications >= 1);
        assert_eq!(verified.ffwd_stats(), fast.ffwd_stats());
        assert_eq!(verified.snapshot(), fast.snapshot());
    }

    #[test]
    fn first_difference_names_the_differing_field() {
        let node = quiescent_node();
        let a = node.snapshot();
        let mut b = node.snapshot();
        assert_eq!(first_difference(&a, &b), None);
        b.controls.runnable_mut(RunnableId(4)).exec_scale_ppm = 2_000_000;
        let difference = first_difference(&a, &b).expect("controls differ");
        assert!(difference.starts_with("field `controls`"), "{difference}");
    }

    #[test]
    fn skipped_runnable_is_detected_and_treated() {
        use easis_injection::injector::{ErrorClass, Injection};
        let mut node = CentralNode::build(NodeConfig::safespeed_only());
        node.start();
        let target = node.runnable("SAFE_CC_process");
        let mut injector = Injector::new([Injection::new(
            ErrorClass::SkipRunnable { runnable: target },
            ms(200),
            ms(400),
        )]);
        node.run_until(ms(1_000), &mut injector);
        // PFC and aliveness faults were logged…
        assert!(node.world.watchdog.log().faults().next().is_some());
        // …the task went faulty and the FMF restarted SafeSpeed.
        assert!(node
            .world
            .treatments
            .iter()
            .any(|t| matches!(t.treatment, Treatment::RestartApplication(_))));
        // After the injection window, recovery holds: the final state is Ok.
        assert_eq!(
            node.world.watchdog.task_state(node.tasks["SafeSpeedTask"]),
            HealthState::Ok
        );
    }
}

#[cfg(test)]
mod config_audit_tests {
    use super::*;

    #[test]
    fn derived_watchdog_configs_audit_clean() {
        for config in [NodeConfig::default(), NodeConfig::safespeed_only()] {
            let node = CentralNode::build(config);
            let issues = easis_watchdog::validate::validate(node.world.watchdog.config());
            assert!(issues.is_empty(), "config audit found: {issues:?}");
        }
    }
}
