//! Central-node assembly.
//!
//! [`CentralNode`] builds the validator's central node (the paper's
//! AutoBox) from application bundles: OSEK tasks and alarms per
//! application, the Software Watchdog as the highest-priority periodic
//! task, a lowest-priority hardware-watchdog kick task, the deployment
//! mapping, the derived fault hypotheses, and the baseline task-granularity
//! monitors. The watchdog task's effect also plays the integration role of
//! §4.4: it drains the watchdog outboxes into the Fault Management
//! Framework and executes the decided treatments.

use crate::world::CentralWorld;
use easis_apps::bundle::AppBundle;
use easis_apps::{lightctl, safelane, safespeed, steer};
use easis_baselines::task_monitors::{DeadlineMonitor, ExecutionTimeMonitor};
use easis_fmf::dtc::FreezeFrame;
use easis_fmf::framework::{FaultManagementFramework, FmfCycleDelta, FmfSnapshot};
use easis_fmf::policy::{Treatment, TreatmentAction, TreatmentPolicy};
use easis_fmf::record::SeverityMap;
use easis_injection::injector::Injector;
use easis_osek::alarm::{AlarmAction, AlarmId};
use easis_osek::kernel::{CycleProgram, CycleScratch, Os};
use easis_osek::plan::{EffectCtx, Plan, TaskBody};
use easis_osek::task::{Priority, TaskConfig, TaskId};
use easis_rte::assembly::SequencedTask;
use easis_rte::mapping::{ApplicationId, SystemMapping};
use easis_rte::runnable::{RunnableId, RunnableRegistry};
use easis_rte::signal::{SignalDb, SignalDbSnapshot, SignalId};
use easis_sim::snap::RestoreStats;
use easis_sim::time::{Duration, Instant};
use easis_baselines::task_monitors::TaskMonitorStats;
use easis_osek::kernel::OsSnapshot;
use easis_rte::control::RunnableControls;
use easis_watchdog::config::{RunnableHypothesis, WatchdogConfig};
use easis_watchdog::report::{DetectedFault, RunnableCounters, StateChange};
use easis_watchdog::{CycleReport, SoftwareWatchdog, WatchdogCycleDelta, WatchdogSnapshot};
use easis_baselines::hw_watchdog::HardwareWatchdog;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
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
    /// Hardware-watchdog timeout.
    pub hw_timeout: Duration,
    /// Execution budget per task = nominal cost × this factor.
    pub budget_factor: u64,
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
    /// trials switch it off: they extract outcomes from the fault log and
    /// monitor stats only, and every trace record costs three small heap
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
            hw_timeout: Duration::from_millis(50),
            budget_factor: 8,
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

/// Hyperperiods above this bound disable macro-stepping structurally: a
/// jump engine that rarely fits a whole hyperperiod into a span cannot pay
/// for its certification overhead, and the closed-form deltas would live on
/// transients that never settle within one certification window.
const FFWD_MAX_HYPERPERIOD: Duration = Duration::from_millis(1_000);

/// The kernel timer wheel's bottom-level rotation span is `2^24` µs
/// (~16.8 s). A macro-jump must never cross such a boundary: the wheel's
/// overflow cascade redistributes entries there, a physical transition the
/// closed-form delta does not model. The engine caps every jump just short
/// of the next boundary and simulates the crossing hyperperiod
/// event-by-event instead.
const WHEEL_ROTATION_BITS: u32 = 24;

/// A campaign-shared node recipe: the node configuration plus the
/// watchdog configuration compiled from it exactly once (IdIndex
/// interning, flow-table bitsets, hypothesis derivation), frozen behind an
/// `Arc`. A campaign compiles one blueprint and every worker builds (and
/// then pools) its node from it, so no trial recompiles what the plan
/// already determines.
#[derive(Debug, Clone)]
pub struct NodeBlueprint {
    config: NodeConfig,
    watchdog_config: Arc<easis_watchdog::config::WatchdogConfig>,
    /// Process-unique stamp identifying this compilation, used as the
    /// pool key so a pooled world is never revived for a *different*
    /// blueprint that happens to reuse a freed allocation address.
    stamp: u64,
}

static BLUEPRINT_STAMP: AtomicU64 = AtomicU64::new(0);

impl NodeBlueprint {
    /// Compiles the blueprint for a node configuration by running one
    /// full assembly and freezing its compiled watchdog configuration.
    pub fn compile(config: NodeConfig) -> Self {
        let node = CentralNode::build(config.clone());
        NodeBlueprint {
            config,
            watchdog_config: node.world.watchdog.shared_config(),
            stamp: BLUEPRINT_STAMP.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// The node configuration the blueprint was compiled from.
    pub fn config(&self) -> &NodeConfig {
        &self.config
    }

    /// The shared compiled watchdog configuration.
    pub fn watchdog_config(&self) -> &Arc<easis_watchdog::config::WatchdogConfig> {
        &self.watchdog_config
    }

    /// The process-unique compilation stamp (pool cache key).
    pub fn stamp(&self) -> u64 {
        self.stamp
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
    /// OSEKTime-style deadline monitor (baseline).
    pub deadline_monitor: DeadlineMonitor,
    /// AUTOSAR-style execution-time monitor (baseline).
    pub exec_monitor: ExecutionTimeMonitor,
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
                .with_execution_budget(nominal * config.budget_factor)
                .with_max_activations(2);
            let body = SequencedTask::fixed(bundle.task_name, bundle.runnables);
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
        // The compile step (IdIndex interning, bitset flow table) is the
        // expensive part of the builder; a blueprint-backed build skips it
        // entirely and shares the frozen artifact.
        let wd_config = match shared {
            Some(compiled) => compiled,
            None => Arc::new(wd_builder.mapping(mapping.clone()).build()),
        };
        let mut watchdog = SoftwareWatchdog::from_shared(wd_config);
        watchdog.attach_obs(obs.clone());
        let mut fmf = FaultManagementFramework::new(SeverityMap::default(), config.policy);
        fmf.attach_obs(obs.clone());
        let mut world = CentralWorld::new(signals, watchdog, fmf, config.hw_timeout);
        world.obs = obs;
        world
            .controls
            .set_global_exec_scale_ppm(config.cpu_scale_ppm);
        world.app_alarms = app_alarm_raw;
        world.app_signal_prefixes = app_prefixes;
        world.initial_signals = world.signals.iter().map(|(_, _, v)| v).collect();

        // The watchdog task: highest priority, runs the cycle check and the
        // FMF integration. Freeze-frame condition names are interned (and
        // their signal ids resolved) once here, so a faulty cycle clones
        // `Arc`s instead of allocating strings.
        let wd_cost =
            Duration::from_micros(60).mul_f64(config.cpu_scale_ppm as f64 / 1_000_000.0);
        let freeze_conditions: Vec<(Arc<str>, SignalId)> = ["speed_measured", "lateral_measured"]
            .iter()
            .filter_map(|&name| world.signals.id_of(name).map(|id| (Arc::from(name), id)))
            .collect();
        let freeze = FreezeFrame {
            conditions: freeze_conditions
                .iter()
                .map(|(name, _)| (Arc::clone(name), 0.0))
                .collect(),
        };
        let wd_task = os.add_task(
            TaskConfig::new("SoftwareWatchdogTask", Priority(10)),
            WatchdogTaskBody {
                cost: wd_cost,
                freeze_conditions,
                freeze,
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

        let deadline_monitor = DeadlineMonitor::new();
        let exec_monitor = ExecutionTimeMonitor::new();
        os.add_observer(deadline_monitor.clone());
        os.add_observer(exec_monitor.clone());

        let hyperperiod = Self::hyperperiod_of(&config, &periods);

        CentralNode {
            os,
            world,
            registry,
            tasks,
            alarms,
            apps,
            deadline_monitor,
            exec_monitor,
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
    /// for the content-equality classes of the macro-step derivation.
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
        // The HwKick task's cycle is fixed at 10 ms in `start()`.
        let mut h_us: u128 = lcm(wd_us as u128, 10_000);
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
            Treatment::RestartTask(task) => {
                w.watchdog.acknowledge_task_recovered(*task);
            }
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
                w.ecu_resets += 1;
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
                "HwKickTask" => (Duration::from_millis(1), Duration::from_millis(10)),
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

    /// Resets the node to its just-built state so it can be `start()`ed
    /// again: kernel back to cold (tasks suspended, alarms disarmed,
    /// timers empty, trace cleared), world back to the initial snapshot,
    /// baseline monitor statistics cleared. The expensive structure —
    /// task bodies, the runnable registry, the compiled watchdog
    /// configuration — is kept. Campaigns pool one node per worker and
    /// reset it between trials; [`crate::scenario`]'s reset≡fresh property
    /// test pins that a trial on a reset node is byte-identical to one on
    /// a fresh build.
    pub fn reset(&mut self) {
        self.os.reset();
        self.world.reset();
        self.deadline_monitor.reset();
        self.exec_monitor.reset();
        self.started = false;
        self.ffwd.backoff = 0;
        self.ffwd.injection_armed = false;
        self.ffwd.stats = FfwdStats::default();
    }

    /// Captures a deterministic checkpoint of the started node — see
    /// [`CentralNode::snapshot_into`]. Allocates a fresh snapshot; pooled
    /// campaign workers keep one [`NodeSnapshot`] per slot and reuse it.
    ///
    /// # Panics
    ///
    /// Panics if the node was never started, or if an in-flight plan holds
    /// a boxed `Step::Effect` closure (node bodies only use `EffectRef`
    /// tokens, so this cannot happen for nodes built here).
    pub fn snapshot(&self) -> NodeSnapshot {
        let mut snap = NodeSnapshot::default();
        self.snapshot_into(&mut snap);
        snap
    }

    /// Captures a deterministic checkpoint of the started node into
    /// `snap`: kernel (tasks, timers, plans, alarms, trace), world
    /// (signals, controls, watchdog, FMF, hardware watchdog, logs) and the
    /// baseline-monitor statistics. The snapshot's buffer capacity is
    /// retained, so re-capturing into a warm snapshot is allocation-free
    /// in the steady state. See [`NodeSnapshot`] for what is deliberately
    /// excluded.
    ///
    /// # Panics
    ///
    /// See [`CentralNode::snapshot`].
    pub fn snapshot_into(&self, snap: &mut NodeSnapshot) {
        assert!(self.started, "snapshot a started node");
        self.os.snapshot_into(&mut snap.os);
        self.world.signals.snapshot_into(&mut snap.signals);
        snap.controls.clone_from(&self.world.controls);
        self.world.watchdog.snapshot_into(&mut snap.watchdog);
        self.world.fmf.snapshot_into(&mut snap.fmf);
        snap.hw_watchdog.clone_from(&self.world.hw_watchdog);
        snap.treatments.clone_from(&self.world.treatments);
        snap.ecu_resets = self.world.ecu_resets;
        snap.fault_log.clear();
        snap.fault_log.extend_from_slice(&self.world.fault_log);
        snap.rx_mailbox.clone_from(&self.world.rx_mailbox);
        snap.deadline_stats = self.deadline_monitor.stats();
        snap.exec_stats = self.exec_monitor.stats();
    }

    /// Restores the node to a previously captured checkpoint. Only valid
    /// on the node the snapshot was taken from or a structurally identical
    /// one (same blueprint); the kernel layer asserts the table shapes it
    /// can check cheaply. Vector state is written back with `clone_from`,
    /// so a pooled node's capacity survives repeated restores.
    ///
    /// Every restore is a full copy, so the returned [`RestoreStats`]
    /// always report the whole node as one copied region.
    pub fn restore_from(&mut self, snap: &NodeSnapshot) -> RestoreStats {
        self.os.restore_from(&snap.os);
        self.world.signals.restore_from(&snap.signals);
        self.world.watchdog.restore_from(&snap.watchdog);
        self.world.fmf.restore_from(&snap.fmf);
        self.world.controls.clone_from(&snap.controls);
        self.world.hw_watchdog.clone_from(&snap.hw_watchdog);
        self.world.treatments.clone_from(&snap.treatments);
        self.world.fault_log.clear();
        self.world.fault_log.extend_from_slice(&snap.fault_log);
        self.world.rx_mailbox.clone_from(&snap.rx_mailbox);
        self.world.ecu_resets = snap.ecu_resets;
        self.deadline_monitor.restore_stats(&snap.deadline_stats);
        self.exec_monitor.restore_stats(&snap.exec_stats);
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
    /// `EASIS_FASTFORWARD`, no armed injector window, no enabled traces),
    /// the hyperperiod macro-stepping engine first certifies the
    /// steady-state schedule — simulate one hyperperiod, derive its
    /// closed-form state delta, simulate a guard hyperperiod and require
    /// the exact same delta — and then fast-forwards whole hyperperiod
    /// multiples in O(1) per hyperperiod. Certification is *exact*: any
    /// state that the delta cannot express (pending fault logs, DTC aging,
    /// stale timers, a wheel rotation boundary) rejects the derivation and
    /// the engine falls back to event-level simulation, so the final node
    /// state is bit-identical to a never-fast-forwarded run.
    pub fn run_span(&mut self, end: Instant) {
        assert!(self.started, "call start() first");
        let span = end.saturating_duration_since(self.os.now());
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

    /// Whether [`CentralNode::run_span`] may macro-step right now. The
    /// divergence triggers stand the engine down entirely: an armed
    /// injector window mutates runnable controls at millisecond ticks the
    /// closed-form delta cannot see, and enabled kernel/observability
    /// traces append per-event records whose absence would be observable.
    fn ffwd_eligible(&self) -> bool {
        !self.ffwd.h.is_zero()
            && self
                .ffwd
                .enabled_override
                .unwrap_or_else(crate::ffwd::env_default)
            && !self.ffwd.injection_armed
            && !self.os.trace().is_enabled()
            && !self.world.obs.is_enabled()
    }

    /// Captures a certification image (cheaper than a [`NodeSnapshot`]:
    /// append-only logs as lengths, monotone monitor statistics as
    /// totals — warm captures allocate nothing).
    fn ffwd_image(&self, img: &mut FfwdImage) {
        self.os.snapshot_into(&mut img.os);
        self.world.signals.snapshot_into(&mut img.signals);
        self.world.watchdog.snapshot_into(&mut img.watchdog);
        self.world.fmf.snapshot_into(&mut img.fmf);
        match &mut img.hw_watchdog {
            Some(hw) => hw.clone_from(&self.world.hw_watchdog),
            slot => *slot = Some(self.world.hw_watchdog.clone()),
        }
        img.treatments = self.world.treatments.len();
        img.fault_log = self.world.fault_log.len();
        img.rx_mailbox = self.world.rx_mailbox.len();
        img.ecu_resets = self.world.ecu_resets;
        img.deadline = (
            self.deadline_monitor.total(),
            self.deadline_monitor.first_detection(),
        );
        img.exec = (self.exec_monitor.total(), self.exec_monitor.first_detection());
    }

    /// The macro-stepping loop behind [`CentralNode::run_span`]:
    /// certify the per-hyperperiod delta against a guard hyperperiod, then
    /// apply it `k` at a time, capped at the next wheel rotation boundary.
    /// A rejected certification backs off exponentially (1→2→4→8
    /// hyperperiods simulated plainly, plus a one-millisecond sampling
    /// phase nudge) so transients — DTC aging, pending cancellations,
    /// post-treatment settling, samples phased onto a task-period
    /// boundary — drain before the retry.
    fn macro_step_span(&mut self, end: Instant) {
        // The engine state moves out while the node simulates (`run_until`
        // needs `&mut self.os`/`&mut self.world` alongside the buffers).
        let mut ff = std::mem::take(&mut self.ffwd);
        let h = ff.h;
        'certify: loop {
            if ff.backoff > 0 {
                // Exponential penalty plus a one-millisecond phase nudge: a
                // rejected sample may sit exactly on a task-period boundary
                // where the kernel is mid-dispatch every hyperperiod (ready
                // bits set, a task running), and h-spaced resampling would
                // stay on that phase forever. The nudge walks the sampler
                // off such instants; the nudged span itself runs at event
                // level, so it costs time, never exactness.
                let penalty = h * ff.backoff as u64 + Duration::from_millis(1);
                let penalty_end = (self.os.now() + penalty).min(end);
                self.os.run_until(penalty_end, &mut self.world);
            }
            let now = self.os.now();
            // Certification consumes two hyperperiods; anything shorter
            // than three leaves no jump to pay for it.
            if end.saturating_duration_since(now) < h * 3 {
                break;
            }
            self.ffwd_image(&mut ff.img_a);
            self.os.run_until(now + h, &mut self.world);
            self.ffwd_image(&mut ff.img_b);
            if !derive_node_delta(&ff.img_a, &ff.img_b, h, &mut ff.scratch, &mut ff.delta) {
                ff.stats.fallbacks += 1;
                ff.backoff = (ff.backoff * 2).clamp(1, 8);
                continue;
            }
            // Guard hyperperiod: the event stream must reproduce the exact
            // same delta before any closed-form application is trusted.
            self.os.run_until(now + h * 2, &mut self.world);
            self.ffwd_image(&mut ff.img_a);
            if !derive_node_delta(&ff.img_b, &ff.img_a, h, &mut ff.scratch, &mut ff.delta2)
                || ff.delta != ff.delta2
            {
                ff.stats.fallbacks += 1;
                ff.backoff = (ff.backoff * 2).clamp(1, 8);
                continue;
            }
            ff.backoff = 0;
            ff.stats.certifications += 1;
            loop {
                let now = self.os.now();
                let k_span = end.saturating_duration_since(now) / h;
                if k_span == 0 {
                    break 'certify;
                }
                let now_us = now.as_micros();
                let boundary = ((now_us >> WHEEL_ROTATION_BITS) + 1) << WHEEL_ROTATION_BITS;
                let k_rot = (boundary - now_us - 1) / h.as_micros();
                // An aging DTC memory bounds the jump to just short of
                // the earliest age-out: removal is a discrete event the
                // delta cannot express, so it must be simulated — and it
                // *changes* the steady state, so the delta must then be
                // re-certified (unlike a rotation crossing, which only
                // relabels the wheel).
                let k_age = match ff.delta.fmf.dtc_aging {
                    0 => u64::MAX,
                    inc => match self.world.fmf.pending_cycles_to_age_out() {
                        Some(remaining) => (remaining.saturating_sub(1) as u64) / inc as u64,
                        None => 0,
                    },
                };
                let k = k_span.min(k_rot).min(k_age);
                if k == 0 {
                    ff.stats.fallbacks += 1;
                    self.os.run_until(now + h, &mut self.world);
                    if k_age == 0 {
                        continue 'certify;
                    }
                    // The rotation boundary falls inside the next
                    // hyperperiod: it was crossed event-by-event just now
                    // (the overflow cascade must physically run); the
                    // delta is still valid, resume jumping.
                    continue;
                }
                self.os.apply_cycle_program(&ff.delta.os, k);
                self.world.watchdog.apply_cycle_delta(&ff.delta.watchdog, k);
                self.world
                    .signals
                    .shift_updated_at(&ff.delta.signal_slots, h * k);
                self.world.hw_watchdog.shift_last_kick(h * k);
                self.world.fmf.apply_cycle_delta(&ff.delta.fmf, k);
                ff.stats.fastforwarded += h * k;
            }
        }
        self.ffwd = ff;
    }

    /// Per-node macro-stepping override: `Some(false)` disables tail
    /// fast-forwarding for this node regardless of `EASIS_FASTFORWARD`,
    /// `Some(true)` forces it on, `None` (the default) follows the
    /// process-wide [`crate::ffwd::env_default`].
    pub fn set_fastforward(&mut self, enabled: Option<bool>) {
        self.ffwd.enabled_override = enabled;
    }

    /// Marks the injector window armed/disarmed for
    /// [`CentralNode::run_span`]: an armed window can rewrite runnable
    /// controls at any millisecond tick, so macro-stepping stands down
    /// until the caller disarms again.
    pub fn set_injection_armed(&mut self, armed: bool) {
        self.ffwd.injection_armed = armed;
    }

    /// This node's macro-stepping counters since build or
    /// [`CentralNode::reset`].
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
    /// Rejected certification attempts plus rotation-boundary crossings
    /// simulated event-by-event.
    pub fallbacks: u64,
    /// Successful certifications (guard hyperperiod reproduced the delta).
    pub certifications: u64,
}

/// The per-node macro-stepping engine: the configuration-derived
/// hyperperiod, the stand-down switches, the retained image/delta buffers
/// (so repeated certifications are allocation-free in the steady state),
/// and the per-node counters.
#[derive(Debug, Default)]
struct FfwdState {
    h: Duration,
    enabled_override: Option<bool>,
    injection_armed: bool,
    backoff: u32,
    img_a: FfwdImage,
    img_b: FfwdImage,
    delta: NodeCycleDelta,
    delta2: NodeCycleDelta,
    scratch: CycleScratch,
    stats: FfwdStats,
}

impl FfwdState {
    fn new(h: Duration) -> Self {
        FfwdState {
            h,
            ..FfwdState::default()
        }
    }
}

/// One certification image: the node state the delta derivation compares.
/// Deliberately cheaper than a [`NodeSnapshot`]: the append-only logs are
/// captured as lengths (within one uninterrupted span, an unchanged length
/// proves unchanged content) and the monotone baseline-monitor statistics
/// as totals, so a warm capture clones no maps. Runnable controls are not
/// captured at all — only injector ticks mutate them, and an armed
/// injector window already stands the engine down.
#[derive(Debug, Default)]
struct FfwdImage {
    os: OsSnapshot,
    signals: SignalDbSnapshot,
    watchdog: WatchdogSnapshot,
    fmf: FmfSnapshot,
    /// `None` only before the first capture (`HardwareWatchdog` has no
    /// `Default`); the value is flat, so `clone_from` is heap-free.
    hw_watchdog: Option<HardwareWatchdog>,
    treatments: usize,
    fault_log: usize,
    rx_mailbox: usize,
    ecu_resets: u32,
    deadline: (u32, Option<(TaskId, Instant)>),
    exec: (u32, Option<(TaskId, Instant)>),
}

/// The compiled node-level steady-state delta: one hyperperiod's kernel
/// cycle program, watchdog cycle delta, the signal slots whose timestamps
/// shift by exactly one hyperperiod, and the FMF's DTC aging advance.
#[derive(Debug, Default, PartialEq)]
struct NodeCycleDelta {
    os: CycleProgram,
    watchdog: WatchdogCycleDelta,
    signal_slots: Vec<u32>,
    fmf: FmfCycleDelta,
}

/// Derives the closed-form per-hyperperiod delta between two images taken
/// exactly `h` apart, or reports that the span is not in certifiable
/// steady state. Every append-only log must be untouched, every monotone
/// monitor counter unchanged, the hardware watchdog an exact `h`
/// time-shift, and the kernel/watchdog/signal/FMF layers must each yield
/// a well-formed shift (the FMF's being a uniform DTC-aging advance — the
/// post-fault drain the tail spends hundreds of milliseconds in).
fn derive_node_delta(
    a: &FfwdImage,
    b: &FfwdImage,
    h: Duration,
    scratch: &mut CycleScratch,
    out: &mut NodeCycleDelta,
) -> bool {
    if a.treatments != b.treatments
        || a.fault_log != b.fault_log
        || a.rx_mailbox != b.rx_mailbox
        || a.ecu_resets != b.ecu_resets
        || a.deadline != b.deadline
        || a.exec != b.exec
        || !FmfSnapshot::derive_cycle_delta(&a.fmf, &b.fmf, &mut out.fmf)
    {
        return false;
    }
    let (Some(hw_a), Some(hw_b)) = (&a.hw_watchdog, &b.hw_watchdog) else {
        return false;
    };
    let mut shifted = hw_a.clone();
    shifted.shift_last_kick(h);
    if shifted != *hw_b {
        return false;
    }
    OsSnapshot::derive_cycle_program(&a.os, &b.os, h, scratch, &mut out.os)
        && WatchdogSnapshot::derive_cycle_delta(&a.watchdog, &b.watchdog, h, &mut out.watchdog)
        && SignalDbSnapshot::derive_shift(&a.signals, &b.signals, h, &mut out.signal_slots)
}

/// A deterministic checkpoint of a started [`CentralNode`] at one instant:
/// the campaign prefix-reuse primitive. Trials sharing an injection point
/// fork from the snapshot taken there instead of re-simulating the golden
/// prefix ([`crate::scenario::run_plan`]), and a campaign publishes each
/// golden-prefix checkpoint once behind an `Arc` so every worker forks
/// from the same shared capture. The snapshot is plain data — no world
/// handles, no closures — so it is `Send + Sync`.
///
/// Static structure is deliberately excluded — the runnable registry, the
/// compiled watchdog configuration, task bodies (their buffers are
/// per-cycle scratch), the deployment tables, the node configuration and
/// the observability sink are not captured. A snapshot therefore only
/// restores onto the node it was taken from, or a structurally identical
/// one built from the same blueprint.
#[derive(Debug)]
pub struct NodeSnapshot {
    os: OsSnapshot,
    signals: SignalDbSnapshot,
    controls: RunnableControls,
    watchdog: WatchdogSnapshot,
    fmf: FmfSnapshot,
    hw_watchdog: HardwareWatchdog,
    treatments: Vec<TreatmentAction>,
    ecu_resets: u32,
    fault_log: Vec<DetectedFault>,
    rx_mailbox: Vec<(u16, Vec<u8>)>,
    deadline_stats: TaskMonitorStats,
    exec_stats: TaskMonitorStats,
}

impl Default for NodeSnapshot {
    fn default() -> Self {
        NodeSnapshot {
            os: OsSnapshot::default(),
            signals: SignalDbSnapshot::default(),
            controls: RunnableControls::default(),
            watchdog: WatchdogSnapshot::default(),
            fmf: FmfSnapshot::default(),
            // Placeholder until the first capture `clone_from`s the real
            // one (`HardwareWatchdog` has no Default: a zero timeout is
            // rejected by construction).
            hw_watchdog: HardwareWatchdog::new(Duration::from_micros(1)),
            treatments: Vec::new(),
            ecu_resets: 0,
            fault_log: Vec::new(),
            rx_mailbox: Vec::new(),
            deadline_stats: TaskMonitorStats::default(),
            exec_stats: TaskMonitorStats::default(),
        }
    }
}

impl NodeSnapshot {
    /// The simulated instant at which the snapshot was taken.
    pub fn taken_at(&self) -> Instant {
        self.os.taken_at()
    }

    /// Content equality, the equivalence-test comparator for
    /// macro-stepped versus event-level runs. The kernel is compared
    /// through its canonical rendering — the timer wheel's *physical*
    /// layout is legitimately non-canonical after a fast-forward, only its
    /// logical content must match. Signal and watchdog state go through
    /// their zero-shift derivations (every monotone field must be exactly
    /// equal); everything else compares structurally.
    pub fn content_eq(&self, other: &NodeSnapshot) -> bool {
        let mut slots = Vec::new();
        let mut wd = WatchdogCycleDelta::default();
        self.os_canonical() == other.os_canonical()
            && SignalDbSnapshot::derive_shift(
                &self.signals,
                &other.signals,
                Duration::ZERO,
                &mut slots,
            )
            && WatchdogSnapshot::derive_cycle_delta(
                &self.watchdog,
                &other.watchdog,
                Duration::ZERO,
                &mut wd,
            )
            && wd == WatchdogCycleDelta::default()
            && self.fmf == other.fmf
            && self.controls == other.controls
            && self.hw_watchdog == other.hw_watchdog
            && self.treatments == other.treatments
            && self.ecu_resets == other.ecu_resets
            && self.fault_log == other.fault_log
            && self.rx_mailbox == other.rx_mailbox
            && self.deadline_stats == other.deadline_stats
            && self.exec_stats == other.exec_stats
    }

    /// The kernel's canonical rendering (mismatch diagnostics for
    /// [`NodeSnapshot::content_eq`]).
    pub fn os_canonical(&self) -> String {
        let mut out = String::new();
        self.os.canonical_fmt(&mut out);
        out
    }
}

/// Arena body of the watchdog task: plans `Compute(cost) + EffectRef(0)`
/// into the kernel's retained buffer; the effect runs the cycle check and
/// the FMF integration of §4.4.
///
/// Every buffer the effect needs lives in the body and is reused across
/// cycles: the cycle report (`run_cycle_into` target), the outbox drain
/// vectors, the decided-action queue, and the freeze frame itself — its
/// condition names are interned at build time and a faulty cycle only
/// rewrites the `f64` values in place before lending the frame to the FMF
/// by reference. A fault-detecting cycle therefore allocates only where
/// genuinely new state is born (first occurrence of a DTC code, growth of
/// the world's fault/treatment logs past their pooled capacity).
///
/// All of these are per-cycle scratch — cleared or overwritten before each
/// use — so they carry no state across cycles and are deliberately outside
/// [`NodeSnapshot`].
struct WatchdogTaskBody {
    cost: Duration,
    freeze_conditions: Vec<(Arc<str>, SignalId)>,
    freeze: FreezeFrame,
    report: CycleReport,
    faults: Vec<DetectedFault>,
    changes: Vec<StateChange>,
    actions: Vec<TreatmentAction>,
}

impl TaskBody<CentralWorld> for WatchdogTaskBody {
    fn plan_into(&mut self, _now: Instant, _world: &CentralWorld, out: &mut Plan<CentralWorld>) {
        out.push_compute(self.cost);
        out.push_effect_ref(0);
    }

    fn run_effect(&mut self, _token: u32, w: &mut CentralWorld, ctx: &mut EffectCtx<'_, CentralWorld>) {
        let now = ctx.now();
        w.watchdog.run_cycle_into(now, &mut self.report);
        if ctx.trace_enabled() {
            for fault in &self.report.faults {
                ctx.trace("watchdog", "fault", fault.to_string());
            }
        }
        if w.hw_watchdog.poll(now) {
            ctx.trace("hw_wd", "hw_expired", "");
        }
        self.faults.clear();
        self.changes.clear();
        w.watchdog.drain_faults_into(&mut self.faults);
        w.watchdog.drain_state_changes_into(&mut self.changes);
        w.fault_log.extend_from_slice(&self.faults);
        if self.faults.is_empty() {
            w.fmf.healthy_cycle(); // DTC aging
        } else {
            // Freeze frame: the operating conditions at detection (the
            // signals a tester would want). Refreshed only when a fault is
            // actually ingested; the names are interned and the frame is
            // lent by reference, so the capture allocates nothing.
            for (slot, (name, id)) in
                self.freeze.conditions.iter_mut().zip(&self.freeze_conditions)
            {
                debug_assert!(Arc::ptr_eq(&slot.0, name));
                slot.1 = w.signals.read(*id);
            }
            for &fault in &self.faults {
                w.fmf.ingest_fault_with_conditions(fault, &self.freeze);
            }
        }
        for &change in &self.changes {
            w.fmf.ingest_state_change(change);
        }
        w.fmf.drain_actions_into(&mut self.actions);
        for action in self.actions.drain(..) {
            if ctx.trace_enabled() {
                ctx.trace("fmf", "treatment", action.treatment.to_string());
            }
            CentralNode::execute_treatment(w, ctx, &action.treatment);
            w.treatments.push(action);
        }
    }

    fn name(&self) -> &str {
        "SoftwareWatchdogTask"
    }
}

/// Arena body of the hardware-watchdog kick task.
struct HwKickBody;

impl TaskBody<CentralWorld> for HwKickBody {
    fn plan_into(&mut self, _now: Instant, _world: &CentralWorld, out: &mut Plan<CentralWorld>) {
        out.push_compute(Duration::from_micros(5));
        out.push_effect_ref(0);
    }

    fn run_effect(&mut self, _token: u32, w: &mut CentralWorld, ctx: &mut EffectCtx<'_, CentralWorld>) {
        let _ = w.hw_watchdog.kick(ctx.now());
    }

    fn name(&self) -> &str {
        "HwKickTask"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easis_watchdog::report::HealthState;

    fn ms(n: u64) -> Instant {
        Instant::from_millis(n)
    }

    #[test]
    fn nominal_full_node_runs_clean_for_a_second() {
        let mut node = CentralNode::build(NodeConfig::default());
        node.start();
        let mut injector = Injector::none();
        node.run_until(ms(1_000), &mut injector);
        assert!(node.world.fault_log.is_empty(), "{:?}", node.world.fault_log);
        assert_eq!(node.world.watchdog.ecu_state(), HealthState::Ok);
        assert_eq!(node.world.hw_watchdog.expirations(), 0);
        assert_eq!(node.deadline_monitor.stats().total(), 0);
        assert_eq!(node.exec_monitor.stats().total(), 0);
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
        assert!(node.world.fault_log.is_empty());
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
                node.world.fault_log.clone(),
                node.world.treatments.clone(),
                format!("{:?}", node.os.trace()),
                node.world.watchdog.cycles_run(),
            )
        };
        let first = run_tail(&mut node);
        assert!(!first.0.is_empty(), "tail must detect the injected fault");
        node.restore_from(&snap);
        assert_eq!(node.os.now(), ms(200));
        assert!(node.world.fault_log.is_empty());
        let second = run_tail(&mut node);
        assert_eq!(first.0, second.0);
        assert_eq!(first.1, second.1);
        assert_eq!(first.2, second.2);
        assert_eq!(first.3, second.3);
    }

    #[test]
    fn hyperperiod_covers_every_period_and_window() {
        for config in [NodeConfig::default(), NodeConfig::safespeed_only()] {
            let node = CentralNode::build(config);
            let h = node.hyperperiod();
            assert!(!h.is_zero());
            assert!((h % node.config().wd_period).is_zero());
            assert!((h % Duration::from_millis(10)).is_zero(), "HwKick cycle");
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
        let a = fast.snapshot();
        let b = plain.snapshot();
        assert!(
            a.content_eq(&b),
            "macro-stepped state diverged:\n{}\nvs\n{}",
            a.os_canonical(),
            b.os_canonical()
        );
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
        assert!(!node.world.fault_log.is_empty());
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
