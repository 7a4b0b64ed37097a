//! The Software Watchdog service facade.
//!
//! [`SoftwareWatchdog`] wires the three units of the paper's functional
//! architecture (Figure 2) together:
//!
//! * heartbeats arrive through [`SoftwareWatchdog::heartbeat`] (the L1→L3
//!   aliveness-indication interface; also exposed as
//!   [`easis_rte::runnable::HeartbeatSink`]);
//! * the heartbeat monitoring unit counts them, the PFC unit checks their
//!   order immediately;
//! * the watchdog's periodic OS task calls [`SoftwareWatchdog::run_cycle`],
//!   which performs the end-of-period checks and feeds every detected
//!   fault into the task state indication unit;
//! * detected faults and state changes accumulate in an outbox for the
//!   Fault Management Framework (the second interface of §4.4).
//!
//! CPU cost of every monitoring action is charged to a [`CostMeter`] so the
//! overhead experiments can compare against signature-based control-flow
//! checking.

use crate::config::WatchdogConfig;
use crate::heartbeat::{HeartbeatMonitor, HeartbeatSnapshot};
use crate::pfc::{FlowVerdict, PfcSnapshot, ProgramFlowChecker, LOOKUP_COST_CYCLES};
use crate::report::{DetectedFault, FaultKind, HealthState, RunnableCounters, StateChange};
use crate::tsi::{TaskStateIndication, TsiSnapshot};
use easis_obs::{ObsEvent, ObsSink};
use easis_osek::task::TaskId;
use easis_rte::mapping::ApplicationId;
use easis_rte::runnable::{HeartbeatSink, RunnableId};
use easis_sim::cpu::{CostMeter, CpuModel};
use easis_sim::time::Instant;
use std::sync::Arc;

/// Report of one watchdog cycle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CycleReport {
    /// Faults detected in this cycle (heartbeat checks; PFC faults are
    /// detected between cycles and appear in the outbox immediately).
    pub faults: Vec<DetectedFault>,
    /// Task/application/ECU state changes caused by this cycle.
    pub state_changes: Vec<StateChange>,
}

/// The EASIS Software Watchdog dependability service.
///
/// # Examples
///
/// ```
/// use easis_rte::runnable::RunnableId;
/// use easis_sim::time::{Duration, Instant};
/// use easis_watchdog::config::{RunnableHypothesis, WatchdogConfig};
/// use easis_watchdog::SoftwareWatchdog;
///
/// let config = WatchdogConfig::builder(Duration::from_millis(10))
///     .monitor(RunnableHypothesis::new(RunnableId(0)).alive_at_least(1, 1))
///     .build();
/// let mut wd = SoftwareWatchdog::new(config);
/// // A silent runnable is detected at the first cycle check:
/// let report = wd.run_cycle(Instant::from_millis(10));
/// assert_eq!(report.faults.len(), 1);
/// ```
#[derive(Debug)]
pub struct SoftwareWatchdog {
    /// The compiled configuration, shared: a fault-injection campaign
    /// compiles the config (IdIndex interning, flow-table bitsets) once and
    /// every trial's service instance points at the same frozen artifact.
    config: Arc<WatchdogConfig>,
    heartbeat_unit: HeartbeatMonitor,
    /// One flow checker per hosting-task slot (runnables of different
    /// tasks interleave freely under preemption; only the sequence
    /// *within* a task's chart is constrained), plus one trailing checker
    /// shared by all runnables not mapped to any task. Indexed by the
    /// values of [`SoftwareWatchdog::slot_scope`].
    pfc_units: Vec<ProgramFlowChecker>,
    tsi_unit: TaskStateIndication,
    /// Runnable slot → index into [`SoftwareWatchdog::pfc_units`]
    /// (`task_index` slot of the hosting task, or `pfc_units.len() - 1`
    /// for unmapped runnables). Frozen at construction.
    slot_scope: Vec<u32>,
    /// Task slot → cached `tsi_unit.task_state(..).is_faulty()`, kept in
    /// sync by [`SoftwareWatchdog::apply_state_changes`] and
    /// [`SoftwareWatchdog::acknowledge_task_recovered`] so the per-
    /// heartbeat faulty-task gate is an array load instead of a map probe.
    task_faulty: Vec<bool>,
    /// PFC violations attributed per runnable slot.
    pfc_errors: Vec<u32>,
    outbox: Vec<DetectedFault>,
    state_outbox: Vec<StateChange>,
    /// Capacity-retained scratch for TSI state changes on the heartbeat
    /// (PFC violation) path.
    change_scratch: Vec<StateChange>,
    costs: CostMeter,
    cycles_run: u64,
    last_heartbeat_now: Instant,
    obs: ObsSink,
}

impl SoftwareWatchdog {
    /// Creates the service from its configuration.
    pub fn new(config: WatchdogConfig) -> Self {
        SoftwareWatchdog::from_shared(Arc::new(config))
    }

    /// Creates the service from an already-compiled shared configuration.
    /// Campaigns use this to build one node per worker without recompiling
    /// the config for every trial.
    pub fn from_shared(config: Arc<WatchdogConfig>) -> Self {
        let heartbeat_unit = HeartbeatMonitor::new(
            config
                .monitored()
                .filter_map(|r| config.hypothesis(r).copied()),
        );
        let tsi_unit = TaskStateIndication::new(
            config.mapping().clone(),
            config.error_threshold(),
            config.ecu_faulty_app_threshold(),
        );
        let task_count = config.task_index().len();
        let slot_scope: Vec<u32> = config
            .runnable_index()
            .iter()
            .map(|id| match config.mapping().task_of(RunnableId(id)) {
                Some(task) => config
                    .task_index()
                    .slot_of_task(task)
                    .expect("mapped tasks are interned at build time"),
                None => task_count as u32,
            })
            .collect();
        // One checker per task scope plus the shared unmapped scope; all
        // clones of one prototype so the table is compiled once.
        let prototype = ProgramFlowChecker::new(config.flow_table().clone());
        let pfc_units = vec![prototype; task_count + 1];
        let pfc_errors = vec![0; config.runnable_index().len()];
        SoftwareWatchdog {
            config,
            heartbeat_unit,
            pfc_units,
            tsi_unit,
            slot_scope,
            task_faulty: vec![false; task_count],
            pfc_errors,
            outbox: Vec::new(),
            state_outbox: Vec::new(),
            change_scratch: Vec::new(),
            costs: CostMeter::new(),
            cycles_run: 0,
            last_heartbeat_now: Instant::ZERO,
            obs: ObsSink::disabled(),
        }
    }

    /// Attaches an observability sink to the service and all three
    /// monitoring units. A disabled sink — the default — makes every
    /// recording call a no-op, and recording never charges the
    /// [`CostMeter`], so attaching a sink does not perturb the simulated
    /// cost model.
    pub fn attach_obs(&mut self, obs: ObsSink) {
        self.heartbeat_unit.attach_obs(obs.clone());
        self.tsi_unit.attach_obs(obs.clone());
        for checker in &mut self.pfc_units {
            checker.attach_obs(obs.clone());
        }
        self.obs = obs;
    }

    /// The attached observability sink (disabled unless
    /// [`SoftwareWatchdog::attach_obs`] was called).
    pub fn obs(&self) -> &ObsSink {
        &self.obs
    }

    /// The aliveness-indication service routine: called by the glue code of
    /// every monitored runnable. Feeds the heartbeat monitoring unit and
    /// the PFC unit; a flow violation is a fault immediately. The whole
    /// nominal path is slot-indexed array work — no map probes, no
    /// allocations.
    pub fn heartbeat(&mut self, runnable: RunnableId, now: Instant) {
        self.last_heartbeat_now = now;
        let runnable_slot = self.config.runnable_index().slot_of_runnable(runnable);
        // A runnable whose hosting task is already marked faulty is no
        // longer supervised (its AS is cleared and its flow is ignored)
        // until fault treatment acknowledges recovery — this is why the
        // paper's Figure 6 plots freeze once the task state flips.
        // Runnables outside the frozen index are never mapped to a task,
        // so they cannot be gated here.
        if self.config.deactivate_on_faulty_task() {
            if let Some(slot) = runnable_slot {
                let scope = self.slot_scope[slot as usize] as usize;
                if scope < self.task_faulty.len() && self.task_faulty[scope] {
                    self.costs.charge(crate::heartbeat::HEARTBEAT_COST_CYCLES);
                    return;
                }
            }
        }
        self.heartbeat_unit.record(runnable, now, &mut self.costs);
        self.costs.charge(LOOKUP_COST_CYCLES);
        let scope = match runnable_slot {
            Some(slot) => self.slot_scope[slot as usize] as usize,
            None => self.pfc_units.len() - 1,
        };
        let verdict = self.pfc_units[scope].observe_at(runnable, now);
        if let FlowVerdict::Violation { .. } = verdict {
            // Only flow-monitored runnables can violate, and the flow
            // table's ids are interned at build time.
            let slot = runnable_slot.expect("flow-monitored runnables are interned") as usize;
            self.pfc_errors[slot] += 1;
            let fault = DetectedFault {
                at: now,
                runnable,
                kind: FaultKind::ProgramFlow,
            };
            self.outbox.push(fault);
            let mut changes = std::mem::take(&mut self.change_scratch);
            changes.clear();
            self.tsi_unit.record_into(fault, &mut changes);
            self.apply_state_changes(&changes);
            self.state_outbox.extend_from_slice(&changes);
            self.change_scratch = changes;
        }
    }

    /// The periodic watchdog task body: advances all cycle counters,
    /// performs the end-of-period checks, and updates the TSI unit.
    /// Convenience wrapper over [`SoftwareWatchdog::run_cycle_into`]
    /// returning an owned report; a clean cycle still performs zero heap
    /// allocations (empty vectors never allocate). Callers on the campaign
    /// hot path should hold a reusable [`CycleReport`] and call
    /// `run_cycle_into` so *faulty* cycles are allocation-free too.
    pub fn run_cycle(&mut self, now: Instant) -> CycleReport {
        let mut report = CycleReport::default();
        self.run_cycle_into(now, &mut report);
        report
    }

    /// [`SoftwareWatchdog::run_cycle`] writing into a caller-owned,
    /// capacity-retained report buffer (cleared first). With a reused
    /// buffer, a cycle allocates nothing once the buffer has grown to the
    /// fault-burst high-water mark — the faulty-trial half of the
    /// campaign's allocation-free contract.
    pub fn run_cycle_into(&mut self, now: Instant, report: &mut CycleReport) {
        report.faults.clear();
        report.state_changes.clear();
        self.cycles_run += 1;
        self.obs.record(
            now,
            ObsEvent::CycleCheckStart {
                cycle: self.cycles_run,
            },
        );
        let cycles_before = self.costs.total_cycles();
        self.heartbeat_unit
            .end_of_cycle_into(now, &mut self.costs, &mut report.faults);
        for i in 0..report.faults.len() {
            let fault = report.faults[i];
            let start = report.state_changes.len();
            self.tsi_unit.record_into(fault, &mut report.state_changes);
            self.apply_state_changes(&report.state_changes[start..]);
        }
        if self.obs.is_enabled() {
            let spent = self.costs.total_cycles() - cycles_before;
            self.obs.observe_latency(
                "watchdog.cycle_check",
                CpuModel::default().cycles_to_time(spent),
            );
        }
        self.obs.record(
            now,
            ObsEvent::CycleCheckEnd {
                cycle: self.cycles_run,
                faults: report.faults.len() as u32,
            },
        );
        if !report.faults.is_empty() || !report.state_changes.is_empty() {
            self.outbox.extend_from_slice(&report.faults);
            self.state_outbox.extend_from_slice(&report.state_changes);
        }
    }

    /// Honour `deactivate_on_faulty_task` (clear the AS of every runnable
    /// of a newly faulty task so errors are not re-reported while fault
    /// treatment is pending — this is what keeps the accumulated aliveness
    /// error count at one in the paper's Figure 6) and keep the
    /// `task_faulty` slot cache in sync with the TSI verdicts.
    fn apply_state_changes(&mut self, changes: &[StateChange]) {
        for change in changes {
            if let StateChange::TaskFaulty { task, .. } = change {
                self.on_task_faulty(*task);
            }
        }
    }

    fn on_task_faulty(&mut self, task: TaskId) {
        if let Some(slot) = self.config.task_index().slot_of_task(task) {
            self.task_faulty[slot as usize] = true;
        }
        if self.config.deactivate_on_faulty_task() {
            for runnable in self.config.mapping().runnables_of_task(task) {
                self.heartbeat_unit.set_active(runnable, false);
            }
        }
    }

    /// Sets a runnable's activation status (the AS data resource).
    /// Returns `false` for unmonitored runnables.
    pub fn set_activation(&mut self, runnable: RunnableId, active: bool) -> bool {
        self.heartbeat_unit.set_active(runnable, active)
    }

    /// Dynamically reconfigures the fault hypothesis of a runnable (the
    /// paper's outlook names "dynamic reconfiguration of applications" as
    /// the next step): after a mode change or degraded restart, an
    /// application may legitimately run at a different rate, and the
    /// hypothesis must follow. Counters restart under the new hypothesis.
    pub fn reconfigure(&mut self, hypothesis: crate::config::RunnableHypothesis) {
        self.heartbeat_unit.reconfigure(hypothesis);
    }

    /// Acknowledges fault treatment of a task: clears its error vector and
    /// verdict, re-activates its runnables and resets the PFC position.
    pub fn acknowledge_task_recovered(&mut self, task: TaskId) {
        self.tsi_unit.reset_task(task);
        for runnable in self.config.mapping().runnables_of_task(task) {
            self.heartbeat_unit.set_active(runnable, true);
        }
        if let Some(slot) = self.config.task_index().slot_of_task(task) {
            self.task_faulty[slot as usize] = false;
            self.pfc_units[slot as usize].reset_position();
        }
    }

    /// Live counters of a runnable — the Figure 5/6 plot quantities.
    pub fn counters(&self, runnable: RunnableId) -> Option<RunnableCounters> {
        self.heartbeat_unit.counters(runnable).map(|mut c| {
            c.program_flow_errors = self
                .config
                .runnable_index()
                .slot_of_runnable(runnable)
                .map_or(0, |slot| self.pfc_errors[slot as usize]);
            c
        })
    }

    /// Total program-flow errors detected so far (the "PFC Result" series
    /// summed over runnables).
    pub fn pfc_errors_total(&self) -> u64 {
        self.pfc_units.iter().map(|u| u.errors_detected()).sum()
    }

    /// Current verdict of a task.
    pub fn task_state(&self, task: TaskId) -> HealthState {
        self.tsi_unit.task_state(task)
    }

    /// Current verdict of an application.
    pub fn app_state(&self, app: ApplicationId) -> HealthState {
        self.tsi_unit.app_state(app)
    }

    /// Current global ECU verdict.
    pub fn ecu_state(&self) -> HealthState {
        self.tsi_unit.ecu_state()
    }

    /// Drains the fault outbox (the interface to the Fault Management
    /// Framework).
    pub fn take_faults(&mut self) -> Vec<DetectedFault> {
        std::mem::take(&mut self.outbox)
    }

    /// Drains the state-change outbox.
    pub fn take_state_changes(&mut self) -> Vec<StateChange> {
        std::mem::take(&mut self.state_outbox)
    }

    /// Drains pending faults into `out` (appending), retaining the outbox
    /// allocation — the allocation-free alternative to
    /// [`SoftwareWatchdog::take_faults`] for the campaign hot path.
    pub fn drain_faults_into(&mut self, out: &mut Vec<DetectedFault>) {
        out.extend_from_slice(&self.outbox);
        self.outbox.clear();
    }

    /// Drains pending state changes into `out` (appending), retaining the
    /// outbox allocation.
    pub fn drain_state_changes_into(&mut self, out: &mut Vec<StateChange>) {
        out.extend_from_slice(&self.state_outbox);
        self.state_outbox.clear();
    }

    /// Number of pending (undrained) faults.
    pub fn pending_faults(&self) -> usize {
        self.outbox.len()
    }

    /// Accumulated monitoring cost.
    pub fn costs(&self) -> &CostMeter {
        &self.costs
    }

    /// Watchdog cycles executed.
    pub fn cycles_run(&self) -> u64 {
        self.cycles_run
    }

    /// The configuration in use.
    pub fn config(&self) -> &WatchdogConfig {
        &self.config
    }

    /// The shared compiled configuration (cheap to clone; campaigns hand
    /// it to [`SoftwareWatchdog::from_shared`] for pooled rebuilds).
    pub fn shared_config(&self) -> Arc<WatchdogConfig> {
        Arc::clone(&self.config)
    }

    /// Resets every monitoring unit to its just-built state while keeping
    /// the compiled configuration and the attached observability sink.
    /// After `reset()` the service is indistinguishable from
    /// `SoftwareWatchdog::from_shared(self.shared_config())` — the world-
    /// pooling contract of the campaign engine.
    pub fn reset(&mut self) {
        self.heartbeat_unit.reset();
        for checker in &mut self.pfc_units {
            checker.reset();
        }
        self.tsi_unit.reset();
        self.task_faulty.fill(false);
        self.pfc_errors.fill(0);
        self.outbox.clear();
        self.state_outbox.clear();
        self.change_scratch.clear();
        self.costs = CostMeter::new();
        self.cycles_run = 0;
        self.last_heartbeat_now = Instant::ZERO;
    }

    /// Captures every piece of watchdog runtime state — monitor counters,
    /// PFC positions, TSI verdicts, outboxes, cost meter — into a
    /// deterministic snapshot. The compiled configuration, slot scope and
    /// observability sink are static and stay out of it. Convenience
    /// wrapper over [`SoftwareWatchdog::snapshot_into`].
    pub fn snapshot(&self) -> WatchdogSnapshot {
        let mut snap = WatchdogSnapshot::default();
        self.snapshot_into(&mut snap);
        snap
    }

    /// Captures runtime state into `snap`, retaining the snapshot's buffer
    /// capacity (allocation-free once warm).
    pub fn snapshot_into(&self, snap: &mut WatchdogSnapshot) {
        self.heartbeat_unit.snapshot_into(&mut snap.heartbeat_unit);
        snap.pfc_units
            .resize_with(self.pfc_units.len(), PfcSnapshot::default);
        for (unit, image) in self.pfc_units.iter().zip(snap.pfc_units.iter_mut()) {
            unit.snapshot_into(image);
        }
        self.tsi_unit.snapshot_into(&mut snap.tsi_unit);
        snap.task_faulty.clone_from(&self.task_faulty);
        snap.pfc_errors.clone_from(&self.pfc_errors);
        snap.outbox.clear();
        snap.outbox.extend_from_slice(&self.outbox);
        snap.state_outbox.clear();
        snap.state_outbox.extend_from_slice(&self.state_outbox);
        snap.costs = self.costs;
        snap.cycles_run = self.cycles_run;
        snap.last_heartbeat_now = self.last_heartbeat_now;
    }

    /// Applies a certified per-hyperperiod delta `k` times in closed form.
    /// Only the accumulator header moves (cost meter, cycle counter, last
    /// heartbeat stamp) — everything else was proven content-equal across
    /// the hyperperiod by [`WatchdogSnapshot::derive_cycle_delta`].
    pub fn apply_cycle_delta(&mut self, delta: &WatchdogCycleDelta, k: u64) {
        self.costs.accumulate(&delta.d_costs, k);
        self.cycles_run += delta.d_cycles * k;
        self.last_heartbeat_now += delta.d_last_heartbeat * k;
    }

    /// Restores runtime state captured by [`SoftwareWatchdog::snapshot`];
    /// afterwards the service replays exactly like the snapshotted one.
    /// Every region is copied; buffers restore in place so capacity is
    /// retained.
    pub fn restore_from(&mut self, snap: &WatchdogSnapshot) {
        self.heartbeat_unit.restore_from(&snap.heartbeat_unit);
        for (unit, image) in self.pfc_units.iter_mut().zip(&snap.pfc_units) {
            unit.restore_from(image);
        }
        self.tsi_unit.restore_from(&snap.tsi_unit);
        self.task_faulty.copy_from_slice(&snap.task_faulty);
        self.pfc_errors.copy_from_slice(&snap.pfc_errors);
        self.outbox.clear();
        self.outbox.extend_from_slice(&snap.outbox);
        self.state_outbox.clear();
        self.state_outbox.extend_from_slice(&snap.state_outbox);
        self.change_scratch.clear();
        self.costs = snap.costs;
        self.cycles_run = snap.cycles_run;
        self.last_heartbeat_now = snap.last_heartbeat_now;
    }

    /// The TSI unit (read access for reports).
    pub fn tsi(&self) -> &TaskStateIndication {
        &self.tsi_unit
    }
}

/// A deterministic capture of watchdog runtime state — see
/// [`SoftwareWatchdog::snapshot`] / [`SoftwareWatchdog::restore_from`].
/// Plain data (unit images, no compiled tables or sinks), so node-level
/// snapshots embedding it can be shared across campaign workers.
#[derive(Debug, Clone, Default)]
pub struct WatchdogSnapshot {
    heartbeat_unit: HeartbeatSnapshot,
    pfc_units: Vec<PfcSnapshot>,
    tsi_unit: TsiSnapshot,
    task_faulty: Vec<bool>,
    pfc_errors: Vec<u32>,
    outbox: Vec<DetectedFault>,
    state_outbox: Vec<StateChange>,
    costs: CostMeter,
    cycles_run: u64,
    last_heartbeat_now: Instant,
}

/// The closed-form per-hyperperiod advance of a quiescent watchdog: the
/// cost meter, cycle counter and last-heartbeat stamp move; every monitor
/// counter, verdict and outbox was proven to return to its starting value.
/// Derived by [`WatchdogSnapshot::derive_cycle_delta`], applied by
/// [`SoftwareWatchdog::apply_cycle_delta`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WatchdogCycleDelta {
    d_costs: CostMeter,
    d_cycles: u64,
    /// Shift of `last_heartbeat_now` per hyperperiod: `h` when monitored
    /// runnables are beating, zero when none are (all deactivated).
    d_last_heartbeat: easis_sim::time::Duration,
}

impl WatchdogSnapshot {
    /// Derives the per-hyperperiod delta between two images taken exactly
    /// `h` apart, writing it into `out` and returning `true` — or returns
    /// `false` when the watchdog is not steady over the span: any monitor
    /// counter, PFC position, TSI verdict or undrained outbox entry that
    /// differs means detection state is still evolving and the span must
    /// be simulated event-by-event. The hyperperiod includes every fault-
    /// hypothesis window span, so steady-state counters land back on the
    /// same phase and compare equal here.
    pub fn derive_cycle_delta(
        a: &WatchdogSnapshot,
        b: &WatchdogSnapshot,
        h: easis_sim::time::Duration,
        out: &mut WatchdogCycleDelta,
    ) -> bool {
        let d_last_heartbeat = if b.last_heartbeat_now == a.last_heartbeat_now + h {
            h
        } else if b.last_heartbeat_now == a.last_heartbeat_now {
            easis_sim::time::Duration::ZERO
        } else {
            return false;
        };
        if a.heartbeat_unit != b.heartbeat_unit
            || a.pfc_units != b.pfc_units
            || a.tsi_unit != b.tsi_unit
            || a.task_faulty != b.task_faulty
            || a.pfc_errors != b.pfc_errors
            || a.outbox != b.outbox
            || a.state_outbox != b.state_outbox
            || b.cycles_run < a.cycles_run
            || b.costs.total_cycles() < a.costs.total_cycles()
            || b.costs.operations() < a.costs.operations()
        {
            return false;
        }
        out.d_costs = b.costs.delta_since(&a.costs);
        out.d_cycles = b.cycles_run - a.cycles_run;
        out.d_last_heartbeat = d_last_heartbeat;
        true
    }
}

impl HeartbeatSink for SoftwareWatchdog {
    fn indicate(&mut self, runnable: RunnableId, now: Instant) {
        self.heartbeat(runnable, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RunnableHypothesis;
    use easis_rte::mapping::SystemMapping;
    use easis_sim::time::Duration;

    fn r(n: u32) -> RunnableId {
        RunnableId(n)
    }
    fn t(ms: u64) -> Instant {
        Instant::from_millis(ms)
    }

    /// SafeSpeed-like config: 3 runnables on T0 of app0, chain 0→1→2→0,
    /// aliveness ≥1/cycle, arrival ≤2/cycle, threshold 3.
    fn safespeed_watchdog() -> SoftwareWatchdog {
        let mut mapping = SystemMapping::new();
        let app = mapping.add_application("SafeSpeed");
        mapping.assign_task(TaskId(0), app);
        for i in 0..3 {
            mapping.assign_runnable(r(i), TaskId(0));
        }
        let mut builder = WatchdogConfig::builder(Duration::from_millis(10))
            .mapping(mapping)
            .allow_entry(r(0))
            .allow_flow(r(0), r(1))
            .allow_flow(r(1), r(2))
            .allow_flow(r(2), r(0))
            .error_threshold(3);
        for i in 0..3 {
            builder = builder.monitor(
                RunnableHypothesis::new(r(i))
                    .alive_at_least(1, 1)
                    .arrive_at_most(2, 1),
            );
        }
        SoftwareWatchdog::new(builder.build())
    }

    fn beat_all(wd: &mut SoftwareWatchdog, ms: u64) {
        wd.heartbeat(r(0), t(ms));
        wd.heartbeat(r(1), t(ms));
        wd.heartbeat(r(2), t(ms));
    }

    #[test]
    fn nominal_operation_is_silent() {
        let mut wd = safespeed_watchdog();
        for cycle in 1..=20u64 {
            beat_all(&mut wd, cycle * 10);
            let report = wd.run_cycle(t(cycle * 10));
            assert!(report.faults.is_empty(), "cycle {cycle}: {report:?}");
        }
        assert!(wd.take_faults().is_empty());
        assert_eq!(wd.ecu_state(), HealthState::Ok);
        assert_eq!(wd.cycles_run(), 20);
    }

    #[test]
    fn silent_runnable_yields_aliveness_fault_and_eventually_faulty_task() {
        let mut wd = safespeed_watchdog();
        for cycle in 1..=3u64 {
            wd.heartbeat(r(0), t(cycle * 10));
            wd.heartbeat(r(1), t(cycle * 10));
            // r2 silent.
            let report = wd.run_cycle(t(cycle * 10));
            assert_eq!(report.faults.len(), 1);
            assert_eq!(report.faults[0].kind, FaultKind::Aliveness);
            assert_eq!(report.faults[0].runnable, r(2));
        }
        // Third aliveness error crosses the threshold.
        assert!(wd.task_state(TaskId(0)).is_faulty());
        assert!(wd.app_state(ApplicationId(0)).is_faulty());
    }

    #[test]
    fn faulty_task_deactivates_monitoring() {
        let mut wd = safespeed_watchdog();
        for cycle in 1..=6u64 {
            let _ = wd.run_cycle(t(cycle * 10)); // everything silent
        }
        // Threshold 3 → faulty after cycle 3; afterwards AS cleared, so the
        // error counters freeze at 3.
        let c = wd.counters(r(0)).unwrap();
        assert_eq!(c.aliveness_errors, 3);
        assert!(!c.activation);
    }

    #[test]
    fn pfc_violation_is_reported_immediately() {
        let mut wd = safespeed_watchdog();
        wd.heartbeat(r(0), t(1));
        wd.heartbeat(r(2), t(2)); // skipped r1
        let faults = wd.take_faults();
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].kind, FaultKind::ProgramFlow);
        assert_eq!(faults[0].runnable, r(2));
        assert_eq!(wd.pfc_errors_total(), 1);
        assert_eq!(wd.counters(r(2)).unwrap().program_flow_errors, 1);
    }

    #[test]
    fn figure6_collaboration_pfc_reaches_threshold_before_aliveness() {
        // Reconfigure aliveness over 4 cycles so the heartbeat unit reports
        // at most once before the PFC crosses the threshold — the paper's
        // Figure 6 shape.
        let mut mapping = SystemMapping::new();
        let app = mapping.add_application("SafeSpeed");
        mapping.assign_task(TaskId(0), app);
        for i in 0..3 {
            mapping.assign_runnable(r(i), TaskId(0));
        }
        let mut builder = WatchdogConfig::builder(Duration::from_millis(10))
            .mapping(mapping)
            .allow_entry(r(0))
            .allow_flow(r(0), r(1))
            .allow_flow(r(1), r(2))
            .allow_flow(r(2), r(0))
            .error_threshold(3);
        for i in 0..3 {
            builder = builder.monitor(RunnableHypothesis::new(r(i)).alive_at_least(4, 4));
        }
        let mut wd = SoftwareWatchdog::new(builder.build());
        // Each period the branch skips r1: 0→2 violation each time.
        for cycle in 1..=6u64 {
            wd.heartbeat(r(0), t(cycle * 10));
            wd.heartbeat(r(2), t(cycle * 10));
            wd.run_cycle(t(cycle * 10));
        }
        // 3 PFC errors on r2 crossed the threshold at cycle 3 → task faulty,
        // monitoring deactivated → at most one aliveness error total.
        assert!(wd.task_state(TaskId(0)).is_faulty());
        assert_eq!(wd.counters(r(2)).unwrap().program_flow_errors, 3);
        let aliveness_total: u32 = (0..3)
            .map(|i| wd.counters(r(i)).unwrap().aliveness_errors)
            .sum();
        assert!(aliveness_total <= 1, "got {aliveness_total}");
    }

    #[test]
    fn arrival_rate_fault_on_duplicate_dispatch() {
        // The whole chain executes three times in one cycle (excessive
        // dispatch): sequence stays valid, but ARC exceeds max 2.
        let mut wd = safespeed_watchdog();
        for _ in 0..3 {
            beat_all(&mut wd, 5);
        }
        let report = wd.run_cycle(t(10));
        assert_eq!(report.faults.len(), 3);
        assert!(report
            .faults
            .iter()
            .all(|f| f.kind == FaultKind::ArrivalRate));
        assert_eq!(wd.pfc_errors_total(), 0);
    }

    #[test]
    fn acknowledge_recovery_rearms_monitoring() {
        let mut wd = safespeed_watchdog();
        for cycle in 1..=3u64 {
            wd.run_cycle(t(cycle * 10));
        }
        assert!(wd.task_state(TaskId(0)).is_faulty());
        wd.acknowledge_task_recovered(TaskId(0));
        assert_eq!(wd.task_state(TaskId(0)), HealthState::Ok);
        assert!(wd.counters(r(0)).unwrap().activation);
        // Beats flow again from the entry point.
        beat_all(&mut wd, 100);
        let report = wd.run_cycle(t(100));
        assert!(report.faults.is_empty());
    }

    #[test]
    fn state_changes_are_drained_separately() {
        let mut wd = safespeed_watchdog();
        for cycle in 1..=3u64 {
            wd.run_cycle(t(cycle * 10));
        }
        let changes = wd.take_state_changes();
        assert!(changes
            .iter()
            .any(|c| matches!(c, StateChange::TaskFaulty { .. })));
        assert!(wd.take_state_changes().is_empty());
    }

    #[test]
    fn costs_accumulate_per_operation() {
        let mut wd = safespeed_watchdog();
        beat_all(&mut wd, 5);
        let after_beats = wd.costs().total_cycles();
        assert!(after_beats > 0);
        wd.run_cycle(t(10));
        assert!(wd.costs().total_cycles() > after_beats);
    }

    #[test]
    fn heartbeat_sink_trait_routes_to_service() {
        let mut wd = safespeed_watchdog();
        HeartbeatSink::indicate(&mut wd, r(0), t(1));
        assert_eq!(wd.counters(r(0)).unwrap().ac, 1);
    }

    #[test]
    fn snapshot_restore_replays_identically() {
        // Run a faulty prefix, capture, run a divergent tail, restore, and
        // check the tail replays exactly — also after a reset in between.
        let mut wd = safespeed_watchdog();
        wd.heartbeat(r(0), t(5));
        wd.heartbeat(r(2), t(6)); // skipped r1 → PFC violation in outbox
        wd.run_cycle(t(10));
        let mut snap = WatchdogSnapshot::default();
        wd.snapshot_into(&mut snap);

        let tail = |wd: &mut SoftwareWatchdog| {
            wd.heartbeat(r(0), t(15));
            wd.heartbeat(r(1), t(16));
            wd.heartbeat(r(2), t(17));
            let report = wd.run_cycle(t(20));
            (
                report,
                wd.take_faults(),
                wd.counters(r(2)).unwrap(),
                wd.costs().total_cycles(),
            )
        };
        let first = tail(&mut wd);

        wd.restore_from(&snap);
        let second = tail(&mut wd);
        assert_eq!(first, second, "restore must replay identically");

        wd.reset();
        wd.restore_from(&snap);
        let third = tail(&mut wd);
        assert_eq!(first, third, "restore after reset must replay identically");
    }

    #[test]
    fn set_activation_controls_monitoring() {
        let mut wd = safespeed_watchdog();
        assert!(wd.set_activation(r(2), false));
        wd.heartbeat(r(0), t(1));
        wd.heartbeat(r(1), t(2));
        let report = wd.run_cycle(t(10)); // r2 silent but deactivated
        assert!(report.faults.is_empty());
        assert!(!wd.set_activation(r(99), false));
    }
}

/// A rendered supervision snapshot — see
/// [`SoftwareWatchdog::supervision_report`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisionReport {
    /// One line per monitored runnable: counters + attributed errors.
    pub runnable_lines: Vec<String>,
    /// One line per mapped task: verdict + error-vector summary.
    pub task_lines: Vec<String>,
    /// Application and ECU state summary.
    pub state_line: String,
}

impl std::fmt::Display for SupervisionReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "-- supervision report --")?;
        for line in &self.runnable_lines {
            writeln!(f, "{line}")?;
        }
        for line in &self.task_lines {
            writeln!(f, "{line}")?;
        }
        writeln!(f, "{}", self.state_line)
    }
}

impl SoftwareWatchdog {
    /// Generates the paper's "individual supervision reports on runnables"
    /// plus the derived task/application/ECU states, as a displayable
    /// snapshot (what ControlDesk showed the experimenter).
    pub fn supervision_report(&self) -> SupervisionReport {
        let mut runnable_lines = Vec::new();
        for runnable in self.config.monitored() {
            let c = self.counters(runnable).expect("monitored");
            runnable_lines.push(format!(
                "  {runnable}: AS={} AC={} CCA={} ARC={} CCAR={} errors(alive/rate/flow)={}/{}/{}",
                if c.activation { "on" } else { "off" },
                c.ac,
                c.cca,
                c.arc,
                c.ccar,
                c.aliveness_errors,
                c.arrival_rate_errors,
                c.program_flow_errors,
            ));
        }
        let mut task_lines = Vec::new();
        for task in self.config.mapping().tasks() {
            let vector = self.tsi_unit.error_vector(task);
            let total: u32 = vector.iter().map(|e| e.count).sum();
            task_lines.push(format!(
                "  {task}: state={} error-vector-elements={} total-errors={}",
                self.tsi_unit.task_state(task),
                vector.len(),
                total,
            ));
        }
        let faulty_apps = (0..self.config.mapping().application_count() as u32)
            .filter(|&a| {
                self.tsi_unit
                    .app_state(easis_rte::mapping::ApplicationId(a))
                    .is_faulty()
            })
            .count();
        let state_line = format!(
            "  applications faulty: {faulty_apps}/{}; global ECU state: {}",
            self.config.mapping().application_count(),
            self.tsi_unit.ecu_state(),
        );
        SupervisionReport {
            runnable_lines,
            task_lines,
            state_line,
        }
    }
}

#[cfg(test)]
mod report_tests {
    use super::*;
    use crate::config::RunnableHypothesis;
    use easis_rte::mapping::SystemMapping;
    use easis_sim::time::Duration;

    #[test]
    fn supervision_report_covers_everything() {
        let mut mapping = SystemMapping::new();
        let app = mapping.add_application("SafeSpeed");
        mapping.assign_task(TaskId(0), app);
        mapping.assign_runnable(RunnableId(0), TaskId(0));
        mapping.assign_runnable(RunnableId(1), TaskId(0));
        let config = WatchdogConfig::builder(Duration::from_millis(10))
            .mapping(mapping)
            .monitor(RunnableHypothesis::new(RunnableId(0)).alive_at_least(1, 1))
            .monitor(RunnableHypothesis::new(RunnableId(1)).alive_at_least(1, 1))
            .error_threshold(1)
            .build();
        let mut wd = SoftwareWatchdog::new(config);
        wd.heartbeat(RunnableId(0), Instant::from_millis(5));
        wd.run_cycle(Instant::from_millis(10)); // R1 silent → task faulty
        let report = wd.supervision_report();
        assert_eq!(report.runnable_lines.len(), 2);
        assert_eq!(report.task_lines.len(), 1);
        assert!(report.task_lines[0].contains("state=faulty"));
        assert!(report.state_line.contains("applications faulty: 1/1"));
        let text = report.to_string();
        assert!(text.contains("supervision report"));
        assert!(text.contains("R0") && text.contains("R1"));
    }

    #[test]
    fn healthy_report_shows_ok_everywhere() {
        let config = WatchdogConfig::builder(Duration::from_millis(10))
            .monitor(RunnableHypothesis::new(RunnableId(0)).alive_at_least(0, 1))
            .build();
        let wd = SoftwareWatchdog::new(config);
        let report = wd.supervision_report();
        assert_eq!(report.runnable_lines.len(), 1);
        assert!(report.runnable_lines[0].contains("errors(alive/rate/flow)=0/0/0"));
        assert!(report.state_line.contains("ECU state: ok"));
    }
}
