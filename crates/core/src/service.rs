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
//! * every detection is appended to the node's one [`DetectionLog`],
//!   which also takes the kernel's and the hardware watchdog's
//!   detections ([`SoftwareWatchdog::log_detection`]); the Fault
//!   Management Framework (the second interface of §4.4) receives the
//!   Software Watchdog's entries past a hand-over cursor, and state
//!   changes from an outbox.
//!
//! CPU cost of every monitoring action is charged to a [`CostMeter`] so the
//! overhead experiments can compare against signature-based control-flow
//! checking.

use crate::config::WatchdogConfig;
use crate::detection::{Detection, DetectionLog, DetectorId};
use crate::heartbeat::HeartbeatMonitor;
use crate::pfc::{CompiledFlowTable, FlowVerdict, PfcState, LOOKUP_COST_CYCLES};
use crate::report::{DetectedFault, FaultKind, HealthState, RunnableCounters, StateChange};
use crate::tsi::{TaskStateIndication, TsiState};
use easis_obs::{FaultClass, ObsEvent, ObsSink};
use easis_osek::task::TaskId;
use easis_rte::mapping::ApplicationId;
use easis_rte::runnable::{HeartbeatSink, RunnableId};
use easis_sim::cpu::{CostMeter, CpuModel};
use easis_sim::growth::LogGrowth;
use easis_sim::time::{Duration, Instant};
use std::sync::Arc;

/// Report of one watchdog cycle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CycleReport {
    /// Faults detected in this cycle (heartbeat checks; PFC faults are
    /// detected between cycles and appear in the detection log
    /// immediately).
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
    /// The configuration, shared: a fault-injection campaign builds it
    /// once and every trial's service instance points at the same frozen
    /// artifact.
    config: Arc<WatchdogConfig>,
    /// The compiled look-up table every task scope's flow checker reads.
    flow: CompiledFlowTable,
    /// The TSI unit's wiring (mapping and threshold).
    tsi: TaskStateIndication,
    /// The task hosting each runnable, by runnable id: its PFC scope is
    /// that task's, and a `None` or an id past the end is in the unmapped
    /// scope. Frozen at construction.
    scope_of: Vec<Option<TaskId>>,
    /// Capacity-retained scratch for TSI state changes on the heartbeat
    /// (PFC violation) path.
    change_scratch: Vec<StateChange>,
    obs: ObsSink,
    state: WatchdogState,
}

easis_sim::clone_fields! {
    /// Everything a watchdog run can change — monitor counters, PFC
    /// positions, TSI vectors and verdicts, the state-change outbox, cost
    /// meter, the detection log — and so
    /// the watchdog's checkpoint ([`SoftwareWatchdog::state`],
    /// [`SoftwareWatchdog::restore`]). The configuration, the compiled
    /// flow table, the scope table and the observability sink are wiring
    /// and stay out.
    #[derive(Debug, Default, PartialEq)]
    pub struct WatchdogState {
        heartbeat: HeartbeatMonitor,
        /// One flow-checker state per task id up to the largest hosting
        /// task (runnables of different tasks interleave freely under
        /// preemption; only the sequence *within* a task's chart is
        /// constrained), plus one trailing state shared by all runnables
        /// not mapped to any task.
        pfc: Vec<PfcState>,
        tsi: TsiState,
        state_outbox: Vec<StateChange>,
        costs: CostMeter,
        cycles_run: u64,
        /// The node's one record of detection, last because it is the
        /// longest field to compare.
        log: DetectionLog,
    }
}

impl SoftwareWatchdog {
    /// Creates the service from its configuration.
    pub fn new(config: WatchdogConfig) -> Self {
        SoftwareWatchdog::from_shared(Arc::new(config))
    }

    /// Creates the service from an already-built shared configuration.
    /// Campaigns use this to build one node per worker without rebuilding
    /// the config for every trial.
    pub fn from_shared(config: Arc<WatchdogConfig>) -> Self {
        let heartbeat = HeartbeatMonitor::new(
            config
                .monitored()
                .filter_map(|r| config.hypothesis(r).copied()),
        );
        let tsi = TaskStateIndication::new(config.mapping().clone(), config.error_threshold());
        let mapping = config.mapping();
        let mut scope_of = Vec::new();
        for runnable in mapping.runnables() {
            scope_of.resize(runnable.index() + 1, None);
            scope_of[runnable.index()] = mapping.task_of(runnable);
        }
        let unmapped = scope_of
            .iter()
            .flatten()
            .map(|t| t.index() + 1)
            .max()
            .unwrap_or(0);
        let state = WatchdogState {
            heartbeat,
            // One flow-checker state per task scope plus the shared
            // unmapped scope, all over the one compiled table.
            pfc: vec![PfcState::default(); unmapped + 1],
            tsi: TsiState::new(&tsi),
            ..WatchdogState::default()
        };
        SoftwareWatchdog {
            flow: config.flow_table().compile(),
            config,
            tsi,
            scope_of,
            change_scratch: Vec::new(),
            obs: ObsSink::disabled(),
            state,
        }
    }

    /// Attaches an observability sink, which the service hands to all
    /// three monitoring units as they record. A disabled sink — the
    /// default — makes every recording call a no-op, and recording never
    /// charges the [`CostMeter`], so attaching a sink does not perturb the
    /// simulated cost model.
    pub fn attach_obs(&mut self, obs: ObsSink) {
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
    /// nominal path is array work indexed by id — no map probes, no
    /// allocations.
    pub fn heartbeat(&mut self, runnable: RunnableId, now: Instant) {
        let task = self.task_hosting(runnable);
        // A runnable whose hosting task the TSI holds faulty is no longer
        // supervised (its AS is cleared and its flow is ignored) until
        // fault treatment acknowledges recovery — this is why the paper's
        // Figure 6 plots freeze once the task state flips. Runnables in
        // the unmapped scope are hosted by no task, so they cannot be
        // gated here.
        if self.config.deactivate_on_faulty_task()
            && task.is_some_and(|task| self.state.tsi.task_state(task).is_faulty())
        {
            self.state.costs.charge(crate::heartbeat::HEARTBEAT_COST_CYCLES);
            return;
        }
        let state = &mut self.state;
        state
            .heartbeat
            .record(runnable, now, &mut state.costs, &self.obs);
        state.costs.charge(LOOKUP_COST_CYCLES);
        let unmapped = state.pfc.len() - 1;
        let scope = task.map_or(unmapped, TaskId::index);
        let verdict = state.pfc[scope].observe(&self.flow, runnable);
        if let FlowVerdict::Violation { .. } = verdict {
            self.obs.record(
                now,
                ObsEvent::FaultDetected {
                    runnable,
                    kind: FaultClass::ProgramFlow,
                },
            );
            let fault = DetectedFault {
                at: now,
                runnable,
                kind: FaultKind::ProgramFlow,
            };
            state.log.append(fault.into());
            let Some(task) = task else {
                return; // an unmapped runnable counts under no task
            };
            let mut changes = std::mem::take(&mut self.change_scratch);
            changes.clear();
            self.state
                .tsi
                .record_into(&self.tsi, fault, task, &mut changes, &self.obs);
            self.apply_state_changes(&changes);
            self.state.state_outbox.extend_from_slice(&changes);
            self.change_scratch = changes;
        }
    }

    /// The task hosting `runnable`, read off the scope table; `None` for
    /// a runnable in the unmapped scope.
    fn task_hosting(&self, runnable: RunnableId) -> Option<TaskId> {
        self.scope_of.get(runnable.index()).copied().flatten()
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
        let state = &mut self.state;
        state.cycles_run += 1;
        self.obs.record(
            now,
            ObsEvent::CycleCheckStart {
                cycle: state.cycles_run,
            },
        );
        let cycles_before = state.costs.total_cycles();
        state
            .heartbeat
            .end_of_cycle_into(now, &mut state.costs, &mut report.faults, &self.obs);
        for i in 0..report.faults.len() {
            let fault = report.faults[i];
            self.state.log.append(fault.into());
            let Some(task) = self.task_hosting(fault.runnable) else {
                continue;
            };
            let start = report.state_changes.len();
            self.state
                .tsi
                .record_into(&self.tsi, fault, task, &mut report.state_changes, &self.obs);
            self.apply_state_changes(&report.state_changes[start..]);
        }
        let state = &mut self.state;
        if self.obs.is_enabled() {
            let spent = state.costs.total_cycles() - cycles_before;
            self.obs.observe_latency(
                "watchdog.cycle_check",
                CpuModel::default().cycles_to_time(spent),
            );
        }
        self.obs.record(
            now,
            ObsEvent::CycleCheckEnd {
                cycle: state.cycles_run,
                faults: report.faults.len() as u32,
            },
        );
        state.state_outbox.extend_from_slice(&report.state_changes);
    }

    /// Honour `deactivate_on_faulty_task`: clear the AS of every runnable
    /// of a newly faulty task so errors are not re-reported while fault
    /// treatment is pending — this is what keeps the accumulated aliveness
    /// error count at one in the paper's Figure 6.
    fn apply_state_changes(&mut self, changes: &[StateChange]) {
        if !self.config.deactivate_on_faulty_task() {
            return;
        }
        for change in changes {
            if let StateChange::TaskFaulty { task, .. } = change {
                for runnable in self.config.mapping().runnables_of_task(*task) {
                    self.state.heartbeat.set_active(runnable, false);
                }
            }
        }
    }

    /// Dynamically reconfigures the fault hypothesis of a runnable (the
    /// paper's outlook names "dynamic reconfiguration of applications" as
    /// the next step): after a mode change or degraded restart, an
    /// application may legitimately run at a different rate, and the
    /// hypothesis must follow. Counters restart under the new hypothesis.
    pub fn reconfigure(&mut self, hypothesis: crate::config::RunnableHypothesis) {
        self.state.heartbeat.reconfigure(hypothesis);
    }

    /// Acknowledges fault treatment of a task: clears its error vector and
    /// verdict, re-activates its runnables and resets the PFC position.
    pub fn acknowledge_task_recovered(&mut self, task: TaskId) {
        let state = &mut self.state;
        state.tsi.reset_task(&self.tsi, task);
        for runnable in self.config.mapping().runnables_of_task(task) {
            state.heartbeat.set_active(runnable, true);
        }
        // A task past the last hosting task owns no scope: the last scope
        // is the unmapped one, which its recovery must leave alone.
        let unmapped = state.pfc.len() - 1;
        if task.index() < unmapped {
            state.pfc[task.index()].reset_position();
        }
    }

    /// Live counters of a runnable — the Figure 5/6 plot quantities. The
    /// three error counts are counts of the runnable's entries in the
    /// detection log.
    pub fn counters(&self, runnable: RunnableId) -> Option<RunnableCounters> {
        let log = &self.state.log;
        self.state.heartbeat.counters(runnable).map(|c| RunnableCounters {
            aliveness_errors: log.count_on(DetectorId::SwAliveness, runnable),
            arrival_rate_errors: log.count_on(DetectorId::SwArrivalRate, runnable),
            program_flow_errors: log.count_on(DetectorId::SwProgramFlow, runnable),
            ..c
        })
    }

    /// Total program-flow errors detected so far (the "PFC Result" series
    /// summed over runnables).
    pub fn pfc_errors_total(&self) -> u64 {
        self.state.log.count(DetectorId::SwProgramFlow) as u64
    }

    /// Current verdict of a task.
    pub fn task_state(&self, task: TaskId) -> HealthState {
        self.state.tsi.task_state(task)
    }

    /// Current verdict of an application.
    pub fn app_state(&self, app: ApplicationId) -> HealthState {
        self.state.tsi.app_state(app)
    }

    /// Current global ECU verdict.
    pub fn ecu_state(&self) -> HealthState {
        self.state.tsi.ecu_state()
    }

    /// Hands the faults detected since the last hand-over to the Fault
    /// Management Framework: appends them to `out`, in detection order,
    /// and moves the log's cursor past them. The other detectors' entries
    /// stay in the log only.
    pub fn hand_over_faults(&mut self, out: &mut Vec<DetectedFault>) {
        self.state.log.hand_over_into(out);
    }

    /// Drains pending state changes into `out` (appending), retaining the
    /// outbox allocation.
    pub fn drain_state_changes_into(&mut self, out: &mut Vec<StateChange>) {
        out.extend_from_slice(&self.state.state_outbox);
        self.state.state_outbox.clear();
    }

    /// Number of faults not handed over yet.
    pub fn pending_faults(&self) -> usize {
        self.state.log.pending_faults()
    }

    /// The detection log: every detection of every detector so far.
    pub fn log(&self) -> &DetectionLog {
        &self.state.log
    }

    /// Appends the detection of a detector outside the Software Watchdog
    /// (the kernel's deadline and budget checks, the hardware watchdog)
    /// to the log.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) on a Software Watchdog detector: its units
    /// log their own detections.
    pub fn log_detection(&mut self, detection: Detection) {
        debug_assert!(!detection.detector.is_software_watchdog());
        self.state.log.append(detection);
    }

    /// Accumulated monitoring cost.
    pub fn costs(&self) -> &CostMeter {
        &self.state.costs
    }

    /// Watchdog cycles executed.
    pub fn cycles_run(&self) -> u64 {
        self.state.cycles_run
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

    /// The watchdog's runtime state — its checkpoint (see
    /// [`WatchdogState`]).
    pub fn state(&self) -> &WatchdogState {
        &self.state
    }

    /// Restores runtime state captured from [`SoftwareWatchdog::state`];
    /// afterwards the service replays exactly like the captured one. One
    /// `clone_from` into the retained buffers.
    pub fn restore(&mut self, state: &WatchdogState) {
        self.state.clone_from(state);
    }

    /// Jumps the watchdog, at `now`, `k` hyperperiods ahead by a
    /// certified delta ([`WatchdogState::advance`] on the live state).
    pub fn advance(&mut self, delta: &WatchdogCycleDelta, now: Instant, k: u64) {
        self.state.advance(delta, now, k);
    }
}

/// The per-hyperperiod advance of the watchdog: its cost meter and cycle
/// count, the entries its detection log gains and the growth of the TSI
/// counts of `Faulty` tasks. Measured by [`SoftwareWatchdog::measure`],
/// applied by [`WatchdogState::advance`]; the buffers are reused, so
/// steady-state certification allocates nothing once warm.
#[derive(Debug, Clone, Default)]
pub struct WatchdogCycleDelta {
    d_costs: CostMeter,
    d_cycles: u64,
    log: LogGrowth<Detection>,
    d_tsi: Vec<u64>,
}

impl SoftwareWatchdog {
    /// Measures the advances between two states `h` apart, the first
    /// sampled at `since`: the cost meter and cycle count, the entries the
    /// detection log gained (`false` when it holds fewer), and the TSI
    /// counts of tasks already `Faulty` in `a`
    /// ([`TsiState::measure_latched`]) — the counts a faulty steady state
    /// raises every hyperperiod without reading them back. Certification
    /// advances `a` by them once and compares the result with `b` whole:
    /// every monitor counter, PFC position, verdict and the state-change
    /// outbox must be back where it was, and the log must have gained its
    /// entries with as many left to hand over. The hyperperiod includes
    /// every fault-hypothesis window span, so steady-state counters land
    /// back on the same phase.
    pub fn measure(
        &self,
        a: &WatchdogState,
        b: &WatchdogState,
        since: Instant,
        h: Duration,
        delta: &mut WatchdogCycleDelta,
    ) -> bool {
        if !DetectionLog::measure(&a.log, &b.log, since, h, &mut delta.log) {
            return false;
        }
        delta.d_costs = b.costs.delta_since(&a.costs);
        delta.d_cycles = b.cycles_run.saturating_sub(a.cycles_run);
        TsiState::measure_latched(&a.tsi, &b.tsi, &self.tsi, &mut delta.d_tsi);
        true
    }
}

impl WatchdogState {
    /// Whether two states hold the same task, application and ECU
    /// verdicts (the TSI's): one of certification's cheap refusals, run
    /// before anything is measured.
    pub fn same_verdicts(a: &Self, b: &Self) -> bool {
        TsiState::same_verdicts(&a.tsi, &b.tsi)
    }

    /// Advances the state, sampled at `now`, `k` hyperperiods by `delta`:
    /// the cost meter, cycle count and latched TSI counts rise by `k`
    /// times their growth, and the log gains `k` copies of its entries,
    /// its cursor moving with them. With k = 1 on a certification sample,
    /// with k on the live state when jumping.
    pub fn advance(&mut self, delta: &WatchdogCycleDelta, now: Instant, k: u64) {
        self.costs.accumulate(&delta.d_costs, k);
        self.cycles_run += delta.d_cycles * k;
        self.tsi.advance_counts(&delta.d_tsi, k);
        self.log.advance(&delta.log, now, k);
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

    /// A latched faulty steady state, one 10 ms cycle per hyperperiod:
    /// r1 stays silent (an aliveness error every cycle), r2 follows r0
    /// directly (a PFC violation every cycle, pending in the log until the
    /// cycle's hand-over), and monitoring continues on the faulty task. A
    /// sample between the heartbeats and the check, advanced by what it
    /// measured against the next one, equals it; advanced k cycles from
    /// the later sample, it equals k simulated cycles.
    #[test]
    fn a_faulty_steady_state_replays_its_detection_counts_and_pending_faults() {
        let mut mapping = SystemMapping::new();
        let app = mapping.add_application("SafeSpeed");
        mapping.assign_task(TaskId(0), app);
        let mut builder = WatchdogConfig::builder(Duration::from_millis(10))
            .allow_entry(r(0))
            .allow_flow(r(0), r(1))
            .allow_flow(r(1), r(2))
            .allow_flow(r(2), r(0))
            .error_threshold(3)
            .deactivate_on_faulty_task(false);
        for i in 0..3 {
            mapping.assign_runnable(r(i), TaskId(0));
            builder = builder.monitor(
                RunnableHypothesis::new(r(i))
                    .alive_at_least(1, 1)
                    .arrive_at_most(2, 1),
            );
        }
        let mut wd = SoftwareWatchdog::new(builder.mapping(mapping).build());
        let (mut faults, mut changes) = (Vec::new(), Vec::new());
        // Runs cycle `c`'s heartbeats at c·10 − 5 ms and returns the state
        // there, then its check at c·10 ms, handed over like the node does.
        let mut cycle = |wd: &mut SoftwareWatchdog, c: u64| {
            wd.heartbeat(r(0), t(c * 10 - 5));
            wd.heartbeat(r(2), t(c * 10 - 5));
            let sample = wd.state().clone();
            let _ = wd.run_cycle(t(c * 10));
            wd.hand_over_faults(&mut faults);
            wd.drain_state_changes_into(&mut changes);
            sample
        };
        for c in 1..=4 {
            cycle(&mut wd, c);
        }
        assert!(wd.task_state(TaskId(0)).is_faulty());
        let a = cycle(&mut wd, 5);
        let b = cycle(&mut wd, 6);
        assert_eq!(b.log.pending_faults(), 1, "a PFC fault is pending at the sample");
        let h = Duration::from_millis(10);
        let mut delta = WatchdogCycleDelta::default();
        assert!(wd.measure(&a, &b, t(45), h, &mut delta));
        let mut advanced = a.clone();
        advanced.advance(&delta, t(45), 1);
        assert_eq!(advanced, b);
        let mut jumped = b.clone();
        jumped.advance(&delta, t(55), 3);
        let mut simulated = b;
        for c in 7..=9 {
            simulated = cycle(&mut wd, c);
        }
        assert_eq!(jumped, simulated);
        assert_eq!(wd.counters(r(1)).unwrap().aliveness_errors, 9);
    }

    /// Ids with gaps: runnables 2 and 7 are monitored on tasks 1 and 4,
    /// and runnable 12 is only in the flow table, so it runs in the
    /// unmapped scope, which sits at index 5, after task 4's.
    #[test]
    fn runnables_and_tasks_with_gaps_are_addressed_by_id() {
        let mut mapping = SystemMapping::new();
        let app = mapping.add_application("Gaps");
        mapping.assign_task(TaskId(1), app);
        mapping.assign_task(TaskId(4), app);
        mapping.assign_runnable(r(2), TaskId(1));
        mapping.assign_runnable(r(7), TaskId(4));
        let mut wd = SoftwareWatchdog::new(
            WatchdogConfig::builder(Duration::from_millis(10))
                .mapping(mapping)
                .monitor(RunnableHypothesis::new(r(7)).alive_at_least(1, 1))
                .monitor(RunnableHypothesis::new(r(2)).alive_at_least(1, 1))
                .allow_entry(r(12))
                .error_threshold(1)
                .build(),
        );
        // Runnable 12 enters its sequence; recovering task 5, which hosts
        // nothing, leaves its position alone, so a second 12 is no entry.
        wd.heartbeat(r(12), t(1));
        wd.acknowledge_task_recovered(TaskId(5));
        wd.heartbeat(r(12), t(2));
        let mut faults = Vec::new();
        wd.hand_over_faults(&mut faults);
        assert_eq!(
            faults,
            [DetectedFault {
                at: t(2),
                runnable: r(12),
                kind: FaultKind::ProgramFlow
            }]
        );
        // At threshold 1 a violation counted under a task turns it faulty.
        let mut changes = Vec::new();
        wd.drain_state_changes_into(&mut changes);
        assert!(changes.is_empty(), "{changes:?}");
        assert!((0..=5).all(|task| wd.task_state(TaskId(task)) == HealthState::Ok));
        // Both silent runnables are reported, in ascending id order.
        let report = wd.run_cycle(t(10));
        let runnables: Vec<_> = report.faults.iter().map(|f| f.runnable).collect();
        assert_eq!(runnables, [r(2), r(7)]);
        assert!(wd.task_state(TaskId(1)).is_faulty() && wd.task_state(TaskId(4)).is_faulty());
    }

    #[test]
    fn nominal_operation_is_silent() {
        let mut wd = safespeed_watchdog();
        for cycle in 1..=20u64 {
            beat_all(&mut wd, cycle * 10);
            let report = wd.run_cycle(t(cycle * 10));
            assert!(report.faults.is_empty(), "cycle {cycle}: {report:?}");
        }
        assert!(wd.log().is_empty());
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
        assert_eq!(wd.pending_faults(), 1);
        let mut faults = Vec::new();
        wd.hand_over_faults(&mut faults);
        assert_eq!(wd.pending_faults(), 0);
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].kind, FaultKind::ProgramFlow);
        assert_eq!(faults[0].runnable, r(2));
        assert_eq!(wd.pfc_errors_total(), 1);
        assert_eq!(wd.counters(r(2)).unwrap().program_flow_errors, 1);
    }

    #[test]
    fn pfc_violations_are_recorded_to_the_sink() {
        let mut wd = safespeed_watchdog();
        let sink = ObsSink::enabled(16);
        wd.attach_obs(sink.clone());
        wd.heartbeat(r(0), t(1));
        wd.heartbeat(r(2), t(2)); // skipped r1
        let detections: Vec<_> = sink
            .events()
            .into_iter()
            .filter(|e| matches!(e.event, ObsEvent::FaultDetected { .. }))
            .collect();
        assert_eq!(detections.len(), 1);
        assert_eq!(detections[0].at, t(2));
        assert_eq!(
            detections[0].event,
            ObsEvent::FaultDetected { runnable: r(2), kind: FaultClass::ProgramFlow }
        );
        assert_eq!(sink.counter("fault_detected"), 1);
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
        let mut changes = Vec::new();
        wd.drain_state_changes_into(&mut changes);
        assert!(changes
            .iter()
            .any(|c| matches!(c, StateChange::TaskFaulty { .. })));
        changes.clear();
        wd.drain_state_changes_into(&mut changes);
        assert!(changes.is_empty());
    }

    #[test]
    fn costs_accumulate_per_operation() {
        let mut wd = safespeed_watchdog();
        beat_all(&mut wd, 5);
        let after_beats = wd.costs().total_cycles();
        // Each heartbeat pays the counter update and one flow look-up.
        assert_eq!(
            after_beats,
            3 * (crate::heartbeat::HEARTBEAT_COST_CYCLES + LOOKUP_COST_CYCLES)
        );
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
        // check the tail replays exactly — also after rewinding to a
        // capture of the fresh unit in between.
        let mut wd = safespeed_watchdog();
        let fresh = wd.state().clone();
        wd.heartbeat(r(0), t(5));
        wd.heartbeat(r(2), t(6)); // skipped r1 → PFC violation, handed over below
        wd.run_cycle(t(10));
        let mut snap = WatchdogState::default();
        snap.clone_from(wd.state());

        let tail = |wd: &mut SoftwareWatchdog| {
            wd.heartbeat(r(0), t(15));
            wd.heartbeat(r(1), t(16));
            wd.heartbeat(r(2), t(17));
            let report = wd.run_cycle(t(20));
            let mut faults = Vec::new();
            wd.hand_over_faults(&mut faults);
            (
                report,
                faults,
                wd.counters(r(2)).unwrap(),
                wd.costs().total_cycles(),
            )
        };
        let first = tail(&mut wd);

        wd.restore(&snap);
        assert_eq!(wd.state(), &snap);
        let second = tail(&mut wd);
        assert_eq!(first, second, "restore must replay identically");

        wd.restore(&fresh);
        wd.restore(&snap);
        let third = tail(&mut wd);
        assert_eq!(
            first, third,
            "restore after a rewind must replay identically"
        );
    }

    #[test]
    fn reconfigure_keeps_error_history() {
        let mut wd = safespeed_watchdog();
        wd.run_cycle(t(10)); // everything silent
        wd.reconfigure(RunnableHypothesis::new(r(0)).alive_at_least(1, 2));
        assert_eq!(wd.counters(r(0)).unwrap().aliveness_errors, 1);
    }

    #[test]
    fn other_detectors_share_the_log_but_not_the_hand_over() {
        let mut wd = safespeed_watchdog();
        wd.log_detection(Detection::on_task(t(3), DetectorId::ExecTimeMonitor, TaskId(0)));
        wd.heartbeat(r(0), t(4));
        wd.heartbeat(r(2), t(5)); // skipped r1
        wd.log_detection(Detection::expiry(t(2)));
        assert_eq!(wd.log().entries().len(), 3);
        assert_eq!(wd.pending_faults(), 1);
        let mut faults = Vec::new();
        wd.hand_over_faults(&mut faults);
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].kind, FaultKind::ProgramFlow);
        assert_eq!(wd.log().count(DetectorId::HwWatchdog), 1);
        assert_eq!(wd.pfc_errors_total(), 1);
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
            let vector = self.state.tsi.error_vector(&self.tsi, task);
            let total: u32 = vector.iter().map(|e| e.count).sum();
            task_lines.push(format!(
                "  {task}: state={} error-vector-elements={} total-errors={}",
                self.state.tsi.task_state(task),
                vector.len(),
                total,
            ));
        }
        let faulty_apps = (0..self.config.mapping().application_count() as u32)
            .filter(|&a| {
                self.state
                    .tsi
                    .app_state(easis_rte::mapping::ApplicationId(a))
                    .is_faulty()
            })
            .count();
        let state_line = format!(
            "  applications faulty: {faulty_apps}/{}; global ECU state: {}",
            self.config.mapping().application_count(),
            self.state.tsi.ecu_state(),
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
