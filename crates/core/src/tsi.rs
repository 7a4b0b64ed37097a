//! Task state indication (TSI) unit.
//!
//! "The error messages of runnables are recorded by the Task State
//! Indication Unit in an error indication vector. If one of the elements in
//! the error indication vector reaches the threshold, the whole task will
//! be considered faulty" (paper §3.5). Task verdicts roll up through the
//! deployment mapping to application states and the global ECU state, which
//! the Fault Management Framework translates into treatments.
//!
//! The unit is split like every runtime component: [`TaskStateIndication`]
//! is its wiring (the mapping and the thresholds) and [`TsiState`] its
//! runtime state, dense vectors sized when the state is built.

use crate::report::{DetectedFault, FaultKind, HealthState, StateChange};
use easis_obs::{ObsEvent, ObsSink, StateScope};
use easis_osek::task::TaskId;
use easis_rte::mapping::{ApplicationId, SystemMapping};
use easis_rte::runnable::RunnableId;
use easis_sim::growth::{advance_counts, measure_counts};
use easis_sim::time::Instant;
use serde::{Deserialize, Serialize};

/// One element of a task's error indication vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErrorIndication {
    /// The runnable the errors were attributed to.
    pub runnable: RunnableId,
    /// The error class.
    pub kind: FaultKind,
    /// Accumulated error count.
    pub count: u32,
}

/// Elements of the error indication vector per runnable: one per
/// [`FaultKind`], in its order.
const KINDS: usize = FaultKind::ALL.len();

/// The TSI unit's wiring: the deployment mapping and the threshold.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaskStateIndication {
    mapping: SystemMapping,
    threshold: u32,
}

impl TaskStateIndication {
    /// Creates the unit over a deployment mapping, with `threshold` the
    /// per-element error threshold.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero.
    pub fn new(mapping: SystemMapping, threshold: u32) -> Self {
        assert!(threshold > 0, "threshold must be positive");
        TaskStateIndication { mapping, threshold }
    }

    /// The deployment mapping.
    pub fn mapping(&self) -> &SystemMapping {
        &self.mapping
    }

    /// Faulty applications at which the ECU turns faulty: all declared
    /// applications.
    fn ecu_needed(&self) -> usize {
        self.mapping.application_count().max(1)
    }

    /// Runnables the mapping hosts on `task`, ascending.
    fn runnables_of(&self, task: TaskId) -> impl Iterator<Item = RunnableId> + '_ {
        self.mapping
            .runnables()
            .filter(move |&r| self.mapping.task_of(r) == Some(task))
    }
}

easis_sim::clone_fields! {
    /// Runtime state of the TSI unit: the error indication vectors and the
    /// task, application and ECU verdicts. Every vector is dense and sized
    /// from the mapping when the state is built — counts by runnable id and
    /// fault kind, verdicts by task and application id — so two states
    /// with the same meaning are equal, byte for byte: a task reset after
    /// its faults equals one that never had any.
    #[derive(Debug, Default, PartialEq, Eq)]
    pub struct TsiState {
        /// Error count of element `runnable id × 3 + fault kind`.
        counts: Vec<u32>,
        /// Verdict by task id.
        tasks: Vec<HealthState>,
        /// Verdict by application id.
        apps: Vec<HealthState>,
        ecu: HealthState,
    }
}

impl TsiState {
    /// The state of a fresh unit: no errors, every verdict `Ok`.
    pub fn new(tsi: &TaskStateIndication) -> Self {
        let mapping = &tsi.mapping;
        let runnables = mapping
            .runnables()
            .map(|r| r.index() + 1)
            .max()
            .unwrap_or(0);
        let tasks = mapping
            .tasks()
            .chain(mapping.runnables().filter_map(|r| mapping.task_of(r)))
            .map(|t| t.index() + 1)
            .max()
            .unwrap_or(0);
        let apps = mapping
            .tasks()
            .filter_map(|t| mapping.app_of(t))
            .map(|a| a.index() + 1)
            .chain([mapping.application_count()])
            .max()
            .unwrap_or(0);
        TsiState {
            counts: vec![0; runnables * KINDS],
            tasks: vec![HealthState::Ok; tasks],
            apps: vec![HealthState::Ok; apps],
            ecu: HealthState::Ok,
        }
    }

    /// Records a detected runnable fault, updating the error indication
    /// vector of the hosting task and rolling states up. Returns the state
    /// changes this fault caused (possibly empty). Faults on unmapped
    /// runnables are counted under no task and change nothing.
    pub fn record(&mut self, tsi: &TaskStateIndication, fault: DetectedFault) -> Vec<StateChange> {
        let mut changes = Vec::new();
        if let Some(task) = tsi.mapping.task_of(fault.runnable) {
            self.record_into(tsi, fault, task, &mut changes, &ObsSink::DISABLED);
        }
        changes
    }

    /// Like [`TsiState::record`] for a fault on a runnable that `task`
    /// hosts, resolved by the caller (the watchdog reads it off its
    /// scope table instead of probing the mapping). Appends the
    /// state changes to a caller-supplied buffer so a below-threshold
    /// fault performs no allocation, and records each increment and
    /// transition to `obs`.
    pub fn record_into(
        &mut self,
        tsi: &TaskStateIndication,
        fault: DetectedFault,
        task: TaskId,
        changes: &mut Vec<StateChange>,
        obs: &ObsSink,
    ) {
        debug_assert_eq!(tsi.mapping.task_of(fault.runnable), Some(task));
        let count = &mut self.counts[fault.runnable.index() * KINDS + fault.kind as usize];
        *count += 1;
        obs.record(
            fault.at,
            ObsEvent::ErrorVectorIncrement {
                task,
                runnable: fault.runnable,
                kind: fault.kind.into(),
                count: *count,
            },
        );
        if *count < tsi.threshold {
            return;
        }
        self.mark_task_faulty_into(tsi, task, fault.at, changes, obs);
    }

    fn mark_task_faulty_into(
        &mut self,
        tsi: &TaskStateIndication,
        task: TaskId,
        at: Instant,
        changes: &mut Vec<StateChange>,
        obs: &ObsSink,
    ) {
        let state = &mut self.tasks[task.index()];
        if state.is_faulty() {
            return;
        }
        *state = HealthState::Faulty;
        changes.push(StateChange::TaskFaulty { task, at });
        obs.record(
            at,
            ObsEvent::StateTransition {
                scope: StateScope::Task(task),
                faulty: true,
            },
        );
        if let Some(app) = tsi.mapping.app_of(task) {
            let app_state = &mut self.apps[app.index()];
            if !app_state.is_faulty() {
                *app_state = HealthState::Faulty;
                changes.push(StateChange::ApplicationFaulty { app, at });
                obs.record(
                    at,
                    ObsEvent::StateTransition {
                        scope: StateScope::Application(app),
                        faulty: true,
                    },
                );
            }
        }
        if !self.ecu.is_faulty() && self.faulty_apps() >= tsi.ecu_needed() {
            self.ecu = HealthState::Faulty;
            changes.push(StateChange::EcuFaulty { at });
            obs.record(
                at,
                ObsEvent::StateTransition {
                    scope: StateScope::Ecu,
                    faulty: true,
                },
            );
        }
    }

    fn faulty_apps(&self) -> usize {
        self.apps.iter().filter(|s| s.is_faulty()).count()
    }

    /// Clears a task's error vector and verdict after fault treatment
    /// (restart), re-deriving application and ECU states.
    pub fn reset_task(&mut self, tsi: &TaskStateIndication, task: TaskId) {
        for runnable in tsi.runnables_of(task) {
            let first = runnable.index() * KINDS;
            self.counts[first..first + KINDS].fill(0);
        }
        if let Some(state) = self.tasks.get_mut(task.index()) {
            *state = HealthState::Ok;
        }
        // Re-derive the application containing it.
        if let Some(app) = tsi.mapping.app_of(task) {
            let any_faulty = tsi
                .mapping
                .tasks()
                .any(|t| tsi.mapping.app_of(t) == Some(app) && self.task_state(t).is_faulty());
            self.apps[app.index()] = if any_faulty {
                HealthState::Faulty
            } else {
                HealthState::Ok
            };
        }
        // Re-derive the ECU state.
        self.ecu = if self.faulty_apps() >= tsi.ecu_needed() {
            HealthState::Faulty
        } else {
            HealthState::Ok
        };
    }

    /// Measures how far `b`'s error counts are ahead of `a`'s, counting
    /// only the elements whose hosting task is already `Faulty` in `a`.
    /// Such a count is read only against the threshold, on the way to a
    /// verdict the task already holds, so it may rise every hyperperiod of
    /// a faulty steady state. A count on a task not yet `Faulty` measures
    /// 0: the threshold will read it, and the caller's comparison rejects
    /// its growth.
    pub fn measure_latched(a: &Self, b: &Self, tsi: &TaskStateIndication, growth: &mut Vec<u64>) {
        measure_counts(&a.counts, &b.counts, growth);
        for (i, d) in growth.iter_mut().enumerate() {
            let latched = || {
                tsi.mapping
                    .task_of(RunnableId((i / KINDS) as u32))
                    .is_some_and(|task| a.task_state(task).is_faulty())
            };
            if *d != 0 && !latched() {
                *d = 0;
            }
        }
    }

    /// Raises the error counts by `k` times their measured growth.
    pub fn advance_counts(&mut self, growth: &[u64], k: u64) {
        advance_counts(&mut self.counts, growth, k);
    }

    /// Whether two states hold the same task, application and ECU
    /// verdicts: certification's cheap first refusal.
    pub fn same_verdicts(a: &Self, b: &Self) -> bool {
        a.tasks == b.tasks && a.apps == b.apps && a.ecu == b.ecu
    }

    /// Current verdict of a task (Ok if never reported).
    pub fn task_state(&self, task: TaskId) -> HealthState {
        self.tasks.get(task.index()).copied().unwrap_or_default()
    }

    /// Current verdict of an application.
    pub fn app_state(&self, app: ApplicationId) -> HealthState {
        self.apps.get(app.index()).copied().unwrap_or_default()
    }

    /// Current global ECU verdict.
    pub fn ecu_state(&self) -> HealthState {
        self.ecu
    }

    /// The non-zero elements of a task's error indication vector, by
    /// runnable id, then fault kind.
    pub fn error_vector(&self, tsi: &TaskStateIndication, task: TaskId) -> Vec<ErrorIndication> {
        tsi.runnables_of(task)
            .flat_map(|runnable| {
                FaultKind::ALL.into_iter().map(move |kind| ErrorIndication {
                    runnable,
                    kind,
                    count: self.counts[runnable.index() * KINDS + kind as usize],
                })
            })
            .filter(|e| e.count > 0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: u32) -> RunnableId {
        RunnableId(n)
    }
    fn fault(runnable: u32, kind: FaultKind, ms: u64) -> DetectedFault {
        DetectedFault {
            at: Instant::from_millis(ms),
            runnable: r(runnable),
            kind,
        }
    }

    /// A fresh unit over two apps: SafeSpeed {T0: R0,R1}, SafeLane {T1: R2}.
    struct Unit {
        tsi: TaskStateIndication,
        state: TsiState,
    }

    impl Unit {
        fn record(&mut self, fault: DetectedFault) -> Vec<StateChange> {
            self.state.record(&self.tsi, fault)
        }
        fn task_state(&self, task: TaskId) -> HealthState {
            self.state.task_state(task)
        }
        fn app_state(&self, app: ApplicationId) -> HealthState {
            self.state.app_state(app)
        }
        fn ecu_state(&self) -> HealthState {
            self.state.ecu_state()
        }
        fn total_errors(&self, task: TaskId) -> u32 {
            self.error_vector(task).iter().map(|e| e.count).sum()
        }
        fn error_vector(&self, task: TaskId) -> Vec<ErrorIndication> {
            self.state.error_vector(&self.tsi, task)
        }
        fn reset_task(&mut self, task: TaskId) {
            self.state.reset_task(&self.tsi, task);
        }
    }

    fn unit(threshold: u32) -> Unit {
        let mut m = SystemMapping::new();
        let speed = m.add_application("SafeSpeed");
        let lane = m.add_application("SafeLane");
        m.assign_task(TaskId(0), speed);
        m.assign_task(TaskId(1), lane);
        m.assign_runnable(r(0), TaskId(0));
        m.assign_runnable(r(1), TaskId(0));
        m.assign_runnable(r(2), TaskId(1));
        let tsi = TaskStateIndication::new(m, threshold);
        let state = TsiState::new(&tsi);
        Unit { tsi, state }
    }

    #[test]
    fn threshold_crossing_marks_task_and_app_faulty() {
        let mut tsi = unit(3);
        assert!(tsi.record(fault(0, FaultKind::ProgramFlow, 10)).is_empty());
        assert!(tsi.record(fault(0, FaultKind::ProgramFlow, 20)).is_empty());
        let changes = tsi.record(fault(0, FaultKind::ProgramFlow, 30));
        assert_eq!(changes.len(), 2); // task + application
        assert!(matches!(changes[0], StateChange::TaskFaulty { task: TaskId(0), .. }));
        assert!(matches!(changes[1], StateChange::ApplicationFaulty { .. }));
        assert!(tsi.task_state(TaskId(0)).is_faulty());
        assert!(tsi.app_state(ApplicationId(0)).is_faulty());
        assert!(!tsi.ecu_state().is_faulty()); // SafeLane still fine
    }

    /// Measure, advance once, compare: the certification step on two TSI
    /// states one hyperperiod apart.
    fn certifies(tsi: &Unit, a: &TsiState, b: &TsiState) -> bool {
        let mut growth = Vec::new();
        TsiState::measure_latched(a, b, &tsi.tsi, &mut growth);
        let mut advanced = a.clone();
        advanced.advance_counts(&growth, 1);
        advanced == *b
    }

    #[test]
    fn only_counts_of_faulty_tasks_may_grow() {
        let mut tsi = unit(3);
        for ms in [10, 20, 30] {
            tsi.record(fault(0, FaultKind::Aliveness, ms));
        }
        assert!(tsi.task_state(TaskId(0)).is_faulty());
        // T0 is latched: two more errors on its R1 (below the threshold on
        // their own element) and one more on R0 are never read again.
        let a = tsi.state.clone();
        tsi.record(fault(1, FaultKind::ArrivalRate, 40));
        tsi.record(fault(1, FaultKind::ArrivalRate, 50));
        tsi.record(fault(0, FaultKind::Aliveness, 50));
        assert!(certifies(&tsi, &a, &tsi.state));
        let mut growth = Vec::new();
        TsiState::measure_latched(&a, &tsi.state, &tsi.tsi, &mut growth);
        let mut jumped = a.clone();
        jumped.advance_counts(&growth, 3);
        assert_eq!(jumped.error_vector(&tsi.tsi, TaskId(0))[0].count, 3 + 3);
        // T1 is not faulty: one error on R2 moves it towards the threshold,
        // so the same growth is refused.
        let a = tsi.state.clone();
        tsi.record(fault(2, FaultKind::Aliveness, 60));
        assert!(!tsi.task_state(TaskId(1)).is_faulty());
        assert!(!certifies(&tsi, &a, &tsi.state));
    }

    #[test]
    fn elements_accumulate_independently() {
        let mut tsi = unit(3);
        // Two errors on R0, two on R1 (same task): no element reaches 3.
        tsi.record(fault(0, FaultKind::Aliveness, 1));
        tsi.record(fault(0, FaultKind::Aliveness, 2));
        tsi.record(fault(1, FaultKind::Aliveness, 3));
        tsi.record(fault(1, FaultKind::Aliveness, 4));
        assert_eq!(tsi.task_state(TaskId(0)), HealthState::Ok);
        assert_eq!(tsi.total_errors(TaskId(0)), 4);
        let vec = tsi.error_vector(TaskId(0));
        assert_eq!(vec.len(), 2);
        assert!(vec.iter().all(|e| e.count == 2));
    }

    #[test]
    fn kinds_count_as_separate_elements() {
        let mut tsi = unit(2);
        tsi.record(fault(0, FaultKind::Aliveness, 1));
        tsi.record(fault(0, FaultKind::ProgramFlow, 2));
        assert_eq!(tsi.task_state(TaskId(0)), HealthState::Ok);
        tsi.record(fault(0, FaultKind::ProgramFlow, 3));
        assert!(tsi.task_state(TaskId(0)).is_faulty());
    }

    #[test]
    fn ecu_faulty_when_all_apps_faulty_by_default() {
        let mut tsi = unit(1);
        let c1 = tsi.record(fault(0, FaultKind::Aliveness, 1));
        assert!(!c1.iter().any(|c| matches!(c, StateChange::EcuFaulty { .. })));
        let c2 = tsi.record(fault(2, FaultKind::Aliveness, 2));
        assert!(c2.iter().any(|c| matches!(c, StateChange::EcuFaulty { .. })));
        assert!(tsi.ecu_state().is_faulty());
    }

    #[test]
    fn unmapped_runnable_changes_nothing() {
        let mut tsi = unit(1);
        assert!(tsi.record(fault(99, FaultKind::Aliveness, 1)).is_empty());
        assert_eq!(tsi.ecu_state(), HealthState::Ok);
    }

    #[test]
    fn double_fault_on_faulty_task_changes_nothing_more() {
        let mut tsi = unit(1);
        assert_eq!(tsi.record(fault(0, FaultKind::Aliveness, 1)).len(), 2);
        assert!(tsi.record(fault(0, FaultKind::Aliveness, 2)).is_empty());
    }

    #[test]
    fn reset_task_restores_health_and_rederives_rollups() {
        let mut tsi = unit(1);
        tsi.record(fault(0, FaultKind::Aliveness, 1));
        tsi.record(fault(2, FaultKind::Aliveness, 2));
        assert!(tsi.ecu_state().is_faulty());
        tsi.reset_task(TaskId(0));
        assert_eq!(tsi.task_state(TaskId(0)), HealthState::Ok);
        assert_eq!(tsi.app_state(ApplicationId(0)), HealthState::Ok);
        assert!(!tsi.ecu_state().is_faulty()); // only 1 faulty app remains
        assert_eq!(tsi.total_errors(TaskId(0)), 0);
        // The other app stays faulty.
        assert!(tsi.app_state(ApplicationId(1)).is_faulty());
    }

    #[test]
    fn a_task_reset_after_its_threshold_equals_a_fresh_unit() {
        let mut tsi = unit(2);
        let fresh = tsi.state.clone();
        tsi.record(fault(0, FaultKind::Aliveness, 1));
        tsi.record(fault(1, FaultKind::ProgramFlow, 2));
        assert!(tsi.record(fault(0, FaultKind::Aliveness, 3)).len() == 2);
        assert!(tsi.task_state(TaskId(0)).is_faulty());
        tsi.reset_task(TaskId(0));
        assert_eq!(
            tsi.state, fresh,
            "zero counts and Ok verdicts are the fresh state"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_threshold_rejected() {
        let _ = TaskStateIndication::new(SystemMapping::new(), 0);
    }

    #[test]
    fn snapshot_restore_overlays_exactly_onto_dirtier_state() {
        let mut tsi = unit(2);
        tsi.record(fault(0, FaultKind::Aliveness, 1));
        let mut snap = TsiState::default();
        snap.clone_from(&tsi.state);
        // Diverge well past the capture: threshold crossing + second app.
        tsi.record(fault(0, FaultKind::Aliveness, 2));
        tsi.record(fault(2, FaultKind::ProgramFlow, 3));
        assert!(tsi.task_state(TaskId(0)).is_faulty());
        tsi.state.clone_from(&snap);
        assert_eq!(tsi.state, snap);
        assert_eq!(tsi.task_state(TaskId(0)), HealthState::Ok);
        assert_eq!(tsi.total_errors(TaskId(0)), 1);
        // The entry recorded only after the capture is zeroed, which is
        // observably identical to never-reported.
        assert_eq!(tsi.total_errors(TaskId(1)), 0);
        assert!(tsi.error_vector(TaskId(1)).is_empty());
        assert_eq!(tsi.app_state(ApplicationId(1)), HealthState::Ok);
    }
}
