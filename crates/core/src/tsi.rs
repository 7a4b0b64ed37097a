//! Task state indication (TSI) unit.
//!
//! "The error messages of runnables are recorded by the Task State
//! Indication Unit in an error indication vector. If one of the elements in
//! the error indication vector reaches the threshold, the whole task will
//! be considered faulty" (paper §3.5). Task verdicts roll up through the
//! deployment mapping to application states and the global ECU state, which
//! the Fault Management Framework translates into treatments.

use crate::report::{DetectedFault, FaultKind, HealthState, StateChange};
use easis_obs::{ObsEvent, ObsSink, StateScope};
use easis_osek::task::TaskId;
use easis_rte::mapping::{ApplicationId, SystemMapping};
use easis_rte::runnable::RunnableId;
use easis_sim::time::Instant;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

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

/// The TSI unit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaskStateIndication {
    mapping: SystemMapping,
    threshold: u32,
    ecu_app_threshold: u32,
    vectors: BTreeMap<TaskId, BTreeMap<(RunnableId, FaultKind), u32>>,
    task_states: BTreeMap<TaskId, HealthState>,
    app_states: BTreeMap<ApplicationId, HealthState>,
    ecu_state: HealthState,
    obs: ObsSink,
}

impl TaskStateIndication {
    /// Creates the unit over a deployment mapping.
    ///
    /// `threshold` is the per-element error threshold; `ecu_app_threshold`
    /// the number of faulty applications at which the ECU state turns
    /// faulty (`u32::MAX` = all declared applications).
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero.
    pub fn new(mapping: SystemMapping, threshold: u32, ecu_app_threshold: u32) -> Self {
        assert!(threshold > 0, "threshold must be positive");
        TaskStateIndication {
            mapping,
            threshold,
            ecu_app_threshold,
            vectors: BTreeMap::new(),
            task_states: BTreeMap::new(),
            app_states: BTreeMap::new(),
            ecu_state: HealthState::Ok,
            obs: ObsSink::disabled(),
        }
    }

    /// Attaches an observability sink; a disabled sink (the default)
    /// makes every recording call a no-op.
    pub fn attach_obs(&mut self, obs: ObsSink) {
        self.obs = obs;
    }

    /// Records a detected runnable fault, updating the error indication
    /// vector of the hosting task and rolling states up. Returns the state
    /// changes this fault caused (possibly empty). Faults on unmapped
    /// runnables are counted under no task and change nothing.
    pub fn record(&mut self, fault: DetectedFault) -> Vec<StateChange> {
        let mut changes = Vec::new();
        self.record_into(fault, &mut changes);
        changes
    }

    /// Like [`TaskStateIndication::record`], but appends the state changes
    /// to a caller-supplied buffer so a below-threshold fault performs no
    /// allocation.
    pub fn record_into(&mut self, fault: DetectedFault, changes: &mut Vec<StateChange>) {
        let Some(task) = self.mapping.task_of(fault.runnable) else {
            return;
        };
        let vector = self.vectors.entry(task).or_default();
        let count = vector.entry((fault.runnable, fault.kind)).or_insert(0);
        *count += 1;
        self.obs.record(
            fault.at,
            ObsEvent::ErrorVectorIncrement {
                task,
                runnable: fault.runnable,
                kind: fault.kind.into(),
                count: *count,
            },
        );
        if *count < self.threshold {
            return;
        }
        self.mark_task_faulty_into(task, fault.at, changes);
    }

    /// Marks a task faulty directly (e.g. commanded by the FMF) and returns
    /// the resulting state changes.
    pub fn mark_task_faulty(&mut self, task: TaskId, at: Instant) -> Vec<StateChange> {
        let mut changes = Vec::new();
        self.mark_task_faulty_into(task, at, &mut changes);
        changes
    }

    /// Like [`TaskStateIndication::mark_task_faulty`], but appends to a
    /// caller-supplied buffer.
    pub fn mark_task_faulty_into(
        &mut self,
        task: TaskId,
        at: Instant,
        changes: &mut Vec<StateChange>,
    ) {
        let state = self.task_states.entry(task).or_default();
        if state.is_faulty() {
            return;
        }
        *state = HealthState::Faulty;
        changes.push(StateChange::TaskFaulty { task, at });
        self.obs.record(
            at,
            ObsEvent::StateTransition {
                scope: StateScope::Task(task),
                faulty: true,
            },
        );
        if let Some(app) = self.mapping.app_of(task) {
            let app_state = self.app_states.entry(app).or_default();
            if !app_state.is_faulty() {
                *app_state = HealthState::Faulty;
                changes.push(StateChange::ApplicationFaulty { app, at });
                self.obs.record(
                    at,
                    ObsEvent::StateTransition {
                        scope: StateScope::Application(app),
                        faulty: true,
                    },
                );
            }
        }
        let faulty_apps = self
            .app_states
            .values()
            .filter(|s| s.is_faulty())
            .count() as u32;
        let needed = if self.ecu_app_threshold == u32::MAX {
            self.mapping.application_count().max(1) as u32
        } else {
            self.ecu_app_threshold
        };
        if !self.ecu_state.is_faulty() && faulty_apps >= needed {
            self.ecu_state = HealthState::Faulty;
            changes.push(StateChange::EcuFaulty { at });
            self.obs.record(
                at,
                ObsEvent::StateTransition {
                    scope: StateScope::Ecu,
                    faulty: true,
                },
            );
        }
    }

    /// Clears a task's error vector and verdict after fault treatment
    /// (restart), re-deriving application and ECU states.
    pub fn reset_task(&mut self, task: TaskId) {
        if let Some(vector) = self.vectors.get_mut(&task) {
            // Zero in place (see `restore_from`): restart treatments recur
            // trial after trial, so keep the vector's nodes allocated.
            for count in vector.values_mut() {
                *count = 0;
            }
        }
        self.task_states.insert(task, HealthState::Ok);
        // Re-derive the application containing it.
        if let Some(app) = self.mapping.app_of(task) {
            let any_faulty = self
                .mapping
                .tasks_of_app(app)
                .into_iter()
                .any(|t| self.task_state(t).is_faulty());
            self.app_states.insert(
                app,
                if any_faulty {
                    HealthState::Faulty
                } else {
                    HealthState::Ok
                },
            );
        }
        // Re-derive the ECU state.
        let faulty_apps = self
            .app_states
            .values()
            .filter(|s| s.is_faulty())
            .count() as u32;
        let needed = if self.ecu_app_threshold == u32::MAX {
            self.mapping.application_count().max(1) as u32
        } else {
            self.ecu_app_threshold
        };
        self.ecu_state = if faulty_apps >= needed {
            HealthState::Faulty
        } else {
            HealthState::Ok
        };
    }

    /// Current verdict of a task (Ok if never reported).
    pub fn task_state(&self, task: TaskId) -> HealthState {
        self.task_states.get(&task).copied().unwrap_or_default()
    }

    /// Current verdict of an application.
    pub fn app_state(&self, app: ApplicationId) -> HealthState {
        self.app_states.get(&app).copied().unwrap_or_default()
    }

    /// Current global ECU verdict.
    pub fn ecu_state(&self) -> HealthState {
        self.ecu_state
    }

    /// The error indication vector of a task, as a flat snapshot.
    /// Zero-count elements (left behind by in-place zeroing) are
    /// indistinguishable from never-reported ones and stay out.
    pub fn error_vector(&self, task: TaskId) -> Vec<ErrorIndication> {
        self.vectors
            .get(&task)
            .map(|v| {
                v.iter()
                    .filter(|(_, &count)| count > 0)
                    .map(|(&(runnable, kind), &count)| ErrorIndication {
                        runnable,
                        kind,
                        count,
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Total errors recorded against a task.
    pub fn total_errors(&self, task: TaskId) -> u32 {
        self.vectors
            .get(&task)
            .map(|v| v.values().sum())
            .unwrap_or(0)
    }

    /// The deployment mapping.
    pub fn mapping(&self) -> &SystemMapping {
        &self.mapping
    }

    /// Captures the error vectors and verdicts into `snap`, retaining its
    /// buffer capacity. The image is canonical: zero counts and `Ok`
    /// verdicts (left behind by in-place zeroing) are observably
    /// identical to absent entries and stay out, so a rewound unit and a
    /// freshly built one in the same state capture equal images. The
    /// mapping and thresholds are construction-time configuration and are
    /// not captured.
    pub fn snapshot_into(&self, snap: &mut TsiSnapshot) {
        let mut used = 0;
        for (&task, vector) in &self.vectors {
            let mut entries = vector
                .iter()
                .filter(|(_, &count)| count > 0)
                .map(|(&key, &count)| (key, count))
                .peekable();
            if entries.peek().is_none() {
                continue;
            }
            if used == snap.vectors.len() {
                snap.vectors.push((task, Vec::new()));
            }
            let slot = &mut snap.vectors[used];
            slot.0 = task;
            slot.1.clear();
            slot.1.extend(entries);
            used += 1;
        }
        snap.vectors.truncate(used);
        snap.task_states.clear();
        snap.task_states.extend(
            self.task_states
                .iter()
                .filter(|(_, s)| s.is_faulty())
                .map(|(&t, &s)| (t, s)),
        );
        snap.app_states.clear();
        snap.app_states.extend(
            self.app_states
                .iter()
                .filter(|(_, s)| s.is_faulty())
                .map(|(&a, &s)| (a, s)),
        );
        snap.ecu_state = self.ecu_state;
    }

    /// Restores the state captured by
    /// [`TaskStateIndication::snapshot_into`]: counts and verdicts are
    /// zeroed **in place** (keeping the map nodes allocated) and the
    /// snapshot's entries are overlaid. A zero count / `Ok` verdict is
    /// observably identical to an absent entry, so the result is exact
    /// regardless of which trials ran in between; on a reused unit whose
    /// maps already contain the snapshot's nodes the overlay allocates
    /// nothing.
    pub fn restore_from(&mut self, snap: &TsiSnapshot) {
        for vector in self.vectors.values_mut() {
            for count in vector.values_mut() {
                *count = 0;
            }
        }
        for state in self.task_states.values_mut() {
            *state = HealthState::Ok;
        }
        for state in self.app_states.values_mut() {
            *state = HealthState::Ok;
        }
        for (task, vector) in &snap.vectors {
            let live = self.vectors.entry(*task).or_default();
            for &(key, count) in vector {
                live.insert(key, count);
            }
        }
        for &(task, state) in &snap.task_states {
            self.task_states.insert(task, state);
        }
        for &(app, state) in &snap.app_states {
            self.app_states.insert(app, state);
        }
        self.ecu_state = snap.ecu_state;
    }
}

/// One captured per-task error vector: the task id plus its non-zero
/// `((runnable, fault kind), count)` entries.
type TaskErrorVector = (TaskId, Vec<((RunnableId, FaultKind), u32)>);

/// Plain-data image of a [`TaskStateIndication`]'s error vectors and
/// verdicts, flat `Vec`s so node-level snapshots embedding it are cheap to
/// clone. `PartialEq` compares
/// the full image — a quiescent hyperperiod records no faults, so the
/// macro-stepping engine requires two samples to compare equal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TsiSnapshot {
    vectors: Vec<TaskErrorVector>,
    task_states: Vec<(TaskId, HealthState)>,
    app_states: Vec<(ApplicationId, HealthState)>,
    ecu_state: HealthState,
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

    /// Two apps: SafeSpeed {T0: R0,R1}, SafeLane {T1: R2}.
    fn unit(threshold: u32, ecu_threshold: u32) -> TaskStateIndication {
        let mut m = SystemMapping::new();
        let speed = m.add_application("SafeSpeed");
        let lane = m.add_application("SafeLane");
        m.assign_task(TaskId(0), speed);
        m.assign_task(TaskId(1), lane);
        m.assign_runnable(r(0), TaskId(0));
        m.assign_runnable(r(1), TaskId(0));
        m.assign_runnable(r(2), TaskId(1));
        TaskStateIndication::new(m, threshold, ecu_threshold)
    }

    #[test]
    fn threshold_crossing_marks_task_and_app_faulty() {
        let mut tsi = unit(3, u32::MAX);
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

    #[test]
    fn elements_accumulate_independently() {
        let mut tsi = unit(3, u32::MAX);
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
        let mut tsi = unit(2, u32::MAX);
        tsi.record(fault(0, FaultKind::Aliveness, 1));
        tsi.record(fault(0, FaultKind::ProgramFlow, 2));
        assert_eq!(tsi.task_state(TaskId(0)), HealthState::Ok);
        tsi.record(fault(0, FaultKind::ProgramFlow, 3));
        assert!(tsi.task_state(TaskId(0)).is_faulty());
    }

    #[test]
    fn ecu_faulty_when_all_apps_faulty_by_default() {
        let mut tsi = unit(1, u32::MAX);
        let c1 = tsi.record(fault(0, FaultKind::Aliveness, 1));
        assert!(!c1.iter().any(|c| matches!(c, StateChange::EcuFaulty { .. })));
        let c2 = tsi.record(fault(2, FaultKind::Aliveness, 2));
        assert!(c2.iter().any(|c| matches!(c, StateChange::EcuFaulty { .. })));
        assert!(tsi.ecu_state().is_faulty());
    }

    #[test]
    fn ecu_threshold_of_one_escalates_immediately() {
        let mut tsi = unit(1, 1);
        let changes = tsi.record(fault(2, FaultKind::ArrivalRate, 5));
        assert_eq!(changes.len(), 3); // task, app, ecu
        assert!(tsi.ecu_state().is_faulty());
    }

    #[test]
    fn unmapped_runnable_changes_nothing() {
        let mut tsi = unit(1, 1);
        assert!(tsi.record(fault(99, FaultKind::Aliveness, 1)).is_empty());
        assert_eq!(tsi.ecu_state(), HealthState::Ok);
    }

    #[test]
    fn double_fault_on_faulty_task_changes_nothing_more() {
        let mut tsi = unit(1, u32::MAX);
        assert_eq!(tsi.record(fault(0, FaultKind::Aliveness, 1)).len(), 2);
        assert!(tsi.record(fault(0, FaultKind::Aliveness, 2)).is_empty());
    }

    #[test]
    fn reset_task_restores_health_and_rederives_rollups() {
        let mut tsi = unit(1, 2);
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
    #[should_panic(expected = "positive")]
    fn zero_threshold_rejected() {
        let _ = TaskStateIndication::new(SystemMapping::new(), 0, 1);
    }

    #[test]
    fn snapshot_restore_overlays_exactly_onto_dirtier_state() {
        let mut tsi = unit(2, u32::MAX);
        tsi.record(fault(0, FaultKind::Aliveness, 1));
        let mut snap = TsiSnapshot::default();
        tsi.snapshot_into(&mut snap);
        // Diverge well past the capture: threshold crossing + second app.
        tsi.record(fault(0, FaultKind::Aliveness, 2));
        tsi.record(fault(2, FaultKind::ProgramFlow, 3));
        assert!(tsi.task_state(TaskId(0)).is_faulty());
        tsi.restore_from(&snap);
        assert_eq!(tsi.task_state(TaskId(0)), HealthState::Ok);
        assert_eq!(tsi.total_errors(TaskId(0)), 1);
        // The entry recorded only after the capture is zeroed, which is
        // observably identical to never-reported.
        assert_eq!(tsi.total_errors(TaskId(1)), 0);
        assert!(tsi.error_vector(TaskId(1)).is_empty());
        assert_eq!(tsi.app_state(ApplicationId(1)), HealthState::Ok);
    }
}
