//! The Fault Management Framework service.
//!
//! [`FaultManagementFramework`] is the "general fault treatment system that
//! gathers the information on the detected faults" (paper §4.4). It ingests
//! the Software Watchdog's fault and state-change outboxes, keeps the fault
//! log, applies the [`TreatmentPolicy`] and queues [`TreatmentAction`]s
//! for the platform integration to execute.

use crate::dtc::{DtcStore, DtcStoreSnapshot, FreezeFrame};
use crate::policy::{Treatment, TreatmentAction, TreatmentPolicy};
use crate::record::{FaultRecord, Severity, SeverityMap};
use easis_obs::{ObsEvent, ObsSink};
use easis_rte::mapping::ApplicationId;
use easis_sim::time::Instant;
use easis_watchdog::report::{DetectedFault, FaultKind, StateChange};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// The FMF service.
#[derive(Debug, Clone)]
pub struct FaultManagementFramework {
    severity_map: SeverityMap,
    policy: TreatmentPolicy,
    log: Vec<FaultRecord>,
    dtc: DtcStore,
    actions: Vec<TreatmentAction>,
    app_restarts: BTreeMap<ApplicationId, u32>,
    terminated_apps: Vec<ApplicationId>,
    ecu_resets: u32,
    obs: ObsSink,
    /// Interned treatment reasons, one `Arc<str>` per application ever
    /// treated. The rendered strings are exactly what the old
    /// `format!`-per-action path produced; interning just means an
    /// application's second (and every later) treatment allocates
    /// nothing. Deliberately kept across [`reset`](Self::reset): a pooled
    /// world treats the same applications trial after trial.
    app_reasons: BTreeMap<ApplicationId, Arc<str>>,
}

impl FaultManagementFramework {
    /// Creates the framework with the given classification and policy.
    pub fn new(severity_map: SeverityMap, policy: TreatmentPolicy) -> Self {
        FaultManagementFramework {
            severity_map,
            policy,
            log: Vec::new(),
            dtc: DtcStore::default(),
            actions: Vec::new(),
            app_restarts: BTreeMap::new(),
            terminated_apps: Vec::new(),
            ecu_resets: 0,
            obs: ObsSink::disabled(),
            app_reasons: BTreeMap::new(),
        }
    }

    /// Attaches an observability sink; a disabled sink (the default)
    /// makes every recording call a no-op.
    pub fn attach_obs(&mut self, obs: ObsSink) {
        self.obs = obs;
    }

    /// Records a detected fault in the log and the DTC memory.
    pub fn ingest_fault(&mut self, fault: DetectedFault) {
        self.ingest_fault_with_conditions(fault, &FreezeFrame::default());
    }

    /// Records a detected fault with freeze-frame conditions (captured by
    /// the platform at detection time, e.g. the current vehicle speed).
    /// Borrows the frame: it is cloned only when the fault's DTC first
    /// occurs, so a caller-held reusable frame buffer makes repeated
    /// ingestion of the same code allocation-free.
    pub fn ingest_fault_with_conditions(
        &mut self,
        fault: DetectedFault,
        freeze_frame: &FreezeFrame,
    ) {
        self.log.push(FaultRecord {
            fault,
            severity: self.severity_map.classify(fault.kind),
        });
        self.dtc.record_ref(fault, freeze_frame);
    }

    /// Marks one healthy operating cycle for DTC aging (call it e.g. once
    /// per watchdog cycle without detections).
    pub fn healthy_cycle(&mut self) {
        self.dtc.healthy_cycle();
    }

    /// Read access to the DTC fault memory.
    pub fn dtc(&self) -> &DtcStore {
        &self.dtc
    }

    /// Applies `k` certified hyperperiods of framework evolution in
    /// closed form. The only state a quiescent hyperperiod moves is DTC
    /// aging ([`FmfSnapshot::derive_cycle_delta`] rejects anything else),
    /// so this advances the pending records' healthy-cycle counters.
    pub fn apply_cycle_delta(&mut self, delta: &FmfCycleDelta, k: u64) {
        if delta.dtc_aging > 0 && k > 0 {
            self.dtc.apply_aging(delta.dtc_aging, k);
        }
    }

    /// Healthy cycles until the earliest pending DTC ages out (`None`
    /// when nothing is aging) — the macro-stepping engine's jump cap, see
    /// [`crate::dtc::DtcStore::pending_cycles_to_age_out`].
    pub fn pending_cycles_to_age_out(&self) -> Option<u32> {
        self.dtc.pending_cycles_to_age_out()
    }

    /// Mutable access to the DTC fault memory (tester clear operations).
    pub fn dtc_mut(&mut self) -> &mut DtcStore {
        &mut self.dtc
    }

    /// Processes a watchdog state change, possibly queueing treatments.
    pub fn ingest_state_change(&mut self, change: StateChange) {
        match change {
            StateChange::TaskFaulty { .. } => {
                // Task-level verdicts are treated at the application level;
                // the change is implicit in the ApplicationFaulty that
                // accompanies it.
            }
            StateChange::ApplicationFaulty { app, at } => {
                if !self.policy.treat {
                    return;
                }
                if self.terminated_apps.contains(&app) {
                    return; // already failed silent
                }
                let restarts = self.app_restarts.get(&app).copied().unwrap_or(0);
                let treatment = self.policy.for_faulty_app(app, restarts);
                match treatment {
                    Treatment::RestartApplication(_) => {
                        *self.app_restarts.entry(app).or_insert(0) += 1;
                    }
                    Treatment::TerminateApplication(_) => {
                        self.terminated_apps.push(app);
                    }
                    _ => {}
                }
                let reason = self.app_faulty_reason(app);
                self.push_action(at, treatment, reason);
            }
            StateChange::EcuFaulty { at } => {
                if !self.policy.treat {
                    return;
                }
                if let Some(treatment) = self.policy.for_faulty_ecu() {
                    self.ecu_resets += 1;
                    self.push_action(at, treatment, ecu_faulty_reason());
                }
            }
        }
    }

    /// Convenience: ingest everything a watchdog cycle produced.
    pub fn ingest_all(
        &mut self,
        faults: impl IntoIterator<Item = DetectedFault>,
        changes: impl IntoIterator<Item = StateChange>,
    ) {
        for f in faults {
            self.ingest_fault(f);
        }
        for c in changes {
            self.ingest_state_change(c);
        }
    }

    /// The interned "application … faulty" reason for `app`, rendered on
    /// the first treatment of that application and shared thereafter.
    fn app_faulty_reason(&mut self, app: ApplicationId) -> Arc<str> {
        Arc::clone(
            self.app_reasons
                .entry(app)
                .or_insert_with(|| format!("application {app} faulty").into()),
        )
    }

    fn push_action(&mut self, at: Instant, treatment: Treatment, reason: Arc<str>) {
        self.obs.record(
            at,
            ObsEvent::FmfReaction {
                treatment: treatment.label(),
            },
        );
        self.actions.push(TreatmentAction {
            at,
            treatment,
            reason,
        });
    }

    /// Drains the queued treatment actions for execution.
    pub fn take_actions(&mut self) -> Vec<TreatmentAction> {
        std::mem::take(&mut self.actions)
    }

    /// Drains decided actions into `out` (appending), retaining the queue
    /// allocation — the allocation-free alternative to
    /// [`FaultManagementFramework::take_actions`] for the campaign hot
    /// path.
    pub fn drain_actions_into(&mut self, out: &mut Vec<TreatmentAction>) {
        out.append(&mut self.actions);
    }

    /// Number of queued, unexecuted actions.
    pub fn pending_actions(&self) -> usize {
        self.actions.len()
    }

    /// The complete fault log.
    pub fn log(&self) -> &[FaultRecord] {
        &self.log
    }

    /// Faults of one kind in the log.
    pub fn count_kind(&self, kind: FaultKind) -> usize {
        self.log.iter().filter(|r| r.fault.kind == kind).count()
    }

    /// Faults at or above a severity.
    pub fn count_at_least(&self, severity: Severity) -> usize {
        self.log.iter().filter(|r| r.severity >= severity).count()
    }

    /// Restart count of an application.
    pub fn restarts_of(&self, app: ApplicationId) -> u32 {
        self.app_restarts.get(&app).copied().unwrap_or(0)
    }

    /// `true` if the application was terminated (failed silent).
    pub fn is_terminated(&self, app: ApplicationId) -> bool {
        self.terminated_apps.contains(&app)
    }

    /// Number of ECU software resets commanded.
    pub fn ecu_resets(&self) -> u32 {
        self.ecu_resets
    }

    /// Marks a recovery cycle complete: clears restart budgets (e.g. after
    /// an ECU reset, everything starts fresh).
    pub fn reset_budgets(&mut self) {
        self.app_restarts.clear();
        self.terminated_apps.clear();
    }

    /// Full reset to the just-built state — log, DTC memory, queued
    /// actions, budgets and counters — keeping the severity map, policy
    /// and observability sink (world pooling support). Clears in place:
    /// buffer capacity and DTC thresholds survive, so a pooled world's
    /// reset allocates nothing.
    pub fn reset(&mut self) {
        self.log.clear();
        self.dtc.clear_all();
        self.actions.clear();
        self.app_restarts.clear();
        self.terminated_apps.clear();
        self.ecu_resets = 0;
    }

    /// Captures the framework's runtime state — fault log, DTC memory,
    /// queued actions, restart budgets, reset counter — into a
    /// deterministic snapshot. The severity map, policy, observability
    /// sink and the interned-reason cache are static (the cache affects
    /// only allocation identity, never rendered content) and stay out.
    /// Convenience wrapper over
    /// [`FaultManagementFramework::snapshot_into`].
    pub fn snapshot(&self) -> FmfSnapshot {
        let mut snap = FmfSnapshot::default();
        self.snapshot_into(&mut snap);
        snap
    }

    /// Captures runtime state into `snap`, retaining the snapshot's buffer
    /// capacity (allocation-free once warm; the DTC image recycles its
    /// record bodies in place).
    pub fn snapshot_into(&self, snap: &mut FmfSnapshot) {
        snap.log.clear();
        snap.log.extend_from_slice(&self.log);
        self.dtc.snapshot_into(&mut snap.dtc);
        snap.actions.clone_from(&self.actions);
        snap.app_restarts.clear();
        snap.app_restarts
            .extend(self.app_restarts.iter().map(|(&app, &n)| (app, n)));
        snap.terminated_apps.clear();
        snap.terminated_apps.extend_from_slice(&self.terminated_apps);
        snap.ecu_resets = self.ecu_resets;
    }

    /// Restores runtime state captured by
    /// [`FaultManagementFramework::snapshot`], copying every region into
    /// the framework's retained buffers.
    pub fn restore_from(&mut self, snap: &FmfSnapshot) {
        self.log.clear();
        self.log.extend_from_slice(&snap.log);
        self.dtc.restore_from(&snap.dtc);
        self.actions.clone_from(&snap.actions);
        self.app_restarts.clear();
        self.app_restarts
            .extend(snap.app_restarts.iter().copied());
        self.terminated_apps.clear();
        self.terminated_apps
            .extend_from_slice(&snap.terminated_apps);
        self.ecu_resets = snap.ecu_resets;
    }
}

/// A deterministic capture of FMF runtime state — see
/// [`FaultManagementFramework::snapshot`]. Plain data (the budget map is
/// flattened, the DTC memory imaged as a record list), so node-level
/// snapshots embedding it can be shared across campaign workers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FmfSnapshot {
    log: Vec<FaultRecord>,
    dtc: DtcStoreSnapshot,
    actions: Vec<TreatmentAction>,
    app_restarts: Vec<(ApplicationId, u32)>,
    terminated_apps: Vec<ApplicationId>,
    ecu_resets: u32,
}

impl FmfSnapshot {
    /// Derives the closed-form per-hyperperiod framework delta between
    /// two images one hyperperiod apart. The log, action queue, restart
    /// budgets and reset counter must sit perfectly still — any new
    /// record is a discrete event — but the DTC memory may *drain*: a
    /// pending code aging toward removal advances its healthy-cycle
    /// counter every healthy cycle, and that uniform advance is the one
    /// motion the delta expresses (see
    /// [`crate::dtc::DtcStoreSnapshot::derive_aging`]).
    pub fn derive_cycle_delta(a: &Self, b: &Self, out: &mut FmfCycleDelta) -> bool {
        a.log == b.log
            && a.actions == b.actions
            && a.app_restarts == b.app_restarts
            && a.terminated_apps == b.terminated_apps
            && a.ecu_resets == b.ecu_resets
            && DtcStoreSnapshot::derive_aging(&a.dtc, &b.dtc, &mut out.dtc_aging)
    }
}

/// The closed-form per-hyperperiod evolution of a quiescent
/// [`FaultManagementFramework`]: the healthy-cycle advance of every
/// pending DTC record. Everything else the framework owns must be at rest
/// for [`FmfSnapshot::derive_cycle_delta`] to certify.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FmfCycleDelta {
    /// Healthy cycles per hyperperiod added to each pending DTC record.
    pub dtc_aging: u32,
}

impl Default for FaultManagementFramework {
    fn default() -> Self {
        FaultManagementFramework::new(SeverityMap::default(), TreatmentPolicy::default())
    }
}

/// The process-interned "global ECU state faulty" reason — one shared
/// allocation no matter how many ECU resets any framework commands.
fn ecu_faulty_reason() -> Arc<str> {
    static REASON: OnceLock<Arc<str>> = OnceLock::new();
    Arc::clone(REASON.get_or_init(|| Arc::from("global ECU state faulty")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use easis_osek::task::TaskId;
    use easis_rte::runnable::RunnableId;

    fn fault(ms: u64, kind: FaultKind) -> DetectedFault {
        DetectedFault {
            at: Instant::from_millis(ms),
            runnable: RunnableId(0),
            kind,
        }
    }

    fn app_faulty(ms: u64) -> StateChange {
        StateChange::ApplicationFaulty {
            app: ApplicationId(0),
            at: Instant::from_millis(ms),
        }
    }

    #[test]
    fn faults_are_logged_and_classified() {
        let mut fmf = FaultManagementFramework::default();
        fmf.ingest_fault(fault(1, FaultKind::Aliveness));
        fmf.ingest_fault(fault(2, FaultKind::ProgramFlow));
        assert_eq!(fmf.log().len(), 2);
        assert_eq!(fmf.count_kind(FaultKind::Aliveness), 1);
        assert_eq!(fmf.count_at_least(Severity::Critical), 1);
        assert_eq!(fmf.count_at_least(Severity::Major), 2);
    }

    #[test]
    fn faulty_app_restarts_then_terminates() {
        let mut fmf = FaultManagementFramework::default(); // budget 3
        for i in 0..5 {
            fmf.ingest_state_change(app_faulty(i * 10));
        }
        let actions = fmf.take_actions();
        let restarts = actions
            .iter()
            .filter(|a| matches!(a.treatment, Treatment::RestartApplication(_)))
            .count();
        let terminates = actions
            .iter()
            .filter(|a| matches!(a.treatment, Treatment::TerminateApplication(_)))
            .count();
        assert_eq!(restarts, 3);
        assert_eq!(terminates, 1); // 5th change hits an already-terminated app
        assert_eq!(fmf.restarts_of(ApplicationId(0)), 3);
        assert!(fmf.is_terminated(ApplicationId(0)));
    }

    #[test]
    fn ecu_faulty_triggers_reset() {
        let mut fmf = FaultManagementFramework::default();
        fmf.ingest_state_change(StateChange::EcuFaulty {
            at: Instant::from_millis(50),
        });
        let actions = fmf.take_actions();
        assert_eq!(actions.len(), 1);
        assert_eq!(actions[0].treatment, Treatment::EcuReset);
        assert_eq!(fmf.ecu_resets(), 1);
    }

    #[test]
    fn ecu_reset_can_be_disabled_by_policy() {
        let policy = TreatmentPolicy {
            reset_on_ecu_faulty: false,
            ..TreatmentPolicy::default()
        };
        let mut fmf = FaultManagementFramework::new(SeverityMap::default(), policy);
        fmf.ingest_state_change(StateChange::EcuFaulty {
            at: Instant::ZERO,
        });
        assert_eq!(fmf.pending_actions(), 0);
    }

    #[test]
    fn task_faulty_alone_produces_no_action() {
        let mut fmf = FaultManagementFramework::default();
        fmf.ingest_state_change(StateChange::TaskFaulty {
            task: TaskId(0),
            at: Instant::ZERO,
        });
        assert_eq!(fmf.pending_actions(), 0);
    }

    #[test]
    fn ingest_all_and_drain() {
        let mut fmf = FaultManagementFramework::default();
        fmf.ingest_all(
            vec![fault(1, FaultKind::Aliveness)],
            vec![app_faulty(1)],
        );
        assert_eq!(fmf.log().len(), 1);
        assert_eq!(fmf.take_actions().len(), 1);
        assert!(fmf.take_actions().is_empty());
    }

    #[test]
    fn treatments_record_fmf_reaction_events() {
        let mut fmf = FaultManagementFramework::default();
        let sink = ObsSink::enabled(8);
        fmf.attach_obs(sink.clone());
        fmf.ingest_state_change(app_faulty(10));
        assert_eq!(sink.counter("fmf_reaction"), 1);
        let events = sink.events();
        assert_eq!(
            events[0].event,
            ObsEvent::FmfReaction {
                treatment: "restart_application"
            }
        );
        assert_eq!(events[0].at, Instant::from_millis(10));
    }

    #[test]
    fn reasons_render_like_the_format_strings_and_are_interned() {
        let mut fmf = FaultManagementFramework::default();
        fmf.ingest_state_change(app_faulty(1));
        fmf.ingest_state_change(app_faulty(2));
        fmf.ingest_state_change(StateChange::EcuFaulty {
            at: Instant::from_millis(3),
        });
        let actions = fmf.take_actions();
        assert_eq!(&*actions[0].reason, "application App0 faulty");
        assert_eq!(&*actions[1].reason, "application App0 faulty");
        assert_eq!(&*actions[2].reason, "global ECU state faulty");
        // Interned: both App0 actions share one allocation, and the cache
        // survives reset() (pooled worlds treat the same apps per trial).
        assert!(std::sync::Arc::ptr_eq(&actions[0].reason, &actions[1].reason));
        fmf.reset();
        fmf.ingest_state_change(app_faulty(10));
        let again = fmf.take_actions();
        assert!(std::sync::Arc::ptr_eq(&actions[0].reason, &again[0].reason));
    }

    #[test]
    fn reset_budgets_restores_restart_capacity() {
        let mut fmf = FaultManagementFramework::default();
        for i in 0..4 {
            fmf.ingest_state_change(app_faulty(i));
        }
        assert!(fmf.is_terminated(ApplicationId(0)));
        fmf.reset_budgets();
        assert!(!fmf.is_terminated(ApplicationId(0)));
        assert_eq!(fmf.restarts_of(ApplicationId(0)), 0);
        fmf.ingest_state_change(app_faulty(100));
        let actions = fmf.take_actions();
        assert!(matches!(
            actions.last().unwrap().treatment,
            Treatment::RestartApplication(_)
        ));
    }

    /// Drives a tail after a capture, restores, and asserts the replay is
    /// observably identical — also after a `reset()` in between.
    #[test]
    fn snapshot_restore_replays_identically() {
        let drive_prefix = |fmf: &mut FaultManagementFramework| {
            fmf.ingest_fault(fault(1, FaultKind::Aliveness));
            fmf.ingest_state_change(app_faulty(5));
        };
        // A fault-only tail: moves the log and DTC memory only.
        let drive_tail = |fmf: &mut FaultManagementFramework| {
            fmf.ingest_fault(fault(20, FaultKind::ArrivalRate));
            fmf.ingest_fault(fault(25, FaultKind::ProgramFlow));
        };
        let observe = |fmf: &FaultManagementFramework| {
            (
                fmf.log().to_vec(),
                fmf.pending_actions(),
                fmf.restarts_of(ApplicationId(0)),
                fmf.ecu_resets(),
                fmf.dtc().iter().map(|r| format!("{r:?}")).collect::<Vec<_>>(),
            )
        };

        let mut fmf = FaultManagementFramework::default();
        drive_prefix(&mut fmf);
        let snap = fmf.snapshot();
        let at_capture = observe(&fmf);

        drive_tail(&mut fmf);
        let after_tail = observe(&fmf);
        assert_ne!(at_capture, after_tail);

        fmf.restore_from(&snap);
        assert_eq!(observe(&fmf), at_capture);
        drive_tail(&mut fmf);
        assert_eq!(observe(&fmf), after_tail);

        fmf.reset();
        fmf.restore_from(&snap);
        assert_eq!(observe(&fmf), at_capture);
        drive_tail(&mut fmf);
        assert_eq!(observe(&fmf), after_tail);
    }
}
