//! The Fault Management Framework service.
//!
//! [`FaultManagementFramework`] is the "general fault treatment system that
//! gathers the information on the detected faults" (paper §4.4). It ingests
//! the Software Watchdog's fault and state-change outboxes, keeps the fault
//! log, applies the [`TreatmentPolicy`] and queues [`TreatmentAction`]s
//! for the platform integration to execute.

use crate::dtc::{DtcStore, FreezeFrame};
use crate::policy::{Treatment, TreatmentAction, TreatmentPolicy};
use crate::record::{FaultRecord, Severity, SeverityMap};
use easis_obs::{ObsEvent, ObsSink};
use easis_rte::mapping::ApplicationId;
use easis_sim::growth::LogGrowth;
use easis_sim::time::{Duration, Instant};
use easis_watchdog::report::{DetectedFault, FaultKind, StateChange};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// The FMF service.
#[derive(Debug, Clone)]
pub struct FaultManagementFramework {
    severity_map: SeverityMap,
    policy: TreatmentPolicy,
    obs: ObsSink,
    /// Interned treatment reasons, one `Arc<str>` per application ever
    /// treated. The rendered strings are exactly what the old
    /// `format!`-per-action path produced; interning just means an
    /// application's second (and every later) treatment allocates
    /// nothing. Runtime caching only, so the state leaves it out and a
    /// restore keeps it: a campaign node treats the same applications
    /// trial after trial.
    app_reasons: BTreeMap<ApplicationId, Arc<str>>,
    state: FmfState,
}

easis_sim::clone_fields! {
    /// Everything a framework run can change — fault log, DTC memory,
    /// queued actions, restart budgets, reset counter — and so the
    /// framework's checkpoint ([`FaultManagementFramework::state`],
    /// [`FaultManagementFramework::restore`]). The restart budgets are
    /// dense by application id and sized when the framework is built, so
    /// budgets cleared by an ECU reset equal never-used ones. The severity
    /// map, policy, observability sink and interned-reason cache are wiring
    /// (the cache affects only allocation identity, never rendered
    /// content).
    ///
    /// The log comes last: the derived `==` compares fields in order, and
    /// certification finds its rejections in the short fields, while the
    /// log only grows (see [`FmfState::measure`]).
    #[derive(Debug, Default, PartialEq)]
    pub struct FmfState {
        dtc: DtcStore,
        actions: Vec<TreatmentAction>,
        /// Restarts granted, by application id.
        restarts: Vec<u32>,
        /// Terminated (failed-silent) flag, by application id.
        terminated: Vec<bool>,
        ecu_resets: u32,
        log: Vec<FaultRecord>,
    }
}

impl FaultManagementFramework {
    /// Creates the framework with the given classification and policy,
    /// with restart budgets for `applications` applications (ids
    /// `0..applications`).
    pub fn new(severity_map: SeverityMap, policy: TreatmentPolicy, applications: usize) -> Self {
        FaultManagementFramework {
            severity_map,
            policy,
            obs: ObsSink::disabled(),
            app_reasons: BTreeMap::new(),
            state: FmfState {
                restarts: vec![0; applications],
                terminated: vec![false; applications],
                ..FmfState::default()
            },
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
        self.state.log.push(FaultRecord {
            fault,
            severity: self.severity_map.classify(fault.kind),
        });
        self.state.dtc.record_ref(fault, freeze_frame);
    }

    /// Marks one healthy operating cycle for DTC aging (call it e.g. once
    /// per watchdog cycle without detections).
    pub fn healthy_cycle(&mut self) {
        self.state.dtc.healthy_cycle();
    }

    /// Read access to the DTC fault memory.
    pub fn dtc(&self) -> &DtcStore {
        &self.state.dtc
    }

    /// Jumps the framework, sampled at `now`, `k` certified hyperperiods
    /// ahead ([`FmfState::advance`] on the live state).
    pub fn advance(&mut self, delta: &FmfCycleDelta, k: u64, now: Instant) {
        self.state.advance(delta, k, now);
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
                let i = app.index();
                if self.state.terminated[i] {
                    return; // already failed silent
                }
                let treatment = self.policy.for_faulty_app(app, self.state.restarts[i]);
                match treatment {
                    Treatment::RestartApplication(_) => self.state.restarts[i] += 1,
                    Treatment::TerminateApplication(_) => self.state.terminated[i] = true,
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
                    self.state.ecu_resets += 1;
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
        self.state.actions.push(TreatmentAction {
            at,
            treatment,
            reason,
        });
    }

    /// Drains the queued treatment actions for execution.
    pub fn take_actions(&mut self) -> Vec<TreatmentAction> {
        std::mem::take(&mut self.state.actions)
    }

    /// Drains decided actions into `out` (appending), retaining the queue
    /// allocation — the allocation-free alternative to
    /// [`FaultManagementFramework::take_actions`] for the campaign hot
    /// path.
    pub fn drain_actions_into(&mut self, out: &mut Vec<TreatmentAction>) {
        out.append(&mut self.state.actions);
    }

    /// Number of queued, unexecuted actions.
    pub fn pending_actions(&self) -> usize {
        self.state.actions.len()
    }

    /// The complete fault log.
    pub fn log(&self) -> &[FaultRecord] {
        &self.state.log
    }

    /// Faults of one kind in the log.
    pub fn count_kind(&self, kind: FaultKind) -> usize {
        self.state
            .log
            .iter()
            .filter(|r| r.fault.kind == kind)
            .count()
    }

    /// Faults at or above a severity.
    pub fn count_at_least(&self, severity: Severity) -> usize {
        self.state
            .log
            .iter()
            .filter(|r| r.severity >= severity)
            .count()
    }

    /// Restart count of an application.
    pub fn restarts_of(&self, app: ApplicationId) -> u32 {
        self.state.restarts.get(app.index()).copied().unwrap_or(0)
    }

    /// `true` if the application was terminated (failed silent).
    pub fn is_terminated(&self, app: ApplicationId) -> bool {
        self.state
            .terminated
            .get(app.index())
            .copied()
            .unwrap_or(false)
    }

    /// Number of ECU software resets commanded.
    pub fn ecu_resets(&self) -> u32 {
        self.state.ecu_resets
    }

    /// Marks a recovery cycle complete: clears restart budgets (e.g. after
    /// an ECU reset, everything starts fresh).
    pub fn reset_budgets(&mut self) {
        self.state.restarts.fill(0);
        self.state.terminated.fill(false);
    }

    /// The framework's runtime state — its checkpoint (see [`FmfState`]).
    pub fn state(&self) -> &FmfState {
        &self.state
    }

    /// Restores runtime state captured from
    /// [`FaultManagementFramework::state`]: one `clone_from` into the
    /// retained buffers (the DTC memory recycles its records in place).
    pub fn restore(&mut self, state: &FmfState) {
        self.state.clone_from(state);
    }
}

/// One hyperperiod of the framework's motion: the DTC aging increment,
/// the occurrence growth of confirmed DTC records and the fault-log
/// entries a faulty steady state appends. Measured by
/// [`FmfState::measure`], applied by [`FmfState::advance`]; the buffers
/// are reused.
#[derive(Debug, Clone, Default)]
pub struct FmfCycleDelta {
    h: Duration,
    dtc_aging: u32,
    dtc_occurrences: Vec<u64>,
    log: LogGrowth<FaultRecord>,
}

impl FmfState {
    /// Whether two states hold the same number of DTC records: a sampled
    /// hyperperiod that straddles a new code or an age-out has no uniform
    /// advance to measure. One of certification's cheap refusals, run
    /// before anything is measured.
    pub fn same_dtc_count(a: &Self, b: &Self) -> bool {
        a.dtc.len() == b.dtc.len()
    }

    /// Measures the framework's motion between two states `h` apart, the
    /// first sampled at `since`: the DTC aging increment
    /// ([`DtcStore::measure_aging`]), the occurrence growth of confirmed
    /// records ([`DtcStore::measure_occurrences`]) and the log entries
    /// appended in between, which no treatment decision reads. Returns
    /// `false` when the record count changed or the log shrank.
    /// Certification advances `a` by the delta once and compares the
    /// result with `b` whole, so the action queue, restart budgets, reset
    /// counter, pending records and every record's status, first
    /// occurrence and freeze frame must sit still.
    pub fn measure(
        a: &Self,
        b: &Self,
        since: Instant,
        h: Duration,
        delta: &mut FmfCycleDelta,
    ) -> bool {
        let Some(dtc_aging) = DtcStore::measure_aging(&a.dtc, &b.dtc) else {
            return false;
        };
        delta.h = h;
        delta.dtc_aging = dtc_aging;
        DtcStore::measure_occurrences(&a.dtc, &b.dtc, &mut delta.dtc_occurrences);
        delta.log.measure(&a.log, &b.log, since, h)
    }

    /// Advances a state sampled at `now` `k` hyperperiods by `delta`:
    /// confirmed records gain their occurrences, `dtc_aging` healthy
    /// cycles age the pending ones `k` times ([`DtcStore::apply_aging`]),
    /// and the log gains `k` shifted copies of the measured entries. With
    /// k = 1 on a certification sample, with k on the live state when
    /// jumping.
    pub fn advance(&mut self, delta: &FmfCycleDelta, k: u64, now: Instant) {
        self.dtc
            .advance_occurrences(&delta.dtc_occurrences, k, delta.h * k);
        self.dtc.apply_aging(delta.dtc_aging, k);
        delta.log.advance(&mut self.log, now, k);
    }
}

/// The default classification and policy, with the budget of one
/// application (id 0, as on a SafeSpeed-only node).
impl Default for FaultManagementFramework {
    fn default() -> Self {
        FaultManagementFramework::new(SeverityMap::default(), TreatmentPolicy::default(), 1)
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
    fn a_faulty_steady_state_replays_its_log_and_dtc_growth() {
        // One aliveness fault every 20 ms hyperperiod; the DTC confirms at
        // the third.
        let h = Duration::from_millis(20);
        let mut fmf = FaultManagementFramework::default();
        for ms in [10, 30, 50] {
            fmf.ingest_fault(fault(ms, FaultKind::Aliveness));
        }
        let a = fmf.state().clone();
        fmf.ingest_fault(fault(70, FaultKind::Aliveness));
        let b = fmf.state().clone();
        let mut delta = FmfCycleDelta::default();
        assert!(FmfState::measure(&a, &b, Instant::from_millis(60), h, &mut delta));
        let mut advanced = a.clone();
        advanced.advance(&delta, 1, Instant::from_millis(60));
        assert_eq!(advanced, b);
        let mut jumped = b.clone();
        jumped.advance(&delta, 3, Instant::from_millis(80));
        for ms in [90, 110, 130] {
            fmf.ingest_fault(fault(ms, FaultKind::Aliveness));
        }
        assert_eq!(&jumped, fmf.state());
        assert_eq!(jumped.log.len(), 7);
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
        let mut fmf = FaultManagementFramework::new(SeverityMap::default(), policy, 1);
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
        let fresh = fmf.state().clone();
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
        // survives a rewind (campaign nodes treat the same apps per trial).
        assert!(std::sync::Arc::ptr_eq(&actions[0].reason, &actions[1].reason));
        fmf.restore(&fresh);
        fmf.ingest_state_change(app_faulty(10));
        let again = fmf.take_actions();
        assert!(std::sync::Arc::ptr_eq(&actions[0].reason, &again[0].reason));
    }

    #[test]
    fn reset_budgets_equal_never_used_ones() {
        let mut fmf = FaultManagementFramework::default();
        let fresh = fmf.state().clone();
        for i in 0..4 {
            fmf.ingest_state_change(app_faulty(i));
        }
        fmf.take_actions();
        assert_ne!(fmf.state(), &fresh);
        fmf.reset_budgets();
        assert_eq!(fmf.state(), &fresh);
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
    /// observably identical — also after a rewind to the fresh unit in
    /// between.
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
        let fresh = fmf.state().clone();
        drive_prefix(&mut fmf);
        let snap = fmf.state().clone();
        let at_capture = observe(&fmf);

        drive_tail(&mut fmf);
        let after_tail = observe(&fmf);
        assert_ne!(at_capture, after_tail);

        fmf.restore(&snap);
        assert_eq!(fmf.state(), &snap);
        assert_eq!(observe(&fmf), at_capture);
        drive_tail(&mut fmf);
        assert_eq!(observe(&fmf), after_tail);

        fmf.restore(&fresh);
        fmf.restore(&snap);
        assert_eq!(observe(&fmf), at_capture);
        drive_tail(&mut fmf);
        assert_eq!(observe(&fmf), after_tail);
    }
}
