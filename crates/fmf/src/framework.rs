//! The Fault Management Framework service.
//!
//! [`FaultManagementFramework`] is the "general fault treatment system that
//! gathers the information on the detected faults" (paper §4.4). It ingests
//! the faults and state changes the Software Watchdog hands over, records
//! the faults in its DTC memory, and applies the [`TreatmentPolicy`] to
//! each state change, returning the decided [`TreatmentAction`] for the
//! platform integration to execute. It keeps no log of its own: every
//! detection is recorded once, in the watchdog service's detection log
//! (`easis_watchdog::detection`), and every executed treatment once, by
//! the platform.

use crate::dtc::{DtcStore, FreezeFrame};
use crate::policy::{Treatment, TreatmentAction, TreatmentPolicy};
use easis_obs::{ObsEvent, ObsSink};
use easis_rte::mapping::ApplicationId;
use easis_sim::time::Duration;
use easis_watchdog::report::{DetectedFault, StateChange};

/// The FMF service.
#[derive(Debug, Clone)]
pub struct FaultManagementFramework {
    policy: TreatmentPolicy,
    obs: ObsSink,
    state: FmfState,
}

easis_sim::clone_fields! {
    /// Everything a framework run can change — DTC memory, restart
    /// budgets, terminated flags, reset counter — and so the framework's
    /// checkpoint ([`FaultManagementFramework::state`],
    /// [`FaultManagementFramework::restore`]). The restart budgets are
    /// dense by application id and sized when the framework is built, so
    /// budgets cleared by an ECU reset equal never-used ones. The policy
    /// and observability sink are wiring.
    #[derive(Debug, Default, PartialEq)]
    pub struct FmfState {
        dtc: DtcStore,
        /// Restarts granted, by application id.
        restarts: Vec<u32>,
        /// Terminated (failed-silent) flag, by application id.
        terminated: Vec<bool>,
        /// ECU software resets commanded: the node's one count of them.
        ecu_resets: u32,
    }
}

impl FaultManagementFramework {
    /// Creates the framework with the given policy, with restart budgets
    /// for `applications` applications (ids `0..applications`).
    pub fn new(policy: TreatmentPolicy, applications: usize) -> Self {
        FaultManagementFramework {
            policy,
            obs: ObsSink::disabled(),
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

    /// Records a detected fault in the DTC memory, with the operating
    /// conditions the platform captured at detection (kept only for the
    /// code's first occurrence).
    pub fn ingest_fault(&mut self, fault: DetectedFault, freeze_frame: FreezeFrame) {
        self.state.dtc.record(fault, freeze_frame);
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

    /// Jumps the framework `k` certified hyperperiods ahead
    /// ([`FmfState::advance`] on the live state).
    pub fn advance(&mut self, delta: &FmfCycleDelta, k: u64) {
        self.state.advance(delta, k);
    }

    /// Processes a watchdog state change and returns the treatment the
    /// policy decides for it, if any. Task-level verdicts are treated at
    /// the application level: the change is implicit in the
    /// `ApplicationFaulty` that accompanies it.
    pub fn ingest_state_change(&mut self, change: StateChange) -> Option<TreatmentAction> {
        if !self.policy.treat {
            return None;
        }
        let (at, treatment) = match change {
            StateChange::TaskFaulty { .. } => return None,
            StateChange::ApplicationFaulty { app, at } => {
                let i = app.index();
                if self.state.terminated[i] {
                    return None; // already failed silent
                }
                let treatment = self.policy.for_faulty_app(app, self.state.restarts[i]);
                match treatment {
                    Treatment::RestartApplication(_) => self.state.restarts[i] += 1,
                    Treatment::TerminateApplication(_) => self.state.terminated[i] = true,
                    Treatment::EcuReset => {}
                }
                (at, treatment)
            }
            StateChange::EcuFaulty { at } => {
                let treatment = self.policy.for_faulty_ecu()?;
                self.state.ecu_resets += 1;
                (at, treatment)
            }
        };
        self.obs.record(
            at,
            ObsEvent::FmfReaction {
                treatment: treatment.label(),
            },
        );
        Some(TreatmentAction { at, treatment })
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
    /// retained buffers.
    pub fn restore(&mut self, state: &FmfState) {
        self.state.clone_from(state);
    }
}

/// One hyperperiod of the framework's motion: the DTC aging increment
/// and the occurrence growth of confirmed DTC records. Measured by
/// [`FmfState::measure`], applied by [`FmfState::advance`]; the buffer
/// is reused.
#[derive(Debug, Clone, Default)]
pub struct FmfCycleDelta {
    h: Duration,
    dtc_aging: u32,
    dtc_occurrences: Vec<u64>,
}

impl FmfState {
    /// Whether two states hold the same number of DTC records: a sampled
    /// hyperperiod that straddles a new code or an age-out has no uniform
    /// advance to measure. One of certification's cheap refusals, run
    /// before anything is measured.
    pub fn same_dtc_count(a: &Self, b: &Self) -> bool {
        a.dtc.len() == b.dtc.len()
    }

    /// Measures the framework's motion between two states `h` apart: the
    /// DTC aging increment ([`DtcStore::measure_aging`]) and the
    /// occurrence growth of confirmed records
    /// ([`DtcStore::measure_occurrences`]). Returns `false` when the
    /// record count changed. Certification advances `a` by the delta once
    /// and compares the result with `b` whole, so the restart budgets,
    /// terminated flags, reset counter, pending records and every record's
    /// status, first occurrence and freeze frame must sit still.
    pub fn measure(a: &Self, b: &Self, h: Duration, delta: &mut FmfCycleDelta) -> bool {
        let Some(dtc_aging) = DtcStore::measure_aging(&a.dtc, &b.dtc) else {
            return false;
        };
        delta.h = h;
        delta.dtc_aging = dtc_aging;
        DtcStore::measure_occurrences(&a.dtc, &b.dtc, &mut delta.dtc_occurrences);
        true
    }

    /// Advances a state `k` hyperperiods by `delta`: confirmed records
    /// gain their occurrences and `dtc_aging` healthy cycles age the
    /// pending ones `k` times ([`DtcStore::apply_aging`]). With k = 1 on
    /// a certification sample, with k on the live state when jumping.
    pub fn advance(&mut self, delta: &FmfCycleDelta, k: u64) {
        self.dtc
            .advance_occurrences(&delta.dtc_occurrences, k, delta.h * k);
        self.dtc.apply_aging(delta.dtc_aging, k);
    }
}

/// The default policy, with the budget of one application (id 0, as on a
/// SafeSpeed-only node).
impl Default for FaultManagementFramework {
    fn default() -> Self {
        FaultManagementFramework::new(TreatmentPolicy::default(), 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtc::DtcRecord;
    use easis_osek::task::TaskId;
    use easis_rte::runnable::RunnableId;
    use easis_sim::time::Instant;
    use easis_watchdog::report::FaultKind;

    fn fault(ms: u64, kind: FaultKind) -> DetectedFault {
        DetectedFault {
            at: Instant::from_millis(ms),
            runnable: RunnableId(0),
            kind,
        }
    }

    /// Records a fault with an empty freeze frame.
    fn ingest(fmf: &mut FaultManagementFramework, ms: u64, kind: FaultKind) {
        fmf.ingest_fault(fault(ms, kind), FreezeFrame::default());
    }

    fn app_faulty(ms: u64) -> StateChange {
        StateChange::ApplicationFaulty {
            app: ApplicationId(0),
            at: Instant::from_millis(ms),
        }
    }

    /// The records and treatments are plain data: a field that owns heap
    /// memory would stop them being `Copy` and fail to compile here.
    #[test]
    fn records_and_treatments_are_copy() {
        fn copy<T: Copy>() {}
        copy::<DtcRecord>();
        copy::<FreezeFrame>();
        copy::<TreatmentAction>();
    }

    #[test]
    fn a_faulty_steady_state_replays_its_dtc_growth() {
        // One aliveness fault every 20 ms hyperperiod; the DTC confirms at
        // the third.
        let h = Duration::from_millis(20);
        let mut fmf = FaultManagementFramework::default();
        for ms in [10, 30, 50] {
            ingest(&mut fmf, ms, FaultKind::Aliveness);
        }
        let a = fmf.state().clone();
        ingest(&mut fmf, 70, FaultKind::Aliveness);
        let b = fmf.state().clone();
        let mut delta = FmfCycleDelta::default();
        assert!(FmfState::measure(&a, &b, h, &mut delta));
        let mut advanced = a.clone();
        advanced.advance(&delta, 1);
        assert_eq!(advanced, b);
        let mut jumped = b.clone();
        jumped.advance(&delta, 3);
        for ms in [90, 110, 130] {
            ingest(&mut fmf, ms, FaultKind::Aliveness);
        }
        assert_eq!(&jumped, fmf.state());
        assert_eq!(jumped.dtc.iter().next().unwrap().occurrences, 7);
    }

    #[test]
    fn faulty_app_restarts_then_terminates() {
        let mut fmf = FaultManagementFramework::default(); // budget 3
        let actions: Vec<TreatmentAction> = (0..5)
            .filter_map(|i| fmf.ingest_state_change(app_faulty(i * 10)))
            .collect();
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
        assert_eq!(actions.len(), 4);
        assert_eq!(fmf.restarts_of(ApplicationId(0)), 3);
        assert!(fmf.is_terminated(ApplicationId(0)));
    }

    #[test]
    fn ecu_faulty_triggers_reset() {
        let mut fmf = FaultManagementFramework::default();
        let at = Instant::from_millis(50);
        let action = fmf.ingest_state_change(StateChange::EcuFaulty { at });
        let reset = TreatmentAction {
            at,
            treatment: Treatment::EcuReset,
        };
        assert_eq!(action, Some(reset));
        assert_eq!(fmf.ecu_resets(), 1);
    }

    #[test]
    fn ecu_reset_can_be_disabled_by_policy() {
        let policy = TreatmentPolicy {
            reset_on_ecu_faulty: false,
            ..TreatmentPolicy::default()
        };
        let mut fmf = FaultManagementFramework::new(policy, 1);
        let action = fmf.ingest_state_change(StateChange::EcuFaulty { at: Instant::ZERO });
        assert_eq!(action, None);
        assert_eq!(fmf.ecu_resets(), 0);
    }

    #[test]
    fn task_faulty_alone_produces_no_action() {
        let mut fmf = FaultManagementFramework::default();
        let fresh = fmf.state().clone();
        let action = fmf.ingest_state_change(StateChange::TaskFaulty {
            task: TaskId(0),
            at: Instant::ZERO,
        });
        assert_eq!(action, None);
        assert_eq!(fmf.state(), &fresh);
    }

    #[test]
    fn ingest_records_and_decides() {
        let mut fmf = FaultManagementFramework::default();
        ingest(&mut fmf, 1, FaultKind::Aliveness);
        let action = fmf.ingest_state_change(app_faulty(1));
        assert_eq!(fmf.dtc().len(), 1);
        assert_eq!(
            action.map(|a| a.treatment),
            Some(Treatment::RestartApplication(ApplicationId(0)))
        );
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
    fn reset_budgets_equal_never_used_ones() {
        let mut fmf = FaultManagementFramework::default();
        let fresh = fmf.state().clone();
        for i in 0..4 {
            fmf.ingest_state_change(app_faulty(i));
        }
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
        let action = fmf.ingest_state_change(app_faulty(100));
        assert!(matches!(
            action.map(|a| a.treatment),
            Some(Treatment::RestartApplication(_))
        ));
    }

    /// Drives a tail after a capture, restores, and asserts the replay is
    /// observably identical — also after a rewind to the fresh unit in
    /// between.
    #[test]
    fn snapshot_restore_replays_identically() {
        let drive_prefix = |fmf: &mut FaultManagementFramework| {
            ingest(fmf, 1, FaultKind::Aliveness);
            fmf.ingest_state_change(app_faulty(5));
        };
        // A fault-only tail: moves the DTC memory only.
        let drive_tail = |fmf: &mut FaultManagementFramework| {
            ingest(fmf, 20, FaultKind::ArrivalRate);
            ingest(fmf, 25, FaultKind::ProgramFlow);
        };
        let observe = |fmf: &FaultManagementFramework| {
            (
                fmf.restarts_of(ApplicationId(0)),
                fmf.ecu_resets(),
                fmf.dtc().iter().copied().collect::<Vec<_>>(),
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
