//! Property-based tests of the Fault Management Framework: DTC memory
//! invariants and treatment escalation monotonicity.

use easis_fmf::dtc::{DtcCode, DtcStore, FreezeFrame};
use easis_fmf::framework::FaultManagementFramework;
use easis_fmf::policy::{Treatment, TreatmentPolicy};
use easis_rte::mapping::ApplicationId;
use easis_rte::runnable::RunnableId;
use easis_sim::time::Instant;
use easis_watchdog::report::{DetectedFault, FaultKind, StateChange};
use proptest::prelude::*;

fn fault(runnable: u32, kind_idx: usize, ms: u64) -> DetectedFault {
    DetectedFault {
        at: Instant::from_millis(ms),
        runnable: RunnableId(runnable),
        kind: FaultKind::ALL[kind_idx % 3],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The DTC store's occurrence counters sum to the number of recorded
    /// faults, and codes biject with (runnable, kind) pairs.
    #[test]
    fn dtc_occurrences_conserve_recordings(
        events in prop::collection::vec((0u32..6, 0usize..3), 1..150),
    ) {
        let mut store = DtcStore::new(3, 1_000);
        for (i, &(r, k)) in events.iter().enumerate() {
            store.record(fault(r, k, i as u64), FreezeFrame::default());
        }
        let total: u32 = store.iter().map(|rec| rec.occurrences).sum();
        prop_assert_eq!(total as usize, events.len());
        let distinct: std::collections::BTreeSet<(u32, usize)> =
            events.iter().copied().map(|(r, k)| (r, k % 3)).collect();
        prop_assert_eq!(store.len(), distinct.len());
        // Code decoding round-trips.
        for rec in store.iter() {
            let code = DtcCode::of(rec.code.runnable(), rec.code.kind().unwrap());
            prop_assert_eq!(code, rec.code);
        }
    }

    /// first_seen ≤ last_seen always, and occurrences ≥ 1.
    #[test]
    fn dtc_timestamps_are_ordered(
        times in prop::collection::vec(0u64..10_000, 1..60),
    ) {
        let mut store = DtcStore::new(2, 1_000);
        let mut sorted = times.clone();
        sorted.sort_unstable();
        for &t in &sorted {
            store.record(fault(0, 0, t), FreezeFrame::default());
        }
        let rec = store.iter().next().unwrap();
        prop_assert!(rec.first_seen <= rec.last_seen);
        prop_assert_eq!(rec.occurrences as usize, sorted.len());
        prop_assert_eq!(rec.first_seen, Instant::from_millis(sorted[0]));
    }

    /// Treatment escalation is monotone: restarts never resume after
    /// termination, and restart count never exceeds the budget.
    #[test]
    fn escalation_is_monotone(budget in 0u32..6, episodes in 1u32..15) {
        let policy = TreatmentPolicy {
            max_app_restarts: budget,
            reset_on_ecu_faulty: false,
            treat: true,
        };
        let mut fmf = FaultManagementFramework::new(policy, 1);
        let app = ApplicationId(0);
        let mut seen_terminate = false;
        for i in 0..episodes {
            let action = fmf.ingest_state_change(StateChange::ApplicationFaulty {
                app,
                at: Instant::from_millis(i as u64 * 10),
            });
            match action.map(|a| a.treatment) {
                Some(Treatment::RestartApplication(_)) => {
                    prop_assert!(!seen_terminate, "restart after terminate");
                }
                Some(Treatment::TerminateApplication(_)) => seen_terminate = true,
                _ => {}
            }
        }
        prop_assert!(fmf.restarts_of(app) <= budget);
        prop_assert_eq!(seen_terminate, episodes > budget);
    }

    /// The observe-only policy never produces an action, whatever arrives.
    #[test]
    fn observe_only_never_acts(events in prop::collection::vec(0u32..3, 1..40)) {
        let mut fmf = FaultManagementFramework::new(TreatmentPolicy::observe_only(), 1);
        for (i, &e) in events.iter().enumerate() {
            let at = Instant::from_millis(i as u64);
            let action = match e {
                0 => fmf.ingest_state_change(StateChange::ApplicationFaulty {
                    app: ApplicationId(0),
                    at,
                }),
                1 => fmf.ingest_state_change(StateChange::EcuFaulty { at }),
                _ => {
                    fmf.ingest_fault(fault(0, 0, i as u64), FreezeFrame::default());
                    None
                }
            };
            prop_assert_eq!(action, None);
        }
        prop_assert_eq!(fmf.ecu_resets(), 0);
    }
}
