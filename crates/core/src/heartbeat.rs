//! Heartbeat monitoring unit.
//!
//! The passive monitoring approach of the paper (§3.3): every runnable
//! execution increments its Aliveness Counter (AC) and Arrival Rate Counter
//! (ARC); the watchdog's periodic task advances the Cycle Counters (CCA,
//! CCAR) and, "shortly before the next period begins", checks the heartbeat
//! counters against the fault hypothesis. All counters reset "if the
//! periods defined in the fault hypothesis expire or an error is detected
//! in the last cycle". An Activation Status (AS) per runnable gates the
//! whole mechanism.

use crate::config::{IdIndex, RunnableHypothesis};
use crate::report::{DetectedFault, FaultKind, RunnableCounters};
use easis_obs::{ObsEvent, ObsSink};
use easis_rte::runnable::RunnableId;
use easis_sim::cpu::CostMeter;
use easis_sim::growth::{advance_counts, measure_counts};
use easis_sim::time::Instant;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Abstract CPU cost (cycles) of one heartbeat indication: AS check plus
/// two counter increments.
pub const HEARTBEAT_COST_CYCLES: u64 = 9;

/// Abstract CPU cost (cycles) of the per-runnable end-of-cycle check.
pub const CHECK_COST_CYCLES: u64 = 23;

easis_sim::clone_fields! {
    /// The heartbeat monitoring unit: one counter set per monitored
    /// runnable.
    ///
    /// Runnables are interned into dense slots ([`IdIndex`], ascending id
    /// order), and the AC/ARC/CCA/CCAR counters plus Activation Status live
    /// in packed parallel arrays indexed by slot — one heartbeat indication
    /// is a slot lookup and two array increments (branch-light O(1)), and
    /// the end-of-cycle check is a linear sweep over contiguous slices.
    /// Sweeping slots in ascending order reproduces the previous `BTreeMap`
    /// iteration order exactly, so fault ordering, cost charges, and
    /// observability events are unchanged.
    ///
    /// The unit is all runtime state — the index and the hypotheses too,
    /// because [`HeartbeatMonitor::reconfigure`] changes them — so it is
    /// its own checkpoint. Its only wiring, the observability sink, is an
    /// argument of the calls that record.
    #[derive(Debug, Default, PartialEq, Serialize, Deserialize)]
    pub struct HeartbeatMonitor {
        index: IdIndex,
        hypotheses: Vec<RunnableHypothesis>,
        ac: Vec<u32>,
        arc: Vec<u32>,
        cca: Vec<u32>,
        ccar: Vec<u32>,
        active: Vec<bool>,
        aliveness_errors: Vec<u32>,
        arrival_rate_errors: Vec<u32>,
    }
}

impl HeartbeatMonitor {
    /// Creates the unit from the per-runnable fault hypotheses. A later
    /// hypothesis for the same runnable replaces an earlier one.
    pub fn new(hypotheses: impl IntoIterator<Item = RunnableHypothesis>) -> Self {
        let by_id: BTreeMap<RunnableId, RunnableHypothesis> = hypotheses
            .into_iter()
            .map(|h| (h.runnable, h))
            .collect();
        let mut monitor = HeartbeatMonitor {
            index: IdIndex::from_ids(by_id.keys().map(|r| r.0)),
            hypotheses: Vec::with_capacity(by_id.len()),
            ac: vec![0; by_id.len()],
            arc: vec![0; by_id.len()],
            cca: vec![0; by_id.len()],
            ccar: vec![0; by_id.len()],
            active: Vec::with_capacity(by_id.len()),
            aliveness_errors: vec![0; by_id.len()],
            arrival_rate_errors: vec![0; by_id.len()],
        };
        for (_, h) in by_id {
            monitor.active.push(h.initially_active);
            monitor.hypotheses.push(h);
        }
        monitor
    }

    /// Records one aliveness indication at `now`. Unmonitored runnables
    /// and runnables with a cleared activation status are ignored (the
    /// glue call is still charged to `costs`, as the AS test itself costs
    /// cycles). Counted indications are recorded to `obs` (a disabled sink
    /// records nothing).
    #[inline]
    pub fn record(
        &mut self,
        runnable: RunnableId,
        now: Instant,
        costs: &mut CostMeter,
        obs: &ObsSink,
    ) {
        costs.charge(HEARTBEAT_COST_CYCLES);
        if let Some(slot) = self.index.slot_of_runnable(runnable) {
            let slot = slot as usize;
            if self.active[slot] {
                self.ac[slot] = self.ac[slot].saturating_add(1);
                self.arc[slot] = self.arc[slot].saturating_add(1);
                obs.record(now, ObsEvent::HeartbeatRecorded { runnable });
            }
        }
    }

    /// Advances all cycle counters by one watchdog cycle and performs the
    /// end-of-period checks. Returns the faults detected in this cycle,
    /// recording each to `obs`.
    pub fn end_of_cycle(
        &mut self,
        now: Instant,
        costs: &mut CostMeter,
        obs: &ObsSink,
    ) -> Vec<DetectedFault> {
        let mut faults = Vec::new();
        self.end_of_cycle_into(now, costs, &mut faults, obs);
        faults
    }

    /// Like [`HeartbeatMonitor::end_of_cycle`], but appends the detected
    /// faults to a caller-supplied buffer so a steady state (no faults)
    /// performs no allocation.
    pub fn end_of_cycle_into(
        &mut self,
        now: Instant,
        costs: &mut CostMeter,
        faults: &mut Vec<DetectedFault>,
        obs: &ObsSink,
    ) {
        for slot in 0..self.index.len() {
            if !self.active[slot] {
                continue;
            }
            let runnable = RunnableId(self.index.id_at(slot as u32));
            costs.charge(CHECK_COST_CYCLES);
            if let Some(spec) = self.hypotheses[slot].aliveness {
                self.cca[slot] += 1;
                if self.cca[slot] >= spec.cycles {
                    if self.ac[slot] < spec.min_indications {
                        self.aliveness_errors[slot] += 1;
                        obs.record(
                            now,
                            ObsEvent::FaultDetected {
                                runnable,
                                kind: easis_obs::FaultClass::Aliveness,
                            },
                        );
                        faults.push(DetectedFault {
                            at: now,
                            runnable,
                            kind: FaultKind::Aliveness,
                        });
                    }
                    self.ac[slot] = 0;
                    self.cca[slot] = 0;
                }
            }
            if let Some(spec) = self.hypotheses[slot].arrival_rate {
                self.ccar[slot] += 1;
                if self.ccar[slot] >= spec.cycles {
                    if self.arc[slot] > spec.max_indications {
                        self.arrival_rate_errors[slot] += 1;
                        obs.record(
                            now,
                            ObsEvent::FaultDetected {
                                runnable,
                                kind: easis_obs::FaultClass::ArrivalRate,
                            },
                        );
                        faults.push(DetectedFault {
                            at: now,
                            runnable,
                            kind: FaultKind::ArrivalRate,
                        });
                    }
                    self.arc[slot] = 0;
                    self.ccar[slot] = 0;
                }
            }
        }
    }

    /// Measures how far the aliveness and arrival-rate error counts of `b`
    /// are ahead of `a`'s, slot by slot. The counts are reports (the
    /// Figure 5/6 plot quantities): no check reads them back, so a faulty
    /// steady state may raise them every hyperperiod. Every other counter
    /// must come back, which the caller's comparison checks.
    pub fn measure_errors(
        a: &Self,
        b: &Self,
        aliveness: &mut Vec<u64>,
        arrival_rate: &mut Vec<u64>,
    ) {
        measure_counts(&a.aliveness_errors, &b.aliveness_errors, aliveness);
        measure_counts(&a.arrival_rate_errors, &b.arrival_rate_errors, arrival_rate);
    }

    /// Raises the error counts by `k` times their measured growth.
    pub fn advance_errors(&mut self, aliveness: &[u64], arrival_rate: &[u64], k: u64) {
        advance_counts(&mut self.aliveness_errors, aliveness, k);
        advance_counts(&mut self.arrival_rate_errors, arrival_rate, k);
    }

    /// Replaces the fault hypothesis of a runnable at runtime (dynamic
    /// reconfiguration, the paper's outlook). Counters reset so the new
    /// hypothesis starts a fresh monitoring period; the activation status
    /// is preserved. Unknown runnables become newly monitored.
    pub fn reconfigure(&mut self, hypothesis: RunnableHypothesis) {
        let runnable = hypothesis.runnable;
        match self.index.slot_of_runnable(runnable) {
            Some(slot) => {
                let slot = slot as usize;
                self.hypotheses[slot] = hypothesis;
                self.ac[slot] = 0;
                self.arc[slot] = 0;
                self.cca[slot] = 0;
                self.ccar[slot] = 0;
            }
            None => {
                let slot = self.index.insert(runnable.0) as usize;
                self.active.insert(slot, hypothesis.initially_active);
                self.hypotheses.insert(slot, hypothesis);
                self.ac.insert(slot, 0);
                self.arc.insert(slot, 0);
                self.cca.insert(slot, 0);
                self.ccar.insert(slot, 0);
                self.aliveness_errors.insert(slot, 0);
                self.arrival_rate_errors.insert(slot, 0);
            }
        }
    }

    /// Sets the activation status of a runnable; clearing it also resets
    /// the counters so monitoring restarts cleanly when re-armed.
    /// Returns `false` for unmonitored runnables.
    pub fn set_active(&mut self, runnable: RunnableId, active: bool) -> bool {
        match self.index.slot_of_runnable(runnable) {
            Some(slot) => {
                let slot = slot as usize;
                self.active[slot] = active;
                if !active {
                    self.ac[slot] = 0;
                    self.arc[slot] = 0;
                    self.cca[slot] = 0;
                    self.ccar[slot] = 0;
                }
                true
            }
            None => false,
        }
    }

    /// `true` if the runnable is monitored and its AS is set.
    pub fn is_active(&self, runnable: RunnableId) -> bool {
        self.index
            .slot_of_runnable(runnable)
            .is_some_and(|slot| self.active[slot as usize])
    }

    /// Live counter values (aliveness/arrival parts; PFC attribution is
    /// merged in by the service facade).
    pub fn counters(&self, runnable: RunnableId) -> Option<RunnableCounters> {
        self.index.slot_of_runnable(runnable).map(|slot| {
            let slot = slot as usize;
            RunnableCounters {
                ac: self.ac[slot],
                arc: self.arc[slot],
                cca: self.cca[slot],
                ccar: self.ccar[slot],
                activation: self.active[slot],
                aliveness_errors: self.aliveness_errors[slot],
                arrival_rate_errors: self.arrival_rate_errors[slot],
                program_flow_errors: 0,
            }
        })
    }

    /// The runnable interner (slot per monitored runnable).
    pub fn index(&self) -> &IdIndex {
        &self.index
    }

    /// Monitored runnables, in ascending id order.
    pub fn monitored(&self) -> impl Iterator<Item = RunnableId> + '_ {
        self.index.iter().map(RunnableId)
    }
}

/// The disabled sink the unit tests record to.
#[cfg(test)]
const OFF: &ObsSink = &ObsSink::DISABLED;

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: u32) -> RunnableId {
        RunnableId(n)
    }
    fn t(ms: u64) -> Instant {
        Instant::from_millis(ms)
    }

    fn monitor_one() -> HeartbeatMonitor {
        HeartbeatMonitor::new([RunnableHypothesis::new(r(0))
            .alive_at_least(1, 2)
            .arrive_at_most(3, 2)])
    }

    #[test]
    fn nominal_heartbeats_produce_no_faults() {
        let mut m = monitor_one();
        let mut costs = CostMeter::new();
        for cycle in 0..10u64 {
            m.record(r(0), t(cycle * 10), &mut costs, OFF);
            assert!(m.end_of_cycle(t(cycle * 10), &mut costs, OFF).is_empty());
        }
        let c = m.counters(r(0)).unwrap();
        assert_eq!(c.aliveness_errors, 0);
        assert_eq!(c.arrival_rate_errors, 0);
    }

    #[test]
    fn missing_heartbeats_raise_aliveness_fault_at_period_end() {
        let mut m = monitor_one();
        let mut costs = CostMeter::new();
        // No heartbeats at all; period = 2 cycles.
        assert!(m.end_of_cycle(t(10), &mut costs, OFF).is_empty()); // CCA=1
        let faults = m.end_of_cycle(t(20), &mut costs, OFF); // CCA=2 → check
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].kind, FaultKind::Aliveness);
        assert_eq!(faults[0].at, t(20));
        // Counters were reset after the error.
        let c = m.counters(r(0)).unwrap();
        assert_eq!((c.ac, c.cca), (0, 0));
        assert_eq!(c.aliveness_errors, 1);
    }

    #[test]
    fn excess_heartbeats_raise_arrival_rate_fault() {
        let mut m = monitor_one();
        let mut costs = CostMeter::new();
        for _ in 0..5 {
            m.record(r(0), t(0), &mut costs, OFF); // max 3 per 2 cycles
        }
        assert!(m.end_of_cycle(t(10), &mut costs, OFF).is_empty());
        let faults = m.end_of_cycle(t(20), &mut costs, OFF);
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].kind, FaultKind::ArrivalRate);
        assert_eq!(m.counters(r(0)).unwrap().arrival_rate_errors, 1);
    }

    #[test]
    fn both_faults_can_fire_for_different_runnables_in_one_cycle() {
        let mut m = HeartbeatMonitor::new([
            RunnableHypothesis::new(r(0)).alive_at_least(1, 1),
            RunnableHypothesis::new(r(1)).arrive_at_most(0, 1),
        ]);
        let mut costs = CostMeter::new();
        m.record(r(1), t(0), &mut costs, OFF); // r0 silent, r1 over limit
        let faults = m.end_of_cycle(t(10), &mut costs, OFF);
        assert_eq!(faults.len(), 2);
    }

    #[test]
    fn cleared_activation_status_suppresses_everything() {
        let mut m = monitor_one();
        let mut costs = CostMeter::new();
        assert!(m.set_active(r(0), false));
        for cycle in 0..6u64 {
            let faults = m.end_of_cycle(t(cycle * 10), &mut costs, OFF);
            assert!(faults.is_empty());
        }
        assert!(!m.is_active(r(0)));
        // Heartbeats while inactive are not counted.
        m.record(r(0), t(60), &mut costs, OFF);
        assert_eq!(m.counters(r(0)).unwrap().ac, 0);
        // Re-arming restarts cleanly.
        assert!(m.set_active(r(0), true));
        m.record(r(0), t(70), &mut costs, OFF);
        assert_eq!(m.counters(r(0)).unwrap().ac, 1);
    }

    #[test]
    fn unmonitored_runnable_is_ignored_but_charged() {
        let mut m = monitor_one();
        let mut costs = CostMeter::new();
        m.record(r(9), t(0), &mut costs, OFF);
        assert_eq!(costs.operations(), 1);
        assert!(m.counters(r(9)).is_none());
        assert!(!m.set_active(r(9), true));
        assert!(!m.is_active(r(9)));
    }

    #[test]
    fn aliveness_and_arrival_periods_are_independent() {
        let mut m = HeartbeatMonitor::new([RunnableHypothesis::new(r(0))
            .alive_at_least(1, 3)
            .arrive_at_most(1, 1)]);
        let mut costs = CostMeter::new();
        // 2 heartbeats in cycle 1 → arrival fault at the 1-cycle boundary,
        // while the 3-cycle aliveness window is still open.
        m.record(r(0), t(0), &mut costs, OFF);
        m.record(r(0), t(0), &mut costs, OFF);
        let f1 = m.end_of_cycle(t(10), &mut costs, OFF);
        assert_eq!(f1.len(), 1);
        assert_eq!(f1[0].kind, FaultKind::ArrivalRate);
        // ARC reset but AC kept (separate windows).
        let c = m.counters(r(0)).unwrap();
        assert_eq!((c.ac, c.arc, c.cca, c.ccar), (2, 0, 1, 0));
    }

    #[test]
    fn check_cost_is_charged_per_active_runnable() {
        let mut m = HeartbeatMonitor::new([
            RunnableHypothesis::new(r(0)).alive_at_least(1, 1),
            RunnableHypothesis::new(r(1)).alive_at_least(1, 1).initially_inactive(),
        ]);
        let mut costs = CostMeter::new();
        let _ = m.end_of_cycle(t(10), &mut costs, OFF);
        assert_eq!(costs.total_cycles(), CHECK_COST_CYCLES); // only r0 active
    }

    #[test]
    fn monitored_lists_configured_runnables() {
        let m = monitor_one();
        assert_eq!(m.monitored().collect::<Vec<_>>(), vec![r(0)]);
    }
}

#[cfg(test)]
mod reconfig_tests {
    use super::*;

    fn r(n: u32) -> RunnableId {
        RunnableId(n)
    }
    fn t(ms: u64) -> Instant {
        Instant::from_millis(ms)
    }

    #[test]
    fn reconfigure_replaces_hypothesis_and_resets_counters() {
        let mut m = HeartbeatMonitor::new([RunnableHypothesis::new(r(0)).alive_at_least(1, 1)]);
        let mut costs = CostMeter::new();
        m.record(r(0), t(0), &mut costs, OFF);
        assert_eq!(m.counters(r(0)).unwrap().ac, 1);
        // Degraded mode: the runnable now runs every 4 cycles.
        m.reconfigure(RunnableHypothesis::new(r(0)).alive_at_least(1, 4));
        let c = m.counters(r(0)).unwrap();
        assert_eq!((c.ac, c.cca), (0, 0));
        // Three silent cycles are now fine…
        for cycle in 1..=3 {
            assert!(m.end_of_cycle(t(cycle * 10), &mut costs, OFF).is_empty());
        }
        // …the fourth closes the window and reports.
        assert_eq!(m.end_of_cycle(t(40), &mut costs, OFF).len(), 1);
    }

    #[test]
    fn reconfigure_preserves_activation_status() {
        let mut m = HeartbeatMonitor::new([RunnableHypothesis::new(r(0)).alive_at_least(1, 1)]);
        m.set_active(r(0), false);
        m.reconfigure(RunnableHypothesis::new(r(0)).alive_at_least(2, 2));
        assert!(!m.is_active(r(0)), "AS must survive reconfiguration");
    }

    #[test]
    fn reconfigure_can_add_a_new_runnable() {
        let mut m = HeartbeatMonitor::new([]);
        let mut costs = CostMeter::new();
        m.reconfigure(RunnableHypothesis::new(r(5)).alive_at_least(1, 1));
        assert!(m.is_active(r(5)));
        let faults = m.end_of_cycle(t(10), &mut costs, OFF);
        assert_eq!(faults.len(), 1, "new hypothesis is enforced immediately");
    }

    #[test]
    fn reconfigure_keeps_error_history() {
        let mut m = HeartbeatMonitor::new([RunnableHypothesis::new(r(0)).alive_at_least(1, 1)]);
        let mut costs = CostMeter::new();
        assert_eq!(m.end_of_cycle(t(10), &mut costs, OFF).len(), 1);
        m.reconfigure(RunnableHypothesis::new(r(0)).alive_at_least(1, 2));
        assert_eq!(m.counters(r(0)).unwrap().aliveness_errors, 1);
    }

    #[test]
    fn reconfigure_unknown_runnable_respects_initially_inactive() {
        let mut m = HeartbeatMonitor::new([]);
        let mut costs = CostMeter::new();
        m.reconfigure(
            RunnableHypothesis::new(r(7))
                .alive_at_least(1, 1)
                .initially_inactive(),
        );
        // Known to the unit now, but its AS starts cleared: no check runs.
        assert!(!m.is_active(r(7)));
        assert!(m.counters(r(7)).is_some());
        assert!(m.end_of_cycle(t(10), &mut costs, OFF).is_empty());
        // Arming it makes the hypothesis effective.
        assert!(m.set_active(r(7), true));
        assert_eq!(m.end_of_cycle(t(20), &mut costs, OFF).len(), 1);
    }
}

#[cfg(test)]
mod activation_tests {
    use super::*;

    fn r(n: u32) -> RunnableId {
        RunnableId(n)
    }
    fn t(ms: u64) -> Instant {
        Instant::from_millis(ms)
    }

    #[test]
    fn deactivating_mid_period_resets_all_counters() {
        let mut m = HeartbeatMonitor::new([RunnableHypothesis::new(r(0))
            .alive_at_least(2, 4)
            .arrive_at_most(5, 4)]);
        let mut costs = CostMeter::new();
        // Two cycles into the 4-cycle period, with one heartbeat counted.
        m.record(r(0), t(5), &mut costs, OFF);
        assert!(m.end_of_cycle(t(10), &mut costs, OFF).is_empty());
        assert!(m.end_of_cycle(t(20), &mut costs, OFF).is_empty());
        let c = m.counters(r(0)).unwrap();
        assert_eq!((c.ac, c.arc, c.cca, c.ccar), (1, 1, 2, 2));
        // Clearing the AS mid-period wipes counters and cycle positions.
        assert!(m.set_active(r(0), false));
        let c = m.counters(r(0)).unwrap();
        assert_eq!((c.ac, c.arc, c.cca, c.ccar), (0, 0, 0, 0));
        assert!(!c.activation);
    }

    #[test]
    fn reactivation_does_not_report_faults_for_the_gap() {
        // Aliveness ≥1 per 2 cycles; the runnable goes unsupervised for a
        // long silent gap, then monitoring is re-armed. The paper's
        // Activation Status gating means the gap must not be charged: the
        // monitoring period restarts fresh at reactivation.
        let mut m = HeartbeatMonitor::new([RunnableHypothesis::new(r(0)).alive_at_least(1, 2)]);
        let mut costs = CostMeter::new();
        m.set_active(r(0), false);
        for cycle in 1..=10u64 {
            assert!(m.end_of_cycle(t(cycle * 10), &mut costs, OFF).is_empty());
        }
        m.set_active(r(0), true);
        // First full period after re-arming: heartbeats arrive → no fault,
        // and CCA starts from zero (not inherited from the gap).
        m.record(r(0), t(105), &mut costs, OFF);
        assert!(m.end_of_cycle(t(110), &mut costs, OFF).is_empty());
        assert_eq!(m.counters(r(0)).unwrap().cca, 1);
        assert!(m.end_of_cycle(t(120), &mut costs, OFF).is_empty());
        assert_eq!(m.counters(r(0)).unwrap().aliveness_errors, 0);
        // Only genuinely silent periods after reactivation report.
        assert!(m.end_of_cycle(t(130), &mut costs, OFF).is_empty());
        assert_eq!(m.end_of_cycle(t(140), &mut costs, OFF).len(), 1);
    }

    #[test]
    fn snapshot_restore_returns_to_captured_state() {
        let mut m = HeartbeatMonitor::new([RunnableHypothesis::new(r(0)).alive_at_least(1, 4)]);
        let fresh = m.clone();
        let mut costs = CostMeter::new();
        m.record(r(0), t(0), &mut costs, OFF);
        let mut snap = HeartbeatMonitor::default();
        snap.clone_from(&m);
        m.record(r(0), t(1), &mut costs, OFF);
        m.set_active(r(0), false);
        m.clone_from(&snap);
        assert_eq!(m.counters(r(0)).unwrap().ac, 1, "restored to capture state");
        assert!(m.is_active(r(0)), "restored to the captured AS");
        m.clone_from(&fresh);
        assert_eq!(m, fresh, "rewound to the fresh unit");
        m.clone_from(&snap);
        assert_eq!(m.counters(r(0)).unwrap().ac, 1, "restore after a rewind");
    }

    #[test]
    fn deactivation_stops_heartbeat_obs_events_too() {
        let mut m = HeartbeatMonitor::new([RunnableHypothesis::new(r(0)).alive_at_least(1, 1)]);
        let sink = easis_obs::ObsSink::enabled(16);
        let mut costs = CostMeter::new();
        m.record(r(0), t(1), &mut costs, &sink);
        m.set_active(r(0), false);
        m.record(r(0), t(2), &mut costs, &sink);
        assert_eq!(sink.counter("heartbeat_recorded"), 1, "inactive beats unrecorded");
    }
}
