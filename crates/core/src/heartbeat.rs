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

use crate::config::RunnableHypothesis;
use crate::report::{DetectedFault, FaultKind, RunnableCounters};
use easis_obs::{ObsEvent, ObsSink};
use easis_rte::runnable::RunnableId;
use easis_sim::cpu::CostMeter;
use easis_sim::time::Instant;
use serde::{Deserialize, Serialize};

/// Abstract CPU cost (cycles) of one heartbeat indication: AS check plus
/// two counter increments.
pub const HEARTBEAT_COST_CYCLES: u64 = 9;

/// Abstract CPU cost (cycles) of the per-runnable end-of-cycle check.
pub const CHECK_COST_CYCLES: u64 = 23;

easis_sim::clone_fields! {
    /// The heartbeat monitoring unit: one counter set per monitored
    /// runnable.
    ///
    /// The hypotheses, the AC/ARC/CCA/CCAR counters and the Activation
    /// Status live in parallel arrays indexed by runnable id, which the
    /// runnable registry assigns densely from 0; an unmonitored id has no
    /// hypothesis and a cleared AS. One heartbeat indication is one AS
    /// test and two array increments, and the end-of-cycle check sweeps
    /// the arrays in ascending id order, so faults, cost charges and
    /// observability events come in runnable order.
    ///
    /// The unit is all runtime state — the hypotheses too, because
    /// [`HeartbeatMonitor::reconfigure`] changes them — so it is its own
    /// checkpoint. Its only wiring, the observability sink, is an argument
    /// of the calls that record.
    #[derive(Debug, Default, PartialEq, Serialize, Deserialize)]
    pub struct HeartbeatMonitor {
        hypotheses: Vec<Option<RunnableHypothesis>>,
        ac: Vec<u32>,
        arc: Vec<u32>,
        cca: Vec<u32>,
        ccar: Vec<u32>,
        active: Vec<bool>,
    }
}

impl HeartbeatMonitor {
    /// Creates the unit from the per-runnable fault hypotheses. A later
    /// hypothesis for the same runnable replaces an earlier one.
    pub fn new(hypotheses: impl IntoIterator<Item = RunnableHypothesis>) -> Self {
        let mut monitor = HeartbeatMonitor::default();
        for hypothesis in hypotheses {
            monitor.reconfigure(hypothesis);
            monitor.active[hypothesis.runnable.index()] = hypothesis.initially_active;
        }
        monitor
    }

    /// The array index of `runnable` if it is monitored.
    fn monitored_index(&self, runnable: RunnableId) -> Option<usize> {
        let i = runnable.index();
        self.hypotheses.get(i)?.map(|_| i)
    }

    fn reset_counters(&mut self, i: usize) {
        self.ac[i] = 0;
        self.arc[i] = 0;
        self.cca[i] = 0;
        self.ccar[i] = 0;
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
        let i = runnable.index();
        if let Some(true) = self.active.get(i) {
            self.ac[i] = self.ac[i].saturating_add(1);
            self.arc[i] = self.arc[i].saturating_add(1);
            obs.record(now, ObsEvent::HeartbeatRecorded { runnable });
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
        for (i, hypothesis) in self.hypotheses.iter().enumerate() {
            let Some(hypothesis) = hypothesis.filter(|_| self.active[i]) else {
                continue;
            };
            let runnable = hypothesis.runnable;
            costs.charge(CHECK_COST_CYCLES);
            if let Some(spec) = hypothesis.aliveness {
                self.cca[i] += 1;
                if self.cca[i] >= spec.cycles {
                    if self.ac[i] < spec.min_indications {
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
                    self.ac[i] = 0;
                    self.cca[i] = 0;
                }
            }
            if let Some(spec) = hypothesis.arrival_rate {
                self.ccar[i] += 1;
                if self.ccar[i] >= spec.cycles {
                    if self.arc[i] > spec.max_indications {
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
                    self.arc[i] = 0;
                    self.ccar[i] = 0;
                }
            }
        }
    }

    /// Replaces the fault hypothesis of a runnable at runtime (dynamic
    /// reconfiguration, the paper's outlook). Counters reset so the new
    /// hypothesis starts a fresh monitoring period; the activation status
    /// is preserved. Unknown runnables become newly monitored, with the
    /// hypothesis's initial activation status.
    pub fn reconfigure(&mut self, hypothesis: RunnableHypothesis) {
        let i = hypothesis.runnable.index();
        if i >= self.hypotheses.len() {
            let len = i + 1;
            self.hypotheses.resize(len, None);
            self.ac.resize(len, 0);
            self.arc.resize(len, 0);
            self.cca.resize(len, 0);
            self.ccar.resize(len, 0);
            self.active.resize(len, false);
        }
        if self.hypotheses[i].is_none() {
            self.active[i] = hypothesis.initially_active;
        }
        self.hypotheses[i] = Some(hypothesis);
        self.reset_counters(i);
    }

    /// Sets the activation status of a runnable; clearing it also resets
    /// the counters so monitoring restarts cleanly when re-armed.
    /// Returns `false` for unmonitored runnables.
    pub fn set_active(&mut self, runnable: RunnableId, active: bool) -> bool {
        let Some(i) = self.monitored_index(runnable) else {
            return false;
        };
        self.active[i] = active;
        if !active {
            self.reset_counters(i);
        }
        true
    }

    /// `true` if the runnable is monitored and its AS is set.
    pub fn is_active(&self, runnable: RunnableId) -> bool {
        self.active.get(runnable.index()) == Some(&true)
    }

    /// Live counter values. The error counts are left at zero: they are
    /// queries over the detection log, which the service facade fills in.
    pub fn counters(&self, runnable: RunnableId) -> Option<RunnableCounters> {
        self.monitored_index(runnable).map(|i| RunnableCounters {
            ac: self.ac[i],
            arc: self.arc[i],
            cca: self.cca[i],
            ccar: self.ccar[i],
            activation: self.active[i],
            ..RunnableCounters::default()
        })
    }

    /// Monitored runnables, in ascending id order.
    pub fn monitored(&self) -> impl Iterator<Item = RunnableId> + '_ {
        self.hypotheses.iter().flatten().map(|h| h.runnable)
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
