//! The unified [`MonitoringUnit`] interface over the three monitoring
//! approaches.
//!
//! The heartbeat monitor, the program flow checker and the active-probe
//! monitor grew three hand-rolled call shapes (`record`, `observe`,
//! `respond` + three `end_of_cycle`s). De Florio's dependability-services
//! experience argues for one uniform service API across monitoring
//! components; this module provides it, so the validator and the ablation
//! benches can drive any unit — or a heterogeneous set of them — through
//! one interface:
//!
//! * [`MonitoringUnit::observe`] feeds one glue-side indication (a
//!   heartbeat or a challenge response) into the unit;
//! * [`MonitoringUnit::check`] runs the unit's periodic end-of-cycle check
//!   and returns the faults it detected.
//!
//! Each unit ignores event kinds it does not understand (a heartbeat
//! monitor is not interested in probe responses and vice versa), so a
//! driver can broadcast every event to every unit.

use crate::heartbeat::HeartbeatMonitor;
use crate::pfc::{FlowVerdict, ProgramFlowChecker, LOOKUP_COST_CYCLES};
use crate::probe::ActiveProbeMonitor;
use crate::report::{DetectedFault, FaultKind};
use easis_obs::ObsSink;
use easis_sim::cpu::CostMeter;
use easis_sim::time::Instant;

/// One glue-side indication, as fed to a [`MonitoringUnit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonitorEvent {
    /// An aliveness indication (passive heartbeat).
    Heartbeat {
        /// The indicating runnable.
        runnable: easis_rte::runnable::RunnableId,
        /// Indication time.
        at: Instant,
    },
    /// A challenge response (active probing).
    ProbeResponse {
        /// The responding runnable.
        runnable: easis_rte::runnable::RunnableId,
        /// The echoed (transformed) challenge value.
        response: u64,
        /// Response time.
        at: Instant,
    },
}

/// A monitoring unit of the Software Watchdog: consumes glue-side
/// indications and detects faults at its periodic check.
pub trait MonitoringUnit {
    /// Feeds one indication into the unit. Units ignore event kinds they
    /// do not understand; the cost of handled events is charged to
    /// `costs`.
    fn observe(&mut self, event: MonitorEvent, costs: &mut CostMeter);

    /// Runs the end-of-cycle check at `now` and returns the detected
    /// faults. Check costs are charged to `costs`.
    fn check(&mut self, now: Instant, costs: &mut CostMeter) -> Vec<DetectedFault>;
}

impl MonitoringUnit for HeartbeatMonitor {
    fn observe(&mut self, event: MonitorEvent, costs: &mut CostMeter) {
        if let MonitorEvent::Heartbeat { runnable, at } = event {
            self.record(runnable, at, costs, &ObsSink::DISABLED);
        }
    }

    fn check(&mut self, now: Instant, costs: &mut CostMeter) -> Vec<DetectedFault> {
        self.end_of_cycle(now, costs, &ObsSink::DISABLED)
    }
}

impl MonitoringUnit for ProgramFlowChecker {
    fn observe(&mut self, event: MonitorEvent, costs: &mut CostMeter) {
        if let MonitorEvent::Heartbeat { runnable, at } = event {
            costs.charge(LOOKUP_COST_CYCLES);
            if let FlowVerdict::Violation { .. } = self.observe_at(runnable, at) {
                self.push_pending(DetectedFault {
                    at,
                    runnable,
                    kind: FaultKind::ProgramFlow,
                });
            }
        }
    }

    fn check(&mut self, _now: Instant, _costs: &mut CostMeter) -> Vec<DetectedFault> {
        self.take_pending()
    }
}

impl MonitoringUnit for ActiveProbeMonitor {
    fn observe(&mut self, event: MonitorEvent, costs: &mut CostMeter) {
        if let MonitorEvent::ProbeResponse {
            runnable,
            response,
            at,
        } = event
        {
            self.respond(runnable, response, at, costs);
        }
    }

    fn check(&mut self, now: Instant, costs: &mut CostMeter) -> Vec<DetectedFault> {
        self.end_of_cycle(now, costs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RunnableHypothesis;
    use crate::pfc::FlowTable;
    use crate::probe::expected_response;
    use easis_rte::runnable::RunnableId;

    fn r(n: u32) -> RunnableId {
        RunnableId(n)
    }
    fn t(ms: u64) -> Instant {
        Instant::from_millis(ms)
    }
    fn beat(n: u32, ms: u64) -> MonitorEvent {
        MonitorEvent::Heartbeat {
            runnable: r(n),
            at: t(ms),
        }
    }

    /// Drives a heterogeneous set of units through the one interface, the
    /// way the ablation benches do.
    fn drive(units: &mut [&mut dyn MonitoringUnit], events: &[MonitorEvent], now: Instant) -> usize {
        let mut costs = CostMeter::new();
        for unit in units.iter_mut() {
            for &event in events {
                unit.observe(event, &mut costs);
            }
        }
        units
            .iter_mut()
            .map(|u| u.check(now, &mut costs).len())
            .sum()
    }

    #[test]
    fn heartbeat_monitor_through_the_trait() {
        let mut m = HeartbeatMonitor::new([RunnableHypothesis::new(r(0)).alive_at_least(1, 1)]);
        let mut costs = CostMeter::new();
        MonitoringUnit::observe(&mut m, beat(0, 5), &mut costs);
        assert!(MonitoringUnit::check(&mut m, t(10), &mut costs).is_empty());
        // Silent cycle → aliveness fault from the trait path too.
        let faults = MonitoringUnit::check(&mut m, t(20), &mut costs);
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].kind, FaultKind::Aliveness);
    }

    #[test]
    fn heartbeat_monitor_ignores_probe_responses() {
        let mut m = HeartbeatMonitor::new([RunnableHypothesis::new(r(0)).alive_at_least(1, 1)]);
        let mut costs = CostMeter::new();
        MonitoringUnit::observe(
            &mut m,
            MonitorEvent::ProbeResponse {
                runnable: r(0),
                response: 42,
                at: t(1),
            },
            &mut costs,
        );
        assert_eq!(m.counters(r(0)).unwrap().ac, 0);
        assert_eq!(costs.total_cycles(), 0, "ignored events are free");
    }

    #[test]
    fn flow_checker_buffers_violations_until_check() {
        let mut table = FlowTable::new();
        table.allow_entry(r(0));
        table.allow(r(0), r(1));
        let mut pfc = ProgramFlowChecker::new(table);
        let mut costs = CostMeter::new();
        MonitoringUnit::observe(&mut pfc, beat(0, 1), &mut costs);
        MonitoringUnit::observe(&mut pfc, beat(0, 2), &mut costs); // 0→0 violation
        let faults = MonitoringUnit::check(&mut pfc, t(10), &mut costs);
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].kind, FaultKind::ProgramFlow);
        assert_eq!(faults[0].at, t(2), "fault carries the observation time");
        // Drained: a second check is empty.
        assert!(MonitoringUnit::check(&mut pfc, t(20), &mut costs).is_empty());
        // The look-up cost was charged per observation.
        assert_eq!(costs.total_cycles(), 2 * LOOKUP_COST_CYCLES);
    }

    #[test]
    fn probe_monitor_through_the_trait() {
        let mut probe = ActiveProbeMonitor::new([r(0)], 7);
        let mut costs = CostMeter::new();
        let c = probe.challenge_for(r(0)).unwrap();
        MonitoringUnit::observe(
            &mut probe,
            MonitorEvent::ProbeResponse {
                runnable: r(0),
                response: expected_response(c),
                at: t(5),
            },
            &mut costs,
        );
        assert!(MonitoringUnit::check(&mut probe, t(10), &mut costs).is_empty());
        // Probe monitors ignore heartbeats: a heartbeat is not a response.
        MonitoringUnit::observe(&mut probe, beat(0, 15), &mut costs);
        let faults = MonitoringUnit::check(&mut probe, t(20), &mut costs);
        assert_eq!(faults.len(), 1);
    }

    #[test]
    fn heterogeneous_units_can_share_one_driver() {
        let mut hb = HeartbeatMonitor::new([RunnableHypothesis::new(r(0)).alive_at_least(1, 1)]);
        let mut table = FlowTable::new();
        table.allow_entry(r(0));
        table.allow(r(0), r(1));
        let mut pfc = ProgramFlowChecker::new(table);
        // r0 beats twice (0→0 flow violation) — heartbeat unit satisfied,
        // PFC violated: exactly one fault across both units.
        let events = [beat(0, 1), beat(0, 2)];
        let total = drive(&mut [&mut hb, &mut pfc], &events, t(10));
        assert_eq!(total, 1);
    }
}
