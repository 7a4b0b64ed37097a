//! Active probing — the design alternative the paper rejected.
//!
//! §3.3: "In EASIS, we chose a *passive* approach to record and monitor the
//! runnable updates". The alternative is *active* probing: the watchdog
//! issues a fresh challenge every cycle and each monitored runnable must
//! echo the current challenge when it runs. This module implements that
//! alternative so the design choice can be benchmarked
//! (`ablation_passive_vs_active`):
//!
//! * **extra capability** — a *stuck replayer* (glue that keeps firing
//!   heartbeats while the runnable logic is dead, e.g. a looping interrupt
//!   or duplicated message) fools passive counters but cannot echo a
//!   challenge it never read;
//! * **extra cost** — one challenge write per runnable per cycle plus a
//!   wider glue path, the overhead the paper avoided.

use crate::report::{DetectedFault, FaultKind};
use easis_obs::{FaultClass, ObsEvent, ObsSink};
use easis_rte::runnable::RunnableId;
use easis_sim::cpu::CostMeter;
use easis_sim::rng::SimRng;
use easis_sim::time::Instant;
use std::collections::BTreeMap;

/// Cost of issuing one challenge (watchdog side, per runnable per cycle).
pub const CHALLENGE_COST_CYCLES: u64 = 11;
/// Cost of one response (glue side: read challenge, transform, write).
pub const RESPONSE_COST_CYCLES: u64 = 14;
/// Cost of validating one response at the cycle check.
pub const VALIDATE_COST_CYCLES: u64 = 16;

#[derive(Debug, Clone)]
struct ProbeState {
    current_challenge: u64,
    response: Option<u64>,
}

/// The active-probe monitoring unit.
#[derive(Debug, Clone)]
pub struct ActiveProbeMonitor {
    states: BTreeMap<RunnableId, ProbeState>,
    rng: SimRng,
    obs: ObsSink,
}

/// The transform a healthy runnable applies to the challenge (stands in
/// for "computed from fresh state"; any non-identity function works).
pub fn expected_response(challenge: u64) -> u64 {
    challenge.rotate_left(17) ^ 0xA5A5_5A5A_0F0F_F0F0
}

impl ActiveProbeMonitor {
    /// Creates the unit for the given runnables with a deterministic
    /// challenge stream.
    pub fn new(monitored: impl IntoIterator<Item = RunnableId>, seed: u64) -> Self {
        let mut rng = SimRng::seed_from(seed);
        let states = monitored
            .into_iter()
            .map(|r| {
                (
                    r,
                    ProbeState {
                        current_challenge: rng.next_u64(),
                        response: None,
                    },
                )
            })
            .collect();
        ActiveProbeMonitor {
            states,
            rng,
            obs: ObsSink::disabled(),
        }
    }

    /// Attaches an observability sink; a disabled sink (the default)
    /// makes every recording call a no-op.
    pub fn attach_obs(&mut self, obs: ObsSink) {
        self.obs = obs;
    }

    /// The challenge a runnable's glue must read this cycle.
    pub fn challenge_for(&self, runnable: RunnableId) -> Option<u64> {
        self.states.get(&runnable).map(|s| s.current_challenge)
    }

    /// Glue-side call at `now`: the runnable echoes (a transform of) the
    /// challenge it read. Stuck replayers echo an old value.
    pub fn respond(
        &mut self,
        runnable: RunnableId,
        response: u64,
        now: Instant,
        costs: &mut CostMeter,
    ) {
        costs.charge(RESPONSE_COST_CYCLES);
        if let Some(state) = self.states.get_mut(&runnable) {
            state.response = Some(response);
            self.obs.record(now, ObsEvent::ProbeResponse { runnable });
        }
    }

    /// Cycle check: every runnable must have echoed the *current*
    /// challenge; then fresh challenges are issued. Returns the faults.
    pub fn end_of_cycle(&mut self, now: Instant, costs: &mut CostMeter) -> Vec<DetectedFault> {
        let mut faults = Vec::new();
        for (&runnable, state) in &mut self.states {
            costs.charge(VALIDATE_COST_CYCLES + CHALLENGE_COST_CYCLES);
            let ok = state.response == Some(expected_response(state.current_challenge));
            if !ok {
                self.obs.record(
                    now,
                    ObsEvent::FaultDetected {
                        runnable,
                        kind: FaultClass::Aliveness,
                    },
                );
                faults.push(DetectedFault {
                    at: now,
                    runnable,
                    kind: FaultKind::Aliveness,
                });
            }
            state.response = None;
            state.current_challenge = self.rng.next_u64();
        }
        faults
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: u32) -> RunnableId {
        RunnableId(n)
    }
    fn t(ms: u64) -> Instant {
        Instant::from_millis(ms)
    }

    #[test]
    fn healthy_echo_passes_every_cycle() {
        let mut probe = ActiveProbeMonitor::new([r(0)], 1);
        let mut costs = CostMeter::new();
        for cycle in 1..=10u64 {
            let c = probe.challenge_for(r(0)).unwrap();
            probe.respond(r(0), expected_response(c), t(cycle * 10), &mut costs);
            assert!(probe.end_of_cycle(t(cycle * 10), &mut costs).is_empty());
        }
    }

    #[test]
    fn silence_is_detected_like_passive_monitoring() {
        let mut probe = ActiveProbeMonitor::new([r(0)], 2);
        let mut costs = CostMeter::new();
        let faults = probe.end_of_cycle(t(10), &mut costs);
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].kind, FaultKind::Aliveness);
    }

    #[test]
    fn stuck_replayer_is_detected_by_active_but_not_passive() {
        // Passive reference: a replayed heartbeat counts as alive.
        use crate::config::RunnableHypothesis;
        use crate::heartbeat::HeartbeatMonitor;
        let mut passive =
            HeartbeatMonitor::new([RunnableHypothesis::new(r(0)).alive_at_least(1, 1)]);
        let mut costs = CostMeter::new();

        // Active: the replayer echoes the response captured in cycle 1.
        let mut probe = ActiveProbeMonitor::new([r(0)], 3);
        let stale = expected_response(probe.challenge_for(r(0)).unwrap());
        probe.respond(r(0), stale, t(5), &mut costs);
        assert!(probe.end_of_cycle(t(10), &mut costs).is_empty()); // cycle 1: fresh

        let mut active_detected = 0;
        let mut passive_detected = 0;
        for cycle in 2..=6u64 {
            // The runnable is now dead; the replayer repeats old traffic.
            probe.respond(r(0), stale, t(cycle * 10), &mut costs);
            passive.record(r(0), t(cycle * 10), &mut costs, &ObsSink::DISABLED);
            active_detected += probe.end_of_cycle(t(cycle * 10), &mut costs).len();
            passive_detected += passive
                .end_of_cycle(t(cycle * 10), &mut costs, &ObsSink::DISABLED)
                .len();
        }
        assert_eq!(active_detected, 5, "active must flag every replayed cycle");
        assert_eq!(passive_detected, 0, "passive counters accept the replay");
    }

    #[test]
    fn challenges_never_repeat_consecutively() {
        let mut probe = ActiveProbeMonitor::new([r(0)], 4);
        let mut costs = CostMeter::new();
        let mut last = probe.challenge_for(r(0)).unwrap();
        for cycle in 1..=50u64 {
            probe.end_of_cycle(t(cycle), &mut costs);
            let next = probe.challenge_for(r(0)).unwrap();
            assert_ne!(next, last);
            last = next;
        }
    }

    #[test]
    fn active_costs_more_than_passive_per_cycle() {
        use crate::config::RunnableHypothesis;
        use crate::heartbeat::HeartbeatMonitor;
        let mut active_costs = CostMeter::new();
        let mut passive_costs = CostMeter::new();
        let mut probe = ActiveProbeMonitor::new([r(0)], 5);
        let mut passive =
            HeartbeatMonitor::new([RunnableHypothesis::new(r(0)).alive_at_least(1, 1)]);
        for cycle in 1..=100u64 {
            let c = probe.challenge_for(r(0)).unwrap();
            probe.respond(r(0), expected_response(c), t(cycle * 10), &mut active_costs);
            probe.end_of_cycle(t(cycle * 10), &mut active_costs);
            passive.record(r(0), t(cycle * 10), &mut passive_costs, &ObsSink::DISABLED);
            passive.end_of_cycle(t(cycle * 10), &mut passive_costs, &ObsSink::DISABLED);
        }
        assert!(
            active_costs.total_cycles() > passive_costs.total_cycles(),
            "active {} vs passive {}",
            active_costs.total_cycles(),
            passive_costs.total_cycles()
        );
    }

    #[test]
    fn unmonitored_runnables_are_ignored() {
        let mut probe = ActiveProbeMonitor::new([r(0)], 6);
        let mut costs = CostMeter::new();
        assert_eq!(probe.challenge_for(r(9)), None);
        probe.respond(r(9), 123, t(0), &mut costs); // no panic, no state
        assert!(!probe.states.contains_key(&r(9)));
    }
}
