//! **A-PROBE** — ablation of the paper's passive-monitoring choice
//! (§3.3: "In EASIS, we chose a passive approach").
//!
//! The passive heartbeat counters and the active challenge–response probe
//! face three runnable conditions — healthy, dead, and *stuck replayer*
//! (glue keeps emitting old indications while the logic is dead) — and the
//! table reports detection plus per-cycle monitoring cost. The replayer
//! column is the capability the passive choice gives up; the cost column is
//! what it saves.
//!
//! Each monitor runs through its own calls, the ones the passive
//! heartbeat unit and the active probe expose: `record` or `respond` per
//! indication, `end_of_cycle` at each watchdog cycle.

use easis_bench::{emit_json, header};
use easis_obs::ObsSink;
use easis_rte::runnable::RunnableId;
use easis_sim::cpu::CostMeter;
use easis_sim::time::Instant;
use easis_watchdog::config::RunnableHypothesis;
use easis_watchdog::heartbeat::HeartbeatMonitor;
use easis_watchdog::probe::{expected_response, ActiveProbeMonitor};
use serde::Serialize;

const CYCLES: u64 = 1_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Condition {
    Healthy,
    Dead,
    StuckReplayer,
}

#[derive(Serialize)]
struct Row {
    monitor: String,
    healthy_false_alarms: u64,
    dead_detections: u64,
    replayer_detections: u64,
    cycles_per_runnable_cycle: f64,
}

/// Runs the heartbeat unit over `CYCLES` watchdog cycles: a live runnable
/// (healthy, or a replayer whose glue still beats) indicates once per
/// cycle. Returns the detections and the monitoring cost.
fn run_passive(condition: Condition) -> (u64, u64) {
    let r = RunnableId(0);
    let mut monitor = HeartbeatMonitor::new([RunnableHypothesis::new(r).alive_at_least(1, 1)]);
    let mut costs = CostMeter::new();
    let mut detections = 0;
    for cycle in 1..=CYCLES {
        if condition != Condition::Dead {
            let at = Instant::from_millis(cycle * 10 - 5);
            monitor.record(r, at, &mut costs, &ObsSink::DISABLED);
        }
        let now = Instant::from_millis(cycle * 10);
        detections += monitor.end_of_cycle(now, &mut costs, &ObsSink::DISABLED).len() as u64;
    }
    (detections, costs.total_cycles())
}

/// Runs the active probe over `CYCLES` watchdog cycles: a healthy runnable
/// echoes each cycle's fresh challenge, a stuck replayer the first one
/// forever, a dead one nothing. Returns the detections and the monitoring
/// cost.
fn run_active(condition: Condition) -> (u64, u64) {
    let r = RunnableId(0);
    // The challenge stream is a pure function of the seed (one draw per
    // runnable per cycle check), so a shadow monitor with the same seed
    // yields the fresh response the healthy glue would compute each cycle.
    let mut shadow = ActiveProbeMonitor::new([r], 42);
    let stale = expected_response(shadow.challenge_for(r).unwrap());
    let mut fresh = Vec::new();
    let mut shadow_costs = CostMeter::new();
    for _ in 1..=CYCLES {
        fresh.push(expected_response(shadow.challenge_for(r).unwrap()));
        let _ = shadow.end_of_cycle(Instant::ZERO, &mut shadow_costs);
    }
    let mut monitor = ActiveProbeMonitor::new([r], 42);
    let mut costs = CostMeter::new();
    let mut detections = 0;
    for cycle in 1..=CYCLES {
        let at = Instant::from_millis(cycle * 10 - 5);
        match condition {
            Condition::Healthy => monitor.respond(r, fresh[(cycle - 1) as usize], at, &mut costs),
            Condition::StuckReplayer => monitor.respond(r, stale, at, &mut costs),
            Condition::Dead => {}
        }
        let now = Instant::from_millis(cycle * 10);
        detections += monitor.end_of_cycle(now, &mut costs).len() as u64;
    }
    (detections, costs.total_cycles())
}

fn main() {
    header(
        "A-PROBE",
        "§3.3 design choice — passive counters vs active challenge-response",
        "healthy / dead / stuck-replayer runnable over 1000 watchdog cycles",
    );
    let (p_healthy, p_cost) = run_passive(Condition::Healthy);
    let (p_dead, _) = run_passive(Condition::Dead);
    let (p_replay, _) = run_passive(Condition::StuckReplayer);
    let (a_healthy, a_cost) = run_active(Condition::Healthy);
    let (a_dead, _) = run_active(Condition::Dead);
    let (a_replay, _) = run_active(Condition::StuckReplayer);

    let rows = vec![
        Row {
            monitor: "passive heartbeat counters (paper)".into(),
            healthy_false_alarms: p_healthy,
            dead_detections: p_dead,
            replayer_detections: p_replay,
            cycles_per_runnable_cycle: p_cost as f64 / CYCLES as f64,
        },
        Row {
            monitor: "active challenge-response".into(),
            healthy_false_alarms: a_healthy,
            dead_detections: a_dead,
            replayer_detections: a_replay,
            cycles_per_runnable_cycle: a_cost as f64 / CYCLES as f64,
        },
    ];
    println!(
        "{:<36} {:>12} {:>10} {:>12} {:>14}",
        "monitor", "false alarms", "dead det.", "replay det.", "cycles/cycle"
    );
    for r in &rows {
        println!(
            "{:<36} {:>12} {:>10} {:>12} {:>14.1}",
            r.monitor,
            r.healthy_false_alarms,
            r.dead_detections,
            r.replayer_detections,
            r.cycles_per_runnable_cycle
        );
    }
    println!(
        "\ndesign-choice reading: both approaches catch dead runnables; only\n\
         the active probe catches replayed indications, at ~{:.0}% higher\n\
         per-cycle cost — the trade the paper resolved in favour of passive.",
        (rows[1].cycles_per_runnable_cycle / rows[0].cycles_per_runnable_cycle - 1.0) * 100.0
    );
    assert_eq!(rows[0].healthy_false_alarms, 0);
    assert_eq!(rows[1].healthy_false_alarms, 0);
    assert_eq!(rows[0].dead_detections, CYCLES);
    assert_eq!(rows[1].dead_detections, CYCLES);
    assert_eq!(rows[0].replayer_detections, 0);
    assert!(rows[1].replayer_detections >= CYCLES - 1);
    assert!(rows[1].cycles_per_runnable_cycle > rows[0].cycles_per_runnable_cycle);
    emit_json("ablation_passive_active", &rows);
}
