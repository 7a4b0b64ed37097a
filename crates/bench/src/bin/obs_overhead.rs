//! **OBS-OVERHEAD** — what the flight recorder costs.
//!
//! Two measurements:
//!
//! 1. **Host overhead** of [`easis_obs::ObsSink::record`], disabled vs
//!    enabled — the disabled path is the one every production-shaped run
//!    takes, so it must be a near-free branch; the enabled path buys the
//!    trace of `trace_dump` and its cost is reported here.
//! 2. **Simulated-cost invariance**: attaching a sink must not change the
//!    simulation's [`CostMeter`] by a single cycle, or the golden campaign
//!    reports would depend on whether observability is on. Asserted, not
//!    just reported.

use easis_bench::{emit_json, header};
use easis_obs::{ObsEvent, ObsSink};
use easis_rte::runnable::RunnableId;
use easis_sim::cpu::CostMeter;
use easis_sim::time::Instant as SimInstant;
use easis_watchdog::config::RunnableHypothesis;
use easis_watchdog::heartbeat::HeartbeatMonitor;
use serde::Serialize;

const RECORDS: u64 = 1_000_000;
const CYCLES: u64 = 10_000;

#[derive(Serialize)]
struct Report {
    records: u64,
    disabled_ns_per_record: f64,
    enabled_ns_per_record: f64,
    sim_cycles_without_obs: u64,
    sim_cycles_with_obs: u64,
}

fn ns_per_record(sink: &ObsSink) -> f64 {
    let event = ObsEvent::HeartbeatRecorded {
        runnable: RunnableId(0),
    };
    let start = std::time::Instant::now();
    for i in 0..RECORDS {
        sink.record(SimInstant::from_micros(i), event);
    }
    start.elapsed().as_nanos() as f64 / RECORDS as f64
}

/// Runs the heartbeat monitor for `CYCLES` cycles and returns the
/// simulated cost; the sink is the only difference between calls.
fn sim_cost(obs: ObsSink) -> u64 {
    let r = RunnableId(0);
    let mut monitor = HeartbeatMonitor::new([RunnableHypothesis::new(r).alive_at_least(1, 1)]);
    let mut costs = CostMeter::new();
    for cycle in 1..=CYCLES {
        // Miss every fourth beat so the fault path records events too.
        if cycle % 4 != 0 {
            monitor.record(r, SimInstant::from_millis(cycle * 10 - 5), &mut costs, &obs);
        }
        let _ = monitor.end_of_cycle(SimInstant::from_millis(cycle * 10), &mut costs, &obs);
    }
    costs.total_cycles()
}

fn main() {
    header(
        "OBS-OVERHEAD",
        "flight-recorder record cost, disabled vs enabled",
        "1M record calls per mode; 10k monitor cycles for cost invariance",
    );
    let disabled = ns_per_record(&ObsSink::disabled());
    let enabled = ns_per_record(&ObsSink::enabled(65_536));
    let without_obs = sim_cost(ObsSink::disabled());
    let with_obs = sim_cost(ObsSink::enabled(65_536));

    println!("{:<34} {:>12}", "mode", "ns / record");
    println!("{:<34} {:>12.1}", "disabled sink (default)", disabled);
    println!("{:<34} {:>12.1}", "enabled sink (ring 64k)", enabled);
    println!(
        "\nsimulated cost over {CYCLES} monitor cycles: {} cycles without obs, \
         {} with obs",
        without_obs, with_obs
    );
    assert_eq!(
        without_obs, with_obs,
        "observability perturbed the simulated cost model"
    );
    println!("cost-model invariance holds: attaching a sink changes nothing");

    emit_json(
        "obs_overhead",
        &Report {
            records: RECORDS,
            disabled_ns_per_record: disabled,
            enabled_ns_per_record: enabled,
            sim_cycles_without_obs: without_obs,
            sim_cycles_with_obs: with_obs,
        },
    );
}
