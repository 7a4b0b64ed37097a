//! **O-S12XF** — the paper's outlook: "The functionalities and performance
//! of the Software Watchdog … are further evaluated on an evaluation
//! microcontroller S12XF from Freescale."
//!
//! We cannot have the silicon; instead the identical software stack runs
//! with every compute cost scaled by the AutoBox→S12XF clock ratio
//! (480 MHz → 50 MHz ⇒ 9.6×). The experiment checks whether the full node
//! (all three ISS applications + watchdog + kick task) remains schedulable
//! and false-positive-free on the slower target, and what the CPU budget
//! looks like.

use easis_bench::{emit_json, header};
use easis_injection::injector::Injector;
use easis_injection::stats::DetectorId;
use easis_sim::cpu::CpuModel;
use easis_sim::time::Instant;
use easis_validator::{CentralNode, NodeConfig};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    platform: String,
    clock_mhz: u64,
    cpu_utilization_pct: f64,
    watchdog_cycles_run: u64,
    false_positives: usize,
    deadline_misses: u32,
    budget_overruns: u32,
}

fn run(platform: &str, clock_hz: u64, scale_ppm: u64) -> Row {
    let mut node = CentralNode::build(NodeConfig {
        cpu_scale_ppm: scale_ppm,
        ..NodeConfig::default()
    });
    node.start();
    let mut injector = Injector::none();
    node.run_until(Instant::from_millis(2_000), &mut injector);
    let log = node.world.watchdog.log();
    Row {
        platform: platform.to_string(),
        clock_mhz: clock_hz / 1_000_000,
        cpu_utilization_pct: node.os.utilization() * 100.0,
        watchdog_cycles_run: node.world.watchdog.cycles_run(),
        false_positives: log.faults().count(),
        deadline_misses: log.count(DetectorId::DeadlineMonitor) as u32,
        budget_overruns: log.count(DetectorId::ExecTimeMonitor) as u32,
    }
}

fn main() {
    header(
        "O-S12XF",
        "outlook — evaluation on the Freescale S12XF",
        "identical stack, compute costs scaled by the 480MHz→50MHz clock ratio",
    );
    let ratio_ppm =
        CpuModel::AUTOBOX.clock_hz() * 1_000_000 / CpuModel::S12XF.clock_hz();
    let rows = vec![
        run("AutoBox DS1005", CpuModel::AUTOBOX.clock_hz(), 1_000_000),
        run("Freescale S12XF", CpuModel::S12XF.clock_hz(), ratio_ppm),
    ];

    println!(
        "{:<18} {:>10} {:>10} {:>10} {:>12} {:>10} {:>9}",
        "platform", "clock", "CPU util", "wd cycles", "false pos", "dl miss", "budget"
    );
    for r in &rows {
        println!(
            "{:<18} {:>7}MHz {:>9.1}% {:>10} {:>12} {:>10} {:>9}",
            r.platform,
            r.clock_mhz,
            r.cpu_utilization_pct,
            r.watchdog_cycles_run,
            r.false_positives,
            r.deadline_misses,
            r.budget_overruns
        );
    }
    println!(
        "\noutlook answer: the stack fits the S12XF — utilisation rises by the\n\
         clock ratio but stays below 100%, all deadlines hold, and the\n\
         watchdog produces no false positives on the slower target."
    );
    assert!(rows[1].cpu_utilization_pct < 100.0);
    assert_eq!(rows[1].false_positives, 0);
    assert_eq!(rows[1].deadline_misses, 0);
    emit_json("outlook_s12xf", &rows);
}
