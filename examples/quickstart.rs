//! Quickstart: build a watchdog-supervised ECU in ~60 lines.
//!
//! One periodic OSEK task hosts two runnables; the Software Watchdog
//! monitors their heartbeats and program flow. Halfway through the run we
//! suppress one runnable's aliveness indication — the watchdog detects the
//! aliveness error at the next cycle check.
//!
//! Run with: `cargo run --example quickstart`

use easis::injection::{ErrorClass, Injection, Injector};
use easis::sim::time::{Duration, Instant};
use easis::validator::{CentralNode, NodeConfig};

fn main() {
    // The validator assembles the paper's SafeSpeed setup: three runnables
    // (GetSensorValue → SAFE_CC_process → Speed_process) on one 10 ms task,
    // supervised by the Software Watchdog.
    let mut node = CentralNode::build(NodeConfig::safespeed_only());
    node.start();

    // Phase 1: healthy operation.
    let mut quiet = Injector::none();
    node.run_until(Instant::from_millis(500), &mut quiet);
    println!("after 500 ms healthy operation:");
    print_counters(&node);
    assert!(node.world.watchdog.log().is_empty());

    // Phase 2: lose the heartbeat of the control runnable for 200 ms.
    let target = node.runnable("SAFE_CC_process");
    let mut injector = Injector::new([Injection::new(
        ErrorClass::HeartbeatLoss { runnable: target },
        Instant::from_millis(500),
        Instant::from_millis(700),
    )]);
    node.run_until(Instant::from_millis(1_000), &mut injector);

    println!("\nafter a 200 ms heartbeat loss on SAFE_CC_process:");
    print_counters(&node);
    let log = node.world.watchdog.log();
    println!("\ndetected faults (first 5 of {}):", log.faults().count());
    for fault in log.faults().take(5) {
        println!("  {fault}");
    }
    println!(
        "\nfault treatments executed (first 5 of {}):",
        node.world.treatments.len()
    );
    for action in node.world.treatments.iter().take(5) {
        println!("  [{}] {}", action.at, action.treatment);
    }
    println!("\n{}", node.world.watchdog.supervision_report());
    assert!(!log.is_empty(), "the loss must be detected");
    let _ = Duration::from_millis(0); // (see DESIGN.md for the full API tour)
}

fn print_counters(node: &CentralNode) {
    for name in ["GetSensorValue", "SAFE_CC_process", "Speed_process"] {
        let c = node.counters_of(name);
        println!(
            "  {name:<16} AC={} CCA={} aliveness_errors={} pfc_errors={} AS={}",
            c.ac, c.cca, c.aliveness_errors, c.program_flow_errors, c.activation
        );
    }
}
