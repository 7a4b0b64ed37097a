//! Two ECUs, two domains, one dependability service each.
//!
//! SafeSpeed + steer-by-wire run on a FlexRay-domain node, SafeLane on a
//! CAN-domain node; the gateway bridges them, frame reception is
//! interrupt-driven, and each node has its own Software Watchdog and Fault
//! Management Framework. A fault injected into the lane node is detected,
//! recorded as a DTC with a freeze frame, and stays contained to that ECU.
//!
//! Run with: `cargo run --release --example distributed_nodes`

use easis::injection::{ErrorClass, Injection, Injector};
use easis::sim::time::{Duration, Instant};
use easis::validator::DistributedValidator;

fn main() {
    let mut rig = DistributedValidator::motorway(25.0, 13.9, 7);
    let target = rig.lane_node.runnable("LDW_process");
    let mut lane_injector = Injector::new([Injection::new(
        ErrorClass::HeartbeatLoss { runnable: target },
        Instant::from_millis(3_000),
        Instant::from_millis(3_500),
    )]);
    let mut speed_injector = Injector::none();

    let report = rig.run(Duration::from_secs(30), &mut speed_injector, &mut lane_injector);

    println!("final vehicle speed:     {:6.2} m/s (limit 13.9)", report.final_speed);
    println!("speed node faults:       {}", report.speed_node_faults);
    println!("lane  node faults:       {}", report.lane_node_faults);
    println!("speed node RX IRQs:      {}", report.speed_node_rx_irqs);
    println!("lane  node RX IRQs:      {}", report.lane_node_rx_irqs);

    println!("\nDTC memory of the lane node:");
    for rec in rig.lane_node.world.fmf.dtc().iter() {
        println!(
            "  {}  runnable {} kind {:?} x{} [{}..{}] status {:?}",
            rec.code,
            rec.code.runnable(),
            rec.code.kind(),
            rec.occurrences,
            rec.first_seen,
            rec.last_seen,
            rec.status
        );
        for &(id, value) in rec.freeze_frame.conditions.iter().flatten() {
            let name = rig.lane_node.world.signals.name(id);
            println!("      freeze frame: {name} = {value:.2}");
        }
    }

    assert!(report.lane_node_faults > 0, "lane node must detect the loss");
    assert_eq!(report.speed_node_faults, 0, "speed node must stay clean");
    assert!(!rig.lane_node.world.fmf.dtc().is_empty(), "DTCs must be stored");
}
