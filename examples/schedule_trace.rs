//! Visualise one hyperperiod of the supervised central node.
//!
//! Runs the full node (steer-by-wire 5 ms, SafeSpeed 10 ms, SafeLane 20 ms,
//! watchdog 10 ms, hardware-watchdog kick 10 ms) for 60 ms and renders the
//! kernel trace as a Gantt chart — the schedule the paper's Figure 3 tool
//! chain would have produced on the AutoBox.
//!
//! Run with: `cargo run --example schedule_trace`

use easis::injection::Injector;
use easis::osek::gantt::{render_gantt, running_intervals};
use easis::sim::time::Instant;
use easis::validator::{CentralNode, NodeConfig};

fn main() {
    let mut node = CentralNode::build(NodeConfig::default());
    node.start();
    let mut injector = Injector::none();
    node.run_until(Instant::from_millis(61), &mut injector);

    println!("one hyperperiod (0–60 ms) of the supervised central node:\n");
    print!(
        "{}",
        render_gantt(node.os.trace(), Instant::ZERO, Instant::from_millis(61), 100)
    );

    println!("\nper-task CPU slices:");
    for (task, slices) in running_intervals(node.os.trace()) {
        let busy_us: u64 = slices
            .iter()
            .map(|s| s.to.as_micros() - s.from.as_micros())
            .sum();
        println!("  {task:<22} {:>3} slices, {busy_us:>6} us total", slices.len());
    }
    println!("\nCPU utilisation: {:.1}%", node.os.utilization() * 100.0);
    assert!(node.world.watchdog.log().is_empty());
}
