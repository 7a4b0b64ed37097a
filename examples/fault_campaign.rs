//! A miniature fault-injection campaign.
//!
//! Injects 3 trials of each of the five runnable-level error classes into
//! the full central node (all three ISS applications) through the parallel
//! [`CampaignExecutor`], then prints the per-trial detections, the
//! detection-coverage and latency tables across all six monitors, and the
//! confidence-interval report. The executor keeps outcomes in plan
//! order, so the output is identical for any worker count. The full-size
//! campaign lives in `cargo run -p easis-bench --bin table_coverage`.
//!
//! Run with: `cargo run --release --example fault_campaign`
//!
//! [`CampaignExecutor`]: easis::injection::CampaignExecutor

use easis::injection::{CampaignBuilder, CampaignExecutor, CampaignReport, DetectorId};
use easis::rte::runnable::RunnableId;
use easis::sim::time::{Duration, Instant};
use easis::validator::scenario;

fn main() {
    // The full node registers 9 runnables (steer 0-2, safespeed 3-5,
    // safelane 6-8); the ones with loop terms are SAFE_CC_process (4) and
    // LDW_process (7).
    let targets: Vec<RunnableId> = (0..9).map(RunnableId).collect();
    let horizon = Instant::from_millis(1_200);
    let plan = CampaignBuilder::new(2024, targets)
        .loop_targets(vec![RunnableId(4), RunnableId(7)])
        .trials_per_class(3)
        .window(Instant::from_millis(300), Duration::from_millis(300))
        .with_horizon(horizon)
        .build();

    let executor = CampaignExecutor::from_env();
    println!(
        "running {} trials on {} worker(s)…",
        plan.len(),
        executor.workers()
    );
    let stats = scenario::run_plan(&plan, horizon, &executor);

    // Outcomes come back in plan order regardless of worker scheduling,
    // so they zip cleanly with the trial specs.
    for (trial, outcome) in plan.trials().iter().zip(stats.trials()) {
        let caught = DetectorId::ALL
            .iter()
            .filter(|&&d| outcome.detected_by(d))
            .map(|d| d.label())
            .collect::<Vec<_>>()
            .join(",");
        println!(
            "  {:<20} target {:?} → [{}]",
            trial.injection.class.tag(),
            trial.injection.class.target_runnable(),
            caught
        );
    }

    println!("\n=== detection coverage ===");
    print!("{}", stats.render_coverage_table());
    println!("\n=== detection latency ===");
    print!("{}", stats.render_latency_table());
    println!("\n=== coverage confidence report ===");
    print!("{}", CampaignReport::from_stats(&stats).render());
}
