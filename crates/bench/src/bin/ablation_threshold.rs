//! **A-THR** — ablation of the TSI error threshold (DESIGN.md §5).
//!
//! The paper sets the task-faulty threshold to 3 in its Figure 6 case. A
//! lower threshold reacts faster but tolerates fewer transients; a higher
//! one delays fault treatment. This sweep injects the Figure 6 branch
//! error at each threshold and reports the time from injection to the
//! faulty verdict plus the number of errors that accumulated.

use easis_bench::{emit_json, header};
use easis_injection::injector::{ErrorClass, Injection, Injector};
use easis_sim::time::Instant;
use easis_validator::{CentralNode, NodeConfig};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    threshold: u32,
    verdict_latency_ms: Option<u64>,
    faults_until_verdict: usize,
}

fn main() {
    header(
        "A-THR",
        "design choice — TSI error indication threshold (paper uses 3)",
        "skip-runnable injection at thresholds 1..8; latency to the faulty verdict",
    );
    let from = Instant::from_millis(500);
    let mut rows = Vec::new();
    for threshold in [1u32, 2, 3, 5, 8] {
        let mut node = CentralNode::build(NodeConfig {
            error_threshold: threshold,
            policy: easis_fmf::policy::TreatmentPolicy::observe_only(),
            ..NodeConfig::safespeed_only()
        });
        node.start();
        let target = node.runnable("SAFE_CC_process");
        let task = node.tasks["SafeSpeedTask"];
        let mut injector = Injector::new([Injection::new(
            ErrorClass::SkipRunnable { runnable: target },
            from,
            Instant::from_millis(2_000),
        )]);
        let mut verdict_at = None;
        while node.os.now() < Instant::from_millis(2_000) {
            node.run_until(node.os.now() + easis_sim::time::Duration::from_millis(10), &mut injector);
            if verdict_at.is_none() && node.world.watchdog.task_state(task).is_faulty() {
                verdict_at = Some(node.os.now());
                break;
            }
        }
        let watchdog = &node.world.watchdog;
        let faults = watchdog.log().faults().count() + watchdog.pending_faults();
        rows.push(Row {
            threshold,
            verdict_latency_ms: verdict_at.map(|t| t.as_millis() - from.as_millis()),
            faults_until_verdict: faults,
        });
    }

    println!("{:>9} {:>20} {:>22}", "threshold", "verdict latency[ms]", "faults until verdict");
    for r in &rows {
        println!(
            "{:>9} {:>20} {:>22}",
            r.threshold,
            r.verdict_latency_ms
                .map(|v| v.to_string())
                .unwrap_or_else(|| "never".into()),
            r.faults_until_verdict
        );
    }
    println!(
        "\nobservation: verdict latency grows roughly linearly with the\n\
         threshold (one PFC error per 10 ms task period)."
    );
    assert!(rows.iter().all(|r| r.verdict_latency_ms.is_some()));
    emit_json("ablation_threshold", &rows);
}
