//! **A-PER** — ablation of the watchdog check period (DESIGN.md §5,
//! "checked shortly before the next period begins").
//!
//! A faster watchdog cycle detects heartbeat losses sooner but spends more
//! cycles on checks. The sweep injects a heartbeat loss on
//! `SAFE_CC_process` under watchdog periods of 5/10/20 ms and reports the
//! first detection latency together with the monitoring cost rate.

use easis_bench::{emit_json, header};
use easis_injection::injector::{ErrorClass, Injection, Injector};
use easis_sim::cpu::CpuModel;
use easis_sim::time::{Duration, Instant};
use easis_validator::{CentralNode, NodeConfig};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    wd_period_ms: u64,
    detection_latency_ms: Option<u64>,
    monitor_cycles_per_s: u64,
    s12xf_load_pct: f64,
}

fn main() {
    header(
        "A-PER",
        "design choice — watchdog cycle length vs detection latency",
        "heartbeat loss on SAFE_CC_process under 5/10/20 ms watchdog cycles",
    );
    let from = Instant::from_millis(500);
    let horizon = Instant::from_millis(1_500);
    let mut rows = Vec::new();
    for wd_ms in [5u64, 10, 20] {
        let mut node = CentralNode::build(NodeConfig {
            wd_period: Duration::from_millis(wd_ms),
            error_threshold: 1_000,
            ..NodeConfig::safespeed_only()
        });
        node.start();
        let target = node.runnable("SAFE_CC_process");
        let mut injector = Injector::new([Injection::new(
            ErrorClass::HeartbeatLoss { runnable: target },
            from,
            Instant::from_millis(900),
        )]);
        node.run_until(horizon, &mut injector);
        let first = node
            .world
            .watchdog
            .log()
            .faults()
            .find(|f| f.at >= from)
            .map(|f| f.at.as_millis() - from.as_millis());
        let cycles = node.world.watchdog.costs().total_cycles();
        let elapsed_s = horizon.as_secs_f64();
        let per_s = (cycles as f64 / elapsed_s) as u64;
        let load = per_s as f64 / CpuModel::S12XF.clock_hz() as f64 * 100.0;
        rows.push(Row {
            wd_period_ms: wd_ms,
            detection_latency_ms: first,
            monitor_cycles_per_s: per_s,
            s12xf_load_pct: load,
        });
    }

    println!(
        "{:>13} {:>22} {:>18} {:>14}",
        "wd period[ms]", "detection latency[ms]", "monitor cycles/s", "S12XF load[%]"
    );
    for r in &rows {
        println!(
            "{:>13} {:>22} {:>18} {:>14.4}",
            r.wd_period_ms,
            r.detection_latency_ms
                .map(|v| v.to_string())
                .unwrap_or_else(|| "missed".into()),
            r.monitor_cycles_per_s,
            r.s12xf_load_pct
        );
    }
    println!(
        "\nobservation: the check period bounds worst-case detection latency\n\
         (latency ≈ remaining window), while the monitoring load stays far\n\
         below 1% even on the S12XF — the paper's low-overhead claim."
    );
    assert!(rows.iter().all(|r| r.detection_latency_ms.is_some()));
    assert!(rows.iter().all(|r| r.s12xf_load_pct < 1.0));
    emit_json("ablation_wd_period", &rows);
}
