//! Coverage regression harness.
//!
//! Pins the fixed-seed reference campaign's [`CampaignReport`] as a golden
//! JSON fixture (`tests/goldens/campaign_report.json`) and asserts:
//!
//! 1. a serial run reproduces the golden **byte for byte**;
//! 2. a 4-worker parallel run serialises to exactly the same bytes as the
//!    serial run (the executor's determinism guarantee);
//! 3. no error class lost Software-Watchdog coverage relative to the
//!    golden — any per-class coverage regression fails the suite even if
//!    the overall bytes were regenerated.
//!
//! Regenerate after an intentional behaviour change with:
//!
//! ```text
//! EASIS_REGEN_GOLDENS=1 cargo test --test campaign_regression
//! ```

use easis::injection::{CampaignBuilder, CampaignExecutor, CampaignPlan, CampaignReport};
use easis::rte::runnable::RunnableId;
use easis::sim::time::{Duration, Instant};
use easis::validator::scenario;

const GOLDEN: &str = include_str!("goldens/campaign_report.json");

/// The reference campaign: the T-COV configuration at 3 trials per class,
/// small enough for the test suite but covering every error class.
fn reference_plan() -> (CampaignPlan, Instant) {
    let horizon = Instant::from_millis(1_500);
    let plan = CampaignBuilder::new(0xC0FFEE, (0..9).map(RunnableId).collect())
        .loop_targets(vec![RunnableId(4), RunnableId(7)])
        .trials_per_class(3)
        .window(Instant::from_millis(300), Duration::from_millis(400))
        .with_horizon(horizon)
        .build();
    (plan, horizon)
}

fn report_json(executor: &CampaignExecutor) -> String {
    let (plan, horizon) = reference_plan();
    let stats = scenario::run_plan(&plan, horizon, executor);
    let report = CampaignReport::from_stats(&stats);
    let mut json = serde_json::to_string_pretty(&report).expect("report serialises");
    json.push('\n');
    json
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens/campaign_report.json")
}

#[test]
fn serial_run_matches_golden_report_bytes() {
    let json = report_json(&CampaignExecutor::serial());
    if std::env::var_os("EASIS_REGEN_GOLDENS").is_some() {
        std::fs::write(golden_path(), &json).expect("write golden");
        return;
    }
    assert_eq!(
        json, GOLDEN,
        "campaign report drifted from the golden fixture; if the change is\n\
         intentional, regenerate with EASIS_REGEN_GOLDENS=1"
    );
}

#[test]
fn four_workers_serialise_byte_identical_to_serial() {
    let serial = report_json(&CampaignExecutor::serial());
    let parallel = report_json(&CampaignExecutor::new(4));
    assert_eq!(serial, parallel, "worker count leaked into the report bytes");
}

#[test]
fn chunked_executors_serialise_byte_identical_to_golden() {
    if std::env::var_os("EASIS_REGEN_GOLDENS").is_some() {
        return; // the serial test owns regeneration; don't race it
    }
    // 15 workers run the 15-trial reference plan one trial per worker.
    assert_eq!(reference_plan().0.len(), 15);
    for workers in [2, 3, 4, 15] {
        let json = report_json(&CampaignExecutor::new(workers));
        assert_eq!(json, GOLDEN, "{workers}-worker run drifted from the golden");
    }
    let json = report_json(&CampaignExecutor::from_env());
    assert_eq!(json, GOLDEN, "from_env run drifted from the golden");
}

#[test]
fn no_error_class_lost_software_watchdog_coverage() {
    let golden: CampaignReport = serde_json::from_str(GOLDEN).expect("golden parses");
    let (plan, horizon) = reference_plan();
    let stats = scenario::run_plan(&plan, horizon, &CampaignExecutor::from_env());
    let current = CampaignReport::from_stats(&stats);
    assert_eq!(current.trials, golden.trials, "trial count changed");
    for pinned in &golden.classes {
        let now = current
            .class(&pinned.class)
            .unwrap_or_else(|| panic!("class {} vanished from the report", pinned.class));
        assert!(
            now.sw_coverage >= pinned.sw_coverage,
            "Software Watchdog coverage regressed on {}: {:.2} < {:.2}",
            pinned.class,
            now.sw_coverage,
            pinned.sw_coverage,
        );
        for pinned_det in &pinned.detectors {
            let now_det = now
                .detectors
                .iter()
                .find(|d| d.detector == pinned_det.detector)
                .expect("detector set is fixed");
            assert!(
                now_det.coverage >= pinned_det.coverage,
                "{:?} coverage regressed on {}: {:.2} < {:.2}",
                pinned_det.detector,
                pinned.class,
                now_det.coverage,
                pinned_det.coverage,
            );
        }
    }
}
