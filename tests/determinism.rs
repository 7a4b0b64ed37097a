//! Determinism and reproducibility across the whole stack: identical
//! configurations must produce bit-identical traces, series and campaign
//! outcomes — the property that makes the experiment tables trustworthy.

use easis::injection::{CampaignBuilder, CampaignExecutor, ErrorClass, Injection, Injector};
use easis::rte::runnable::RunnableId;
use easis::sim::time::{Duration, Instant};
use easis::validator::scenario;
use easis::validator::{CentralNode, NodeConfig};

fn ms(n: u64) -> Instant {
    Instant::from_millis(n)
}

fn run_node_trace() -> String {
    let mut node = CentralNode::build(NodeConfig::default());
    node.start();
    let target = node.runnable("SAFE_CC_process");
    let mut injector = Injector::new([Injection::new(
        ErrorClass::SkipRunnable { runnable: target },
        ms(150),
        ms(350),
    )]);
    node.run_until(ms(600), &mut injector);
    node.os.trace().render()
}

#[test]
fn full_node_runs_are_bit_identical() {
    let a = run_node_trace();
    let b = run_node_trace();
    assert_eq!(a, b);
    assert!(!a.is_empty());
}

#[test]
fn figure_series_are_reproducible() {
    let a = scenario::fig5_aliveness(3_000_000);
    let b = scenario::fig5_aliveness(3_000_000);
    for name in ["AC", "CCA", "AM Result"] {
        assert_eq!(a.series(name).unwrap(), b.series(name).unwrap(), "{name}");
    }
}

#[test]
fn campaign_outcomes_are_reproducible() {
    let targets: Vec<RunnableId> = (0..9).map(RunnableId).collect();
    let build_plan = || {
        CampaignBuilder::new(77, targets.clone())
            .loop_targets(vec![RunnableId(4), RunnableId(7)])
            .trials_per_class(1)
            .window(ms(200), Duration::from_millis(200))
            .build()
    };
    let horizon = ms(800);
    let serial = CampaignExecutor::serial();
    let a = serial.run(&build_plan(), |t| scenario::run_trial(t, horizon));
    let b = serial.run(&build_plan(), |t| scenario::run_trial(t, horizon));
    assert_eq!(a.len(), b.len());
    for (x, y) in a.trials().iter().zip(b.trials()) {
        assert_eq!(x.class, y.class);
        assert_eq!(x.detections, y.detections);
    }
}

#[test]
fn different_seeds_change_campaigns_but_not_the_class_mix() {
    let targets: Vec<RunnableId> = (0..9).map(RunnableId).collect();
    let a = CampaignBuilder::new(1, targets.clone()).trials_per_class(2).build();
    let b = CampaignBuilder::new(2, targets).trials_per_class(2).build();
    let tags = |p: &easis::injection::CampaignPlan| {
        let mut t: Vec<&str> = p.trials().iter().map(|x| x.injection.class.tag()).collect();
        t.sort();
        t
    };
    assert_eq!(tags(&a), tags(&b), "class mix is seed-independent");
    assert_ne!(a.trials(), b.trials(), "targets/windows differ by seed");
}
