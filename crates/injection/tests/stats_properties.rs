//! Property-based tests of the campaign statistics.

use easis_injection::stats::{CampaignStats, DetectorId, TrialOutcome};
use easis_sim::time::Duration;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Coverage is always in [0, 1] and equals hits/injected exactly.
    #[test]
    fn coverage_is_a_proper_ratio(
        detections in prop::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut trials = Vec::new();
        for &hit in &detections {
            let mut o = TrialOutcome::new("class");
            if hit {
                o.record(DetectorId::SwAliveness, Duration::from_millis(5));
            }
            trials.push(o);
        }
        let stats = CampaignStats::from(trials);
        let cov = stats.coverage("class", DetectorId::SwAliveness);
        let expected = detections.iter().filter(|&&h| h).count() as f64
            / detections.len() as f64;
        prop_assert!((cov - expected).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&cov));
        prop_assert_eq!(stats.sw_coverage("class"), cov);
    }

    /// Percentiles are monotone in p and bounded by min/max.
    #[test]
    fn percentiles_are_monotone(
        mut latencies in prop::collection::vec(0u64..100_000, 1..200),
        p1 in 0.0f64..=1.0,
        p2 in 0.0f64..=1.0,
    ) {
        latencies.sort_unstable();
        let sorted: Vec<Duration> = latencies.iter().map(|&l| Duration::from_micros(l)).collect();
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let v_lo = CampaignStats::percentile(&sorted, lo).unwrap();
        let v_hi = CampaignStats::percentile(&sorted, hi).unwrap();
        prop_assert!(v_lo <= v_hi);
        prop_assert!(v_lo >= sorted[0]);
        prop_assert!(v_hi <= *sorted.last().unwrap());
    }

    /// The earliest detection wins regardless of recording order.
    #[test]
    fn outcome_keeps_global_minimum(mut latencies in prop::collection::vec(1u64..100_000, 1..50)) {
        let mut o = TrialOutcome::new("x");
        for &l in &latencies {
            o.record(DetectorId::SwProgramFlow, Duration::from_micros(l));
        }
        latencies.sort_unstable();
        prop_assert_eq!(
            o.detections[&DetectorId::SwProgramFlow],
            Duration::from_micros(latencies[0])
        );
    }

    /// Rendered tables contain every class and never panic.
    #[test]
    fn tables_render_for_arbitrary_class_mixes(
        classes in prop::collection::vec("[a-z]{1,8}", 1..20),
    ) {
        let mut trials = Vec::new();
        for (i, class) in classes.iter().enumerate() {
            let mut o = TrialOutcome::new(Box::leak(class.clone().into_boxed_str()));
            if i % 2 == 0 {
                o.record(DetectorId::HwWatchdog, Duration::from_millis(i as u64 + 1));
            }
            trials.push(o);
        }
        let stats = CampaignStats::from(trials);
        let cov = stats.render_coverage_table();
        let lat = stats.render_latency_table();
        for class in &classes {
            prop_assert!(cov.contains(class.as_str()));
        }
        prop_assert!(!lat.is_empty());
    }
}
