//! Campaign statistics: detection coverage and latency aggregation.

use easis_sim::time::Duration;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// The detectors compared by the coverage/latency experiments: the
/// vocabulary of the node's detection log, re-exported here.
pub use easis_watchdog::detection::DetectorId;

/// Result of one fault-injection trial.
///
/// The class tag is an `Arc<str>`: campaign trials stamp outcomes with
/// [`ErrorClass::interned_tag`](crate::injector::ErrorClass::interned_tag)
/// handles so no per-trial string is allocated. It serializes as a plain
/// string, so on-disk stats records are unchanged.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrialOutcome {
    /// Error class tag of the injected fault.
    pub class: Arc<str>,
    /// Detection latency per detector (injection start → first detection);
    /// absent = not detected.
    pub detections: BTreeMap<DetectorId, Duration>,
}

impl TrialOutcome {
    /// Creates an outcome for a class tag.
    pub fn new(class: impl Into<Arc<str>>) -> Self {
        TrialOutcome {
            class: class.into(),
            detections: BTreeMap::new(),
        }
    }

    /// Records a detection (keeps the earliest per detector).
    pub fn record(&mut self, detector: DetectorId, latency: Duration) {
        self.detections
            .entry(detector)
            .and_modify(|l| {
                if latency < *l {
                    *l = latency;
                }
            })
            .or_insert(latency);
    }

    /// `true` if the detector caught the fault.
    pub fn detected_by(&self, detector: DetectorId) -> bool {
        self.detections.contains_key(&detector)
    }

    /// `true` if any Software Watchdog unit caught the fault.
    pub fn detected_by_sw_watchdog(&self) -> bool {
        self.detections.keys().any(|d| d.is_software_watchdog())
    }
}

/// Aggregated campaign results: coverage and latency per (class, detector).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignStats {
    trials: Vec<TrialOutcome>,
}

impl CampaignStats {
    /// Number of trials.
    pub fn len(&self) -> usize {
        self.trials.len()
    }

    /// `true` if no trials were recorded.
    pub fn is_empty(&self) -> bool {
        self.trials.is_empty()
    }

    /// All trials.
    pub fn trials(&self) -> &[TrialOutcome] {
        &self.trials
    }

    /// Distinct class tags, sorted.
    pub fn classes(&self) -> Vec<String> {
        let mut c: Vec<String> = self.trials.iter().map(|t| t.class.to_string()).collect();
        c.sort();
        c.dedup();
        c
    }

    /// Coverage of `detector` on `class`: detected / injected.
    pub fn coverage(&self, class: &str, detector: DetectorId) -> f64 {
        let of_class: Vec<&TrialOutcome> =
            self.trials.iter().filter(|t| &*t.class == class).collect();
        if of_class.is_empty() {
            return 0.0;
        }
        let hit = of_class.iter().filter(|t| t.detected_by(detector)).count();
        hit as f64 / of_class.len() as f64
    }

    /// Combined Software Watchdog coverage on `class` (any unit).
    pub fn sw_coverage(&self, class: &str) -> f64 {
        let of_class: Vec<&TrialOutcome> =
            self.trials.iter().filter(|t| &*t.class == class).collect();
        if of_class.is_empty() {
            return 0.0;
        }
        let hit = of_class
            .iter()
            .filter(|t| t.detected_by_sw_watchdog())
            .count();
        hit as f64 / of_class.len() as f64
    }

    /// Detection latencies of `detector` on `class`, sorted ascending.
    pub fn latencies(&self, class: &str, detector: DetectorId) -> Vec<Duration> {
        let mut l: Vec<Duration> = self
            .trials
            .iter()
            .filter(|t| &*t.class == class)
            .filter_map(|t| t.detections.get(&detector).copied())
            .collect();
        l.sort_unstable();
        l
    }

    /// Percentile (0.0–1.0) of a sorted latency list. Thin wrapper over
    /// [`easis_obs::metrics::percentile`], the shared implementation.
    pub fn percentile(sorted: &[Duration], p: f64) -> Option<Duration> {
        easis_obs::metrics::percentile(sorted, p)
    }

    /// Renders the coverage table (rows: classes, columns: detectors).
    pub fn render_coverage_table(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{:<22}", "error class \\ detector");
        for d in DetectorId::ALL {
            let _ = write!(out, " {:>7}", d.label());
        }
        let _ = writeln!(out, " {:>7}", "SW-any");
        for class in self.classes() {
            let _ = write!(out, "{:<22}", class);
            for d in DetectorId::ALL {
                let _ = write!(out, " {:>6.0}%", 100.0 * self.coverage(&class, d));
            }
            let _ = writeln!(out, " {:>6.0}%", 100.0 * self.sw_coverage(&class));
        }
        out
    }

    /// Renders the latency table (min / median / p95 per class×detector
    /// with at least one detection).
    pub fn render_latency_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<22} {:>8} {:>10} {:>10} {:>10}",
            "error class", "detector", "min[ms]", "med[ms]", "p95[ms]"
        );
        for class in self.classes() {
            for d in DetectorId::ALL {
                let lat = self.latencies(&class, d);
                if lat.is_empty() {
                    continue;
                }
                let min = lat[0];
                let med = Self::percentile(&lat, 0.5).expect("non-empty");
                let p95 = Self::percentile(&lat, 0.95).expect("non-empty");
                let _ = writeln!(
                    out,
                    "{:<22} {:>8} {:>10.1} {:>10.1} {:>10.1}",
                    class,
                    d.label(),
                    min.as_micros() as f64 / 1000.0,
                    med.as_micros() as f64 / 1000.0,
                    p95.as_micros() as f64 / 1000.0,
                );
            }
        }
        out
    }
}

impl From<Vec<TrialOutcome>> for CampaignStats {
    /// Aggregates outcomes that are already in trial order, keeping the
    /// vector as the trial list.
    fn from(trials: Vec<TrialOutcome>) -> Self {
        CampaignStats { trials }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn outcome_keeps_earliest_detection() {
        let mut t = TrialOutcome::new("skip_runnable");
        t.record(DetectorId::SwProgramFlow, ms(30));
        t.record(DetectorId::SwProgramFlow, ms(10));
        t.record(DetectorId::SwProgramFlow, ms(50));
        assert_eq!(t.detections[&DetectorId::SwProgramFlow], ms(10));
        assert!(t.detected_by(DetectorId::SwProgramFlow));
        assert!(t.detected_by_sw_watchdog());
        assert!(!t.detected_by(DetectorId::HwWatchdog));
    }

    #[test]
    fn coverage_counts_hits_per_class() {
        let mut trials = Vec::new();
        for i in 0..4 {
            let mut t = TrialOutcome::new("heartbeat_loss");
            if i < 3 {
                t.record(DetectorId::SwAliveness, ms(20));
            }
            trials.push(t);
        }
        let stats = CampaignStats::from(trials);
        assert_eq!(stats.coverage("heartbeat_loss", DetectorId::SwAliveness), 0.75);
        assert_eq!(stats.coverage("heartbeat_loss", DetectorId::HwWatchdog), 0.0);
        assert_eq!(stats.coverage("unknown", DetectorId::SwAliveness), 0.0);
        assert_eq!(stats.sw_coverage("heartbeat_loss"), 0.75);
        assert_eq!(stats.len(), 4);
    }

    #[test]
    fn latency_percentiles() {
        let sorted: Vec<Duration> = (1..=100).map(ms).collect();
        assert_eq!(CampaignStats::percentile(&sorted, 0.0), Some(ms(1)));
        assert_eq!(CampaignStats::percentile(&sorted, 0.5), Some(ms(51)));
        assert_eq!(CampaignStats::percentile(&sorted, 1.0), Some(ms(100)));
        assert_eq!(CampaignStats::percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_of_empty_list_is_none_for_every_p() {
        for p in [0.0, 0.5, 1.0, -1.0, 2.0] {
            assert_eq!(CampaignStats::percentile(&[], p), None);
        }
    }

    #[test]
    fn percentile_of_single_sample_is_that_sample() {
        let one = [ms(42)];
        for p in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(CampaignStats::percentile(&one, p), Some(ms(42)));
        }
    }

    #[test]
    fn percentile_clamps_out_of_range_p() {
        let sorted: Vec<Duration> = (1..=10).map(ms).collect();
        // p below 0 clamps to the minimum, above 1 to the maximum.
        assert_eq!(CampaignStats::percentile(&sorted, -0.5), Some(ms(1)));
        assert_eq!(CampaignStats::percentile(&sorted, 7.0), Some(ms(10)));
    }

    #[test]
    fn tables_render_all_classes() {
        let mut a = TrialOutcome::new("skip_runnable");
        a.record(DetectorId::SwProgramFlow, ms(12));
        let mut b = TrialOutcome::new("heartbeat_loss");
        b.record(DetectorId::SwAliveness, ms(25));
        let stats = CampaignStats::from(vec![a, b]);
        let cov = stats.render_coverage_table();
        assert!(cov.contains("skip_runnable") && cov.contains("heartbeat_loss"));
        assert!(cov.contains("SW-PFC"));
        let lat = stats.render_latency_table();
        assert!(lat.contains("12.0"));
        assert!(lat.contains("25.0"));
    }

    #[test]
    fn classes_are_deduplicated_and_sorted() {
        let stats = CampaignStats::from(["b", "a", "b"].map(TrialOutcome::new).to_vec());
        assert_eq!(stats.classes(), vec!["a".to_string(), "b".to_string()]);
    }
}
