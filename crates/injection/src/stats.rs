//! Campaign statistics: detection coverage and latency aggregation.

use easis_sim::time::Duration;
use serde::{Deserialize, Serialize, Value};
use std::fmt::{self, Write as _};
use std::ops::Index;
use std::sync::Arc;

/// The detectors compared by the coverage/latency experiments: the
/// vocabulary of the node's detection log, re-exported here.
pub use easis_watchdog::detection::DetectorId;

/// The detections of one trial: each detector's latency (injection start
/// → first detection), one slot per [`DetectorId::ALL`] entry, and a
/// presence mask. It is `Copy` and 56 bytes inline, so a campaign keeps
/// its outcomes in one vector with no heap block per trial. An absent
/// slot stays zero, so the derived equality is equality of the detected
/// (detector, latency) pairs. Slots are indexed by the detector's
/// discriminant, which is its column in [`DetectorId::ALL`] and its
/// derived `Ord` rank; iteration and the JSON map follow that order.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct Detections {
    latency: [Duration; DetectorId::ALL.len()],
    /// Bit `detector as usize` is set iff that detector caught the fault.
    detected: u8,
}

const _: () = assert!(DetectorId::ALL.len() <= u8::BITS as usize, "one mask bit per detector");

impl Detections {
    fn bit(detector: DetectorId) -> u8 {
        1 << detector as usize
    }

    /// The latency of `detector`, or `None` if it did not detect.
    pub fn get(&self, detector: DetectorId) -> Option<Duration> {
        (self.detected & Self::bit(detector) != 0).then_some(self.latency[detector as usize])
    }

    /// The detecting detectors and their latencies, in column order.
    pub fn iter(&self) -> impl Iterator<Item = (DetectorId, Duration)> {
        let detections = *self;
        DetectorId::ALL
            .into_iter()
            .filter_map(move |detector| Some((detector, detections.get(detector)?)))
    }

    /// Number of detectors that detected.
    pub fn len(&self) -> usize {
        self.detected.count_ones() as usize
    }

    /// `true` if no detector detected.
    pub fn is_empty(&self) -> bool {
        self.detected == 0
    }

    /// Records a detection, keeping the earliest per detector.
    pub fn record(&mut self, detector: DetectorId, latency: Duration) {
        if self.get(detector).is_none_or(|earliest| latency < earliest) {
            self.insert(detector, latency);
        }
    }

    /// Sets `detector`'s latency, replacing any earlier one.
    fn insert(&mut self, detector: DetectorId, latency: Duration) {
        self.latency[detector as usize] = latency;
        self.detected |= Self::bit(detector);
    }
}

impl Index<&DetectorId> for Detections {
    type Output = Duration;

    /// # Panics
    ///
    /// Panics if the detector did not detect.
    fn index(&self, detector: &DetectorId) -> &Duration {
        assert!(self.get(*detector).is_some(), "no detection by {detector:?}");
        &self.latency[*detector as usize]
    }
}

impl<const N: usize> From<[(DetectorId, Duration); N]> for Detections {
    /// Collects (detector, latency) pairs; a repeated detector keeps its
    /// last latency, as a map built from the pairs would.
    fn from(pairs: [(DetectorId, Duration); N]) -> Self {
        let mut detections = Detections::default();
        for (detector, latency) in pairs {
            detections.insert(detector, latency);
        }
        detections
    }
}

impl fmt::Debug for Detections {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// A map from each detecting detector to its latency, keys in column
/// order: the JSON of a sorted map from detector to latency.
impl Serialize for Detections {
    fn serialize(&self) -> Value {
        Value::Map(
            self.iter()
                .map(|(detector, latency)| {
                    let key = detector.serialize().into_key().expect("a variant name");
                    (key, latency.serialize())
                })
                .collect(),
        )
    }
}

/// Accepts the map [`Serialize`] writes, its keys in any order; a
/// repeated key keeps its last latency.
impl Deserialize for Detections {
    fn deserialize(value: &Value) -> Result<Self, serde::Error> {
        let mut detections = Detections::default();
        for (key, latency) in value.as_map()? {
            detections.insert(
                DetectorId::deserialize(&Value::Str(key.clone()))?,
                Duration::deserialize(latency)?,
            );
        }
        Ok(detections)
    }
}

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
    /// Detection latency per detector (injection start → first detection).
    pub detections: Detections,
}

impl TrialOutcome {
    /// Creates an outcome for a class tag, with no detection.
    pub fn new(class: impl Into<Arc<str>>) -> Self {
        TrialOutcome {
            class: class.into(),
            detections: Detections::default(),
        }
    }

    /// Records a detection (keeps the earliest per detector).
    pub fn record(&mut self, detector: DetectorId, latency: Duration) {
        self.detections.record(detector, latency);
    }

    /// `true` if the detector caught the fault.
    pub fn detected_by(&self, detector: DetectorId) -> bool {
        self.detections.get(detector).is_some()
    }

    /// `true` if any Software Watchdog unit caught the fault.
    pub fn detected_by_sw_watchdog(&self) -> bool {
        self.detections.iter().any(|(d, _)| d.is_software_watchdog())
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
            .filter_map(|t| t.detections.get(detector))
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
        assert_eq!(t.detections.len(), 1);
        assert!(t.detected_by(DetectorId::SwProgramFlow));
        assert!(t.detected_by_sw_watchdog());
        assert!(!t.detected_by(DetectorId::HwWatchdog));
        assert_eq!(t.detections.get(DetectorId::HwWatchdog), None);
    }

    /// One slot per column, indexed by the detector's discriminant, so
    /// column order, slot order and the derived `Ord` agree.
    #[test]
    fn detections_are_inline_slots_in_column_order() {
        assert_eq!(std::mem::size_of::<Detections>(), 56);
        for (column, detector) in DetectorId::ALL.into_iter().enumerate() {
            assert_eq!(detector as usize, column);
        }
        assert!(DetectorId::ALL.windows(2).all(|pair| pair[0] < pair[1]));
        let all = Detections::from(DetectorId::ALL.map(|d| (d, ms(d as u64))));
        assert_eq!(all.len(), 6);
        assert!(all.iter().map(|(d, _)| d).eq(DetectorId::ALL));
        assert!(Detections::default().is_empty());
    }

    #[test]
    #[should_panic(expected = "no detection by HwWatchdog")]
    fn indexing_an_absent_detector_panics() {
        let _ = Detections::default()[&DetectorId::HwWatchdog];
    }

    /// The stats JSON is the form the outcomes had as a B-tree map from
    /// detector to latency: detected keys only, in column order, whatever
    /// order they were recorded in.
    #[test]
    fn outcome_json_lists_detections_in_column_order() {
        let mut t = TrialOutcome::new("skip_runnable");
        t.record(DetectorId::ExecTimeMonitor, ms(7));
        t.record(DetectorId::SwProgramFlow, Duration::from_micros(1_500));
        t.record(DetectorId::SwAliveness, ms(20));
        assert_eq!(
            serde_json::to_string(&t).unwrap(),
            r#"{"class":"skip_runnable","detections":{"SwAliveness":20000,"SwProgramFlow":1500,"ExecTimeMonitor":7000}}"#
        );
    }

    #[test]
    fn undetected_outcome_serializes_an_empty_map() {
        let t = TrialOutcome::new("heartbeat_loss");
        assert_eq!(
            serde_json::to_string(&t).unwrap(),
            r#"{"class":"heartbeat_loss","detections":{}}"#
        );
    }

    #[test]
    fn stats_round_trip_through_json() {
        let mut all = TrialOutcome::new("loop_overrun");
        for detector in DetectorId::ALL {
            all.record(detector, ms(detector as u64 + 1));
        }
        let mut one = TrialOutcome::new("heartbeat_loss");
        one.record(DetectorId::HwWatchdog, Duration::ZERO);
        let stats = CampaignStats::from(vec![all, one, TrialOutcome::new("skip_runnable")]);
        let json = serde_json::to_string(&stats).unwrap();
        let back: CampaignStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, stats);
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn detections_deserialize_keys_in_any_order() {
        let back: Detections =
            serde_json::from_str(r#"{"DeadlineMonitor":9500,"SwAliveness":15000,"HwWatchdog":0}"#)
                .unwrap();
        assert_eq!(
            back,
            Detections::from([
                (DetectorId::SwAliveness, ms(15)),
                (DetectorId::HwWatchdog, Duration::ZERO),
                (DetectorId::DeadlineMonitor, Duration::from_micros(9_500)),
            ])
        );
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            r#"{"SwAliveness":15000,"HwWatchdog":0,"DeadlineMonitor":9500}"#
        );
        assert!(serde_json::from_str::<Detections>(r#"{"Watchdog":1}"#).is_err());
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
