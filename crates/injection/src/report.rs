//! Machine-readable campaign reports.
//!
//! [`CampaignStats`] holds the raw trial outcomes; [`CampaignReport`]
//! condenses them into the numbers the paper's tables need — per
//! (class, detector) coverage with a Wilson-score 95% confidence
//! interval and detection-latency percentiles — in a serde-serialisable
//! shape that the experiment binaries emit as JSON and the regression
//! harness pins as goldens.
//!
//! Everything here is a pure function of the trial outcomes, so a report
//! built from a deterministic campaign serialises to byte-identical JSON
//! across runs and worker counts.

use crate::stats::{CampaignStats, DetectorId};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Wilson-score confidence interval for a binomial proportion.
///
/// Unlike the normal-approximation ("Wald") interval, Wilson behaves at
/// the extremes the coverage tables live at: at 0/n the lower bound is
/// exactly 0, at n/n the upper bound is exactly 1, and small campaigns
/// get honestly wide intervals instead of `±0`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WilsonInterval {
    /// Lower bound of the proportion, in `[0, 1]`.
    pub lo: f64,
    /// Upper bound of the proportion, in `[0, 1]`.
    pub hi: f64,
}

impl WilsonInterval {
    /// The 95% interval (z = 1.96) for `hits` successes out of `n`.
    fn for_proportion(hits: usize, n: usize) -> WilsonInterval {
        WilsonInterval::with_z(hits, n, 1.96)
    }

    /// The interval for `hits` out of `n` at critical value `z`.
    ///
    /// With `n == 0` there is no evidence either way: returns `[0, 1]`.
    fn with_z(hits: usize, n: usize, z: f64) -> WilsonInterval {
        if n == 0 {
            return WilsonInterval { lo: 0.0, hi: 1.0 };
        }
        debug_assert!(hits <= n, "more hits than trials");
        let nf = n as f64;
        let p = hits as f64 / nf;
        let z2 = z * z;
        let denom = 1.0 + z2 / nf;
        let center = p + z2 / (2.0 * nf);
        let margin = z * (p * (1.0 - p) / nf + z2 / (4.0 * nf * nf)).sqrt();
        WilsonInterval {
            lo: ((center - margin) / denom).clamp(0.0, 1.0),
            hi: ((center + margin) / denom).clamp(0.0, 1.0),
        }
    }

    /// `true` if `p` lies inside the interval.
    pub fn contains(&self, p: f64) -> bool {
        (self.lo..=self.hi).contains(&p)
    }

    /// Interval width.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }
}

/// Detection-latency distribution summary, in microseconds.
///
/// The type (and its percentile machinery) lives in `easis-obs` so the
/// live metrics registry and the campaign reports share one
/// implementation; it is re-exported here unchanged, keeping the JSON
/// report shape byte-identical.
pub use easis_obs::metrics::LatencySummary;

/// One detector's performance on one error class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectorReport {
    /// The detector.
    pub detector: DetectorId,
    /// Trials of the class this detector caught.
    pub detected: usize,
    /// Trials of the class injected.
    pub injected: usize,
    /// Point coverage `detected / injected`.
    pub coverage: f64,
    /// Wilson-score 95% interval around [`DetectorReport::coverage`].
    pub ci95: WilsonInterval,
    /// Latency summary over the caught trials; `None` when none caught.
    pub latency: Option<LatencySummary>,
}

/// Per-error-class campaign results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassReport {
    /// Error class tag.
    pub class: String,
    /// Trials injected for this class.
    pub injected: usize,
    /// Trials caught by *any* Software Watchdog unit.
    pub sw_detected: usize,
    /// Combined Software Watchdog coverage.
    pub sw_coverage: f64,
    /// Wilson-score 95% interval around [`ClassReport::sw_coverage`].
    pub sw_ci95: WilsonInterval,
    /// Per-detector breakdown, in [`DetectorId::ALL`] column order.
    pub detectors: Vec<DetectorReport>,
}

/// The full campaign report: what the experiment binaries emit as JSON
/// and the regression harness pins as a golden.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Total trials across all classes.
    pub trials: usize,
    /// Per-class results, sorted by class tag.
    pub classes: Vec<ClassReport>,
}

impl CampaignReport {
    /// Builds the report from aggregated campaign statistics.
    pub fn from_stats(stats: &CampaignStats) -> CampaignReport {
        let classes = stats
            .classes()
            .into_iter()
            .map(|class| {
                let of_class: Vec<_> = stats.trials().iter().filter(|t| t.class == class).collect();
                let injected = of_class.len();
                let sw_detected = of_class
                    .iter()
                    .filter(|t| t.detected_by_sw_watchdog())
                    .count();
                let detectors = DetectorId::ALL
                    .into_iter()
                    .map(|detector| {
                        let detected = of_class.iter().filter(|t| t.detected_by(detector)).count();
                        let sorted = stats.latencies(class, detector);
                        DetectorReport {
                            detector,
                            detected,
                            injected,
                            coverage: ratio(detected, injected),
                            ci95: WilsonInterval::for_proportion(detected, injected),
                            latency: LatencySummary::from_sorted(&sorted),
                        }
                    })
                    .collect();
                ClassReport {
                    class: class.to_string(),
                    injected,
                    sw_detected,
                    sw_coverage: ratio(sw_detected, injected),
                    sw_ci95: WilsonInterval::for_proportion(sw_detected, injected),
                    detectors,
                }
            })
            .collect();
        CampaignReport {
            trials: stats.len(),
            classes,
        }
    }

    /// Looks up a class report by tag.
    pub fn class(&self, tag: &str) -> Option<&ClassReport> {
        self.classes.iter().find(|c| c.class == tag)
    }

    /// Renders the report as a human-readable table: combined Software
    /// Watchdog coverage with its confidence interval per class, then the
    /// per-detector coverage and latency percentiles.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<22} {:>8} {:>8} {:>17}",
            "error class", "injected", "SW-any", "95% CI"
        );
        for class in &self.classes {
            let _ = writeln!(
                out,
                "{:<22} {:>8} {:>7.0}% [{:>5.1}%, {:>5.1}%]",
                class.class,
                class.injected,
                100.0 * class.sw_coverage,
                100.0 * class.sw_ci95.lo,
                100.0 * class.sw_ci95.hi,
            );
        }
        let _ = writeln!(
            out,
            "\n{:<22} {:>8} {:>8} {:>17} {:>9} {:>9} {:>9}",
            "error class", "detector", "cover", "95% CI", "p50[ms]", "p95[ms]", "p99[ms]"
        );
        for class in &self.classes {
            for det in &class.detectors {
                if det.detected == 0 {
                    continue;
                }
                let lat = det.latency.expect("detected > 0 implies latencies");
                let _ = writeln!(
                    out,
                    "{:<22} {:>8} {:>7.0}% [{:>5.1}%, {:>5.1}%] {:>9.1} {:>9.1} {:>9.1}",
                    class.class,
                    det.detector.label(),
                    100.0 * det.coverage,
                    100.0 * det.ci95.lo,
                    100.0 * det.ci95.hi,
                    lat.p50_us as f64 / 1000.0,
                    lat.p95_us as f64 / 1000.0,
                    lat.p99_us as f64 / 1000.0,
                );
            }
        }
        out
    }
}

fn ratio(hits: usize, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        hits as f64 / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TrialOutcome;
    use easis_sim::time::Duration;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn wilson_bounds_are_exact_at_the_extremes() {
        let zero = WilsonInterval::for_proportion(0, 50);
        assert_eq!(zero.lo, 0.0);
        assert!(zero.hi > 0.0 && zero.hi < 0.15, "hi = {}", zero.hi);
        let full = WilsonInterval::for_proportion(50, 50);
        assert_eq!(full.hi, 1.0);
        assert!(full.lo < 1.0 && full.lo > 0.85, "lo = {}", full.lo);
    }

    #[test]
    fn wilson_interval_is_centred_and_shrinks_with_n() {
        let small = WilsonInterval::for_proportion(5, 10);
        let large = WilsonInterval::for_proportion(500, 1000);
        assert!(small.contains(0.5));
        assert!(large.contains(0.5));
        assert!(large.width() < small.width());
    }

    #[test]
    fn wilson_with_no_trials_is_vacuous() {
        assert_eq!(
            WilsonInterval::for_proportion(0, 0),
            WilsonInterval { lo: 0.0, hi: 1.0 }
        );
    }

    #[test]
    fn latency_summary_percentiles() {
        let sorted: Vec<Duration> = (1..=200).map(ms).collect();
        let s = LatencySummary::from_sorted(&sorted).unwrap();
        assert_eq!(s.samples, 200);
        assert_eq!(s.min_us, ms(1).as_micros());
        assert_eq!(s.p50_us, ms(101).as_micros());
        assert_eq!(s.p95_us, ms(190).as_micros());
        assert_eq!(s.p99_us, ms(198).as_micros());
        assert_eq!(s.max_us, ms(200).as_micros());
        assert_eq!(LatencySummary::from_sorted(&[]), None);
    }

    fn sample_stats() -> CampaignStats {
        let mut trials = Vec::new();
        for i in 0..4 {
            let mut t = TrialOutcome::new("heartbeat_loss");
            if i < 3 {
                t.record(DetectorId::SwAliveness, ms(10 + i));
            }
            trials.push(t);
        }
        let mut t = TrialOutcome::new("skip_runnable");
        t.record(DetectorId::SwProgramFlow, ms(2));
        trials.push(t);
        CampaignStats::from(trials)
    }

    #[test]
    fn report_aggregates_per_class_and_detector() {
        let report = CampaignReport::from_stats(&sample_stats());
        assert_eq!(report.trials, 5);
        let hb = report.class("heartbeat_loss").unwrap();
        assert_eq!(hb.injected, 4);
        assert_eq!(hb.sw_detected, 3);
        assert_eq!(hb.sw_coverage, 0.75);
        assert!(hb.sw_ci95.contains(0.75));
        let am = hb
            .detectors
            .iter()
            .find(|d| d.detector == DetectorId::SwAliveness)
            .unwrap();
        assert_eq!(am.detected, 3);
        assert_eq!(am.latency.unwrap().min_us, ms(10).as_micros());
        let hw = hb
            .detectors
            .iter()
            .find(|d| d.detector == DetectorId::HwWatchdog)
            .unwrap();
        assert_eq!(hw.detected, 0);
        assert_eq!(hw.latency, None);
        assert_eq!(hw.ci95.lo, 0.0);
        let skip = report.class("skip_runnable").unwrap();
        assert_eq!(skip.sw_coverage, 1.0);
        assert_eq!(skip.sw_ci95.hi, 1.0);
    }

    #[test]
    fn report_json_round_trips() {
        let report = CampaignReport::from_stats(&sample_stats());
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: CampaignReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn render_lists_each_firing_detector_once() {
        let report = CampaignReport::from_stats(&sample_stats());
        let text = report.render();
        assert!(text.contains("heartbeat_loss"));
        assert!(text.contains("SW-AM"));
        assert!(text.contains("SW-PFC"));
        assert!(!text.contains("HW-WD"), "silent detectors omitted:\n{text}");
    }
}
