//! Time-series capture for figure regeneration.
//!
//! The paper's evaluation shows ControlDesk plots of counter values over time
//! (x axis in 10 ms ticks). [`SeriesSet`] collects named series of sampled
//! values and renders them the same way: one column per series, one row per
//! sample tick, plus a compact ASCII sparkline per series for quick visual
//! comparison against the paper's figures.

use crate::time::Instant;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One sampled point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Sample time.
    pub at: Instant,
    /// Sampled value.
    pub value: f64,
}

/// A single named time series.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Series {
    samples: Vec<Sample>,
}

impl Series {
    /// Creates an empty series.
    pub fn new() -> Self {
        Series::default()
    }

    /// Appends a sample. Samples must be pushed in non-decreasing time order.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the last pushed sample.
    pub fn push(&mut self, at: Instant, value: f64) {
        if let Some(last) = self.samples.last() {
            assert!(at >= last.at, "samples must be pushed in time order");
        }
        self.samples.push(Sample { at, value });
    }

    /// All samples.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Values only, in time order.
    pub fn values(&self) -> impl Iterator<Item = f64> + '_ {
        self.samples.iter().map(|s| s.value)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Largest sampled value, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.values().fold(None, |acc, v| {
            Some(match acc {
                Some(m) if m >= v => m,
                _ => v,
            })
        })
    }

    /// Value of the last sample, or `None` when empty.
    pub fn last_value(&self) -> Option<f64> {
        self.samples.last().map(|s| s.value)
    }

    /// First time the series reaches at least `threshold`, or `None`.
    pub fn first_reached(&self, threshold: f64) -> Option<Instant> {
        self.samples
            .iter()
            .find(|s| s.value >= threshold)
            .map(|s| s.at)
    }

    /// Compact sparkline over the sample values (eight levels).
    fn sparkline(&self) -> String {
        const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        let max = self.max().unwrap_or(0.0);
        self.values()
            .map(|v| {
                if max <= 0.0 {
                    BARS[0]
                } else {
                    let idx = ((v / max) * 7.0).round().clamp(0.0, 7.0) as usize;
                    BARS[idx]
                }
            })
            .collect()
    }
}

/// A collection of named, jointly sampled series — one "figure".
///
/// # Examples
///
/// ```
/// use easis_sim::series::SeriesSet;
/// use easis_sim::time::Instant;
///
/// let mut fig = SeriesSet::new("fig5");
/// fig.push(Instant::from_millis(10), "AC", 1.0);
/// fig.push(Instant::from_millis(10), "AM Result", 0.0);
/// assert_eq!(fig.series("AC").unwrap().len(), 1);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SeriesSet {
    name: String,
    series: BTreeMap<String, Series>,
}

impl SeriesSet {
    /// Creates an empty, named set.
    pub fn new(name: impl Into<String>) -> Self {
        SeriesSet {
            name: name.into(),
            series: BTreeMap::new(),
        }
    }

    /// Name of the figure this set regenerates.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a sample to the series called `series` (created on first use).
    pub fn push(&mut self, at: Instant, series: &str, value: f64) {
        self.series
            .entry(series.to_string())
            .or_default()
            .push(at, value);
    }

    /// Looks up one series by name.
    pub fn series(&self, name: &str) -> Option<&Series> {
        self.series.get(name)
    }

    /// Names of all series, sorted.
    pub fn series_names(&self) -> impl Iterator<Item = &str> {
        self.series.keys().map(String::as_str)
    }

    /// Number of series.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// `true` if the set holds no series.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Renders the set as a table (time column in ms + one column per series)
    /// followed by per-series sparklines, downsampling to at most
    /// `max_rows` rows.
    pub fn render_table(&self, max_rows: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.name);
        // Collect the union of sample times.
        let mut times: Vec<Instant> = Vec::new();
        for s in self.series.values() {
            for sample in s.samples() {
                times.push(sample.at);
            }
        }
        times.sort_unstable();
        times.dedup();
        let step = (times.len().max(1) + max_rows - 1) / max_rows.max(1);
        let _ = write!(out, "{:>10}", "t[ms]");
        for name in self.series.keys() {
            let _ = write!(out, " {:>16}", name);
        }
        out.push('\n');
        for (i, t) in times.iter().enumerate() {
            if i % step.max(1) != 0 {
                continue;
            }
            let _ = write!(out, "{:>10}", t.as_millis());
            for s in self.series.values() {
                // Last sample at or before t (sample-and-hold, like a plot).
                let v = s
                    .samples()
                    .iter()
                    .take_while(|smp| smp.at <= *t)
                    .last()
                    .map(|smp| smp.value);
                match v {
                    Some(v) => {
                        let _ = write!(out, " {:>16.2}", v);
                    }
                    None => {
                        let _ = write!(out, " {:>16}", "-");
                    }
                }
            }
            out.push('\n');
        }
        for (name, s) in &self.series {
            let _ = writeln!(out, "{:>18}: {}", name, s.sparkline());
        }
        out
    }

    /// Renders each series as an ASCII line plot (`height` rows tall,
    /// `width` columns wide), stacked like the paper's ControlDesk panes:
    /// one pane per series, shared x axis, sample-and-hold interpolation.
    pub fn render_plot(&self, width: usize, height: usize) -> String {
        let width = width.max(10);
        let height = height.max(3);
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.name);
        // Shared time range.
        let (t0, t1) = match self.time_range() {
            Some(range) => range,
            None => return out,
        };
        let span = (t1.as_micros() - t0.as_micros()).max(1);
        for (name, series) in &self.series {
            let max = series.max().unwrap_or(0.0).max(1e-12);
            let mut grid = vec![vec![' '; width]; height];
            for col in 0..width {
                let t_us = t0.as_micros() + span * col as u64 / (width as u64 - 1).max(1);
                let t = Instant::from_micros(t_us);
                let v = series
                    .samples()
                    .iter()
                    .take_while(|s| s.at <= t)
                    .last()
                    .map(|s| s.value)
                    .unwrap_or(0.0);
                let level = ((v / max) * (height as f64 - 1.0)).round() as usize;
                let row = height - 1 - level.min(height - 1);
                grid[row][col] = '█';
                // Fill below the mark for a filled-area look.
                for r in grid.iter_mut().skip(row + 1) {
                    if r[col] == ' ' {
                        r[col] = '░';
                    }
                }
            }
            let _ = writeln!(out, "{name}  (max {max:.1})");
            for row in grid {
                let _ = writeln!(out, "  |{}", row.into_iter().collect::<String>());
            }
            let _ = writeln!(out, "  +{}", "-".repeat(width));
            let _ = writeln!(
                out,
                "   {}ms{}{}ms",
                t0.as_millis(),
                " ".repeat(width.saturating_sub(12)),
                t1.as_millis()
            );
        }
        out
    }

    fn time_range(&self) -> Option<(Instant, Instant)> {
        let mut min = None;
        let mut max = None;
        for s in self.series.values() {
            if let (Some(first), Some(last)) = (s.samples().first(), s.samples().last()) {
                min = Some(min.map_or(first.at, |m: Instant| m.min(first.at)));
                max = Some(max.map_or(last.at, |m: Instant| m.max(last.at)));
            }
        }
        match (min, max) {
            (Some(a), Some(b)) if a < b => Some((a, b)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> Instant {
        Instant::from_millis(ms)
    }

    #[test]
    fn series_tracks_samples_in_order() {
        let mut s = Series::new();
        s.push(t(0), 0.0);
        s.push(t(10), 1.0);
        s.push(t(10), 2.0); // same instant is allowed
        assert_eq!(s.len(), 3);
        assert_eq!(s.last_value(), Some(2.0));
        assert_eq!(s.max(), Some(2.0));
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn series_rejects_out_of_order_samples() {
        let mut s = Series::new();
        s.push(t(10), 1.0);
        s.push(t(5), 2.0);
    }

    #[test]
    fn first_reached_finds_threshold_crossing() {
        let mut s = Series::new();
        s.push(t(0), 0.0);
        s.push(t(10), 1.0);
        s.push(t(20), 3.0);
        assert_eq!(s.first_reached(2.0), Some(t(20)));
        assert_eq!(s.first_reached(10.0), None);
    }

    #[test]
    fn sparkline_has_one_char_per_sample() {
        let mut s = Series::new();
        for i in 0..5 {
            s.push(t(i * 10), i as f64);
        }
        assert_eq!(s.sparkline().chars().count(), 5);
    }

    #[test]
    fn sparkline_of_flat_zero_series_is_lowest_bar() {
        let mut s = Series::new();
        s.push(t(0), 0.0);
        s.push(t(10), 0.0);
        assert_eq!(s.sparkline(), "▁▁");
    }

    #[test]
    fn series_set_groups_by_name() {
        let mut set = SeriesSet::new("demo");
        set.push(t(0), "AC", 1.0);
        set.push(t(0), "CCA", 0.0);
        set.push(t(10), "AC", 2.0);
        assert_eq!(set.len(), 2);
        assert_eq!(set.series("AC").unwrap().len(), 2);
        assert_eq!(set.series_names().collect::<Vec<_>>(), vec!["AC", "CCA"]);
    }

    #[test]
    fn render_table_contains_header_and_sparklines() {
        let mut set = SeriesSet::new("demo");
        set.push(t(0), "AC", 1.0);
        set.push(t(10), "AC", 2.0);
        let table = set.render_table(100);
        assert!(table.contains("== demo =="));
        assert!(table.contains("AC"));
        assert!(table.contains('▁') || table.contains('█'));
    }

    #[test]
    fn render_table_downsamples_to_max_rows() {
        let mut set = SeriesSet::new("big");
        for i in 0..1000 {
            set.push(t(i), "v", i as f64);
        }
        let table = set.render_table(10);
        // header + ~10 rows + 1 sparkline
        assert!(table.lines().count() <= 14, "got:\n{table}");
    }
}

#[cfg(test)]
mod plot_tests {
    use super::*;

    fn t(ms: u64) -> Instant {
        Instant::from_millis(ms)
    }

    #[test]
    fn plot_renders_one_pane_per_series() {
        let mut set = SeriesSet::new("demo");
        for i in 0..50 {
            set.push(t(i * 10), "a", i as f64);
            set.push(t(i * 10), "b", (50 - i) as f64);
        }
        let plot = set.render_plot(40, 6);
        assert!(plot.contains("a  (max 49.0)"));
        assert!(plot.contains("b  (max 50.0)"));
        // 6 grid rows per pane plus axis lines.
        assert!(plot.lines().filter(|l| l.starts_with("  |")).count() == 12);
    }

    #[test]
    fn plot_of_empty_set_is_just_the_header() {
        let set = SeriesSet::new("empty");
        let plot = set.render_plot(40, 6);
        assert_eq!(plot.lines().count(), 1);
    }

    #[test]
    fn plot_handles_single_sample_series() {
        let mut set = SeriesSet::new("one");
        set.push(t(5), "v", 1.0);
        // Single instant → no range → header only, no panic.
        let plot = set.render_plot(40, 6);
        assert!(plot.contains("== one =="));
    }

    #[test]
    fn staircase_shows_rising_levels() {
        let mut set = SeriesSet::new("stairs");
        for i in 0..100 {
            set.push(t(i * 10), "v", (i / 25) as f64);
        }
        let plot = set.render_plot(50, 4);
        let rows: Vec<&str> = plot.lines().filter(|l| l.starts_with("  |")).collect();
        // Top row must have marks only on the right side.
        let top = rows[0];
        let first_mark = top.find('█').expect("top level reached");
        assert!(first_mark > 30, "top marks start at {first_mark}: {top}");
    }
}
