//! Per-hyperperiod growth of write-only detection bookkeeping.
//!
//! Under a persistent fault a node can settle into a hyperperiodic
//! *faulty* steady state: the schedule repeats every hyperperiod, and the
//! only fields that do not come back are detection records that the node
//! writes and never reads back — logs that gain the same entries every
//! hyperperiod, shifted by it, and counts that rise by the same amount.
//! The macro-stepping engine measures that growth between two samples one
//! hyperperiod apart and replays it `k` times when it jumps. This module
//! holds the two shapes such growth takes; each component state decides
//! which of its fields may grow, because only it knows which fields it
//! reads back.

use crate::time::{Duration, Instant};

/// A log entry the engine can replay one hyperperiod later: everything
/// in it stays, except its timestamps, which move by `by`.
pub trait Stamped: Clone {
    /// Moves every timestamp of the entry `by` later.
    fn shift(&mut self, by: Duration);
}

/// The entries an append-only log gained between two samples one
/// hyperperiod apart, with the instant of the first sample.
///
/// [`LogGrowth::advance`] appends them `k` times, the j-th copy shifted by
/// j hyperperiods from where the measured ones sat relative to the first
/// sample. Applied to the first sample with k = 1 it reproduces the second
/// sample's log; applied to the live log at the second sample it appends
/// what `k` more hyperperiods would.
///
/// # Examples
///
/// ```
/// use easis_sim::growth::{LogGrowth, Stamped};
/// use easis_sim::time::{Duration, Instant};
///
/// #[derive(Debug, Clone, PartialEq)]
/// struct Entry(Instant);
/// impl Stamped for Entry {
///     fn shift(&mut self, by: Duration) {
///         self.0 += by;
///     }
/// }
///
/// let h = Duration::from_millis(20);
/// let a = vec![Entry(Instant::from_millis(5))];
/// let b = vec![Entry(Instant::from_millis(5)), Entry(Instant::from_millis(30))];
/// let mut growth = LogGrowth::default();
/// assert!(growth.measure(&a, &b, Instant::from_millis(20), h));
/// let mut log = b.clone();
/// growth.advance(&mut log, Instant::from_millis(40), 2);
/// assert_eq!(log[2..], [Entry(Instant::from_millis(50)), Entry(Instant::from_millis(70))]);
/// ```
#[derive(Debug, Clone)]
pub struct LogGrowth<T> {
    entries: Vec<T>,
    since: Instant,
    h: Duration,
}

impl<T> Default for LogGrowth<T> {
    fn default() -> Self {
        LogGrowth {
            entries: Vec::new(),
            since: Instant::ZERO,
            h: Duration::ZERO,
        }
    }
}

impl<T: Stamped> LogGrowth<T> {
    /// Records the entries `b` holds beyond `a`'s length, `b` sampled `h`
    /// after `a`, which was sampled at `since`. Returns `false` when `b`
    /// is shorter. Whether `a` is a prefix of `b` is left to the caller's
    /// comparison of the advanced sample with `b`. Reuses the entry
    /// buffer.
    pub fn measure(&mut self, a: &[T], b: &[T], since: Instant, h: Duration) -> bool {
        self.entries.clear();
        let Some(gained) = b.get(a.len()..) else {
            return false;
        };
        self.entries.extend_from_slice(gained);
        self.since = since;
        self.h = h;
        true
    }

    /// Entries gained per hyperperiod.
    pub fn gained(&self) -> usize {
        self.entries.len()
    }

    /// Appends `k` hyperperiods of growth to `log`, a log sampled at
    /// `now`: copy j (from 0) is the measured entries shifted by
    /// `now - since + j·h`.
    pub fn advance(&self, log: &mut Vec<T>, now: Instant, k: u64) {
        if self.entries.is_empty() {
            return;
        }
        log.reserve(self.entries.len() * k as usize);
        let offset = now.saturating_duration_since(self.since);
        for j in 0..k {
            let by = offset + self.h * j;
            for entry in &self.entries {
                let mut entry = entry.clone();
                entry.shift(by);
                log.push(entry);
            }
        }
    }
}

/// Writes to `growth` how much each count of `b` exceeds the count at the
/// same index of `a` (saturating: a count that fell measures 0, and the
/// caller's comparison rejects it). Reuses `growth`'s buffer.
pub fn measure_counts<T: Copy + Into<u64>>(a: &[T], b: &[T], growth: &mut Vec<u64>) {
    growth.clear();
    growth.extend(
        a.iter()
            .zip(b)
            .map(|(&x, &y)| y.into().saturating_sub(x.into())),
    );
}

/// Raises each count by `k` times its measured growth.
///
/// # Panics
///
/// Panics if a count overflows its type.
pub fn advance_counts<T: Copy + Into<u64> + TryFrom<u64>>(
    counts: &mut [T],
    growth: &[u64],
    k: u64,
) {
    for (count, &d) in counts.iter_mut().zip(growth) {
        if d != 0 {
            let raised = (*count).into() + d * k;
            *count = T::try_from(raised).unwrap_or_else(|_| panic!("count overflow: {raised}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Entry(Instant, u32);

    impl Stamped for Entry {
        fn shift(&mut self, by: Duration) {
            self.0 += by;
        }
    }

    fn at(ms: u64, tag: u32) -> Entry {
        Entry(Instant::from_millis(ms), tag)
    }

    #[test]
    fn a_log_advanced_once_from_the_first_sample_equals_the_second() {
        let h = Duration::from_millis(20);
        let a = vec![at(3, 0)];
        let b = vec![at(3, 0), at(25, 1), at(31, 2)];
        let mut growth = LogGrowth::default();
        assert!(growth.measure(&a, &b, Instant::from_millis(20), h));
        let mut advanced = a.clone();
        growth.advance(&mut advanced, Instant::from_millis(20), 1);
        assert_eq!(advanced, b);
        // From the second sample, k hyperperiods append k shifted copies.
        let mut jumped = b.clone();
        growth.advance(&mut jumped, Instant::from_millis(40), 2);
        assert_eq!(jumped[3..], [at(45, 1), at(51, 2), at(65, 1), at(71, 2)]);
        assert_eq!(growth.gained(), 2);
        // A log that shrank has no growth to measure.
        assert!(!growth.measure(&b, &a, Instant::from_millis(20), h));
    }

    #[test]
    fn counts_rise_by_their_measured_growth() {
        let mut growth = Vec::new();
        measure_counts(&[1u32, 5, 7], &[1u32, 8, 6], &mut growth);
        assert_eq!(growth, [0, 3, 0]);
        let mut counts = [1u32, 8, 6];
        advance_counts(&mut counts, &growth, 4);
        assert_eq!(counts, [1, 20, 6]);
    }
}
