//! Simulated time.
//!
//! All simulation time is measured in whole microseconds since simulation
//! start. Two newtypes keep points in time and spans of time apart:
//! [`Instant`] (a point) and [`Duration`] (a span). Both are plain `u64`
//! wrappers, cheap to copy and totally ordered.
//!
//! The 10 ms tick used by the paper's ControlDesk plots corresponds to
//! [`Duration::from_millis`]`(10)`.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// A point in simulated time, in microseconds since simulation start.
///
/// # Examples
///
/// ```
/// use easis_sim::time::{Duration, Instant};
///
/// let t = Instant::ZERO + Duration::from_millis(10);
/// assert_eq!(t.as_micros(), 10_000);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Instant(u64);

/// A span of simulated time, in microseconds.
///
/// # Examples
///
/// ```
/// use easis_sim::time::Duration;
///
/// let period = Duration::from_millis(10);
/// assert_eq!(period * 3, Duration::from_micros(30_000));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Duration(u64);

impl Instant {
    /// The simulation start.
    pub const ZERO: Instant = Instant(0);

    /// Creates an instant `micros` microseconds after simulation start.
    pub const fn from_micros(micros: u64) -> Self {
        Instant(micros)
    }

    /// Creates an instant `millis` milliseconds after simulation start.
    pub const fn from_millis(millis: u64) -> Self {
        Instant(millis * 1_000)
    }

    /// Microseconds since simulation start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole milliseconds since simulation start (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since simulation start as a float (for plotting/reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Time elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    pub fn duration_since(self, earlier: Instant) -> Duration {
        Duration(
            self.0
                .checked_sub(earlier.0)
                .expect("`earlier` must not be later than `self`"),
        )
    }

    /// Time elapsed since `earlier`, or [`Duration::ZERO`] if `earlier` is later.
    pub fn saturating_duration_since(self, earlier: Instant) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    /// The empty span.
    pub const ZERO: Duration = Duration(0);
    /// The largest representable span; used as an "infinite" horizon.
    pub const MAX: Duration = Duration(u64::MAX);

    /// Creates a duration of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        Duration(micros)
    }

    /// Creates a duration of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        Duration(millis * 1_000)
    }

    /// Creates a duration of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        Duration(secs * 1_000_000)
    }

    /// Length in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Length in whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Length in seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// `true` if this is the empty span.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: Duration) -> Duration {
        Duration(self.0.saturating_sub(other.0))
    }

    /// Scales by a non-negative float factor, rounding to the nearest
    /// microsecond. Used by the execution-frequency error injector, which
    /// models the paper's ControlDesk "time scalar" slider.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn mul_f64(self, factor: f64) -> Duration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and non-negative"
        );
        Duration((self.0 as f64 * factor).round() as u64)
    }
}

impl Add<Duration> for Instant {
    type Output = Instant;
    fn add(self, rhs: Duration) -> Instant {
        Instant(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Instant {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for Instant {
    type Output = Instant;
    fn sub(self, rhs: Duration) -> Instant {
        Instant(self.0 - rhs.0)
    }
}

impl Sub<Instant> for Instant {
    type Output = Duration;
    fn sub(self, rhs: Instant) -> Duration {
        self.duration_since(rhs)
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(
            self.0
                .checked_sub(rhs.0)
                .expect("duration subtraction underflow"),
        )
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Div<Duration> for Duration {
    type Output = u64;
    fn div(self, rhs: Duration) -> u64 {
        self.0 / rhs.0
    }
}

impl Rem<Duration> for Duration {
    type Output = Duration;
    fn rem(self, rhs: Duration) -> Duration {
        Duration(self.0 % rhs.0)
    }
}

impl fmt::Display for Instant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}us", self.0)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 && self.0.is_multiple_of(1_000_000) {
            write!(f, "{}s", self.0 / 1_000_000)
        } else if self.0 >= 1_000 && self.0.is_multiple_of(1_000) {
            write!(f, "{}ms", self.0 / 1_000)
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

impl From<Duration> for std::time::Duration {
    fn from(d: Duration) -> Self {
        std::time::Duration::from_micros(d.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_arithmetic_round_trips() {
        let t = Instant::from_millis(5);
        let d = Duration::from_micros(250);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn duration_since_measures_elapsed_time() {
        let a = Instant::from_micros(100);
        let b = Instant::from_micros(350);
        assert_eq!(b.duration_since(a), Duration::from_micros(250));
    }

    #[test]
    #[should_panic(expected = "`earlier` must not be later")]
    fn duration_since_panics_on_negative_span() {
        let a = Instant::from_micros(100);
        let b = Instant::from_micros(350);
        let _ = a.duration_since(b);
    }

    #[test]
    fn saturating_duration_since_clamps_to_zero() {
        let a = Instant::from_micros(100);
        let b = Instant::from_micros(350);
        assert_eq!(a.saturating_duration_since(b), Duration::ZERO);
    }

    #[test]
    fn duration_scaling() {
        let d = Duration::from_millis(10);
        assert_eq!(d * 3, Duration::from_millis(30));
        assert_eq!(d / 2, Duration::from_millis(5));
        assert_eq!(d.mul_f64(2.5), Duration::from_micros(25_000));
        assert_eq!(d.mul_f64(0.0), Duration::ZERO);
    }

    #[test]
    fn duration_ratio_and_remainder() {
        let period = Duration::from_millis(10);
        let span = Duration::from_millis(35);
        assert_eq!(span / period, 3);
        assert_eq!(span % period, Duration::from_millis(5));
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn mul_f64_rejects_negative_factors() {
        let _ = Duration::from_millis(1).mul_f64(-1.0);
    }

    #[test]
    fn display_picks_natural_unit() {
        assert_eq!(Duration::from_secs(2).to_string(), "2s");
        assert_eq!(Duration::from_millis(10).to_string(), "10ms");
        assert_eq!(Duration::from_micros(7).to_string(), "7us");
        assert_eq!(Instant::from_micros(42).to_string(), "t+42us");
    }

    #[test]
    fn conversion_to_std_duration() {
        let d: std::time::Duration = Duration::from_millis(10).into();
        assert_eq!(d, std::time::Duration::from_millis(10));
    }
}
