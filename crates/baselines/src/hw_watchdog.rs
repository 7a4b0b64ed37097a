//! ECU hardware watchdog baseline.
//!
//! "A hardware watchdog treats the embedded software as a whole" (paper
//! §2): a free-running countdown that must be serviced ("kicked") before it
//! expires, usually from a low-priority task so that a hung system stops
//! kicking. It cannot attribute anything to a task or runnable — the
//! granularity gap the Software Watchdog closes.
//!
//! The watchdog keeps no record of its expiries: `poll` and `kick` report
//! each new one, stamped when the countdown ran out, and the platform logs
//! it with every other detection.

use easis_sim::time::{Duration, Instant};
use serde::{Deserialize, Serialize};

/// A countdown hardware watchdog model.
///
/// # Examples
///
/// ```
/// use easis_baselines::hw_watchdog::HardwareWatchdog;
/// use easis_sim::time::{Duration, Instant};
///
/// let mut wd = HardwareWatchdog::new(Duration::from_millis(50));
/// assert_eq!(wd.kick(Instant::from_millis(10)), None);
/// assert_eq!(wd.poll(Instant::from_millis(40)), None); // still alive
/// // Expired at 60 ms, found by the poll at 100 ms:
/// assert_eq!(wd.poll(Instant::from_millis(100)), Some(Instant::from_millis(60)));
/// assert!(wd.is_expired());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HardwareWatchdog {
    timeout: Duration,
    last_kick: Instant,
    expired: bool,
}

impl HardwareWatchdog {
    /// Creates a plain timeout watchdog.
    ///
    /// # Panics
    ///
    /// Panics if `timeout` is zero.
    pub fn new(timeout: Duration) -> Self {
        assert!(!timeout.is_zero(), "timeout must be positive");
        HardwareWatchdog {
            timeout,
            last_kick: Instant::ZERO,
            expired: false,
        }
    }

    /// Services the watchdog: restarts the countdown. It polls first, so a
    /// kick that comes after the countdown ran out reports that expiry,
    /// like [`Self::poll`].
    pub fn kick(&mut self, now: Instant) -> Option<Instant> {
        let expiry = self.poll(now);
        self.last_kick = now;
        self.expired = false;
        expiry
    }

    /// Checks for expiry at `now`. Returns the instant the countdown ran
    /// out, `last_kick + timeout`, when it finds a new expiry: once per
    /// expired episode, which only a kick ends.
    pub fn poll(&mut self, now: Instant) -> Option<Instant> {
        if self.expired || now.saturating_duration_since(self.last_kick) <= self.timeout {
            return None;
        }
        self.expired = true;
        Some(self.last_kick + self.timeout)
    }

    /// `true` while the watchdog is in the expired state (a real device
    /// would be asserting reset).
    pub fn is_expired(&self) -> bool {
        self.expired
    }

    /// Configured timeout.
    pub fn timeout(&self) -> Duration {
        self.timeout
    }

    /// Measures the watchdog's motion between two samples `h` apart. A
    /// kicked watchdog's stamp moves one hyperperiod. A starved watchdog
    /// that has already expired keeps its stamp: `poll` reads the stamp
    /// only while the watchdog has not expired, and only a kick clears
    /// that. A frozen stamp on an unexpired watchdog still measures a full
    /// hyperperiod, because the next `poll` reads it, and the caller's
    /// comparison rejects it.
    pub fn measure(a: &Self, b: &Self, h: Duration) -> HwCycleDelta {
        let starved = a.expired && a.last_kick == b.last_kick;
        HwCycleDelta {
            d_kick: if starved { Duration::ZERO } else { h },
        }
    }

    /// Advances the watchdog `k` hyperperiods by `delta`: with k = 1 on a
    /// certification sample, with k on the live watchdog when jumping.
    pub fn advance(&mut self, delta: &HwCycleDelta, k: u64) {
        self.last_kick += delta.d_kick * k;
    }
}

/// One hyperperiod of a hardware watchdog's motion, measured by
/// [`HardwareWatchdog::measure`]: how far the kick stamp moves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HwCycleDelta {
    d_kick: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> Instant {
        Instant::from_millis(ms)
    }

    /// Measure, advance once, compare: the certification step on two
    /// samples `h` apart.
    fn certifies(a: &HardwareWatchdog, b: &HardwareWatchdog, h: Duration) -> bool {
        let mut advanced = a.clone();
        advanced.advance(&HardwareWatchdog::measure(a, b, h), 1);
        advanced == *b
    }

    #[test]
    fn a_starved_expired_watchdog_keeps_its_stamp() {
        let h = Duration::from_millis(20);
        let mut wd = HardwareWatchdog::new(Duration::from_millis(50));
        wd.kick(t(10));
        assert_eq!(wd.poll(t(100)), Some(t(60)));
        let a = wd.clone();
        assert_eq!(wd.poll(t(120)), None);
        assert!(wd.is_expired());
        assert!(certifies(&a, &wd, h));
    }

    #[test]
    fn a_frozen_stamp_on_an_unexpired_watchdog_is_refused() {
        let h = Duration::from_millis(20);
        let mut wd = HardwareWatchdog::new(Duration::from_millis(50));
        wd.kick(t(10));
        assert_eq!(wd.poll(t(30)), None);
        let a = wd.clone();
        assert_eq!(wd.poll(t(50)), None);
        // The next poll reads the stamp: at 61 ms the watchdog expires.
        assert!(!certifies(&a, &wd, h));
    }

    #[test]
    fn a_late_kicked_watchdog_expires_every_hyperperiod() {
        // Kicked every 60 ms against a 50 ms timeout: one expiry per 60 ms
        // hyperperiod, reported by the poll after it.
        let h = Duration::from_millis(60);
        let mut wd = HardwareWatchdog::new(Duration::from_millis(50));
        let period = |wd: &mut HardwareWatchdog, n: u64| {
            assert_eq!(wd.kick(t(n * 60)), None);
            assert_eq!(wd.poll(t(n * 60 + 55)), Some(t(n * 60 + 50)));
            wd.clone()
        };
        let a = period(&mut wd, 0);
        let b = period(&mut wd, 1);
        assert!(certifies(&a, &b, h));
        let mut jumped = b.clone();
        jumped.advance(&HardwareWatchdog::measure(&a, &b, h), 2);
        period(&mut wd, 2);
        assert_eq!(jumped, period(&mut wd, 3));
    }

    #[test]
    fn regular_kicks_keep_it_quiet() {
        let mut wd = HardwareWatchdog::new(Duration::from_millis(50));
        for i in 1..=20 {
            assert_eq!(wd.kick(t(i * 20)), None);
            assert_eq!(wd.poll(t(i * 20)), None);
        }
        assert!(!wd.is_expired());
    }

    #[test]
    fn missing_kicks_expire_exactly_after_timeout() {
        let mut wd = HardwareWatchdog::new(Duration::from_millis(50));
        wd.kick(t(10));
        assert_eq!(wd.poll(t(60)), None); // exactly at bound: not yet over
        assert_eq!(wd.poll(t(61)), Some(t(60)));
    }

    /// A kick polls first: a kick after the countdown ran out, with no
    /// poll in between, reports that one expiry with the polled stamp and
    /// then restarts the countdown.
    #[test]
    fn a_late_kick_reports_the_expiry_its_poll_finds() {
        let mut wd = HardwareWatchdog::new(Duration::from_millis(50));
        assert_eq!(wd.kick(t(10)), None);
        assert_eq!(wd.kick(t(70)), Some(t(60)));
        assert!(!wd.is_expired());
        assert_eq!(wd.poll(t(80)), None);
        assert_eq!(wd.kick(t(90)), None);
    }

    #[test]
    fn kick_clears_expired_state() {
        let mut wd = HardwareWatchdog::new(Duration::from_millis(10));
        assert_eq!(wd.poll(t(100)), Some(t(10)));
        assert_eq!(wd.kick(t(100)), None, "the expiry was reported once");
        assert!(!wd.is_expired());
        assert_eq!(wd.poll(t(105)), None);
    }

    #[test]
    fn expired_state_reported_once_per_episode() {
        let mut wd = HardwareWatchdog::new(Duration::from_millis(10));
        assert_eq!(wd.poll(t(50)), Some(t(10)));
        assert_eq!(wd.poll(t(60)), None);
        assert!(wd.is_expired());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_timeout_rejected() {
        let _ = HardwareWatchdog::new(Duration::ZERO);
    }
}
