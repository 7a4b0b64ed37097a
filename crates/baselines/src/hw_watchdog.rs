//! ECU hardware watchdog baseline.
//!
//! "A hardware watchdog treats the embedded software as a whole" (paper
//! §2): a free-running countdown that must be serviced ("kicked") before it
//! expires, usually from a low-priority task so that a hung system stops
//! kicking. It cannot attribute anything to a task or runnable — the
//! granularity gap the Software Watchdog closes. An optional *window* mode
//! (common in automotive supervisors) also rejects kicks that arrive too
//! early.

use easis_sim::time::{Duration, Instant};
use serde::{Deserialize, Serialize};

/// Outcome of a kick in window mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KickOutcome {
    /// Kick accepted, countdown restarted.
    Accepted,
    /// Kick inside the closed window (too early) — counted as an error.
    TooEarly,
}

/// A countdown (optionally windowed) hardware watchdog model.
///
/// # Examples
///
/// ```
/// use easis_baselines::hw_watchdog::HardwareWatchdog;
/// use easis_sim::time::{Duration, Instant};
///
/// let mut wd = HardwareWatchdog::new(Duration::from_millis(50));
/// wd.kick(Instant::from_millis(10));
/// assert!(!wd.poll(Instant::from_millis(40)));  // still alive
/// assert!(wd.poll(Instant::from_millis(100)));  // expired
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HardwareWatchdog {
    timeout: Duration,
    /// Closed-window length for windowed operation (`ZERO` = plain timeout).
    window_closed: Duration,
    last_kick: Instant,
    expired: bool,
    expirations: u32,
    early_kicks: u32,
    first_expiry: Option<Instant>,
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
            window_closed: Duration::ZERO,
            last_kick: Instant::ZERO,
            expired: false,
            expirations: 0,
            early_kicks: 0,
            first_expiry: None,
        }
    }

    /// Enables window mode: kicks earlier than `closed` after the previous
    /// kick are rejected and counted.
    pub fn with_window(mut self, closed: Duration) -> Self {
        assert!(
            closed < self.timeout,
            "closed window must be shorter than the timeout"
        );
        self.window_closed = closed;
        self
    }

    /// Services the watchdog.
    pub fn kick(&mut self, now: Instant) -> KickOutcome {
        self.poll(now);
        if !self.window_closed.is_zero()
            && now.saturating_duration_since(self.last_kick) < self.window_closed
        {
            self.early_kicks += 1;
            return KickOutcome::TooEarly;
        }
        self.last_kick = now;
        self.expired = false;
        KickOutcome::Accepted
    }

    /// Checks for expiry at `now`. Returns `true` while the watchdog is in
    /// the expired state (a real device would be asserting reset).
    pub fn poll(&mut self, now: Instant) -> bool {
        if !self.expired && now.saturating_duration_since(self.last_kick) > self.timeout {
            self.expired = true;
            self.expirations += 1;
            let expiry_at = self.last_kick + self.timeout;
            if self.first_expiry.is_none() {
                self.first_expiry = Some(expiry_at);
            }
        }
        self.expired
    }

    /// Total expirations observed.
    pub fn expirations(&self) -> u32 {
        self.expirations
    }

    /// Rejected too-early kicks (window mode).
    pub fn early_kicks(&self) -> u32 {
        self.early_kicks
    }

    /// When the watchdog first expired, if ever.
    pub fn first_expiry(&self) -> Option<Instant> {
        self.first_expiry
    }

    /// Configured timeout.
    pub fn timeout(&self) -> Duration {
        self.timeout
    }

    /// Measures the watchdog's motion between two samples `h` apart. A
    /// kicked watchdog's stamp moves one hyperperiod. A starved watchdog
    /// that has already expired keeps its stamp: `poll` reads the stamp
    /// only while the watchdog has not expired, and only a kick clears
    /// that. Its expirations are reports, so a watchdog that expires and
    /// is kicked again every hyperperiod may count up. A frozen stamp on an
    /// unexpired watchdog still measures a full hyperperiod, because the
    /// next `poll` reads it, and the caller's comparison rejects it.
    pub fn measure(a: &Self, b: &Self, h: Duration) -> HwCycleDelta {
        let starved = a.expired && a.last_kick == b.last_kick;
        HwCycleDelta {
            d_kick: if starved { Duration::ZERO } else { h },
            d_expirations: b.expirations.saturating_sub(a.expirations),
        }
    }

    /// Advances the watchdog `k` hyperperiods by `delta`: with k = 1 on a
    /// certification sample, with k on the live watchdog when jumping.
    ///
    /// # Panics
    ///
    /// Panics if the expiration count overflows `u32`.
    pub fn advance(&mut self, delta: &HwCycleDelta, k: u64) {
        self.last_kick += delta.d_kick * k;
        let expirations = u64::from(self.expirations) + u64::from(delta.d_expirations) * k;
        self.expirations = u32::try_from(expirations).expect("expiration count overflow");
    }
}

/// One hyperperiod of a hardware watchdog's motion, measured by
/// [`HardwareWatchdog::measure`]: how far the kick stamp moves and how
/// many expirations are counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HwCycleDelta {
    d_kick: Duration,
    d_expirations: u32,
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
        assert!(wd.poll(t(100)));
        let a = wd.clone();
        assert!(wd.poll(t(120)));
        assert!(certifies(&a, &wd, h));
        assert_eq!(wd.expirations(), 1);
    }

    #[test]
    fn a_frozen_stamp_on_an_unexpired_watchdog_is_refused() {
        let h = Duration::from_millis(20);
        let mut wd = HardwareWatchdog::new(Duration::from_millis(50));
        wd.kick(t(10));
        assert!(!wd.poll(t(30)));
        let a = wd.clone();
        assert!(!wd.poll(t(50)));
        // The next poll reads the stamp: at 61 ms the watchdog expires.
        assert!(!certifies(&a, &wd, h));
    }

    #[test]
    fn expirations_of_a_late_kicked_watchdog_grow_every_hyperperiod() {
        // Kicked every 60 ms against a 50 ms timeout: one expiration per
        // 60 ms hyperperiod.
        let h = Duration::from_millis(60);
        let mut wd = HardwareWatchdog::new(Duration::from_millis(50));
        let period = |wd: &mut HardwareWatchdog, n: u64| {
            wd.kick(t(n * 60));
            assert!(wd.poll(t(n * 60 + 55)));
            wd.clone()
        };
        let a = period(&mut wd, 0);
        let b = period(&mut wd, 1);
        assert!(certifies(&a, &b, h));
        let mut jumped = b.clone();
        jumped.advance(&HardwareWatchdog::measure(&a, &b, h), 2);
        period(&mut wd, 2);
        assert_eq!(jumped, period(&mut wd, 3));
        assert_eq!(jumped.expirations(), 4);
        assert_eq!(jumped.first_expiry(), Some(t(50)));
    }

    #[test]
    fn regular_kicks_keep_it_quiet() {
        let mut wd = HardwareWatchdog::new(Duration::from_millis(50));
        for i in 1..=20 {
            assert_eq!(wd.kick(t(i * 20)), KickOutcome::Accepted);
            assert!(!wd.poll(t(i * 20)));
        }
        assert_eq!(wd.expirations(), 0);
    }

    #[test]
    fn missing_kicks_expire_exactly_after_timeout() {
        let mut wd = HardwareWatchdog::new(Duration::from_millis(50));
        wd.kick(t(10));
        assert!(!wd.poll(t(60))); // exactly at bound: not yet over
        assert!(wd.poll(t(61)));
        assert_eq!(wd.first_expiry(), Some(t(60)));
        assert_eq!(wd.expirations(), 1);
    }

    #[test]
    fn kick_clears_expired_state() {
        let mut wd = HardwareWatchdog::new(Duration::from_millis(10));
        assert!(wd.poll(t(100)));
        wd.kick(t(100));
        assert!(!wd.poll(t(105)));
        assert_eq!(wd.expirations(), 1);
    }

    #[test]
    fn expired_state_reported_once_per_episode() {
        let mut wd = HardwareWatchdog::new(Duration::from_millis(10));
        assert!(wd.poll(t(50)));
        assert!(wd.poll(t(60)));
        assert_eq!(wd.expirations(), 1);
    }

    #[test]
    fn window_mode_rejects_early_kicks() {
        let mut wd =
            HardwareWatchdog::new(Duration::from_millis(50)).with_window(Duration::from_millis(20));
        assert_eq!(wd.kick(t(30)), KickOutcome::Accepted);
        assert_eq!(wd.kick(t(35)), KickOutcome::TooEarly); // 5ms after last
        assert_eq!(wd.early_kicks(), 1);
        // The early kick did not restart the countdown.
        assert!(wd.poll(t(85)));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_timeout_rejected() {
        let _ = HardwareWatchdog::new(Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "shorter than the timeout")]
    fn window_longer_than_timeout_rejected() {
        let _ = HardwareWatchdog::new(Duration::from_millis(10))
            .with_window(Duration::from_millis(20));
    }
}
