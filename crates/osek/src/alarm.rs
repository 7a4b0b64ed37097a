//! Alarms.
//!
//! OSEK alarms attach to counters and, on expiry, activate a task. In this
//! model the OS clock is the single underlying counter (the sim time base)
//! and alarms are scheduled directly on the kernel's event queue. Cyclic
//! alarms are the platform's periodic task activators — the SafeSpeed
//! 10 ms cycle in the paper's validation is one such alarm. The
//! execution-frequency error injector works by rescaling alarm cycles,
//! mirroring the ControlDesk "time scalar" slider.

use crate::task::TaskId;
use easis_sim::time::Duration;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of an alarm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AlarmId(pub u32);

impl AlarmId {
    /// Index into the alarm table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for AlarmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "A{}", self.0)
    }
}

/// What an alarm does when it expires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AlarmAction {
    /// `ALARMCALLBACK ActivateTask`.
    ActivateTask(TaskId),
}

/// Runtime state of an alarm: arming, cycle and cycle scale. Its name and
/// expiry action are kernel wiring, declared with `Os::add_alarm`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Alarm {
    /// Cycle for cyclic alarms; `None` for one-shot.
    cycle: Option<Duration>,
    /// Multiplier applied to the cycle when re-arming, in parts per
    /// million (`1_000_000` = nominal). The frequency error injector
    /// manipulates this.
    cycle_scale_ppm: u64,
    armed: bool,
}

/// A disarmed alarm at the nominal cycle scale.
impl Default for Alarm {
    fn default() -> Self {
        Alarm {
            cycle: None,
            cycle_scale_ppm: 1_000_000,
            armed: false,
        }
    }
}

impl Alarm {
    /// Current cycle, if cyclic.
    pub fn cycle(&self) -> Option<Duration> {
        self.cycle
    }

    /// `true` while the alarm is armed.
    pub fn is_armed(&self) -> bool {
        self.armed
    }

    /// Arms the alarm with an optional cycle (kernel-internal).
    pub fn arm(&mut self, cycle: Option<Duration>) {
        self.cycle = cycle;
        self.armed = true;
    }

    /// Disarms the alarm (kernel-internal).
    pub fn disarm(&mut self) {
        self.armed = false;
    }

    /// Sets the cycle scale in parts-per-million of nominal. `1_000_000` is
    /// nominal; `2_000_000` doubles the period (halves the frequency);
    /// `500_000` halves the period. Used by the execution-frequency error
    /// injector.
    ///
    /// # Panics
    ///
    /// Panics if `ppm` is zero.
    pub fn set_cycle_scale_ppm(&mut self, ppm: u64) {
        assert!(ppm > 0, "cycle scale must be positive");
        self.cycle_scale_ppm = ppm;
    }

    /// Current cycle scale in ppm.
    pub fn cycle_scale_ppm(&self) -> u64 {
        self.cycle_scale_ppm
    }

    /// The effective re-arm cycle after scaling, if cyclic. At the nominal
    /// scale the cycle is used as configured, with no u128 arithmetic on
    /// the expiry path; the scaled product rounds down to the same value.
    pub fn effective_cycle(&self) -> Option<Duration> {
        self.cycle.map(|c| {
            let us = if self.cycle_scale_ppm == 1_000_000 {
                c.as_micros()
            } else {
                (c.as_micros() as u128 * self.cycle_scale_ppm as u128 / 1_000_000) as u64
            };
            Duration::from_micros(us.max(1))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arm_and_disarm_toggle_state() {
        let mut a = Alarm::default();
        assert!(!a.is_armed());
        a.arm(Some(Duration::from_millis(10)));
        assert!(a.is_armed());
        assert_eq!(a.cycle(), Some(Duration::from_millis(10)));
        a.disarm();
        assert!(!a.is_armed());
    }

    #[test]
    fn effective_cycle_applies_scale() {
        let mut a = Alarm::default();
        a.arm(Some(Duration::from_millis(10)));
        assert_eq!(a.effective_cycle(), Some(Duration::from_millis(10)));
        a.set_cycle_scale_ppm(2_000_000);
        assert_eq!(a.effective_cycle(), Some(Duration::from_millis(20)));
        a.set_cycle_scale_ppm(500_000);
        assert_eq!(a.effective_cycle(), Some(Duration::from_millis(5)));
    }

    #[test]
    fn effective_cycle_is_exact_at_nominal_and_rounds_down_when_scaled() {
        let mut a = Alarm::default();
        for us in [1, 7, 10_000, 999_999, u64::MAX / 2] {
            a.arm(Some(Duration::from_micros(us)));
            assert_eq!(a.cycle_scale_ppm(), 1_000_000);
            assert_eq!(a.effective_cycle(), Some(Duration::from_micros(us)));
        }
        a.arm(Some(Duration::from_millis(10)));
        a.set_cycle_scale_ppm(3_333_333);
        assert_eq!(a.effective_cycle(), Some(Duration::from_micros(33_333)));
    }

    #[test]
    fn effective_cycle_never_reaches_zero() {
        let mut a = Alarm::default();
        a.arm(Some(Duration::from_micros(2)));
        a.set_cycle_scale_ppm(1);
        assert_eq!(a.effective_cycle(), Some(Duration::from_micros(1)));
    }

    #[test]
    fn one_shot_has_no_effective_cycle() {
        let mut a = Alarm::default();
        a.arm(None);
        assert_eq!(a.effective_cycle(), None);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scale_rejected() {
        let mut a = Alarm::default();
        a.set_cycle_scale_ppm(0);
    }
}
