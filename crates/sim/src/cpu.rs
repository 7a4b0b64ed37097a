//! CPU cost model.
//!
//! The paper evaluates on a dSPACE AutoBox and names a Freescale S12XF as the
//! follow-up target. We do not have either; instead every monitored operation
//! carries an abstract *cycle* cost and a [`CpuModel`] converts cycles to
//! simulated time. Overhead experiments (table T-OVH in DESIGN.md) report
//! both cycles (hardware-independent) and microseconds under a named model.

use crate::time::Duration;
use serde::{Deserialize, Serialize};

/// Converts abstract CPU cycles into simulated execution time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpuModel {
    name: &'static str,
    clock_hz: u64,
}

impl CpuModel {
    /// A model of the dSPACE AutoBox DS1005 PPC board (480 MHz PowerPC),
    /// the paper's validation platform.
    pub const AUTOBOX: CpuModel = CpuModel {
        name: "AutoBox-DS1005",
        clock_hz: 480_000_000,
    };

    /// A model of the Freescale S12XF (50 MHz), the paper's outlook target.
    pub const S12XF: CpuModel = CpuModel {
        name: "S12XF",
        clock_hz: 50_000_000,
    };

    /// Creates a custom model.
    ///
    /// # Panics
    ///
    /// Panics if `clock_hz` is zero.
    pub const fn new(name: &'static str, clock_hz: u64) -> Self {
        assert!(clock_hz > 0, "clock frequency must be positive");
        CpuModel { name, clock_hz }
    }

    /// Model name, for report headers.
    pub const fn name(&self) -> &'static str {
        self.name
    }

    /// Clock frequency in Hz.
    pub const fn clock_hz(&self) -> u64 {
        self.clock_hz
    }

    /// Time taken to execute `cycles` cycles, rounded up to whole µs with a
    /// minimum of zero only for zero cycles.
    pub fn cycles_to_time(&self, cycles: u64) -> Duration {
        if cycles == 0 {
            return Duration::ZERO;
        }
        let micros = (cycles as u128 * 1_000_000).div_ceil(self.clock_hz as u128);
        Duration::from_micros(micros as u64)
    }
}

impl Default for CpuModel {
    fn default() -> Self {
        CpuModel::AUTOBOX
    }
}

/// Accumulates cycle costs of a monitor, for overhead accounting.
///
/// # Examples
///
/// ```
/// use easis_sim::cpu::{CostMeter, CpuModel};
///
/// let mut meter = CostMeter::new();
/// meter.charge(120);
/// meter.charge(80);
/// assert_eq!(meter.total_cycles(), 200);
/// assert_eq!(meter.operations(), 2);
/// let time = CpuModel::S12XF.cycles_to_time(meter.total_cycles());
/// assert!(time.as_micros() >= 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CostMeter {
    total_cycles: u64,
    operations: u64,
}

impl CostMeter {
    /// Creates a zeroed meter.
    pub fn new() -> Self {
        CostMeter::default()
    }

    /// Adds one operation of `cycles` cycles.
    #[inline]
    pub fn charge(&mut self, cycles: u64) {
        self.total_cycles += cycles;
        self.operations += 1;
    }

    /// Total cycles charged so far.
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Number of charged operations.
    pub fn operations(&self) -> u64 {
        self.operations
    }

    /// Per-span delta: the charges accumulated since `earlier` was sampled.
    /// Saturating: a counter of `earlier` that is ahead of this meter's
    /// measures 0.
    pub fn delta_since(&self, earlier: &CostMeter) -> CostMeter {
        CostMeter {
            total_cycles: self.total_cycles.saturating_sub(earlier.total_cycles),
            operations: self.operations.saturating_sub(earlier.operations),
        }
    }

    /// Applies `delta` `k` times in closed form — the macro-stepping
    /// engine's per-hyperperiod cost replay.
    pub fn accumulate(&mut self, delta: &CostMeter, k: u64) {
        self.total_cycles += delta.total_cycles * k;
        self.operations += delta.operations * k;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn autobox_is_faster_than_s12xf() {
        let cycles = 48_000;
        let fast = CpuModel::AUTOBOX.cycles_to_time(cycles);
        let slow = CpuModel::S12XF.cycles_to_time(cycles);
        assert!(fast < slow, "{fast} vs {slow}");
    }

    #[test]
    fn cycles_to_time_rounds_up() {
        // 1 cycle at 480 MHz is ~2ns; must round up to 1us, not truncate to 0.
        assert_eq!(
            CpuModel::AUTOBOX.cycles_to_time(1),
            Duration::from_micros(1)
        );
        assert_eq!(CpuModel::AUTOBOX.cycles_to_time(0), Duration::ZERO);
    }

    #[test]
    fn cycles_to_time_is_exact_at_scale() {
        // 500 000 cycles at the S12XF's 50 MHz.
        assert_eq!(
            CpuModel::S12XF.cycles_to_time(500_000),
            Duration::from_millis(10)
        );
    }

    #[test]
    fn meter_accumulates() {
        let mut m = CostMeter::new();
        m.charge(10);
        m.charge(30);
        assert_eq!(m.total_cycles(), 40);
        assert_eq!(m.operations(), 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_clock_is_rejected() {
        let _ = CpuModel::new("broken", 0);
    }
}
