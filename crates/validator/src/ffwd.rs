//! Process-wide switches and metrics of the hyperperiod macro-stepping
//! engine (tail fast-forward, see [`crate::node::CentralNode::run_span`]).
//!
//! The engine itself lives on each [`crate::node::CentralNode`]; this
//! module holds the two pieces that are process-global by nature:
//!
//! * the `EASIS_FASTFORWARD` setting, read once ([`Mode`]): `0` disables
//!   macro-stepping for every node that has no explicit
//!   [`crate::node::CentralNode::set_fastforward`] override, and `verify`
//!   shadows every certified jump with event-level simulation from the
//!   certified checkpoint and panics on the first checkpoint field the two
//!   disagree on;
//! * the aggregate metrics the campaign bench reads. Campaign shares run
//!   on short-lived scoped threads, on nodes that wait in a private pool
//!   between calls, so no caller can read a node's own counters — every
//!   `run_span` folds its counters into these relaxed atomics instead,
//!   and the bench brackets a measured run with
//!   [`reset_metrics`]/[`metrics`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// The process's `EASIS_FASTFORWARD` setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `0`: no macro-stepping unless a node forces it on.
    Off,
    /// Unset or `1`: certified jumps.
    On,
    /// `verify`: certified jumps, each replayed at event level from the
    /// certified checkpoint; the two end checkpoints must compare equal.
    Verify,
}

impl Mode {
    /// The mode a setting names, `None` for a value that names none.
    fn parse(value: Option<&str>) -> Option<Mode> {
        match value {
            None | Some("1") => Some(Mode::On),
            Some("0") => Some(Mode::Off),
            Some("verify") => Some(Mode::Verify),
            Some(_) => None,
        }
    }
}

static MODE: OnceLock<Mode> = OnceLock::new();

/// This process's [`Mode`], read from `EASIS_FASTFORWARD` on first use.
/// A value other than `1`, `0` and `verify` is rejected with a warning on
/// stderr, and the default, [`Mode::On`], applies.
/// A per-node [`crate::node::CentralNode::set_fastforward`] override
/// decides whether a node jumps; under [`Mode::Verify`] every jump a node
/// takes is shadowed, whatever made it eligible.
pub fn mode() -> Mode {
    *MODE.get_or_init(|| {
        let value = std::env::var("EASIS_FASTFORWARD").ok();
        Mode::parse(value.as_deref()).unwrap_or_else(|| {
            let raw = value.unwrap_or_default();
            eprintln!(
                "warning: EASIS_FASTFORWARD={raw:?} is not 1, 0 or verify; \
                 falling back to the default, certified jumps"
            );
            Mode::On
        })
    })
}

static FFWD_US: AtomicU64 = AtomicU64::new(0);
static SPAN_US: AtomicU64 = AtomicU64::new(0);
static FALLBACKS: AtomicU64 = AtomicU64::new(0);
static CERTIFICATIONS: AtomicU64 = AtomicU64::new(0);

/// Aggregate macro-stepping counters since the last [`reset_metrics`],
/// summed over every node and worker thread of the process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FfwdMetrics {
    /// Simulated microseconds skipped by certified hyperperiod jumps.
    pub fastforwarded_us: u64,
    /// Simulated microseconds `run_span` was asked to cover in total
    /// (fast-forwarded or not — the fraction's denominator).
    pub span_us: u64,
    /// Rejected certification attempts.
    pub fallbacks: u64,
    /// Successful certifications: one sampled hyperperiod, advanced by its
    /// measured delta, equalled the next checkpoint, and the engine
    /// jumped.
    pub certifications: u64,
}

impl FfwdMetrics {
    /// Fraction of the spanned simulated time that was fast-forwarded,
    /// in `[0, 1]`; zero when nothing was spanned.
    pub fn span_fraction(&self) -> f64 {
        if self.span_us == 0 {
            0.0
        } else {
            self.fastforwarded_us as f64 / self.span_us as f64
        }
    }
}

/// Reads the aggregate counters.
pub fn metrics() -> FfwdMetrics {
    FfwdMetrics {
        fastforwarded_us: FFWD_US.load(Ordering::Relaxed),
        span_us: SPAN_US.load(Ordering::Relaxed),
        fallbacks: FALLBACKS.load(Ordering::Relaxed),
        certifications: CERTIFICATIONS.load(Ordering::Relaxed),
    }
}

/// Zeroes the aggregate counters (bench bracketing).
pub fn reset_metrics() {
    FFWD_US.store(0, Ordering::Relaxed);
    SPAN_US.store(0, Ordering::Relaxed);
    FALLBACKS.store(0, Ordering::Relaxed);
    CERTIFICATIONS.store(0, Ordering::Relaxed);
}

/// Folds one `run_span`'s counters into the process aggregate.
pub(crate) fn record(fastforwarded_us: u64, span_us: u64, fallbacks: u64, certifications: u64) {
    FFWD_US.fetch_add(fastforwarded_us, Ordering::Relaxed);
    SPAN_US.fetch_add(span_us, Ordering::Relaxed);
    FALLBACKS.fetch_add(fallbacks, Ordering::Relaxed);
    CERTIFICATIONS.fetch_add(certifications, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parses_the_three_settings() {
        assert_eq!(Mode::parse(None), Some(Mode::On));
        assert_eq!(Mode::parse(Some("1")), Some(Mode::On));
        assert_eq!(Mode::parse(Some("0")), Some(Mode::Off));
        assert_eq!(Mode::parse(Some("verify")), Some(Mode::Verify));
        for typo in ["off", "false", "on", "", " 0", "Verify", "2"] {
            assert_eq!(Mode::parse(Some(typo)), None, "{typo:?}");
        }
    }

    #[test]
    fn metrics_accumulate_and_reset() {
        reset_metrics();
        record(10, 40, 1, 2);
        record(30, 60, 0, 1);
        let m = metrics();
        assert_eq!(m.fastforwarded_us, 40);
        assert_eq!(m.span_us, 100);
        assert_eq!(m.fallbacks, 1);
        assert_eq!(m.certifications, 3);
        assert!((m.span_fraction() - 0.4).abs() < 1e-12);
        reset_metrics();
        assert_eq!(metrics(), FfwdMetrics::default());
        assert_eq!(FfwdMetrics::default().span_fraction(), 0.0);
    }
}
