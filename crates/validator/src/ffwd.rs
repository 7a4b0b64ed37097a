//! Process-wide switches and metrics of the hyperperiod macro-stepping
//! engine (tail fast-forward, see [`crate::node::CentralNode::run_span`]).
//!
//! The engine itself lives on each [`crate::node::CentralNode`]; this
//! module holds the two pieces that are process-global by nature:
//!
//! * the `EASIS_FASTFORWARD` opt-out knob, read once (`=0` disables
//!   macro-stepping for every node that has no explicit
//!   [`crate::node::CentralNode::set_fastforward`] override);
//! * the aggregate metrics the campaign bench reads. Campaign workers are
//!   short-lived threads with thread-local node pools, so per-node
//!   counters die with their worker — every `run_span` folds its counters
//!   into these relaxed atomics instead, and the bench brackets a
//!   measured run with [`reset_metrics`]/[`metrics`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

static ENV_DEFAULT: OnceLock<bool> = OnceLock::new();

/// Whether macro-stepping is enabled by default for this process:
/// `EASIS_FASTFORWARD=0` opts out, anything else — including unset —
/// leaves it on. Read once on first use; a per-node
/// [`crate::node::CentralNode::set_fastforward`] override wins either way.
pub fn env_default() -> bool {
    *ENV_DEFAULT
        .get_or_init(|| std::env::var("EASIS_FASTFORWARD").map_or(true, |value| value != "0"))
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
    /// Successful certifications (the guard hyperperiod reproduced the
    /// derived delta exactly).
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
