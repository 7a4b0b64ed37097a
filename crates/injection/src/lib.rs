//! # easis-injection — error injection and fault campaigns
//!
//! "Since different faults can result in the same error, error injection is
//! applied for the evaluation of the design and prototyping of the Software
//! Watchdog" (paper §4.5). This crate reproduces that methodology,
//! replacing the manual ControlDesk sliders with scripted, reproducible
//! injections:
//!
//! * [`injector`] — the error classes (execution-time scaling, heartbeat
//!   loss, skipped runnables / invalid branches, duplicate dispatch, loop
//!   counter overruns, alarm rescaling) armed and reverted inside time
//!   windows;
//! * [`campaign`] — seeded plans of injection trials over target
//!   runnables;
//! * [`executor`] — parallel, deterministic execution of campaign plans
//!   across worker threads;
//! * [`stats`] — detection coverage and latency aggregation across the
//!   Software Watchdog units and the baseline monitors;
//! * [`report`] — serialisable campaign reports with Wilson-score
//!   coverage confidence intervals and latency percentiles.
//!
//! # Examples
//!
//! ```
//! use easis_injection::campaign::CampaignBuilder;
//! use easis_rte::runnable::RunnableId;
//!
//! let plan = CampaignBuilder::new(42, vec![RunnableId(0), RunnableId(1)])
//!     .trials_per_class(5)
//!     .build();
//! assert_eq!(plan.len(), 25); // 5 classes × 5 trials
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod executor;
pub mod injector;
pub mod report;
pub mod stats;

pub use campaign::{CampaignBuilder, CampaignPlan, TrialSpec};
pub use executor::CampaignExecutor;
pub use injector::{ErrorClass, Injection, Injector};
pub use report::{CampaignReport, ClassReport, DetectorReport, LatencySummary, WilsonInterval};
pub use stats::{CampaignStats, Detections, DetectorId, TrialOutcome};
