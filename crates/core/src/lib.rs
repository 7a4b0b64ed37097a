//! # easis-watchdog — the Software Watchdog dependability service
//!
//! This crate is the primary contribution of the reproduced paper
//! (*Application of Software Watchdog as a Dependability Software Service
//! for Automotive Safety Relevant Systems*, DSN 2007): a software-
//! implemented watchdog that monitors application **runnables** — a finer
//! granularity than the ECU hardware watchdog or task-level deadline
//! monitoring — via
//!
//! * **heartbeat monitoring** ([`heartbeat`]): passive Aliveness / Arrival
//!   Rate Counters per runnable, checked against a fault hypothesis at
//!   watchdog-cycle boundaries;
//! * **program flow checking** ([`pfc`]): a predecessor/successor look-up
//!   table over the monitored runnables, chosen over embedded signatures
//!   for its low overhead;
//! * **task state indication** ([`tsi`]): per-task error indication
//!   vectors with thresholds, rolled up to application and global ECU
//!   states to steer fault treatment.
//!
//! The units keep every per-runnable and per-task table as an array
//! indexed by runnable or task id, which the runnable registry and the
//! kernel assign densely from 0.
//!
//! The [`SoftwareWatchdog`] facade in [`service`] glues the units together
//! and is their one service API: the aliveness-indication routine
//! ([`SoftwareWatchdog::heartbeat`]) for glue code, the periodic check
//! ([`SoftwareWatchdog::run_cycle`]) for the watchdog task, and the
//! hand-over of faults and state changes to the Fault Management
//! Framework. It keeps the node's one record of detection, the
//! [`DetectionLog`] of [`detection`], which the kernel's timing checks and
//! the hardware watchdog write too. The
//! active-probe alternative in [`probe`] stands beside it for the
//! passive-vs-active ablation. The service reports structured events to
//! an `easis_obs::ObsSink` flight recorder attached with
//! [`SoftwareWatchdog::attach_obs`] — disabled by default and free of
//! cost-model side effects.
//!
//! # Examples
//!
//! ```
//! use easis_rte::runnable::RunnableId;
//! use easis_sim::time::{Duration, Instant};
//! use easis_watchdog::config::{RunnableHypothesis, WatchdogConfig};
//! use easis_watchdog::report::FaultKind;
//! use easis_watchdog::SoftwareWatchdog;
//!
//! // Monitor one runnable: at least one heartbeat per 10 ms cycle,
//! // at most two.
//! let config = WatchdogConfig::builder(Duration::from_millis(10))
//!     .monitor(
//!         RunnableHypothesis::new(RunnableId(0))
//!             .alive_at_least(1, 1)
//!             .arrive_at_most(2, 1),
//!     )
//!     .build();
//! let mut watchdog = SoftwareWatchdog::new(config);
//!
//! // Nominal cycle: one heartbeat, no fault.
//! watchdog.heartbeat(RunnableId(0), Instant::from_millis(5));
//! assert!(watchdog.run_cycle(Instant::from_millis(10)).faults.is_empty());
//!
//! // Silent cycle: aliveness fault.
//! let report = watchdog.run_cycle(Instant::from_millis(20));
//! assert_eq!(report.faults[0].kind, FaultKind::Aliveness);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod detection;
pub mod heartbeat;
pub mod pfc;
pub mod probe;
pub mod report;
pub mod service;
pub mod tsi;
pub mod validate;

pub use config::{AlivenessSpec, ArrivalRateSpec, RunnableHypothesis, WatchdogConfig};
pub use detection::{Detection, DetectionLog, DetectorId};
pub use heartbeat::HeartbeatMonitor;
pub use pfc::{CompiledFlowTable, FlowTable, FlowVerdict, PfcState};
pub use probe::ActiveProbeMonitor;
pub use report::{DetectedFault, FaultKind, HealthState, RunnableCounters, StateChange};
pub use service::{CycleReport, SoftwareWatchdog, WatchdogCycleDelta, WatchdogState};
pub use validate::{validate, ConfigIssue};
pub use tsi::{TaskStateIndication, TsiState};
