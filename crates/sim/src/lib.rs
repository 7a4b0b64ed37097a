//! # easis-sim — deterministic simulation substrate
//!
//! Foundation crate of the EASIS Software Watchdog reproduction (DSN 2007).
//! The paper validates its watchdog on a hardware-in-the-loop rig (dSPACE
//! AutoBox + ControlDesk); this crate supplies the deterministic replacement:
//!
//! * [`time`] — microsecond-resolution simulated [`time::Instant`] /
//!   [`time::Duration`];
//! * [`event`] — a discrete-event queue with stable tie-breaking;
//! * [`trace`] — the observable-action log every layer writes to;
//! * [`series`] — time-series capture used to regenerate the paper's plots;
//! * [`cpu`] — abstract cycle costs and CPU models (AutoBox, S12XF);
//! * [`rng`] — stable seedable randomness for fault campaigns.
//!
//! # Examples
//!
//! ```
//! use easis_sim::event::EventQueue;
//! use easis_sim::time::{Duration, Instant};
//!
//! // A miniature simulation loop.
//! let mut queue = EventQueue::new();
//! queue.schedule(Instant::ZERO + Duration::from_millis(10), "tick");
//! while let Some((now, event)) = queue.pop() {
//!     assert_eq!(event, "tick");
//!     assert_eq!(now.as_millis(), 10);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cpu;
pub mod event;
pub mod rng;
pub mod series;
pub mod snap;
pub mod time;
pub mod trace;

pub use cpu::{CostMeter, CpuModel};
pub use snap::RestoreStats;
pub use event::{EventId, EventQueue};
pub use rng::SimRng;
pub use series::{Series, SeriesSet};
pub use time::{Duration, Instant};
pub use trace::{TraceEvent, TraceRecorder};
