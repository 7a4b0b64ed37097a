//! # easis-sim — deterministic simulation substrate
//!
//! Foundation crate of the EASIS Software Watchdog reproduction (DSN 2007).
//! The paper validates its watchdog on a hardware-in-the-loop rig (dSPACE
//! AutoBox + ControlDesk); this crate supplies the deterministic replacement:
//!
//! * [`time`] — microsecond-resolution simulated [`time::Instant`] /
//!   [`time::Duration`];
//! * [`event`] — a discrete-event queue with stable tie-breaking, kept as
//!   one sorted vector because the OSEK kernel's timer traffic is tiny (at
//!   most 9 pending entries on the central node: 5 cyclic alarms and at
//!   most 4 deadline checks);
//! * [`trace`] — the observable-action log every layer writes to;
//! * [`series`] — time-series capture used to regenerate the paper's plots;
//! * [`cpu`] — abstract cycle costs and CPU models (AutoBox, S12XF);
//! * [`growth`] — the per-hyperperiod growth of write-only detection logs
//!   and counts, which macro-stepping replays across a faulty steady
//!   state;
//! * [`rng`] — stable seedable randomness for fault campaigns;
//! * [`snap`] — [`clone_fields!`], the field-wise `Clone` every runtime
//!   state struct uses, so a checkpoint is captured and restored with one
//!   capacity-keeping `clone_from` per component.
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
pub mod growth;
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
