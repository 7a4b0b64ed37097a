//! # easis-baselines — comparator monitors
//!
//! The related-work section of the reproduced paper (§2) names three
//! monitoring mechanisms that the Software Watchdog improves upon, plus one
//! control-flow-checking alternative it deliberately avoids. The
//! coverage/latency/overhead experiments put real numbers behind the
//! paper's qualitative claims with:
//!
//! * [`hw_watchdog`] — the ECU hardware watchdog ("treats the embedded
//!   software as a whole"), a plain timeout;
//! * [`cfcss`] — Control-Flow Checking by Software Signatures (Oh et al.,
//!   2002), the embedded-signature technique rejected for "high
//!   performance overhead and low flexibility".
//!
//! The other two, OSEKTime deadline monitoring and AUTOSAR OS
//! execution-time monitoring (task granularity, "not fine enough for
//! runnables"), are the OSEK kernel's own per-task deadline and budget
//! checks (`easis_osek`); the validator node logs their hook events with
//! every other detection.
//!
//! # Examples
//!
//! ```
//! use easis_baselines::cfcss::{BlockId, CfcssMonitor, CfcssProgram, ControlFlowGraph};
//! use easis_sim::cpu::CostMeter;
//!
//! let program = CfcssProgram::instrument(ControlFlowGraph::chain(4), 42);
//! let mut monitor = CfcssMonitor::new(program, BlockId(0));
//! let mut costs = CostMeter::new();
//! assert!(!monitor.enter(BlockId(1), &mut costs));     // legal edge
//! assert!(monitor.enter(BlockId(3), &mut costs));      // illegal jump
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cfcss;
pub mod hw_watchdog;

pub use cfcss::{BlockId, CfcssMonitor, CfcssProgram, ControlFlowGraph};
pub use hw_watchdog::HardwareWatchdog;
