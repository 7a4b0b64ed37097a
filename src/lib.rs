//! # easis — the EASIS Software Watchdog reproduction, in one crate
//!
//! Facade over the workspace reproducing *Application of Software Watchdog
//! as a Dependability Software Service for Automotive Safety Relevant
//! Systems* (DSN 2007). Each member crate is re-exported under a short
//! module name:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`sim`] | `easis-sim` | deterministic simulation substrate |
//! | [`osek`] | `easis-osek` | OSEK/VDX operating-system model |
//! | [`rte`] | `easis-rte` | runnable layer + heartbeat glue |
//! | [`obs`] | `easis-obs` | flight recorder + metrics registry |
//! | [`watchdog`] | `easis-watchdog` | **the Software Watchdog service** |
//! | [`fmf`] | `easis-fmf` | Fault Management Framework |
//! | [`baselines`] | `easis-baselines` | HW watchdog, CFCSS |
//! | [`bus`] | `easis-bus` | CAN, FlexRay, gateway |
//! | [`vehicle`] | `easis-vehicle` | plant, driver, environment, sensors |
//! | [`apps`] | `easis-apps` | SafeSpeed, SafeLane, steer-by-wire |
//! | [`injection`] | `easis-injection` | error injection + campaigns |
//! | [`validator`] | `easis-validator` | the HIL architecture validator |
//!
//! # Examples
//!
//! ```
//! use easis::injection::Injector;
//! use easis::sim::time::Instant;
//! use easis::validator::{CentralNode, NodeConfig};
//!
//! // Run the paper's central node fault-free for 100 ms.
//! let mut node = CentralNode::build(NodeConfig::safespeed_only());
//! node.start();
//! node.run_until(Instant::from_millis(100), &mut Injector::none());
//! // No detector fired: the node's detection log is empty.
//! assert!(node.world.watchdog.log().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use easis_apps as apps;
pub use easis_baselines as baselines;
pub use easis_bus as bus;
pub use easis_fmf as fmf;
pub use easis_injection as injection;
pub use easis_obs as obs;
pub use easis_osek as osek;
pub use easis_rte as rte;
pub use easis_sim as sim;
pub use easis_validator as validator;
pub use easis_vehicle as vehicle;
pub use easis_watchdog as watchdog;
