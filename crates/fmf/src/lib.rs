//! # easis-fmf — the EASIS Fault Management Framework
//!
//! The companion dependability service of the Software Watchdog (paper
//! §4.4 and its reference \[12\]): it receives the watchdog's detected faults and
//! state changes, classifies them by severity, and decides coordinated
//! fault treatments per the paper's §3.5 decision tree — application
//! restart/termination while the ECU is healthy, a software reset when the
//! global ECU state turns faulty.
//!
//! # Examples
//!
//! ```
//! use easis_fmf::framework::FaultManagementFramework;
//! use easis_fmf::policy::Treatment;
//! use easis_rte::mapping::ApplicationId;
//! use easis_sim::time::Instant;
//! use easis_watchdog::report::StateChange;
//!
//! let mut fmf = FaultManagementFramework::default();
//! fmf.ingest_state_change(StateChange::ApplicationFaulty {
//!     app: ApplicationId(0),
//!     at: Instant::from_millis(30),
//! });
//! let actions = fmf.take_actions();
//! assert_eq!(actions[0].treatment, Treatment::RestartApplication(ApplicationId(0)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dtc;
pub mod framework;
pub mod policy;
pub mod record;

pub use dtc::{DtcCode, DtcRecord, DtcStatus, DtcStore, FreezeFrame};
pub use framework::{FaultManagementFramework, FmfCycleDelta, FmfState};
pub use policy::{Treatment, TreatmentAction, TreatmentPolicy};
pub use record::{FaultRecord, Severity, SeverityMap};
