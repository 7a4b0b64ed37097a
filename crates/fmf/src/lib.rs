//! # easis-fmf — the EASIS Fault Management Framework
//!
//! The companion dependability service of the Software Watchdog (paper
//! §4.4 and its reference \[12\]): it receives the faults and state changes
//! the watchdog hands over, records the faults in its DTC memory, and decides
//! coordinated fault treatments from the state changes per the paper's
//! §3.5 decision tree — application restart/termination while the ECU is
//! healthy, a software reset when the global ECU state turns faulty.
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
//! let action = fmf.ingest_state_change(StateChange::ApplicationFaulty {
//!     app: ApplicationId(0),
//!     at: Instant::from_millis(30),
//! });
//! let treatment = action.map(|a| a.treatment);
//! assert_eq!(treatment, Some(Treatment::RestartApplication(ApplicationId(0))));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dtc;
pub mod framework;
pub mod policy;

pub use dtc::{DtcCode, DtcRecord, DtcStatus, DtcStore, FreezeFrame};
pub use framework::{FaultManagementFramework, FmfCycleDelta, FmfState};
pub use policy::{Treatment, TreatmentAction, TreatmentPolicy};
