//! Detected faults, supervision reports and derived states.
//!
//! The Software Watchdog "generates individual supervision reports on
//! runnables. These reports can be used to derive error indication states
//! of the tasks, which in turn can be used for determining the status of
//! the applications" (paper §3.2). The types here are that reporting
//! vocabulary, shared with the Fault Management Framework.

use easis_osek::task::TaskId;
use easis_rte::mapping::ApplicationId;
use easis_rte::runnable::RunnableId;
use easis_sim::growth::Stamped;
use easis_sim::time::{Duration, Instant};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The three error classes the Software Watchdog detects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// Too few aliveness indications within a monitoring period — the
    /// runnable is blocked/preempted/starved.
    Aliveness,
    /// Too many aliveness indications within a monitoring period — the
    /// runnable is excessively dispatched.
    ArrivalRate,
    /// The observed successor is not in the predecessor's allowed set.
    ProgramFlow,
}

impl FaultKind {
    /// All kinds, for iteration in reports and campaigns.
    pub const ALL: [FaultKind; 3] = [
        FaultKind::Aliveness,
        FaultKind::ArrivalRate,
        FaultKind::ProgramFlow,
    ];

    /// Stable machine-readable tag.
    pub fn tag(self) -> &'static str {
        match self {
            FaultKind::Aliveness => "aliveness",
            FaultKind::ArrivalRate => "arrival_rate",
            FaultKind::ProgramFlow => "program_flow",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

impl From<FaultKind> for easis_obs::FaultClass {
    fn from(kind: FaultKind) -> easis_obs::FaultClass {
        match kind {
            FaultKind::Aliveness => easis_obs::FaultClass::Aliveness,
            FaultKind::ArrivalRate => easis_obs::FaultClass::ArrivalRate,
            FaultKind::ProgramFlow => easis_obs::FaultClass::ProgramFlow,
        }
    }
}

/// One detected fault, as handed to the Fault Management Framework.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DetectedFault {
    /// Detection time.
    pub at: Instant,
    /// The offending runnable.
    pub runnable: RunnableId,
    /// Error class.
    pub kind: FaultKind,
}

/// Replayed one hyperperiod later by macro-stepping: the detection time
/// moves, the runnable and the class stay.
impl Stamped for DetectedFault {
    fn shift(&mut self, by: Duration) {
        self.at += by;
    }
}

impl fmt::Display for DetectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} error on {} at {}", self.kind, self.runnable, self.at)
    }
}

/// Health verdict of a task / application / the ECU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum HealthState {
    /// No threshold crossed.
    #[default]
    Ok,
    /// An error indication threshold was crossed.
    Faulty,
}

impl HealthState {
    /// `true` for [`HealthState::Faulty`].
    pub fn is_faulty(self) -> bool {
        self == HealthState::Faulty
    }
}

impl fmt::Display for HealthState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            HealthState::Ok => "ok",
            HealthState::Faulty => "faulty",
        })
    }
}

/// A state-change notice emitted by the task state indication unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StateChange {
    /// A task crossed its error threshold.
    TaskFaulty {
        /// The faulty task.
        task: TaskId,
        /// When the threshold was crossed.
        at: Instant,
    },
    /// An application turned faulty (one of its tasks did).
    ApplicationFaulty {
        /// The faulty application.
        app: ApplicationId,
        /// When it turned faulty.
        at: Instant,
    },
    /// The global ECU state turned faulty.
    EcuFaulty {
        /// When it turned faulty.
        at: Instant,
    },
}

/// Live counter values of one monitored runnable — the quantities the
/// paper's ControlDesk plots show (Figure 5/6 series).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RunnableCounters {
    /// Aliveness Counter: heartbeats seen in the current aliveness period.
    pub ac: u32,
    /// Arrival Rate Counter: heartbeats seen in the current rate period.
    pub arc: u32,
    /// Cycle Counter for Aliveness: elapsed watchdog cycles in the period.
    pub cca: u32,
    /// Cycle Counter for Arrival Rate.
    pub ccar: u32,
    /// Activation Status.
    pub activation: bool,
    /// Cumulative aliveness errors detected (the "AM Result" series).
    pub aliveness_errors: u32,
    /// Cumulative arrival-rate errors detected (the "ARM Result" series).
    pub arrival_rate_errors: u32,
    /// Cumulative program-flow errors attributed to this runnable (the
    /// "PFC Result" series).
    pub program_flow_errors: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_kind_tags_are_stable() {
        assert_eq!(FaultKind::Aliveness.tag(), "aliveness");
        assert_eq!(FaultKind::ArrivalRate.to_string(), "arrival_rate");
        assert_eq!(FaultKind::ALL.len(), 3);
    }

    #[test]
    fn detected_fault_display_names_everything() {
        let f = DetectedFault {
            at: Instant::from_millis(30),
            runnable: RunnableId(2),
            kind: FaultKind::ProgramFlow,
        };
        let s = f.to_string();
        assert!(s.contains("program_flow") && s.contains("R2"), "{s}");
    }

    #[test]
    fn health_state_defaults_ok() {
        assert_eq!(HealthState::default(), HealthState::Ok);
        assert!(!HealthState::Ok.is_faulty());
        assert!(HealthState::Faulty.is_faulty());
        assert_eq!(HealthState::Faulty.to_string(), "faulty");
    }

    #[test]
    fn counters_default_to_zero() {
        let c = RunnableCounters::default();
        assert_eq!(c.ac, 0);
        assert_eq!(c.aliveness_errors, 0);
        assert!(!c.activation);
    }
}
