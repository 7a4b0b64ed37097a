//! Treatment policy.
//!
//! The paper's fault-treatment decision tree (§3.5):
//!
//! * global ECU state faulty → "the ECU might be subjected to a software
//!   reset";
//! * ECU state OK → "the faulty application software components might be
//!   restarted or terminated";
//! * other tasks of terminated/restarted applications "might be terminated
//!   and restarted with the services provided by the operating system".
//!
//! [`TreatmentPolicy`] encodes this with an escalation rule: an application
//! is restarted up to `max_app_restarts` times; beyond that it is
//! terminated (fail-silent degradation). Task-level verdicts are treated
//! at the application level: an application restart restarts its tasks.

use easis_rte::mapping::ApplicationId;
use easis_sim::time::Instant;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A fault treatment to be executed by the platform integration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Treatment {
    /// Restart every task of an application.
    RestartApplication(ApplicationId),
    /// Terminate an application permanently (fail-silent).
    TerminateApplication(ApplicationId),
    /// Software-reset the whole ECU.
    EcuReset,
}

impl Treatment {
    /// Stable machine-readable tag of the treatment class (used by the
    /// observability layer and experiment reports).
    pub fn label(&self) -> &'static str {
        match self {
            Treatment::RestartApplication(_) => "restart_application",
            Treatment::TerminateApplication(_) => "terminate_application",
            Treatment::EcuReset => "ecu_reset",
        }
    }
}

impl fmt::Display for Treatment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Treatment::RestartApplication(a) => write!(f, "restart application {a}"),
            Treatment::TerminateApplication(a) => write!(f, "terminate application {a}"),
            Treatment::EcuReset => write!(f, "ECU software reset"),
        }
    }
}

/// A decided treatment with its decision time. The treatment names its
/// reason: an application treatment answers that application's faulty
/// verdict, an ECU reset the faulty global ECU state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TreatmentAction {
    /// Decision time.
    pub at: Instant,
    /// The treatment to execute.
    pub treatment: Treatment,
}

/// Escalating treatment policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TreatmentPolicy {
    /// How often an application may be restarted before termination.
    pub max_app_restarts: u32,
    /// Whether an ECU-faulty verdict triggers a software reset.
    pub reset_on_ecu_faulty: bool,
    /// Master switch: when `false` the framework only logs — no restarts,
    /// terminations or resets (used by raw-detection experiments).
    pub treat: bool,
}

impl Default for TreatmentPolicy {
    fn default() -> Self {
        TreatmentPolicy {
            max_app_restarts: 3,
            reset_on_ecu_faulty: true,
            treat: true,
        }
    }
}

impl TreatmentPolicy {
    /// A policy that never acts (detection-measurement experiments).
    pub fn observe_only() -> Self {
        TreatmentPolicy {
            treat: false,
            ..TreatmentPolicy::default()
        }
    }

    /// Decides the treatment for a faulty application given how many times
    /// it was already restarted.
    pub fn for_faulty_app(&self, app: ApplicationId, restarts_so_far: u32) -> Treatment {
        if restarts_so_far < self.max_app_restarts {
            Treatment::RestartApplication(app)
        } else {
            Treatment::TerminateApplication(app)
        }
    }

    /// Decides the treatment for a faulty global ECU state, if any.
    pub fn for_faulty_ecu(&self) -> Option<Treatment> {
        self.reset_on_ecu_faulty.then_some(Treatment::EcuReset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_restarts_until_budget_then_terminates() {
        let p = TreatmentPolicy::default();
        let app = ApplicationId(0);
        assert_eq!(p.for_faulty_app(app, 0), Treatment::RestartApplication(app));
        assert_eq!(p.for_faulty_app(app, 2), Treatment::RestartApplication(app));
        assert_eq!(
            p.for_faulty_app(app, 3),
            Treatment::TerminateApplication(app)
        );
        assert_eq!(
            p.for_faulty_app(app, 10),
            Treatment::TerminateApplication(app)
        );
    }

    #[test]
    fn ecu_reset_is_policy_gated() {
        let mut p = TreatmentPolicy::default();
        assert_eq!(p.for_faulty_ecu(), Some(Treatment::EcuReset));
        p.reset_on_ecu_faulty = false;
        assert_eq!(p.for_faulty_ecu(), None);
    }

    #[test]
    fn labels_are_stable_tags() {
        assert_eq!(
            Treatment::RestartApplication(ApplicationId(0)).label(),
            "restart_application"
        );
        assert_eq!(
            Treatment::TerminateApplication(ApplicationId(0)).label(),
            "terminate_application"
        );
        assert_eq!(Treatment::EcuReset.label(), "ecu_reset");
    }

    #[test]
    fn treatments_render_readably() {
        assert_eq!(Treatment::EcuReset.to_string(), "ECU software reset");
        assert!(Treatment::RestartApplication(ApplicationId(1))
            .to_string()
            .contains("App1"));
        assert!(Treatment::TerminateApplication(ApplicationId(3))
            .to_string()
            .contains("terminate"));
    }
}
