//! Fault records and severity classification.
//!
//! The Fault Management Framework "gathers the information on the detected
//! faults, and informs the applications about the fault detection" (paper
//! §4.4). Incoming watchdog faults are stamped with a severity so that
//! treatment can depend "on the source, type and severity of the detected
//! faults" (§3.2).

use easis_sim::growth::Stamped;
use easis_sim::time::Duration;
use easis_watchdog::report::{DetectedFault, FaultKind};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Severity of a recorded fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Severity {
    /// Log only.
    Info,
    /// Degraded but tolerable.
    Minor,
    /// Requires treatment.
    Major,
    /// Safety goal threatened — immediate treatment.
    Critical,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Minor => "minor",
            Severity::Major => "major",
            Severity::Critical => "critical",
        })
    }
}

/// Maps fault kinds to severities. The default matches the EASIS
/// deliverable's conservative stance: timing faults are major, flow faults
/// critical (a corrupted program counter may corrupt state).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeverityMap {
    /// Severity of aliveness faults.
    pub aliveness: Severity,
    /// Severity of arrival-rate faults.
    pub arrival_rate: Severity,
    /// Severity of program-flow faults.
    pub program_flow: Severity,
}

impl Default for SeverityMap {
    fn default() -> Self {
        SeverityMap {
            aliveness: Severity::Major,
            arrival_rate: Severity::Major,
            program_flow: Severity::Critical,
        }
    }
}

impl SeverityMap {
    /// Severity of the given kind.
    pub fn classify(&self, kind: FaultKind) -> Severity {
        match kind {
            FaultKind::Aliveness => self.aliveness,
            FaultKind::ArrivalRate => self.arrival_rate,
            FaultKind::ProgramFlow => self.program_flow,
        }
    }
}

/// A classified fault in the FMF log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultRecord {
    /// The underlying detection.
    pub fault: DetectedFault,
    /// Assigned severity.
    pub severity: Severity,
}

/// Replayed one hyperperiod later by macro-stepping, like its detection.
impl Stamped for FaultRecord {
    fn shift(&mut self, by: Duration) {
        self.fault.shift(by);
    }
}

impl fmt::Display for FaultRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.severity, self.fault)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easis_rte::runnable::RunnableId;
    use easis_sim::time::Instant;

    #[test]
    fn severity_ordering_escalates() {
        assert!(Severity::Critical > Severity::Major);
        assert!(Severity::Major > Severity::Minor);
        assert!(Severity::Minor > Severity::Info);
    }

    #[test]
    fn default_map_matches_design() {
        let m = SeverityMap::default();
        assert_eq!(m.classify(FaultKind::Aliveness), Severity::Major);
        assert_eq!(m.classify(FaultKind::ArrivalRate), Severity::Major);
        assert_eq!(m.classify(FaultKind::ProgramFlow), Severity::Critical);
    }

    #[test]
    fn record_display_names_severity_and_fault() {
        let rec = FaultRecord {
            fault: DetectedFault {
                at: Instant::from_millis(5),
                runnable: RunnableId(1),
                kind: FaultKind::Aliveness,
            },
            severity: Severity::Major,
        };
        let s = rec.to_string();
        assert!(s.contains("major") && s.contains("aliveness"), "{s}");
    }
}
