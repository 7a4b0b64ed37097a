//! OSEK status codes.
//!
//! OSEK/VDX system services return a `StatusType`; we model the subset the
//! platform uses as a proper Rust error enum. Names follow the OSEK OS
//! specification 2.2.3 (`E_OS_*`).

use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Errors returned by OSEK system services.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OsError {
    /// `E_OS_ID` — a service was called with an invalid object identifier.
    InvalidId,
    /// `E_OS_LIMIT` — too many pending activations of a task.
    ActivationLimit,
    /// `E_OS_STATE` — the object is in an incompatible state (an alarm
    /// armed again while it is armed).
    InvalidState,
    /// `E_OS_NOFUNC` — alarm is not in use.
    AlarmNotInUse,
    /// `E_OS_VALUE` — alarm cycle/offset outside the counter's limits.
    InvalidValue,
}

impl fmt::Display for OsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            OsError::InvalidId => "invalid object identifier (E_OS_ID)",
            OsError::ActivationLimit => "too many pending task activations (E_OS_LIMIT)",
            OsError::InvalidState => "object in incompatible state (E_OS_STATE)",
            OsError::AlarmNotInUse => "alarm not in use (E_OS_NOFUNC)",
            OsError::InvalidValue => "value outside counter limits (E_OS_VALUE)",
        };
        f.write_str(text)
    }
}

impl Error for OsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_osek_code() {
        assert!(OsError::ActivationLimit.to_string().contains("E_OS_LIMIT"));
        assert!(OsError::InvalidId.to_string().contains("E_OS_ID"));
    }

    #[test]
    fn error_trait_is_implemented() {
        let e: Box<dyn Error> = Box::new(OsError::InvalidState);
        assert!(e.to_string().contains("E_OS_STATE"));
    }
}
