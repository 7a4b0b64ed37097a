//! Task model: identifiers, configuration and states.
//!
//! Every task is an OSEK *basic* task: it runs to completion and never
//! waits, and it may queue several activations (conformance class BCC2).
//! Tasks have static priorities; the scheduler is fixed-priority
//! full-preemptive. AUTOSAR-OS-style timing protection (execution budget)
//! and OSEKTime-style deadlines are optional per-task attributes — they are
//! the *task-granularity* monitors the paper argues are too coarse for
//! runnable supervision (section 2, Related work).

use easis_sim::time::Duration;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a task, dense index into the OS task table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TaskId(pub u32);

impl TaskId {
    /// Index into the task table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Static priority. Higher value = higher priority (OSEK convention).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Priority(pub u8);

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// The OSEK states of a basic task: suspended, ready and running.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TaskState {
    /// Not activated.
    Suspended,
    /// Activated, waiting for the processor.
    Ready,
    /// Currently executing.
    Running,
}

impl fmt::Display for TaskState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TaskState::Suspended => "suspended",
            TaskState::Ready => "ready",
            TaskState::Running => "running",
        };
        f.write_str(s)
    }
}

/// Static configuration of one task, built with [`TaskConfig::new`] and the
/// `with_*` methods.
///
/// # Examples
///
/// ```
/// use easis_osek::task::{Priority, TaskConfig};
/// use easis_sim::time::Duration;
///
/// let cfg = TaskConfig::new("SafeSpeedTask", Priority(5))
///     .with_deadline(Duration::from_millis(10))
///     .with_execution_budget(Duration::from_millis(4));
/// assert_eq!(cfg.name(), "SafeSpeedTask");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskConfig {
    name: String,
    priority: Priority,
    max_activations: u32,
    deadline: Option<Duration>,
    execution_budget: Option<Duration>,
}

impl TaskConfig {
    /// Creates a basic task with one allowed activation.
    pub fn new(name: impl Into<String>, priority: Priority) -> Self {
        TaskConfig {
            name: name.into(),
            priority,
            max_activations: 1,
            deadline: None,
            execution_budget: None,
        }
    }

    /// Allows up to `n` queued activations (OSEK multiple activation, BCC2).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn with_max_activations(mut self, n: u32) -> Self {
        assert!(n > 0, "a task needs at least one allowed activation");
        self.max_activations = n;
        self
    }

    /// Attaches an OSEKTime-style relative deadline, measured from
    /// activation; a miss is reported through the OS hook and trace.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches an AUTOSAR-OS-style execution-time budget per activation.
    pub fn with_execution_budget(mut self, budget: Duration) -> Self {
        self.execution_budget = Some(budget);
        self
    }

    /// Task name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Static priority.
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// Maximum queued activations.
    pub fn max_activations(&self) -> u32 {
        self.max_activations
    }

    /// Optional deadline.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// Optional execution budget.
    pub fn execution_budget(&self) -> Option<Duration> {
        self.execution_budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_all_attributes() {
        let cfg = TaskConfig::new("t", Priority(3))
            .with_max_activations(4)
            .with_deadline(Duration::from_millis(20))
            .with_execution_budget(Duration::from_millis(5));
        assert_eq!(cfg.priority(), Priority(3));
        assert_eq!(cfg.max_activations(), 4);
        assert_eq!(cfg.deadline(), Some(Duration::from_millis(20)));
        assert_eq!(cfg.execution_budget(), Some(Duration::from_millis(5)));
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_activations_rejected() {
        let _ = TaskConfig::new("t", Priority(0)).with_max_activations(0);
    }

    #[test]
    fn priority_orders_by_value() {
        assert!(Priority(5) > Priority(2));
    }

    #[test]
    fn display_formats() {
        assert_eq!(TaskId(4).to_string(), "T4");
        assert_eq!(Priority(7).to_string(), "P7");
        assert_eq!(TaskState::Ready.to_string(), "ready");
    }
}
