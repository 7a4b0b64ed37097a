//! Task model: identifiers, configuration and states.
//!
//! OSEK distinguishes *basic* tasks (run to completion, no waiting) from
//! *extended* tasks (may block on events). Tasks have static priorities;
//! the scheduler is fixed-priority preemptive (OSEK "full-preemptive"
//! conformance classes). AUTOSAR-OS-style timing protection (execution
//! budget) and OSEKTime-style deadlines are optional per-task attributes —
//! they are the *task-granularity* monitors the paper argues are too coarse
//! for runnable supervision (section 2, Related work).

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

/// Basic vs extended task (OSEK conformance classes BCC/ECC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TaskKind {
    /// Runs to completion; cannot wait for events.
    Basic,
    /// May block on events (`WaitEvent`).
    Extended,
}

/// OSEK task states (spec figure: suspended/ready/running/waiting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TaskState {
    /// Not activated.
    Suspended,
    /// Activated, waiting for the processor.
    Ready,
    /// Currently executing.
    Running,
    /// Extended task blocked on an event.
    Waiting,
}

impl fmt::Display for TaskState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TaskState::Suspended => "suspended",
            TaskState::Ready => "ready",
            TaskState::Running => "running",
            TaskState::Waiting => "waiting",
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
/// use easis_osek::task::{Priority, TaskConfig, TaskKind};
/// use easis_sim::time::Duration;
///
/// let cfg = TaskConfig::new("SafeSpeedTask", Priority(5))
///     .with_kind(TaskKind::Basic)
///     .with_deadline(Duration::from_millis(10))
///     .with_execution_budget(Duration::from_millis(4));
/// assert_eq!(cfg.name(), "SafeSpeedTask");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskConfig {
    name: String,
    priority: Priority,
    kind: TaskKind,
    preemptable: bool,
    max_activations: u32,
    deadline: Option<Duration>,
    execution_budget: Option<Duration>,
    autostart: bool,
}

impl TaskConfig {
    /// Creates a preemptable basic task with one allowed activation.
    pub fn new(name: impl Into<String>, priority: Priority) -> Self {
        TaskConfig {
            name: name.into(),
            priority,
            kind: TaskKind::Basic,
            preemptable: true,
            max_activations: 1,
            deadline: None,
            execution_budget: None,
            autostart: false,
        }
    }

    /// Sets the task kind (basic/extended).
    pub fn with_kind(mut self, kind: TaskKind) -> Self {
        self.kind = kind;
        self
    }

    /// Marks the task non-preemptable (OSEK `SCHEDULE = NON`).
    pub fn non_preemptable(mut self) -> Self {
        self.preemptable = false;
        self
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

    /// Activates the task automatically at OS start.
    pub fn autostart(mut self) -> Self {
        self.autostart = true;
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

    /// Basic or extended.
    pub fn kind(&self) -> TaskKind {
        self.kind
    }

    /// `true` unless configured non-preemptable.
    pub fn is_preemptable(&self) -> bool {
        self.preemptable
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

    /// `true` if activated at OS start.
    pub fn is_autostart(&self) -> bool {
        self.autostart
    }
}

/// Bit mask of OS events an extended task can wait for / be signalled with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct EventMask(pub u32);

impl EventMask {
    /// The empty mask.
    pub const NONE: EventMask = EventMask(0);

    /// Mask with the single event bit `bit` set.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 32`.
    pub fn bit(bit: u8) -> Self {
        assert!(bit < 32, "event bits range over 0..32");
        EventMask(1 << bit)
    }

    /// Union of two masks.
    pub fn union(self, other: EventMask) -> EventMask {
        EventMask(self.0 | other.0)
    }

    /// `true` if any bit of `other` is set in `self`.
    pub fn intersects(self, other: EventMask) -> bool {
        self.0 & other.0 != 0
    }

    /// Clears the bits of `other`.
    pub fn clear(self, other: EventMask) -> EventMask {
        EventMask(self.0 & !other.0)
    }

    /// `true` if no bit is set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for EventMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#010b}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_all_attributes() {
        let cfg = TaskConfig::new("t", Priority(3))
            .with_kind(TaskKind::Extended)
            .non_preemptable()
            .with_max_activations(4)
            .with_deadline(Duration::from_millis(20))
            .with_execution_budget(Duration::from_millis(5))
            .autostart();
        assert_eq!(cfg.priority(), Priority(3));
        assert_eq!(cfg.kind(), TaskKind::Extended);
        assert!(!cfg.is_preemptable());
        assert_eq!(cfg.max_activations(), 4);
        assert_eq!(cfg.deadline(), Some(Duration::from_millis(20)));
        assert_eq!(cfg.execution_budget(), Some(Duration::from_millis(5)));
        assert!(cfg.is_autostart());
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
    fn event_mask_algebra() {
        let a = EventMask::bit(0);
        let b = EventMask::bit(3);
        let ab = a.union(b);
        assert!(ab.intersects(a));
        assert!(ab.intersects(b));
        assert!(!a.intersects(b));
        assert_eq!(ab.clear(a), b);
        assert!(EventMask::NONE.is_empty());
    }

    #[test]
    #[should_panic(expected = "0..32")]
    fn event_bit_out_of_range_panics() {
        let _ = EventMask::bit(32);
    }

    #[test]
    fn display_formats() {
        assert_eq!(TaskId(4).to_string(), "T4");
        assert_eq!(Priority(7).to_string(), "P7");
        assert_eq!(TaskState::Waiting.to_string(), "waiting");
    }
}
