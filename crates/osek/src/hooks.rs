//! OS hooks.
//!
//! OSEK defines hook routines called by the OS at notable points
//! (startup, task switches, errors). The kernel's task-granularity
//! monitors report through them too: an OSEKTime-style deadline miss and
//! an AUTOSAR-OS-style budget overrun are hook events. The central node
//! subscribes one observer, the validator's `TimingChecks`, to exactly
//! those two kinds and logs them in the watchdog service's detection log;
//! neither the Software Watchdog nor the hardware-watchdog baseline takes
//! a hook.

use crate::error::OsError;
use crate::task::TaskId;
use easis_sim::time::{Duration, Instant};
use std::fmt;

/// A notification delivered to hook subscribers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HookEvent {
    /// OS finished starting up.
    Startup,
    /// A task entered the running state (`PreTaskHook`).
    PreTask(TaskId),
    /// A task left the running state (`PostTaskHook`).
    PostTask(TaskId),
    /// A task was activated (entered ready from suspended, or queued).
    Activate(TaskId),
    /// A task terminated.
    Terminate(TaskId),
    /// A system service failed (`ErrorHook`).
    Error(OsError),
    /// OSEKTime-style deadline miss: the activation that started at the
    /// given instant did not finish within the task's deadline.
    DeadlineMiss {
        /// The late task.
        task: TaskId,
        /// When the missed activation was released.
        activated_at: Instant,
    },
    /// AUTOSAR-OS-style timing protection: the running task exhausted its
    /// execution budget.
    BudgetExceeded {
        /// The overrunning task.
        task: TaskId,
        /// The configured budget.
        budget: Duration,
    },
}

impl fmt::Display for HookEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HookEvent::Startup => write!(f, "startup"),
            HookEvent::PreTask(t) => write!(f, "pre-task {t}"),
            HookEvent::PostTask(t) => write!(f, "post-task {t}"),
            HookEvent::Activate(t) => write!(f, "activate {t}"),
            HookEvent::Terminate(t) => write!(f, "terminate {t}"),
            HookEvent::Error(e) => write!(f, "error: {e}"),
            HookEvent::DeadlineMiss { task, activated_at } => {
                write!(f, "deadline miss {task} (activated {activated_at})")
            }
            HookEvent::BudgetExceeded { task, budget } => {
                write!(f, "budget exceeded {task} (budget {budget})")
            }
        }
    }
}

/// A set of [`HookEvent`] kinds, one bit per variant: the events a
/// [`HookObserver`] handles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HookMask(u16);

impl HookMask {
    /// No kind.
    pub const NONE: HookMask = HookMask(0);
    /// Every kind: the default [`HookObserver::interest`].
    pub const ALL: HookMask = HookMask((1 << 8) - 1);
    /// [`HookEvent::Startup`].
    pub const STARTUP: HookMask = HookMask(1 << 0);
    /// [`HookEvent::PreTask`].
    pub const PRE_TASK: HookMask = HookMask(1 << 1);
    /// [`HookEvent::PostTask`].
    pub const POST_TASK: HookMask = HookMask(1 << 2);
    /// [`HookEvent::Activate`].
    pub const ACTIVATE: HookMask = HookMask(1 << 3);
    /// [`HookEvent::Terminate`].
    pub const TERMINATE: HookMask = HookMask(1 << 4);
    /// [`HookEvent::Error`].
    pub const ERROR: HookMask = HookMask(1 << 5);
    /// [`HookEvent::DeadlineMiss`].
    pub const DEADLINE_MISS: HookMask = HookMask(1 << 6);
    /// [`HookEvent::BudgetExceeded`].
    pub const BUDGET_EXCEEDED: HookMask = HookMask(1 << 7);

    /// The kind of `event`.
    fn of(event: HookEvent) -> HookMask {
        match event {
            HookEvent::Startup => Self::STARTUP,
            HookEvent::PreTask(_) => Self::PRE_TASK,
            HookEvent::PostTask(_) => Self::POST_TASK,
            HookEvent::Activate(_) => Self::ACTIVATE,
            HookEvent::Terminate(_) => Self::TERMINATE,
            HookEvent::Error(_) => Self::ERROR,
            HookEvent::DeadlineMiss { .. } => Self::DEADLINE_MISS,
            HookEvent::BudgetExceeded { .. } => Self::BUDGET_EXCEEDED,
        }
    }

    /// Union of two masks.
    pub fn union(self, other: HookMask) -> HookMask {
        HookMask(self.0 | other.0)
    }

    /// `true` if `event`'s kind is in the mask.
    pub fn contains(self, event: HookEvent) -> bool {
        self.0 & Self::of(event).0 != 0
    }
}

/// A hook subscriber. Receives each [`HookEvent`] of the kinds in its
/// [`interest`](HookObserver::interest), with its timestamp and mutable
/// access to the shared world `W`.
pub trait HookObserver<W>: Send {
    /// Called by the kernel for every hook event of an interesting kind.
    fn on_hook(&mut self, now: Instant, event: HookEvent, world: &mut W);

    /// The event kinds this observer handles, read once when it is
    /// subscribed. The kernel delivers no other kind, and skips a hook
    /// event that no subscriber is interested in without touching the
    /// observer list. Default: every kind.
    fn interest(&self) -> HookMask {
        HookMask::ALL
    }
}

impl<W, F> HookObserver<W> for F
where
    F: FnMut(Instant, HookEvent, &mut W) + Send,
{
    fn on_hook(&mut self, now: Instant, event: HookEvent, world: &mut W) {
        self(now, event, world)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        assert_eq!(HookEvent::PreTask(TaskId(1)).to_string(), "pre-task T1");
        assert!(HookEvent::Error(OsError::InvalidId)
            .to_string()
            .contains("E_OS_ID"));
        let miss = HookEvent::DeadlineMiss {
            task: TaskId(2),
            activated_at: Instant::from_millis(5),
        };
        assert!(miss.to_string().contains("deadline miss T2"));
    }

    #[test]
    fn closures_are_observers() {
        let mut seen = Vec::new();
        {
            let mut obs = |_: Instant, e: HookEvent, w: &mut Vec<HookEvent>| w.push(e);
            obs.on_hook(Instant::ZERO, HookEvent::Startup, &mut seen);
        }
        assert_eq!(seen, vec![HookEvent::Startup]);
    }

    #[test]
    fn masks_hold_one_bit_per_kind() {
        let events = [
            HookEvent::Startup,
            HookEvent::PreTask(TaskId(0)),
            HookEvent::PostTask(TaskId(0)),
            HookEvent::Activate(TaskId(0)),
            HookEvent::Terminate(TaskId(0)),
            HookEvent::Error(OsError::InvalidId),
            HookEvent::DeadlineMiss {
                task: TaskId(0),
                activated_at: Instant::ZERO,
            },
            HookEvent::BudgetExceeded {
                task: TaskId(0),
                budget: Duration::ZERO,
            },
        ];
        let all = events
            .iter()
            .fold(HookMask::NONE, |m, &e| m.union(HookMask::of(e)));
        assert_eq!(all, HookMask::ALL);
        for (i, &e) in events.iter().enumerate() {
            assert!(HookMask::ALL.contains(e));
            assert!(!HookMask::NONE.contains(e));
            for (j, &other) in events.iter().enumerate() {
                assert_eq!(HookMask::of(e).contains(other), i == j, "{e} vs {other}");
            }
        }
        // Closures keep the default: every kind.
        let obs = |_: Instant, _: HookEvent, _: &mut ()| {};
        assert_eq!(HookObserver::<()>::interest(&obs), HookMask::ALL);
    }
}
