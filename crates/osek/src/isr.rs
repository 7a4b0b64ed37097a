//! Category-2 interrupt service routines.
//!
//! OSEK category-2 ISRs may use OS services and are scheduled above every
//! task. The model reuses the kernel's task machinery: an ISR is a hidden
//! task at the reserved top priority ([`ISR_PRIORITY`]), activated by
//! external events (e.g. a bus controller signalling frame reception).
//! Because ISRs outrank all tasks, and a running task keeps the head of its
//! priority band against an equal-priority trigger, a handler runs to
//! completion before any task resumes or another ISR starts — the OSEK ISR
//! contract.

use crate::kernel::Os;
use crate::plan::{EffectCtx, Script};
use crate::task::{Priority, TaskConfig, TaskId};
use easis_sim::time::Duration;
use std::fmt;

/// The reserved scheduling priority of ISRs (above every task priority a
/// well-formed configuration uses).
pub const ISR_PRIORITY: Priority = Priority(u8::MAX);

/// Identifier of a registered ISR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IsrId(TaskId);

impl IsrId {
    /// The hidden task backing this ISR.
    pub fn task(self) -> TaskId {
        self.0
    }
}

impl fmt::Display for IsrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ISR({})", self.0)
    }
}

impl<W> Os<W> {
    /// Registers a category-2 ISR: a [`Script`] of `cost` of CPU time
    /// followed by the handler effect, which the kernel plans once and
    /// replays at every trigger. Multiple pending triggers queue (up to 8).
    pub fn add_isr(
        &mut self,
        name: impl Into<String>,
        cost: Duration,
        handler: impl FnMut(&mut W, &mut EffectCtx<'_, W>) + Send + 'static,
    ) -> IsrId
    where
        W: 'static,
    {
        let task = self.add_task(
            TaskConfig::new(name, ISR_PRIORITY).with_max_activations(8),
            Script::new().compute(cost).effect(handler),
        );
        IsrId(task)
    }

    /// Raises the interrupt: the handler runs at the next scheduling
    /// decision, ahead of every task.
    ///
    /// # Errors
    ///
    /// Propagates the kernel's activation errors (e.g. more than 8 pending
    /// triggers).
    pub fn trigger_isr(&mut self, isr: IsrId, world: &mut W) -> Result<(), crate::error::OsError> {
        self.activate_task(isr.0, world)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alarm::AlarmAction;
    use easis_sim::time::Instant;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn isr_preempts_running_task() {
        let mut os: Os<Vec<String>> = Os::new();
        let task = os.add_task(
            TaskConfig::new("worker", Priority(5)),
            Script::new()
                .compute(ms(10))
                .effect(|w: &mut Vec<String>, ctx| {
                    w.push(format!("task@{}", ctx.now().as_micros()))
                }),
        );
        let isr = os.add_isr(
            "rx",
            Duration::from_micros(50),
            |w: &mut Vec<String>, ctx| {
                w.push(format!("isr@{}", ctx.now().as_micros()));
            },
        );
        let a = os.add_alarm("start", AlarmAction::ActivateTask(task));
        let mut w = Vec::new();
        os.start(&mut w);
        os.set_rel_alarm(a, ms(1), None).unwrap();
        // Run into the middle of the task's computation, then interrupt.
        os.run_until(Instant::from_millis(5), &mut w);
        os.trigger_isr(isr, &mut w).unwrap();
        os.run_until(Instant::from_millis(20), &mut w);
        // The ISR ran immediately (at 5ms + 50us), the task finished 50us
        // late (at 11ms + 50us).
        assert_eq!(w, vec!["isr@5050".to_string(), "task@11050".to_string()]);
    }

    #[test]
    fn pending_triggers_queue_and_all_run() {
        let mut os: Os<u32> = Os::new();
        let isr = os.add_isr("rx", Duration::from_micros(10), |w: &mut u32, _| *w += 1);
        let mut w = 0u32;
        os.start(&mut w);
        for _ in 0..5 {
            os.trigger_isr(isr, &mut w).unwrap();
        }
        os.run_until(Instant::from_millis(1), &mut w);
        assert_eq!(w, 5);
    }

    #[test]
    fn trigger_overflow_reports_activation_limit() {
        let mut os: Os<u32> = Os::new();
        let isr = os.add_isr("rx", Duration::from_micros(10), |_: &mut u32, _| {});
        let mut w = 0u32;
        os.start(&mut w);
        for _ in 0..8 {
            os.trigger_isr(isr, &mut w).unwrap();
        }
        assert!(os.trigger_isr(isr, &mut w).is_err());
    }

    #[test]
    fn isr_outranks_every_task_priority() {
        let mut os: Os<Vec<&'static str>> = Os::new();
        let hi = os.add_task(
            TaskConfig::new("hi", Priority(254)),
            Script::new()
                .compute(ms(1))
                .effect(|w: &mut Vec<&'static str>, _| w.push("task")),
        );
        let isr = os.add_isr(
            "rx",
            Duration::from_micros(10),
            |w: &mut Vec<&'static str>, _| w.push("isr"),
        );
        let mut w = Vec::new();
        os.start(&mut w);
        os.activate_task(hi, &mut w).unwrap();
        os.trigger_isr(isr, &mut w).unwrap();
        os.run_until(Instant::from_millis(5), &mut w);
        assert_eq!(w, vec!["isr", "task"]);
    }

    #[test]
    fn a_handler_runs_to_completion_before_a_later_isr_or_a_task() {
        // `a`'s handler readies a priority-254 task; `b` is triggered
        // halfway through `a`. Neither may cut into `a`, and the task waits
        // for both ISRs.
        type W = Vec<String>;
        let log = |name: &'static str| {
            move |w: &mut W, ctx: &mut EffectCtx<'_, W>| {
                w.push(format!("{name}@{}", ctx.now().as_micros()))
            }
        };
        let mut os: Os<W> = Os::new();
        let task = os.add_task(
            TaskConfig::new("task", Priority(254)),
            Script::new()
                .compute(Duration::from_micros(10))
                .effect(log("task")),
        );
        let a = os.add_isr(
            "a",
            Duration::from_micros(100),
            move |w: &mut W, ctx: &mut EffectCtx<'_, W>| {
                log("a")(w, ctx);
                ctx.activate_task(task, w).unwrap();
            },
        );
        let b = os.add_isr("b", Duration::from_micros(100), log("b"));
        let mut w = W::new();
        os.start(&mut w);
        os.trigger_isr(a, &mut w).unwrap();
        os.run_until(Instant::from_micros(50), &mut w);
        os.trigger_isr(b, &mut w).unwrap();
        os.run_until(Instant::from_millis(1), &mut w);
        assert_eq!(w, ["a@100", "b@200", "task@210"]);
        assert_eq!(os.trace().count_kind("preempt"), 0);
    }
}
