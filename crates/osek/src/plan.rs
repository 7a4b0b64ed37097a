//! Task bodies and execution plans.
//!
//! A task body does not run as native code; when the task is dispatched it
//! *plans* a sequence of [`Step`]s which the kernel then executes under
//! preemptive scheduling. `Compute` steps consume simulated CPU time and can
//! be preempted mid-step; all other steps are instantaneous at the simulated
//! time at which execution reaches them. This mirrors the paper's
//! model-based runnables: function-call subsystems triggered in a defined
//! sequence with auto-generated glue code (heartbeat indications) in between.
//!
//! # Retained plans, replayed by cursor
//!
//! The kernel keeps one [`Plan`] per task for the life of the OS and reads
//! it by cursor: a step is plain data, copied out of its slot when it runs,
//! and a preempted compute step's remainder is held beside the cursor. A
//! body whose plan is a function of one value names that value as its
//! [`TaskBody::plan_key`]. At an activation's first dispatch the kernel
//! rewinds the retained plan when the key equals the one the plan was built
//! under, and otherwise clears it and calls [`TaskBody::plan_into`]. The
//! default key, `None`, plans every activation. Either way an activation
//! runs the plan it was dispatched with: a world change while it runs
//! reaches the next activation, not this one.
//!
//! Bodies are generic over a *world* type `W` — the shared state of the ECU
//! (signal database, dependability services). Effects receive `&mut W` plus
//! an [`EffectCtx`] through which they call OS services
//! ([`EffectCtx::activate_task`], [`EffectCtx::set_event`],
//! [`EffectCtx::cancel_alarm`]). The context borrows the kernel's scheduler
//! core, so each call executes directly and synchronously on it.

use crate::alarm::AlarmId;
use crate::error::OsError;
use crate::kernel::Core;
use crate::task::{EventMask, TaskId, TaskState};
use easis_sim::time::{Duration, Instant};
use std::fmt;

/// Resource identifier (index into the OS resource table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResourceId(pub u32);

impl fmt::Display for ResourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// An instantaneous side effect executed by a task at the current simulated
/// time. Receives the shared world and an [`EffectCtx`] for OS services.
pub type Effect<W> = Box<dyn FnMut(&mut W, &mut EffectCtx<'_, W>) + Send>;

/// One step of a task's execution plan: 16 bytes of plain data, which the
/// kernel copies out of the plan when it runs the step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Consume simulated CPU time. Preemption can occur inside this step.
    Compute(Duration),
    /// Run the boxed closure at this index of the plan's own closure table
    /// ([`Plan::effect`], [`Plan::push_effect`]). The kernel takes the
    /// closure out of the table to run it, so it runs once.
    Effect(u32),
    /// Run a body-owned effect identified by an opaque token: the kernel
    /// hands the token back to [`TaskBody::run_effect`] on the same body
    /// that planned it. This is the allocation-free alternative to
    /// [`Step::Effect`] — no closure is boxed per activation; the body keeps
    /// its state and dispatches on the token.
    EffectRef(u32),
    /// `ActivateTask` system service.
    ActivateTask(TaskId),
    /// `SetEvent` system service (target must be an extended task).
    SetEvent(TaskId, EventMask),
    /// `WaitEvent` system service — blocks until one of the events is set.
    /// Only valid in extended tasks.
    WaitEvent(EventMask),
    /// `ClearEvent` system service.
    ClearEvent(EventMask),
    /// `GetResource` — occupy a resource (priority-ceiling protocol).
    GetResource(ResourceId),
    /// `ReleaseResource` — release the most recently taken resource.
    ReleaseResource(ResourceId),
    /// `ChainTask` — terminate and immediately activate another task.
    ChainTask(TaskId),
    /// `Schedule` — explicit scheduling point: a non-preemptable task
    /// voluntarily yields to any higher-priority ready task (no-op for
    /// preemptable tasks, which reschedule continuously anyway).
    Schedule,
}

/// The boxed closures of a plan's [`Step::Effect`] steps, by index; the
/// kernel takes each one out when its step runs.
///
/// A closure cannot be duplicated, so cloning a table that still holds
/// one panics: a plan with a closure still to run cannot be captured in a
/// kernel checkpoint (`OsState`). Arena bodies plan [`Step::EffectRef`]
/// tokens instead, which capture fine — the campaign node stack is
/// EffectRef-only by construction.
struct Closures<W>(Vec<Option<Effect<W>>>);

impl<W> Closures<W> {
    /// Whether a closure is still to run.
    fn holds_any(&self) -> bool {
        self.0.iter().any(Option::is_some)
    }
}

impl<W> Clone for Closures<W> {
    fn clone(&self) -> Self {
        let mut table = Closures(Vec::new());
        table.clone_from(self);
        table
    }

    fn clone_from(&mut self, source: &Self) {
        assert!(
            !source.holds_any(),
            "Step::Effect (boxed closure) cannot be snapshotted; \
             plan EffectRef tokens for snapshot/restore support"
        );
        self.0.clear();
    }
}

easis_sim::clone_fields! {
    /// What a task executes for one activation: an ordered sequence of
    /// steps, read by a cursor.
    ///
    /// The kernel retains one plan per task and never shrinks it, so a
    /// body that fills it in place allocates nothing once it has grown to
    /// the task's plan length, and a plan built under the body's current
    /// [`TaskBody::plan_key`] is rewound and replayed instead of built
    /// again. `clone_from` rewrites the destination's buffers in place.
    pub struct Plan<W> {
        steps: Vec<Step>,
        /// Index of the next step to run.
        cursor: usize,
        /// What is left of a preempted compute step; it runs before the
        /// step at the cursor.
        remainder: Option<Duration>,
        /// The plan key the steps were built under; `None` plans the next
        /// activation afresh.
        key: Option<u64>,
        closures: Closures<W>,
    }
}

/// What is left to run: the held remainder and the steps from the cursor
/// on. The steps already run and the plan key decide nothing the plan
/// still does, so they are left out, and two kernels in the same schedule
/// compare equal however they got there. A closure has no comparable
/// content, so a plan that still holds one equals nothing.
impl<W> PartialEq for Plan<W> {
    fn eq(&self, other: &Self) -> bool {
        self.remainder == other.remainder
            && self.steps() == other.steps()
            && !self.closures.holds_any()
            && !other.closures.holds_any()
    }
}

impl<W> fmt::Debug for Plan<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Plan")
            .field("remainder", &self.remainder)
            .field("steps", &self.steps())
            .finish()
    }
}

impl<W> Default for Plan<W> {
    fn default() -> Self {
        Plan {
            steps: Vec::new(),
            cursor: 0,
            remainder: None,
            key: None,
            closures: Closures(Vec::new()),
        }
    }
}

impl<W> Plan<W> {
    /// Creates an empty plan (the task terminates immediately).
    pub fn new() -> Self {
        Plan::default()
    }

    /// Appends a compute step.
    pub fn compute(mut self, d: Duration) -> Self {
        self.push_compute(d);
        self
    }

    /// Appends an instantaneous effect.
    pub fn effect(mut self, f: impl FnMut(&mut W, &mut EffectCtx<'_, W>) + Send + 'static) -> Self {
        self.push_effect(f);
        self
    }

    /// Appends an arbitrary step.
    pub fn step(mut self, s: Step) -> Self {
        self.steps.push(s);
        self
    }

    /// The steps still to run, from the cursor on (a held compute
    /// remainder runs before them).
    pub fn steps(&self) -> &[Step] {
        &self.steps[self.cursor..]
    }

    /// Appends a compute step in place.
    pub fn push_compute(&mut self, d: Duration) {
        self.steps.push(Step::Compute(d));
    }

    /// Appends a boxed effect in place (allocates the box; arena bodies
    /// should prefer [`Plan::push_effect_ref`]).
    pub fn push_effect(&mut self, f: impl FnMut(&mut W, &mut EffectCtx<'_, W>) + Send + 'static) {
        let index = self.closures.0.len() as u32;
        self.closures.0.push(Some(Box::new(f)));
        self.steps.push(Step::Effect(index));
    }

    /// Appends a body-owned effect reference in place — the allocation-free
    /// counterpart of [`Plan::push_effect`].
    pub fn push_effect_ref(&mut self, token: u32) {
        self.steps.push(Step::EffectRef(token));
    }

    // ------------------------------------------------------------------
    // The kernel's side: build, replay and read by cursor
    // ------------------------------------------------------------------

    /// Empties the plan for a body to fill, keeping its capacity.
    pub(crate) fn clear(&mut self) {
        self.steps.clear();
        self.cursor = 0;
        self.remainder = None;
        self.key = None;
        self.closures.0.clear();
    }

    /// The plan key the steps were built under.
    pub(crate) fn key(&self) -> Option<u64> {
        self.key
    }

    /// Records the key a body has just planned under. A plan with closures
    /// keeps none: they run once, so it cannot be replayed.
    pub(crate) fn seal(&mut self, key: Option<u64>) {
        self.key = key.filter(|_| self.closures.0.is_empty());
    }

    /// Moves the cursor back to the first step, for a replay.
    pub(crate) fn rewind(&mut self) {
        self.cursor = 0;
        self.remainder = None;
    }

    /// Moves the cursor past the last step (the task terminated) and drops
    /// any closure left unrun; the steps stay for a replay.
    pub(crate) fn finish(&mut self) {
        self.cursor = self.steps.len();
        self.remainder = None;
        self.closures.0.clear();
    }

    /// The next step to run: a held remainder first, then the step at the
    /// cursor, which moves on.
    pub(crate) fn next_step(&mut self) -> Option<Step> {
        if let Some(d) = self.remainder.take() {
            return Some(Step::Compute(d));
        }
        let step = *self.steps.get(self.cursor)?;
        self.cursor += 1;
        Some(step)
    }

    /// Holds what is left of a preempted compute step, to run next.
    pub(crate) fn hold(&mut self, remainder: Duration) {
        self.remainder = Some(remainder);
    }

    /// Takes the closure of [`Step::Effect`]`(index)` out of the table.
    ///
    /// # Panics
    ///
    /// Panics if no closure was planned at `index` or it has run already.
    pub(crate) fn take_closure(&mut self, index: u32) -> Effect<W> {
        self.closures
            .0
            .get_mut(index as usize)
            .and_then(Option::take)
            .expect("a Step::Effect runs the closure planned at its index, once")
    }
}

/// A task body: asked at an activation's first dispatch for that
/// activation's execution plan.
///
/// Arena-backed bodies implement [`TaskBody::plan_into`] to fill the
/// kernel-owned, capacity-retained plan in place, plan
/// [`Step::EffectRef`] tokens that dispatch back into
/// [`TaskBody::run_effect`], and name a [`TaskBody::plan_key`] so the
/// kernel replays the plan until the key changes — zero heap allocation and
/// no planning per activation. Plain closures returning a [`Plan`] still
/// work through the blanket impl and are planned at every activation
/// (their allocations are fine outside the campaign hot path).
pub trait TaskBody<W>: Send {
    /// Fills `out` with the steps for one activation starting at `now`.
    /// `out` arrives empty but with the capacity retained from earlier
    /// activations of this task.
    ///
    /// The body may inspect (but not mutate) the world when deciding the
    /// plan; mutations belong in effect steps so they happen at the right
    /// simulated time.
    fn plan_into(&mut self, now: Instant, world: &W, out: &mut Plan<W>);

    /// The value this body's plan is a function of, if there is one. At an
    /// activation's first dispatch the kernel replays the task's retained
    /// plan when this key equals the one the plan was built under, and
    /// calls [`TaskBody::plan_into`] otherwise. A body that returns `Some`
    /// promises that equal keys plan equal steps, at any activation time.
    /// Debug builds check every replay against a fresh plan, so a keyed
    /// body's `plan_into` must change nothing but `out`. A plan holding
    /// closures is never replayed. The default, `None`, plans every
    /// activation.
    fn plan_key(&self, world: &W) -> Option<u64> {
        let _ = world;
        None
    }

    /// Executes the effect identified by `token` (planned as
    /// [`Step::EffectRef`]). The kernel invokes this **in place** on the
    /// body it stores (no move out/back per effect) with an [`EffectCtx`]
    /// through which OS services execute directly. The default
    /// implementation panics: a body that plans effect references must
    /// override this.
    fn run_effect(&mut self, token: u32, world: &mut W, ctx: &mut EffectCtx<'_, W>) {
        let _ = (world, ctx);
        panic!(
            "task body `{}` planned Step::EffectRef({token}) without implementing run_effect",
            self.name()
        );
    }

    /// Name used in traces; defaults to `"task"`.
    fn name(&self) -> &str {
        "task"
    }
}

/// Blanket impl so plain closures can serve as task bodies.
impl<W, F> TaskBody<W> for F
where
    F: FnMut(Instant, &W) -> Plan<W> + Send,
{
    fn plan_into(&mut self, now: Instant, world: &W, out: &mut Plan<W>) {
        *out = self(now, world);
    }
}

/// Context handed to [`Effect`]s and [`TaskBody::run_effect`]: the current
/// time, the executing task, the kernel trace and the OS services.
///
/// Only the kernel builds one, when it runs a [`Step::Effect`] or a
/// [`Step::EffectRef`]. The context borrows the kernel's scheduler core
/// while the effect's body is borrowed apart from it, so
/// [`EffectCtx::activate_task`], [`EffectCtx::set_event`] and
/// [`EffectCtx::cancel_alarm`] execute directly and synchronously, with
/// the kernel's own semantics and errors.
pub struct EffectCtx<'a, W> {
    task: TaskId,
    core: &'a mut Core<W>,
}

impl<'a, W> EffectCtx<'a, W> {
    /// Lends the scheduler core to an effect of `task`.
    pub(crate) fn new(task: TaskId, core: &'a mut Core<W>) -> Self {
        EffectCtx { task, core }
    }

    /// Current simulated time.
    pub fn now(&self) -> Instant {
        self.core.now()
    }

    /// The task executing this effect.
    pub fn task(&self) -> TaskId {
        self.task
    }

    /// Records a trace event at the current time. With the kernel's trace
    /// off, as on campaign nodes, where every runnable execution calls
    /// this, it returns before the generic recorder is called.
    pub fn trace(&mut self, source: &str, kind: &str, detail: impl Into<String>) {
        let now = self.core.now();
        let trace = self.core.trace_mut();
        if trace.is_enabled() {
            trace.record(now, source, kind, detail);
        }
    }

    /// Whether trace records are retained. Effects that format an
    /// expensive detail string should skip the formatting when this is
    /// `false` (a disabled recorder drops the record, but only after the
    /// caller already paid for the string).
    pub fn trace_enabled(&self) -> bool {
        self.core.trace().is_enabled()
    }

    /// `ActivateTask`, executed synchronously on the kernel.
    ///
    /// # Errors
    ///
    /// Propagates the kernel's activation errors (unknown id, activation
    /// queue full).
    pub fn activate_task(&mut self, task: TaskId, world: &mut W) -> Result<(), OsError> {
        self.core.activate_task(task, world)
    }

    /// `SetEvent`, executed synchronously on the kernel.
    ///
    /// # Errors
    ///
    /// Propagates the kernel's event errors (unknown id, basic task,
    /// suspended task).
    pub fn set_event(
        &mut self,
        task: TaskId,
        mask: EventMask,
        world: &mut W,
    ) -> Result<(), OsError> {
        self.core.set_event(task, mask, world)
    }

    /// `CancelAlarm` on the alarm with the given raw id, executed
    /// synchronously on the kernel (fault treatment stops a terminated
    /// application's activation source this way).
    ///
    /// # Errors
    ///
    /// Propagates the kernel's alarm errors (unknown id, not armed).
    pub fn cancel_alarm(&mut self, raw_alarm_id: u32) -> Result<(), OsError> {
        self.core.cancel_alarm(AlarmId(raw_alarm_id))
    }

    /// State of a task (for effects that branch on readiness).
    ///
    /// # Errors
    ///
    /// [`OsError::InvalidId`] for an unknown id.
    pub fn task_state(&self, task: TaskId) -> Result<TaskState, OsError> {
        self.core.task_state(task)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Os;
    use crate::task::{Priority, TaskConfig};
    use easis_sim::time::Duration;

    type W = u32;

    fn us(n: u64) -> Duration {
        Duration::from_micros(n)
    }

    #[test]
    fn a_step_is_sixteen_bytes_of_plain_data() {
        assert_eq!(std::mem::size_of::<Step>(), 16);
        let s = Step::SetEvent(TaskId(3), EventMask::bit(1));
        let copy = s;
        assert_eq!(s, copy);
        assert_eq!(format!("{:?}", Step::EffectRef(7)), "EffectRef(7)");
    }

    #[test]
    fn plan_builder_orders_steps() {
        let p: Plan<W> = Plan::new()
            .compute(us(5))
            .effect(|w, _| *w += 1)
            .step(Step::ActivateTask(TaskId(1)))
            .effect(|w, _| *w += 2);
        assert_eq!(
            p.steps(),
            [
                Step::Compute(us(5)),
                Step::Effect(0),
                Step::ActivateTask(TaskId(1)),
                Step::Effect(1)
            ]
        );
    }

    #[test]
    fn the_cursor_runs_a_held_remainder_first() {
        let mut p: Plan<W> = Plan::new().compute(us(10)).step(Step::Schedule);
        assert_eq!(p.next_step(), Some(Step::Compute(us(10))));
        p.hold(us(4));
        assert_eq!(
            format!("{p:?}"),
            "Plan { remainder: Some(Duration(4)), steps: [Schedule] }"
        );
        assert_eq!(p.next_step(), Some(Step::Compute(us(4))));
        assert_eq!(p.next_step(), Some(Step::Schedule));
        assert_eq!(p.next_step(), None);
    }

    #[test]
    fn plans_compare_what_is_left_to_run() {
        let mut replayed: Plan<W> = Plan::new().compute(us(3)).step(Step::Schedule);
        replayed.seal(Some(7));
        assert_eq!(replayed.next_step(), Some(Step::Compute(us(3))));
        // Built differently, keyed differently, same rest.
        let fresh: Plan<W> = Plan::new().step(Step::Schedule);
        assert_eq!(replayed, fresh);
        replayed.hold(us(1));
        assert_ne!(replayed, fresh, "a held remainder is still to run");
        replayed.finish();
        assert_eq!(replayed, Plan::new());
        // The steps stay for a replay, under their key.
        replayed.rewind();
        assert_eq!(replayed.key(), Some(7));
        assert_eq!(replayed.steps(), [Step::Compute(us(3)), Step::Schedule]);
    }

    #[test]
    fn a_plan_with_closures_keeps_no_key_and_equals_nothing() {
        let mut p: Plan<W> = Plan::new().effect(|_, _| {}).compute(us(1));
        p.seal(Some(1));
        assert_eq!(p.key(), None, "its closures run once: no replay");
        let same: Plan<W> = Plan::new().effect(|_, _| {}).compute(us(1));
        assert_ne!(p, same);
        // Run the closure: what is left compares and clones again.
        assert_eq!(p.next_step(), Some(Step::Effect(0)));
        let _closure = p.take_closure(0);
        assert_eq!(p, Plan::new().compute(us(1)));
        assert_eq!(p.clone(), p);
    }

    #[test]
    fn clear_retains_capacity() {
        let mut p: Plan<W> = Plan::new();
        for _ in 0..16 {
            p.push_compute(us(1));
        }
        p.seal(Some(1));
        let cap = p.steps.capacity();
        p.clear();
        assert_eq!(p, Plan::new());
        assert_eq!(p.key(), None);
        assert_eq!(p.steps.capacity(), cap);
    }

    #[test]
    fn closure_acts_as_task_body() {
        // The blanket impl hands the closure the activation time and the
        // world it plans against.
        let mut body =
            |now: Instant, w: &W| Plan::<W>::new().compute(us(now.as_micros() + u64::from(*w)));
        let mut plan = Plan::new();
        body.plan_into(Instant::from_micros(5), &2, &mut plan);
        assert_eq!(plan.steps(), [Step::Compute(us(7))]);
        assert_eq!(
            TaskBody::plan_key(&body, &2),
            None,
            "closures plan every activation"
        );
    }

    #[test]
    fn restoring_plans_rewrites_them_in_place() {
        let mut plans: Vec<Plan<W>> = vec![Plan::new(), Plan::new()];
        plans[0].push_compute(us(7));
        plans[0].push_effect_ref(3);
        plans[0].seal(Some(2));
        assert_eq!(plans[0].next_step(), Some(Step::Compute(us(7))));
        let snap = plans.clone();
        plans[0].finish();
        let fill = |plans: &mut Vec<Plan<W>>| {
            for _ in 0..16 {
                plans[1].push_effect_ref(0);
            }
        };
        fill(&mut plans);
        let total_capacity =
            |plans: &[Plan<W>]| -> usize { plans.iter().map(|p| p.steps.capacity()).sum() };
        let cap = total_capacity(&plans);
        plans.clone_from(&snap);
        assert_eq!(plans, snap, "restored plans equal their capture");
        assert_eq!(plans[0].next_step(), Some(Step::EffectRef(3)));
        assert_eq!(
            plans[0].key(),
            Some(2),
            "the restored plan replays under its key"
        );
        assert!(
            plans[1].steps().is_empty(),
            "restore clears divergent plans"
        );
        // Every plan keeps its capacity, so refilling to the same length
        // grows nothing.
        assert_eq!(total_capacity(&plans), cap, "restore must not shrink plans");
        fill(&mut plans);
        assert_eq!(total_capacity(&plans), cap);
    }

    #[test]
    #[should_panic(expected = "cannot be snapshotted")]
    fn capturing_a_plan_with_a_closure_left_panics() {
        let mut p: Plan<W> = Plan::new();
        p.push_effect(|_, _| {});
        let _ = p.clone();
    }

    #[test]
    #[should_panic(expected = "without implementing run_effect")]
    fn default_run_effect_rejects_unclaimed_tokens() {
        struct NoEffects;
        impl TaskBody<W> for NoEffects {
            fn plan_into(&mut self, _now: Instant, _world: &W, out: &mut Plan<W>) {
                out.push_effect_ref(9);
            }
        }
        let mut os: Os<W> = Os::new();
        let t = os.add_task(TaskConfig::new("t", Priority(1)), NoEffects);
        let mut w: W = 0;
        os.start(&mut w);
        os.activate_task(t, &mut w).unwrap();
        os.run_until(Instant::from_micros(1), &mut w);
    }
}
