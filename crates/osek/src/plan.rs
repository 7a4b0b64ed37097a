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
use std::collections::VecDeque;
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

/// One step of a task's execution plan.
pub enum Step<W> {
    /// Consume simulated CPU time. Preemption can occur inside this step.
    Compute(Duration),
    /// Run an instantaneous effect (signal I/O, heartbeat indication, …).
    Effect(Effect<W>),
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

/// Duplicates a step for a kernel checkpoint (`OsState`).
///
/// # Panics
///
/// Panics on [`Step::Effect`]: a boxed closure cannot be duplicated, so
/// plans containing one cannot be captured. Arena-backed bodies plan
/// [`Step::EffectRef`] tokens instead, which capture fine — the campaign
/// node stack is EffectRef-only by construction.
impl<W> Clone for Step<W> {
    fn clone(&self) -> Self {
        match *self {
            Step::Compute(d) => Step::Compute(d),
            Step::Effect(_) => panic!(
                "Step::Effect (boxed closure) cannot be snapshotted; \
                 plan EffectRef tokens for snapshot/restore support"
            ),
            Step::EffectRef(tok) => Step::EffectRef(tok),
            Step::ActivateTask(t) => Step::ActivateTask(t),
            Step::SetEvent(t, m) => Step::SetEvent(t, m),
            Step::WaitEvent(m) => Step::WaitEvent(m),
            Step::ClearEvent(m) => Step::ClearEvent(m),
            Step::GetResource(r) => Step::GetResource(r),
            Step::ReleaseResource(r) => Step::ReleaseResource(r),
            Step::ChainTask(t) => Step::ChainTask(t),
            Step::Schedule => Step::Schedule,
        }
    }
}

/// Step-for-step equality, what the macro-stepping certification compares
/// across hyperperiod samples. A boxed [`Step::Effect`] equals nothing: a
/// closure has no comparable content.
impl<W> PartialEq for Step<W> {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Step::Compute(a), Step::Compute(b)) => a == b,
            (Step::EffectRef(a), Step::EffectRef(b)) => a == b,
            (Step::ActivateTask(a), Step::ActivateTask(b))
            | (Step::ChainTask(a), Step::ChainTask(b)) => a == b,
            (Step::SetEvent(a, x), Step::SetEvent(b, y)) => a == b && x == y,
            (Step::WaitEvent(x), Step::WaitEvent(y))
            | (Step::ClearEvent(x), Step::ClearEvent(y)) => x == y,
            (Step::GetResource(a), Step::GetResource(b))
            | (Step::ReleaseResource(a), Step::ReleaseResource(b)) => a == b,
            (Step::Schedule, Step::Schedule) => true,
            _ => false,
        }
    }
}

impl<W> fmt::Debug for Step<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Step::Compute(d) => write!(f, "Compute({d})"),
            Step::Effect(_) => write!(f, "Effect(..)"),
            Step::EffectRef(tok) => write!(f, "EffectRef({tok})"),
            Step::ActivateTask(t) => write!(f, "ActivateTask({t})"),
            Step::SetEvent(t, m) => write!(f, "SetEvent({t}, {m})"),
            Step::WaitEvent(m) => write!(f, "WaitEvent({m})"),
            Step::ClearEvent(m) => write!(f, "ClearEvent({m})"),
            Step::GetResource(r) => write!(f, "GetResource({r})"),
            Step::ReleaseResource(r) => write!(f, "ReleaseResource({r})"),
            Step::ChainTask(t) => write!(f, "ChainTask({t})"),
            Step::Schedule => write!(f, "Schedule"),
        }
    }
}

easis_sim::clone_fields! {
    /// An ordered sequence of steps; what a task executes for one
    /// activation. `clone_from` refills the destination's step buffer.
    pub struct Plan<W> {
        steps: VecDeque<Step<W>>,
    }
}

impl<W> PartialEq for Plan<W> {
    fn eq(&self, other: &Self) -> bool {
        self.steps == other.steps
    }
}

impl<W> fmt::Debug for Plan<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Plan").field("steps", &self.steps).finish()
    }
}

impl<W> Default for Plan<W> {
    fn default() -> Self {
        Plan {
            steps: VecDeque::new(),
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
        self.steps.push_back(Step::Compute(d));
        self
    }

    /// Appends an instantaneous effect.
    pub fn effect(mut self, f: impl FnMut(&mut W, &mut EffectCtx<'_, W>) + Send + 'static) -> Self {
        self.steps.push_back(Step::Effect(Box::new(f)));
        self
    }

    /// Appends an arbitrary step.
    pub fn step(mut self, s: Step<W>) -> Self {
        self.steps.push_back(s);
        self
    }

    /// Appends all steps of `other`.
    pub fn extend(mut self, other: Plan<W>) -> Self {
        self.steps.extend(other.steps);
        self
    }

    /// Number of remaining steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` if no steps remain.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Removes and returns the next step.
    pub fn pop(&mut self) -> Option<Step<W>> {
        self.steps.pop_front()
    }

    /// Puts a step back at the front (used when a `Compute` is preempted
    /// with remaining work).
    pub fn push_front(&mut self, s: Step<W>) {
        self.steps.push_front(s);
    }

    // ------------------------------------------------------------------
    // In-place mutation API (arena-backed bodies fill a retained buffer
    // instead of building a fresh plan per activation)
    // ------------------------------------------------------------------

    /// Removes all steps, retaining the allocated capacity. This is what
    /// makes a [`PlanArena`] slot reusable: after the first few activations
    /// the buffer has grown to the task's steady-state plan length and
    /// re-planning allocates nothing.
    pub fn clear(&mut self) {
        self.steps.clear();
    }

    /// Number of steps the plan can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.steps.capacity()
    }

    /// Appends a compute step in place.
    pub fn push_compute(&mut self, d: Duration) {
        self.steps.push_back(Step::Compute(d));
    }

    /// Appends a boxed effect in place (allocates the box; arena bodies
    /// should prefer [`Plan::push_effect_ref`]).
    pub fn push_effect(&mut self, f: impl FnMut(&mut W, &mut EffectCtx<'_, W>) + Send + 'static) {
        self.steps.push_back(Step::Effect(Box::new(f)));
    }

    /// Appends a body-owned effect reference in place — the allocation-free
    /// counterpart of [`Plan::push_effect`].
    pub fn push_effect_ref(&mut self, token: u32) {
        self.steps.push_back(Step::EffectRef(token));
    }

    /// Appends an arbitrary step in place.
    pub fn push_back(&mut self, s: Step<W>) {
        self.steps.push_back(s);
    }

    /// Moves all steps of `other` to the back of `self`, leaving `other`
    /// empty (with its capacity intact).
    pub fn append(&mut self, other: &mut Plan<W>) {
        self.steps.append(&mut other.steps);
    }
}

easis_sim::clone_fields! {
    /// Per-task, capacity-retained plan storage.
    ///
    /// The kernel owns one arena with a slot per declared task. At each
    /// first dispatch of an activation the slot is cleared (capacity kept)
    /// and the task body fills it in place via [`TaskBody::plan_into`].
    /// Once a slot has grown to the task's steady-state plan length,
    /// re-planning performs no heap allocation at all — the campaign hot
    /// path relies on this to run alloc-free trials. The arena is part of
    /// the kernel's checkpoint: `clone_from` rewrites every slot but keeps
    /// its capacity, so a rewound node replays trials without re-growing
    /// the buffers. Equality is slot-for-slot step equality.
    pub struct PlanArena<W> {
        slots: Vec<Plan<W>>,
    }
}

impl<W> PartialEq for PlanArena<W> {
    fn eq(&self, other: &Self) -> bool {
        self.slots == other.slots
    }
}

impl<W> fmt::Debug for PlanArena<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(&self.slots).finish()
    }
}

impl<W> Default for PlanArena<W> {
    fn default() -> Self {
        PlanArena { slots: Vec::new() }
    }
}

impl<W> PlanArena<W> {
    /// Creates an empty arena.
    pub fn new() -> Self {
        PlanArena::default()
    }

    /// Ensures at least `n` slots exist (one per task id).
    pub fn grow_to(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots.resize_with(n, Plan::new);
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` if the arena has no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Mutable access to a task's slot.
    ///
    /// # Panics
    ///
    /// Panics if `idx` was never grown to (kernel bug).
    pub fn slot_mut(&mut self, idx: usize) -> &mut Plan<W> {
        &mut self.slots[idx]
    }
}

impl<W> FromIterator<Step<W>> for Plan<W> {
    fn from_iter<I: IntoIterator<Item = Step<W>>>(iter: I) -> Self {
        Plan {
            steps: iter.into_iter().collect(),
        }
    }
}

/// A task body: invoked once per activation to produce that activation's
/// execution plan.
///
/// Arena-backed bodies implement [`TaskBody::plan_into`] to fill the
/// kernel-owned, capacity-retained buffer in place and plan
/// [`Step::EffectRef`] tokens that dispatch back into
/// [`TaskBody::run_effect`] — zero heap allocation per activation. Plain
/// closures returning a [`Plan`] still work through the blanket impl (their
/// steps are moved into the arena buffer; the closure's own allocations
/// remain, which is fine outside the campaign hot path).
pub trait TaskBody<W>: Send {
    /// Fills `out` with the steps for one activation starting at `now`.
    /// `out` arrives empty but with the capacity retained from earlier
    /// activations of this task.
    ///
    /// The body may inspect (but not mutate) the world when deciding the
    /// plan; mutations belong in effect steps so they happen at the right
    /// simulated time.
    fn plan_into(&mut self, now: Instant, world: &W, out: &mut Plan<W>);

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
        out.append(&mut self(now, world));
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

    #[test]
    fn plan_builder_orders_steps() {
        let mut p: Plan<W> = Plan::new()
            .compute(Duration::from_micros(5))
            .effect(|w, _| *w += 1)
            .step(Step::ActivateTask(TaskId(1)));
        assert_eq!(p.len(), 3);
        assert!(matches!(p.pop(), Some(Step::Compute(_))));
        assert!(matches!(p.pop(), Some(Step::Effect(_))));
        assert!(matches!(p.pop(), Some(Step::ActivateTask(TaskId(1)))));
        assert!(p.pop().is_none());
    }

    #[test]
    fn push_front_resumes_preempted_compute() {
        let mut p: Plan<W> = Plan::new().compute(Duration::from_micros(10));
        let _ = p.pop();
        p.push_front(Step::Compute(Duration::from_micros(4)));
        match p.pop() {
            Some(Step::Compute(d)) => assert_eq!(d, Duration::from_micros(4)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn closure_acts_as_task_body() {
        // The blanket impl hands the closure the activation time and the
        // world it plans against.
        let mut body = |now: Instant, w: &W| {
            Plan::<W>::new().compute(Duration::from_micros(now.as_micros() + u64::from(*w)))
        };
        let mut plan = Plan::new();
        body.plan_into(Instant::from_micros(5), &2, &mut plan);
        assert_eq!(plan.len(), 1);
        assert!(matches!(plan.pop(), Some(Step::Compute(d)) if d == Duration::from_micros(7)));
    }

    #[test]
    fn plan_from_iterator() {
        let p: Plan<W> = vec![
            Step::Compute(Duration::from_micros(1)),
            Step::WaitEvent(EventMask::bit(0)),
        ]
        .into_iter()
        .collect();
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn debug_formatting_is_informative() {
        let s: Step<W> = Step::Compute(Duration::from_millis(2));
        assert_eq!(format!("{s:?}"), "Compute(2ms)");
        let e: Step<W> = Step::Effect(Box::new(|_, _| {}));
        assert_eq!(format!("{e:?}"), "Effect(..)");
        let r: Step<W> = Step::EffectRef(7);
        assert_eq!(format!("{r:?}"), "EffectRef(7)");
    }

    #[test]
    fn clear_retains_capacity() {
        let mut p: Plan<W> = Plan::new();
        for _ in 0..16 {
            p.push_compute(Duration::from_micros(1));
        }
        let cap = p.capacity();
        assert!(cap >= 16);
        p.clear();
        assert!(p.is_empty());
        assert_eq!(p.capacity(), cap);
    }

    #[test]
    fn append_moves_steps_and_keeps_source_capacity() {
        let mut a: Plan<W> = Plan::new();
        let mut b: Plan<W> = Plan::new().compute(Duration::from_micros(1)).step(Step::Schedule);
        let cap_b = b.capacity();
        a.append(&mut b);
        assert_eq!(a.len(), 2);
        assert!(b.is_empty());
        assert_eq!(b.capacity(), cap_b);
    }

    #[test]
    fn arena_empty_plan_slot_is_valid() {
        let mut arena: PlanArena<W> = PlanArena::new();
        arena.grow_to(2);
        assert_eq!(arena.len(), 2);
        // A body that plans nothing leaves the slot empty: the kernel
        // terminates the activation immediately. No step, no panic.
        assert!(arena.slot_mut(0).pop().is_none());
        assert!(arena.slot_mut(0).is_empty());
    }

    #[test]
    fn arena_snapshot_restores_in_flight_plans() {
        let mut arena: PlanArena<W> = PlanArena::new();
        arena.grow_to(2);
        arena.slot_mut(0).push_compute(Duration::from_micros(7));
        arena.slot_mut(0).push_effect_ref(3);
        let snap = arena.clone();
        arena.slot_mut(0).clear();
        let fill = |arena: &mut PlanArena<W>| {
            for _ in 0..16 {
                arena.slot_mut(1).push_back(Step::Schedule);
            }
        };
        fill(&mut arena);
        let total_capacity =
            |arena: &PlanArena<W>| -> usize { arena.slots.iter().map(Plan::capacity).sum() };
        let cap = total_capacity(&arena);
        arena.clone_from(&snap);
        assert!(arena == snap, "restored arena equals its capture");
        assert_eq!(arena.slot_mut(0).len(), 2);
        assert!(matches!(arena.slot_mut(0).pop(), Some(Step::Compute(d)) if d == Duration::from_micros(7)));
        assert!(matches!(arena.slot_mut(0).pop(), Some(Step::EffectRef(3))));
        assert!(arena.slot_mut(1).is_empty(), "restore clears divergent slots");
        // Every slot keeps its capacity, so refilling to the same length
        // grows nothing.
        assert_eq!(total_capacity(&arena), cap, "restore must not shrink slots");
        fill(&mut arena);
        assert_eq!(total_capacity(&arena), cap);
    }

    #[test]
    #[should_panic(expected = "cannot be snapshotted")]
    fn arena_snapshot_rejects_boxed_effects() {
        let mut arena: PlanArena<W> = PlanArena::new();
        arena.grow_to(1);
        arena.slot_mut(0).push_effect(|_, _| {});
        let _ = arena.clone();
    }

    #[test]
    fn arena_grow_to_is_monotone() {
        let mut arena: PlanArena<W> = PlanArena::new();
        assert!(arena.is_empty());
        arena.grow_to(4);
        arena.grow_to(2); // never shrinks
        assert_eq!(arena.len(), 4);
    }

    #[test]
    fn closure_body_plans_into_arena_buffer() {
        let mut body = |_now: Instant, _w: &W| Plan::<W>::new().compute(Duration::from_micros(3));
        let mut out: Plan<W> = Plan::new();
        TaskBody::plan_into(&mut body, Instant::ZERO, &0, &mut out);
        assert_eq!(out.len(), 1);
        assert!(matches!(out.pop(), Some(Step::Compute(_))));
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
