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
//! # Bodies own their effects
//!
//! Bodies are generic over a *world* type `W` — the shared state of the ECU
//! (signal database, dependability services). A body plans each effect as
//! a [`Step::EffectRef`] token, and the kernel hands the token back to
//! [`TaskBody::run_effect`] on the same body, in place, with `&mut W` and
//! an [`EffectCtx`] through which the effect calls OS services
//! ([`EffectCtx::activate_task`], [`EffectCtx::cancel_alarm`]). The
//! context borrows the kernel's scheduler core, so each call executes
//! directly and synchronously on it. A plan therefore holds nothing of the
//! world: it is plain data that the kernel checkpoint clones and compares.
//! [`Script`] is the body for a fixed sequence of steps whose effects are
//! closures.

use crate::alarm::AlarmId;
use crate::error::OsError;
use crate::kernel::Core;
use crate::task::{TaskId, TaskState};
use easis_sim::time::{Duration, Instant};
use std::fmt;

/// One step of a task's execution plan: 16 bytes of plain data, which the
/// kernel copies out of the plan when it runs the step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Consume simulated CPU time. Preemption can occur inside this step.
    Compute(Duration),
    /// Run a body-owned effect identified by an opaque token: the kernel
    /// hands the token back to [`TaskBody::run_effect`] on the same body
    /// that planned it. The body keeps its state and dispatches on the
    /// token.
    EffectRef(u32),
    /// `ActivateTask` system service.
    ActivateTask(TaskId),
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
    #[derive(Default)]
    pub struct Plan {
        steps: Vec<Step>,
        /// Index of the next step to run.
        cursor: usize,
        /// What is left of a preempted compute step; it runs before the
        /// step at the cursor.
        remainder: Option<Duration>,
        /// The plan key the steps were built under; `None` plans the next
        /// activation afresh.
        key: Option<u64>,
    }
}

/// What is left to run: the held remainder and the steps from the cursor
/// on. The steps already run and the plan key decide nothing the plan
/// still does, so they are left out, and two kernels in the same schedule
/// compare equal however they got there.
impl PartialEq for Plan {
    fn eq(&self, other: &Self) -> bool {
        self.remainder == other.remainder && self.steps() == other.steps()
    }
}

impl fmt::Debug for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Plan")
            .field("remainder", &self.remainder)
            .field("steps", &self.steps())
            .finish()
    }
}

impl Plan {
    /// The steps still to run, from the cursor on (a held compute
    /// remainder runs before them).
    pub fn steps(&self) -> &[Step] {
        &self.steps[self.cursor..]
    }

    /// Appends a step in place.
    pub fn push(&mut self, step: Step) {
        self.steps.push(step);
    }

    /// Appends a compute step in place.
    pub fn push_compute(&mut self, d: Duration) {
        self.push(Step::Compute(d));
    }

    /// Appends a body-owned effect reference in place.
    pub fn push_effect_ref(&mut self, token: u32) {
        self.push(Step::EffectRef(token));
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
    }

    /// The plan key the steps were built under.
    pub(crate) fn key(&self) -> Option<u64> {
        self.key
    }

    /// Records the key a body has just planned under.
    pub(crate) fn seal(&mut self, key: Option<u64>) {
        self.key = key;
    }

    /// Moves the cursor back to the first step, for a replay.
    pub(crate) fn rewind(&mut self) {
        self.cursor = 0;
        self.remainder = None;
    }

    /// Moves the cursor past the last step (the task terminated); the
    /// steps stay for a replay.
    pub(crate) fn finish(&mut self) {
        self.cursor = self.steps.len();
        self.remainder = None;
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
}

/// A task body: asked at an activation's first dispatch for that
/// activation's execution plan.
///
/// A body fills the kernel-owned, capacity-retained plan in place
/// ([`TaskBody::plan_into`]), plans [`Step::EffectRef`] tokens that
/// dispatch back into [`TaskBody::run_effect`], and names a
/// [`TaskBody::plan_key`] so the kernel replays the plan until the key
/// changes — zero heap allocation and no planning per activation.
pub trait TaskBody<W>: Send {
    /// Fills `out` with the steps for one activation. `out` arrives empty
    /// but with the capacity retained from earlier activations of this
    /// task.
    ///
    /// The body may inspect (but not mutate) the world when deciding the
    /// plan; mutations belong in effect steps so they happen at the right
    /// simulated time.
    fn plan_into(&mut self, world: &W, out: &mut Plan);

    /// The value this body's plan is a function of, if there is one. At an
    /// activation's first dispatch the kernel replays the task's retained
    /// plan when this key equals the one the plan was built under, and
    /// calls [`TaskBody::plan_into`] otherwise. A body that returns `Some`
    /// promises that equal keys plan equal steps. Debug builds check every
    /// replay against a fresh plan, so a keyed body's `plan_into` must
    /// change nothing but `out`. The default, `None`, plans every
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
        let _ = world;
        panic!(
            "task {} planned Step::EffectRef({token}) without implementing run_effect",
            ctx.task()
        );
    }
}

/// An effect closure a [`Script`] owns.
type Effect<W> = Box<dyn FnMut(&mut W, &mut EffectCtx<'_, W>) + Send>;

/// A task body that owns its effects: a fixed sequence of steps, built
/// once, whose effects are closures kept in the body. Each
/// [`Script::effect`] appends [`Step::EffectRef`] with the closure's index
/// and the body runs that closure when the kernel hands the token back.
/// The steps never change, so the plan key is constant: the kernel plans a
/// script once and replays it at every activation. An ISR's body
/// ([`Os::add_isr`](crate::kernel::Os::add_isr)) is a script.
///
/// # Examples
///
/// ```
/// use easis_osek::plan::{Script, Step};
/// use easis_osek::task::TaskId;
/// use easis_sim::time::Duration;
///
/// // 200 µs of CPU time, a counter bump, then a peer's activation.
/// let body: Script<u64> = Script::new()
///     .compute(Duration::from_micros(200))
///     .effect(|w, _ctx| *w += 1)
///     .step(Step::ActivateTask(TaskId(1)));
/// # let _ = body;
/// ```
pub struct Script<W> {
    steps: Vec<Step>,
    effects: Vec<Effect<W>>,
}

impl<W> Default for Script<W> {
    fn default() -> Self {
        Script {
            steps: Vec::new(),
            effects: Vec::new(),
        }
    }
}

impl<W> fmt::Debug for Script<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Script")
            .field("steps", &self.steps)
            .finish()
    }
}

impl<W> Script<W> {
    /// An empty script (the task terminates immediately).
    pub fn new() -> Self {
        Script::default()
    }

    /// Appends a compute step.
    pub fn compute(self, d: Duration) -> Self {
        self.step(Step::Compute(d))
    }

    /// Appends an instantaneous effect: `f` runs on the world at the
    /// simulated time execution reaches it, at every activation.
    pub fn effect(mut self, f: impl FnMut(&mut W, &mut EffectCtx<'_, W>) + Send + 'static) -> Self {
        let token = self.effects.len() as u32;
        self.effects.push(Box::new(f));
        self.step(Step::EffectRef(token))
    }

    /// Appends an arbitrary step.
    pub fn step(mut self, step: Step) -> Self {
        self.steps.push(step);
        self
    }
}

impl<W> TaskBody<W> for Script<W> {
    fn plan_into(&mut self, _world: &W, out: &mut Plan) {
        for &step in &self.steps {
            out.push(step);
        }
    }

    /// The steps never change: planned once, replayed at every activation.
    fn plan_key(&self, _world: &W) -> Option<u64> {
        Some(0)
    }

    fn run_effect(&mut self, token: u32, world: &mut W, ctx: &mut EffectCtx<'_, W>) {
        (self.effects[token as usize])(world, ctx);
    }
}

/// Context handed to [`TaskBody::run_effect`]: the current time, the
/// executing task, the kernel trace and the OS services.
///
/// Only the kernel builds one, when it runs a [`Step::EffectRef`]. The
/// context borrows the kernel's scheduler core while the effect's body is
/// borrowed apart from it, so [`EffectCtx::activate_task`] and
/// [`EffectCtx::cancel_alarm`] execute directly and synchronously, with the
/// kernel's own semantics and errors.
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

    /// A plan holding `steps`, as a body would fill it.
    fn plan_of(steps: &[Step]) -> Plan {
        let mut plan = Plan::default();
        for &step in steps {
            plan.push(step);
        }
        plan
    }

    #[test]
    fn a_step_is_sixteen_bytes_of_plain_data() {
        assert_eq!(std::mem::size_of::<Step>(), 16);
        let s = Step::ActivateTask(TaskId(3));
        let copy = s;
        assert_eq!(s, copy);
        assert_eq!(format!("{:?}", Step::EffectRef(7)), "EffectRef(7)");
    }

    #[test]
    fn a_script_plans_its_steps_with_an_effect_token_per_closure() {
        let mut script: Script<W> = Script::new()
            .compute(us(5))
            .effect(|w, _| *w += 1)
            .step(Step::ActivateTask(TaskId(1)))
            .effect(|w, _| *w += 2);
        let mut plan = Plan::default();
        script.plan_into(&0, &mut plan);
        assert_eq!(
            plan.steps(),
            [
                Step::Compute(us(5)),
                Step::EffectRef(0),
                Step::ActivateTask(TaskId(1)),
                Step::EffectRef(1)
            ]
        );
        assert_eq!(script.plan_key(&0), Some(0), "scripts never replan");
        assert_eq!(
            format!("{script:?}"),
            "Script { steps: [Compute(Duration(5)), EffectRef(0), \
             ActivateTask(TaskId(1)), EffectRef(1)] }"
        );
    }

    #[test]
    fn the_cursor_runs_a_held_remainder_first() {
        let mut p = plan_of(&[Step::Compute(us(10)), Step::EffectRef(0)]);
        assert_eq!(p.next_step(), Some(Step::Compute(us(10))));
        p.hold(us(4));
        assert_eq!(
            format!("{p:?}"),
            "Plan { remainder: Some(Duration(4)), steps: [EffectRef(0)] }"
        );
        assert_eq!(p.next_step(), Some(Step::Compute(us(4))));
        assert_eq!(p.next_step(), Some(Step::EffectRef(0)));
        assert_eq!(p.next_step(), None);
    }

    #[test]
    fn plans_compare_what_is_left_to_run() {
        let mut replayed = plan_of(&[Step::Compute(us(3)), Step::EffectRef(0)]);
        replayed.seal(Some(7));
        assert_eq!(replayed.next_step(), Some(Step::Compute(us(3))));
        // Built differently, keyed differently, same rest.
        let fresh = plan_of(&[Step::EffectRef(0)]);
        assert_eq!(replayed, fresh);
        replayed.hold(us(1));
        assert_ne!(replayed, fresh, "a held remainder is still to run");
        replayed.finish();
        assert_eq!(replayed, Plan::default());
        // The steps stay for a replay, under their key.
        replayed.rewind();
        assert_eq!(replayed.key(), Some(7));
        assert_eq!(replayed.steps(), [Step::Compute(us(3)), Step::EffectRef(0)]);
    }

    #[test]
    fn clear_retains_capacity() {
        let mut p = Plan::default();
        for _ in 0..16 {
            p.push_compute(us(1));
        }
        p.seal(Some(1));
        let cap = p.steps.capacity();
        p.clear();
        assert_eq!(p, Plan::default());
        assert_eq!(p.key(), None);
        assert_eq!(p.steps.capacity(), cap);
    }

    #[test]
    fn restoring_plans_rewrites_them_in_place() {
        let mut plans: Vec<Plan> = vec![Plan::default(), Plan::default()];
        plans[0].push_compute(us(7));
        plans[0].push_effect_ref(3);
        plans[0].seal(Some(2));
        assert_eq!(plans[0].next_step(), Some(Step::Compute(us(7))));
        let snap = plans.clone();
        plans[0].finish();
        let fill = |plans: &mut Vec<Plan>| {
            for _ in 0..16 {
                plans[1].push_effect_ref(0);
            }
        };
        fill(&mut plans);
        let total_capacity =
            |plans: &[Plan]| -> usize { plans.iter().map(|p| p.steps.capacity()).sum() };
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
    #[should_panic(expected = "task T0 planned Step::EffectRef(9) without implementing run_effect")]
    fn default_run_effect_rejects_unclaimed_tokens() {
        struct NoEffects;
        impl TaskBody<W> for NoEffects {
            fn plan_into(&mut self, _world: &W, out: &mut Plan) {
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
