//! The OS kernel: fixed-priority preemptive scheduling over simulated time.
//!
//! [`Os`] owns the task and alarm tables and executes task plans under OSEK
//! full-preemptive scheduling semantics for basic tasks:
//!
//! * the highest-priority ready task runs; equal priorities are FIFO and a
//!   preempted task re-enters its priority level at the *front* (OSEK spec);
//! * a task queues up to its configured number of activations and runs
//!   them back to back;
//! * cyclic alarms re-arm with their (possibly injector-scaled) cycle;
//! * optional per-task deadlines (OSEKTime) and execution budgets
//!   (AUTOSAR OS timing protection) are detected exactly and reported
//!   through hooks and the trace.
//!
//! Execution is deterministic: ties on the event queue break by insertion
//! order and the scheduler state machine contains no hidden randomness.
//! Nor does the state count past events beyond the clock and the busy
//! meter (see [`OsState`]).
//!
//! # Split-borrow ownership
//!
//! [`Os`] is factored into two disjoint parts: the task *bodies* and the
//! scheduler *core*. The core holds the build-time wiring (task and alarm
//! tables, hook observers) next to the kernel's whole runtime state, one
//! [`OsState`]: TCBs, ready order, alarm arming, timer queue, clock, trace
//! and the per-task retained plans. Because bodies and core are separate
//! fields, dispatch borrows them simultaneously without moving anything:
//! planning calls [`TaskBody::plan_into`] on the body **in place** while the
//! task's plan is borrowed alongside, and an effect step hands the body's
//! [`TaskBody::run_effect`] an [`EffectCtx`] that borrows the core, so
//! effects call `ActivateTask`/`CancelAlarm` **directly and synchronously**
//! on the core's own methods while the body stays in place.

use crate::alarm::{Alarm, AlarmAction, AlarmId};
use crate::error::OsError;
use crate::hooks::{HookEvent, HookMask, HookObserver};
use crate::plan::{EffectCtx, Plan, Step, TaskBody};
use crate::task::{Priority, TaskConfig, TaskId, TaskState};
use easis_sim::event::EventQueue;
use easis_sim::time::{Duration, Instant};
use easis_sim::trace::TraceRecorder;

/// Trace source tag used by the kernel.
pub const TRACE_SOURCE: &str = "osek";

/// Consecutive scheduling rounds [`Os::run_until`] allows at one instant
/// before it declares a zero-time livelock. Every step but `Compute`
/// takes no simulated time, so a task that keeps re-activating itself
/// without computing would otherwise hold the clock forever. The campaign
/// node and the paper experiments take at most a handful of rounds at
/// one instant.
pub const MAX_ROUNDS_PER_INSTANT: u32 = 10_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KernelEvent {
    AlarmExpiry(AlarmId),
    DeadlineCheck(TaskId),
}

/// Runtime fields of one task control block: plain `Copy` data. The
/// task's configuration is wiring and lives in the core's task table (same
/// index), its priority included; its body lives in `Os::bodies`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Tcb {
    state: TaskState,
    /// `true` once the current activation's plan is in place: planned or
    /// rewound at its first dispatch (cleared at termination).
    planned: bool,
    /// Activations not yet terminated, the current instance included.
    queued: u32,
    /// Execution time consumed by the current activation.
    exec_time: Duration,
    budget_reported: bool,
}

impl Tcb {
    fn new() -> Self {
        Tcb {
            state: TaskState::Suspended,
            planned: false,
            queued: 0,
            exec_time: Duration::ZERO,
            budget_reported: false,
        }
    }
}

easis_sim::clone_fields! {
    /// Everything a kernel run can change: TCBs, alarm arming and cycle
    /// scales, pending timers, the clock, the running task, the ready
    /// order, the busy meter, the trace, and the retained plans with their
    /// cursors. It is the kernel's checkpoint: [`Os::state`] lends it for
    /// capture, [`Os::restore`] copies one back, and a warm `clone_from`
    /// allocates nothing.
    ///
    /// It is canonical: two kernels in the same schedule hold equal
    /// states. Apart from the clock, the busy meter and the timer times it
    /// holds no count of past events, so one hyperperiod of a periodic
    /// schedule moves only those ([`OsState::measure`]). A plan compares
    /// only what is left to run ([`Plan`]'s `==`): the steps already run
    /// and the key a retained plan was built under are left out.
    ///
    /// Task bodies, the task and alarm tables and hook observers are
    /// wiring and stay out: bodies must keep all replay-relevant state in
    /// their plans, and observers keep their own state at the node level.
    /// A plan is plain data, so the state holds nothing of the world and
    /// any state clones. A clone copies every retained plan whole, so a
    /// restored kernel replays them under their keys.
    #[derive(Debug, Default, PartialEq)]
    pub struct OsState {
        tasks: Vec<Tcb>,
        alarms: Vec<Alarm>,
        timers: EventQueue<KernelEvent>,
        now: Instant,
        running: Option<TaskId>,
        /// The `Ready` and `Running` tasks by priority, highest first, each
        /// priority band in dispatch order (see [`Core::pick_next`]).
        ready: Vec<TaskId>,
        trace: TraceRecorder,
        started: bool,
        busy: Duration,
        /// The retained plan of each task, by task id: replayed while its
        /// key holds, never shrunk, across activations and restores.
        plans: Vec<Plan>,
    }
}

/// The scheduler core: the kernel's wiring plus its whole runtime state.
/// Holding it as one field gives dispatch the split borrow the effect path
/// needs: `&mut Core<W>`, lent to the effect's [`EffectCtx`], alongside
/// `&mut` the executing body.
pub(crate) struct Core<W> {
    /// Task configurations, indexed by task id.
    configs: Vec<TaskConfig>,
    /// Alarm names and expiry actions, indexed by alarm id.
    alarm_wiring: Vec<(String, AlarmAction)>,
    /// Subscribed observers, each with the interest it declared.
    observers: Vec<(HookMask, Box<dyn HookObserver<W>>)>,
    /// Union of the observers' interests: hook kinds outside it are
    /// dropped before the observer list is touched.
    interest: HookMask,
    state: OsState,
}

/// The OSEK operating system model, generic over the ECU world type `W`.
///
/// # Examples
///
/// ```
/// use easis_osek::kernel::Os;
/// use easis_osek::plan::Script;
/// use easis_osek::task::{Priority, TaskConfig};
/// use easis_sim::time::{Duration, Instant};
///
/// let mut os: Os<u32> = Os::new();
/// let t = os.add_task(
///     TaskConfig::new("tick", Priority(1)),
///     Script::new()
///         .compute(Duration::from_micros(100))
///         .effect(|w, _ctx| *w += 1),
/// );
/// let alarm = os.add_alarm("tick10ms", easis_osek::alarm::AlarmAction::ActivateTask(t));
/// let mut world = 0u32;
/// os.start(&mut world);
/// os.set_rel_alarm(alarm, Duration::from_millis(10), Some(Duration::from_millis(10))).unwrap();
/// os.run_until(Instant::from_millis(102), &mut world);
/// assert_eq!(world, 10);
/// ```
pub struct Os<W> {
    /// Task bodies, indexed by task id — stored apart from the scheduler
    /// core so an effect can run on its body in place while its
    /// [`EffectCtx`] borrows the core.
    bodies: Vec<Box<dyn TaskBody<W>>>,
    /// Wiring and runtime state, lent to effects.
    core: Core<W>,
    /// Debug builds plan into this at every replay and compare it with the
    /// replayed plan. Retained like the task plans, it allocates only
    /// while it grows to the longest plan.
    scratch: Plan,
}

impl<W> Default for Os<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> Os<W> {
    /// Creates an empty OS with tracing enabled.
    pub fn new() -> Self {
        Os {
            bodies: Vec::new(),
            core: Core {
                configs: Vec::new(),
                alarm_wiring: Vec::new(),
                observers: Vec::new(),
                interest: HookMask::NONE,
                state: OsState {
                    trace: TraceRecorder::new(),
                    ..OsState::default()
                },
            },
            scratch: Plan::default(),
        }
    }

    /// Creates an OS whose trace recorder drops everything (for overhead
    /// benchmarking).
    pub fn with_disabled_trace() -> Self {
        let mut os = Self::new();
        os.core.state.trace = TraceRecorder::disabled();
        os
    }

    // ------------------------------------------------------------------
    // Configuration (pre-start)
    // ------------------------------------------------------------------

    /// Declares a task. Returns its id.
    pub fn add_task(&mut self, config: TaskConfig, body: impl TaskBody<W> + 'static) -> TaskId {
        let id = TaskId(self.core.configs.len() as u32);
        self.bodies.push(Box::new(body));
        let state = &mut self.core.state;
        state.tasks.push(Tcb::new());
        // Room for every task in the ready list: readying never allocates.
        state.ready.reserve_exact(state.tasks.len());
        self.core.configs.push(config);
        state.plans.push(Plan::default());
        id
    }

    /// Declares an alarm. Returns its id; arm it with [`Os::set_rel_alarm`].
    pub fn add_alarm(&mut self, name: impl Into<String>, action: AlarmAction) -> AlarmId {
        let id = AlarmId(self.core.alarm_wiring.len() as u32);
        self.core.alarm_wiring.push((name.into(), action));
        self.core.state.alarms.push(Alarm::default());
        id
    }

    /// Subscribes a hook observer to the hook kinds of its
    /// [`HookObserver::interest`].
    pub fn add_observer(&mut self, observer: impl HookObserver<W> + 'static) {
        let interest = observer.interest();
        self.core.interest = self.core.interest.union(interest);
        self.core.observers.push((interest, Box::new(observer)));
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Current simulated time.
    pub fn now(&self) -> Instant {
        self.core.state.now
    }

    /// The trace recorder.
    pub fn trace(&self) -> &TraceRecorder {
        &self.core.state.trace
    }

    /// Mutable access to the trace recorder (e.g. to clear between phases).
    pub fn trace_mut(&mut self) -> &mut TraceRecorder {
        &mut self.core.state.trace
    }

    /// State of a task.
    ///
    /// # Errors
    ///
    /// Returns [`OsError::InvalidId`] for an unknown id.
    pub fn task_state(&self, id: TaskId) -> Result<TaskState, OsError> {
        self.core.task_state(id)
    }

    /// Name of a task.
    ///
    /// # Errors
    ///
    /// Returns [`OsError::InvalidId`] for an unknown id.
    pub fn task_name(&self, id: TaskId) -> Result<&str, OsError> {
        self.core
            .configs
            .get(id.index())
            .map(TaskConfig::name)
            .ok_or(OsError::InvalidId)
    }

    /// Total CPU time consumed by tasks so far.
    pub fn busy_time(&self) -> Duration {
        self.core.state.busy
    }

    /// CPU utilisation since start (0.0 when no time has passed).
    pub fn utilization(&self) -> f64 {
        let elapsed = self.core.state.now.duration_since(Instant::ZERO);
        if elapsed.is_zero() {
            0.0
        } else {
            self.core.state.busy.as_micros() as f64 / elapsed.as_micros() as f64
        }
    }

    /// Mutable access to an alarm's runtime state (used by the frequency
    /// error injector).
    ///
    /// # Errors
    ///
    /// Returns [`OsError::InvalidId`] for an unknown id.
    pub fn alarm_mut(&mut self, id: AlarmId) -> Result<&mut Alarm, OsError> {
        self.core
            .state
            .alarms
            .get_mut(id.index())
            .ok_or(OsError::InvalidId)
    }

    /// Immutable access to an alarm's runtime state.
    ///
    /// # Errors
    ///
    /// Returns [`OsError::InvalidId`] for an unknown id.
    pub fn alarm(&self, id: AlarmId) -> Result<&Alarm, OsError> {
        self.core
            .state
            .alarms
            .get(id.index())
            .ok_or(OsError::InvalidId)
    }

    // ------------------------------------------------------------------
    // System services (callable from outside the kernel loop)
    // ------------------------------------------------------------------

    /// Starts the OS: fires the startup hook. Tasks run once activated.
    pub fn start(&mut self, world: &mut W) {
        let state = &mut self.core.state;
        assert!(!state.started, "OS started twice");
        state.started = true;
        state.trace.record(state.now, TRACE_SOURCE, "startup", "");
        self.core.fire_hook(HookEvent::Startup, world);
    }

    /// The kernel's runtime state — its checkpoint (see [`OsState`]).
    /// `snap.clone_from(os.state())` captures it into a warm buffer
    /// without allocating.
    pub fn state(&self) -> &OsState {
        &self.core.state
    }

    /// Restores runtime state captured from [`Os::state`], after which the
    /// OS replays exactly like the captured one. One `clone_from`: buffers
    /// (timer entries, retained plans) are overwritten in place with their
    /// capacity retained.
    ///
    /// # Panics
    ///
    /// Panics if the state belongs to an OS with different task or alarm
    /// tables — it must come from an identically built OS, normally the
    /// same instance.
    pub fn restore(&mut self, state: &OsState) {
        assert_eq!(
            (self.core.configs.len(), self.core.alarm_wiring.len()),
            (state.tasks.len(), state.alarms.len()),
            "state belongs to an OS with different task/alarm tables"
        );
        self.core.state.clone_from(state);
    }

    /// Jumps the kernel `k` hyperperiods ahead by a certified
    /// [`CycleProgram`] ([`OsState::advance`] on the live state).
    pub fn advance(&mut self, program: &CycleProgram, k: u64) {
        self.core.state.advance(program, k);
    }

    /// `ActivateTask`: moves a suspended task to ready or queues an extra
    /// activation.
    ///
    /// # Errors
    ///
    /// [`OsError::InvalidId`] for unknown tasks, [`OsError::ActivationLimit`]
    /// when the activation queue is full (also reported via the error hook).
    pub fn activate_task(&mut self, id: TaskId, world: &mut W) -> Result<(), OsError> {
        self.core.activate_task(id, world)
    }

    /// `SetRelAlarm`: arms an alarm `offset` from now, optionally cyclic.
    ///
    /// # Errors
    ///
    /// [`OsError::InvalidId`] for unknown alarms, [`OsError::InvalidState`]
    /// if already armed, [`OsError::InvalidValue`] for a zero offset or cycle.
    pub fn set_rel_alarm(
        &mut self,
        id: AlarmId,
        offset: Duration,
        cycle: Option<Duration>,
    ) -> Result<(), OsError> {
        self.core.set_rel_alarm(id, offset, cycle)
    }

    /// `CancelAlarm`: disarms an alarm and drops its pending expiry.
    ///
    /// # Errors
    ///
    /// [`OsError::InvalidId`] for unknown alarms, [`OsError::AlarmNotInUse`]
    /// if disarmed.
    pub fn cancel_alarm(&mut self, id: AlarmId) -> Result<(), OsError> {
        self.core.cancel_alarm(id)
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    /// Runs the simulation until `end`.
    ///
    /// Everything due before `end` runs. The timers due at `end` fire in
    /// this call when the CPU reaches `end` idle (the tasks they ready then
    /// run up to their first compute step) or with a compute step
    /// completing there; a task still computing at `end` leaves them for
    /// the next call. A call with `end` equal to [`Os::now`] returns at
    /// once, so running to the same instant twice changes nothing.
    ///
    /// # Panics
    ///
    /// Panics if the OS was not started or `end` is in the past, and on a
    /// zero-time livelock: more than [`MAX_ROUNDS_PER_INSTANT`]
    /// consecutive dispatches at one instant (a task that activates
    /// itself without computing, say). The message names the
    /// task and the instant.
    pub fn run_until(&mut self, end: Instant, world: &mut W) {
        assert!(self.core.state.started, "call start() first");
        assert!(end >= self.core.state.now, "cannot run backwards in time");
        if end == self.core.state.now {
            return;
        }
        let mut instant = self.core.state.now;
        let mut rounds = 0u32;
        loop {
            // Fire every timer event due at the current instant.
            self.core.fire_due_timers(world);
            // Choose who runs.
            let chosen = self.core.pick_next();
            match chosen {
                None => {
                    // CPU idle: jump to the next timer event or to `end`.
                    let state = &mut self.core.state;
                    match state.timers.peek_time() {
                        Some(t) if t <= end => {
                            state.now = t;
                        }
                        _ => {
                            state.now = end;
                            return;
                        }
                    }
                }
                Some(id) => {
                    let now = self.core.state.now;
                    if now == instant {
                        rounds += 1;
                        assert!(
                            rounds <= MAX_ROUNDS_PER_INSTANT,
                            "zero-time livelock: task {id} ({}) dispatched {rounds} times in a row \
                             at {now:?} without simulated time passing",
                            self.core.configs[id.index()].name()
                        );
                    } else {
                        instant = now;
                        rounds = 1;
                    }
                    self.dispatch(id, world);
                    let done = self.execute_slice(id, end, world);
                    if done {
                        return;
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Internals (body side of the split borrow)
    // ------------------------------------------------------------------

    fn dispatch(&mut self, id: TaskId, world: &mut W) {
        let i = id.index();
        if self.core.state.running == Some(id)
            && self.core.state.tasks[i].state == TaskState::Running
        {
            return;
        }
        // Preempt whoever was running.
        if let Some(prev) = self.core.state.running {
            if self.core.state.tasks[prev.index()].state == TaskState::Running {
                self.core.make_ready(prev, true);
                self.core.record(prev, "preempt");
                self.core.fire_hook(HookEvent::PostTask(prev), world);
            }
        }
        self.core.state.tasks[i].state = TaskState::Running;
        self.core.state.running = Some(id);
        self.core.record(id, "dispatch");
        self.core.fire_hook(HookEvent::PreTask(id), world);
        // First dispatch of an activation: replay the task's retained plan
        // if the body's plan key is the one it was built under, or plan the
        // body into it afresh (capacity retained — no allocation once the
        // plan has grown to the steady-state length). The body plans in
        // place: `bodies` and `core` are disjoint fields, so no move out of
        // the TCB is needed.
        let state = &mut self.core.state;
        if !state.tasks[i].planned {
            let body = &mut self.bodies[i];
            let key = body.plan_key(world);
            let plan = &mut state.plans[i];
            if key.is_some() && plan.key() == key {
                plan.rewind();
                if cfg!(debug_assertions) {
                    // Fail closed: a replay must be what planning builds.
                    let fresh = &mut self.scratch;
                    fresh.clear();
                    body.plan_into(world, fresh);
                    assert!(
                        *fresh == *plan,
                        "task {id} ({}) replayed {plan:?} under plan key {key:?}, \
                         but planning builds {fresh:?}",
                        self.core.configs[i].name()
                    );
                }
            } else {
                plan.clear();
                body.plan_into(world, plan);
                plan.seal(key);
            }
            let tcb = &mut state.tasks[i];
            tcb.planned = true;
            tcb.exec_time = Duration::ZERO;
            tcb.budget_reported = false;
        }
    }

    /// Executes steps of the running task until it terminates, is
    /// preempted, or simulated time reaches `end`. Returns `true` when the
    /// caller's horizon `end` was reached.
    ///
    /// The schedule is decided once per change: `dispatch` has just chosen
    /// `id`, and a non-zero compute step that completes has re-decided
    /// after firing the timers due at its last instant, so neither is
    /// followed by another [`Core::pick_next`]. Every other step decides
    /// again before the next one runs.
    fn execute_slice(&mut self, id: TaskId, end: Instant, world: &mut W) -> bool {
        let i = id.index();
        let mut decided = true;
        loop {
            // An effect or a service may have readied a higher-priority
            // task.
            if !decided && self.core.pick_next() != Some(id) {
                return false;
            }
            decided = false;
            let step = self.core.state.plans[i].next_step();
            let Some(step) = step else {
                self.terminate_running(id, world);
                return false;
            };
            match step {
                Step::Compute(d) => {
                    if let Some(reached_end) = self.run_compute(id, d, end, world) {
                        return reached_end;
                    }
                    decided = !d.is_zero();
                }
                Step::EffectRef(token) => {
                    // In-place dispatch: the body stays in `bodies` while
                    // the effect's context borrows the core.
                    let mut ctx = EffectCtx::new(id, &mut self.core);
                    self.bodies[i].run_effect(token, world, &mut ctx);
                }
                Step::ActivateTask(t) => {
                    let _ = self.core.activate_task(t, world);
                }
            }
        }
    }

    /// Advances simulated time while the task computes. Returns `Some(true)`
    /// if the run horizon was reached, `Some(false)` if the task should stop
    /// executing this slice (preemption), `None` when the compute step
    /// finished and the next step may run.
    fn run_compute(
        &mut self,
        id: TaskId,
        d: Duration,
        end: Instant,
        world: &mut W,
    ) -> Option<bool> {
        let i = id.index();
        let budget = self.core.configs[i].execution_budget();
        let mut remaining = d;
        while !remaining.is_zero() {
            let state = &mut self.core.state;
            let finish = state.now + remaining;
            // Budget crossing, if any, caps the slice so the hook fires at
            // the exact overrun instant.
            let budget_cross = {
                let tcb = &state.tasks[i];
                match budget {
                    Some(budget) if !tcb.budget_reported && tcb.exec_time < budget => {
                        Some(state.now + (budget - tcb.exec_time))
                    }
                    _ => None,
                }
            };
            let next_timer = state.timers.peek_time();
            let mut slice_end = finish;
            if let Some(t) = next_timer {
                if t < slice_end {
                    slice_end = t;
                }
            }
            if let Some(b) = budget_cross {
                if b < slice_end {
                    slice_end = b;
                }
            }
            if end < slice_end {
                slice_end = end;
            }
            let consumed = slice_end.saturating_duration_since(state.now);
            state.now = slice_end;
            state.busy += consumed;
            remaining = remaining.saturating_sub(consumed);
            let tcb = &mut state.tasks[i];
            tcb.exec_time += consumed;
            // Budget exactly reached?
            if let Some(budget) = budget {
                if !tcb.budget_reported && tcb.exec_time >= budget {
                    tcb.budget_reported = true;
                    self.core.record(id, "budget_exceeded");
                    self.core
                        .fire_hook(HookEvent::BudgetExceeded { task: id, budget }, world);
                }
            }
            if self.core.state.now == end && !remaining.is_zero() {
                // Horizon reached mid-compute: hold the remainder.
                self.core.state.plans[i].hold(remaining);
                return Some(true);
            }
            // Process timers due exactly now; they may ready someone higher.
            self.core.fire_due_timers(world);
            if self.core.pick_next() != Some(id) {
                if !remaining.is_zero() {
                    self.core.state.plans[i].hold(remaining);
                }
                return Some(false);
            }
        }
        // Step finished; horizon may coincide with completion.
        if self.core.state.now == end {
            return Some(true);
        }
        None
    }

    fn terminate_running(&mut self, id: TaskId, world: &mut W) {
        let i = id.index();
        self.core.leave_ready(id);
        let state = &mut self.core.state;
        let tcb = &mut state.tasks[i];
        tcb.queued -= 1;
        tcb.planned = false;
        state.plans[i].finish();
        state.running = None;
        self.core.record(id, "terminate");
        self.core.fire_hook(HookEvent::Terminate(id), world);
        // Queued activation pending? Re-enter ready immediately, at the
        // back of the band.
        if self.core.state.tasks[i].queued > 0 {
            self.core.make_ready(id, false);
        }
    }
}

impl<W> Core<W> {
    /// The current simulated time.
    pub(crate) fn now(&self) -> Instant {
        self.state.now
    }

    /// The kernel trace recorder.
    pub(crate) fn trace(&self) -> &TraceRecorder {
        &self.state.trace
    }

    /// The kernel trace recorder, for effects to record on.
    pub(crate) fn trace_mut(&mut self) -> &mut TraceRecorder {
        &mut self.state.trace
    }

    /// State of task `id`, or [`OsError::InvalidId`].
    pub(crate) fn task_state(&self, id: TaskId) -> Result<TaskState, OsError> {
        self.state
            .tasks
            .get(id.index())
            .map(|t| t.state)
            .ok_or(OsError::InvalidId)
    }

    /// Records a kernel trace event about task `id` at the current time.
    /// Returns before the name look-up when the trace is off, as on
    /// campaign nodes, which dispatch, preempt, activate and terminate
    /// tasks millions of times per campaign.
    fn record(&mut self, id: TaskId, kind: &str) {
        if !self.state.trace.is_enabled() {
            return;
        }
        let name = self.configs[id.index()].name();
        self.state
            .trace
            .record(self.state.now, TRACE_SOURCE, kind, name);
    }

    pub(crate) fn activate_task(&mut self, id: TaskId, world: &mut W) -> Result<(), OsError> {
        let i = id.index();
        let Some(config) = self.configs.get(i) else {
            return Err(OsError::InvalidId);
        };
        let (max, deadline) = (config.max_activations(), config.deadline());
        if self.state.tasks[i].queued >= max {
            self.report_error(OsError::ActivationLimit, world);
            return Err(OsError::ActivationLimit);
        }
        self.state.tasks[i].queued += 1;
        // Arm the deadline check for this activation.
        if let Some(deadline) = deadline {
            self.state
                .timers
                .schedule(self.state.now + deadline, KernelEvent::DeadlineCheck(id));
        }
        self.record(id, "activate");
        self.fire_hook(HookEvent::Activate(id), world);
        if self.state.tasks[i].state == TaskState::Suspended {
            self.make_ready(id, false);
        }
        Ok(())
    }

    fn set_rel_alarm(
        &mut self,
        id: AlarmId,
        offset: Duration,
        cycle: Option<Duration>,
    ) -> Result<(), OsError> {
        let Some(alarm) = self.state.alarms.get_mut(id.index()) else {
            return Err(OsError::InvalidId);
        };
        if alarm.is_armed() {
            return Err(OsError::InvalidState);
        }
        if offset.is_zero() || cycle.is_some_and(|c| c.is_zero()) {
            return Err(OsError::InvalidValue);
        }
        alarm.arm(cycle);
        self.state
            .timers
            .schedule(self.state.now + offset, KernelEvent::AlarmExpiry(id));
        Ok(())
    }

    pub(crate) fn cancel_alarm(&mut self, id: AlarmId) -> Result<(), OsError> {
        let Some(alarm) = self.state.alarms.get_mut(id.index()) else {
            return Err(OsError::InvalidId);
        };
        if !alarm.is_armed() {
            return Err(OsError::AlarmNotInUse);
        }
        alarm.disarm();
        // Drop the pending expiry with the arming: left queued, it would
        // start a second expiry chain once the alarm is armed again.
        self.state
            .timers
            .retain(|ev| *ev != KernelEvent::AlarmExpiry(id));
        Ok(())
    }

    fn fire_due_timers(&mut self, world: &mut W) {
        while let Some(t) = self.state.timers.peek_time() {
            if t > self.state.now {
                break;
            }
            let (_, ev) = self.state.timers.pop().expect("peeked event exists");
            match ev {
                KernelEvent::AlarmExpiry(id) => self.expire_alarm(id, world),
                KernelEvent::DeadlineCheck(task) => self.check_deadline(task, world),
            }
        }
    }

    fn expire_alarm(&mut self, id: AlarmId, world: &mut W) {
        let alarm = &mut self.state.alarms[id.index()];
        if !alarm.is_armed() {
            return; // cancelled
        }
        let effective_cycle = alarm.effective_cycle();
        if effective_cycle.is_none() {
            alarm.disarm();
        }
        let (name, action) = &self.alarm_wiring[id.index()];
        if self.state.trace.is_enabled() {
            self.state
                .trace
                .record(self.state.now, TRACE_SOURCE, "alarm", name);
        }
        if let Some(cycle) = effective_cycle {
            self.state
                .timers
                .schedule(self.state.now + cycle, KernelEvent::AlarmExpiry(id));
        }
        let AlarmAction::ActivateTask(t) = *action;
        let _ = self.activate_task(t, world);
    }

    /// Reports a miss when the activation whose check just popped has not
    /// terminated. Its task's deadline is fixed, so the checks still
    /// queued for the task belong to exactly the activations issued after
    /// it, and activations terminate in order: it is late iff more
    /// activations are queued than those.
    fn check_deadline(&mut self, task: TaskId, world: &mut W) {
        let later = self
            .state
            .timers
            .entries()
            .iter()
            .filter(|&&(_, ev)| ev == KernelEvent::DeadlineCheck(task))
            .count();
        if self.state.tasks[task.index()].queued as usize > later {
            let deadline = self.configs[task.index()]
                .deadline()
                .expect("deadline configured");
            self.record(task, "deadline_miss");
            self.fire_hook(
                HookEvent::DeadlineMiss {
                    task,
                    activated_at: self.state.now - deadline,
                },
                world,
            );
        }
    }

    /// Makes `id` `Ready`. A preempted task (`front`) is the running one,
    /// which heads its priority band already and keeps that place; every
    /// other task joins the back of its band, after the tasks of its
    /// priority that were readied before it.
    fn make_ready(&mut self, id: TaskId, front: bool) {
        self.state.tasks[id.index()].state = TaskState::Ready;
        if front {
            debug_assert!(self.heads_its_band(id), "the running task heads its band");
            return;
        }
        debug_assert!(!self.state.ready.contains(&id), "readied twice");
        let priority = self.configs[id.index()].priority();
        let at = self.first_below(|p| p < priority);
        self.state.ready.insert(at, id);
    }

    /// Moves the running task `id` to `Suspended`, out of the ready order.
    fn leave_ready(&mut self, id: TaskId) {
        debug_assert!(self.heads_its_band(id), "the running task heads its band");
        let state = &mut self.state;
        state.tasks[id.index()].state = TaskState::Suspended;
        let at = state
            .ready
            .iter()
            .position(|&t| t == id)
            .expect("the running task is in the ready order");
        state.ready.remove(at);
    }

    /// The position of the first ready task whose priority satisfies
    /// `below`, or the end of the order. The list holds at most a few
    /// tasks, so a scan from the front beats a binary search.
    fn first_below(&self, below: impl Fn(Priority) -> bool) -> usize {
        let ready = &self.state.ready;
        ready
            .iter()
            .position(|t| below(self.configs[t.index()].priority()))
            .unwrap_or(ready.len())
    }

    /// Whether `id` is the first task of its priority band, as the
    /// running task always is.
    fn heads_its_band(&self, id: TaskId) -> bool {
        let priority = self.configs[id.index()].priority();
        self.state.ready.get(self.first_below(|p| p <= priority)) == Some(&id)
    }

    /// The task that should run now: the head of the ready order, so the
    /// decision is one load however many tasks wait. The order keeps each
    /// priority band first-in, first-out, except that the running task
    /// heads its band from dispatch until it leaves the CPU (a preempted
    /// task keeps that place), so it keeps the CPU against the tasks of its
    /// priority that wait. Starved tasks stay `Ready` through overloaded
    /// windows, and a scan of the list made the dispatch decision one of
    /// the costliest steps of event-level simulation. Debug builds check
    /// the order at every decision.
    fn pick_next(&self) -> Option<TaskId> {
        let ready = &self.state.ready;
        debug_assert!(
            ready.windows(2).all(|pair| {
                self.configs[pair[0].index()].priority() >= self.configs[pair[1].index()].priority()
            }),
            "ready order out of priority order"
        );
        ready.first().copied()
    }

    fn report_error(&mut self, err: OsError, world: &mut W) {
        // Format only for a recording trace: campaign nodes run with it
        // off and an overrunning task errs every period.
        if self.state.trace.is_enabled() {
            self.state
                .trace
                .record(self.state.now, TRACE_SOURCE, "os_error", err.to_string());
        }
        self.fire_hook(HookEvent::Error(err), world);
    }

    /// Delivers `event` to the observers interested in its kind. A kind
    /// no observer declared returns at the mask test: the campaign node's
    /// two task monitors take only deadline misses and budget overruns,
    /// so its dispatches, preemptions, activations and terminations stop
    /// there.
    fn fire_hook(&mut self, event: HookEvent, world: &mut W) {
        if !self.interest.contains(event) {
            return;
        }
        let now = self.state.now;
        for (interest, obs) in &mut self.observers {
            if interest.contains(event) {
                obs.on_hook(now, event, world);
            }
        }
    }
}

impl<W> std::fmt::Debug for Os<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Os")
            .field("now", &self.core.state.now)
            .field("tasks", &self.core.configs.len())
            .field("alarms", &self.core.alarm_wiring.len())
            .field("running", &self.core.state.running)
            .finish()
    }
}

impl OsState {
    /// The simulated instant at which the state was captured.
    pub fn taken_at(&self) -> Instant {
        self.now
    }

    /// Whether two states run the same task and hold every task in the
    /// same state: one of certification's cheap refusals, run before
    /// anything is measured.
    pub fn same_schedule(a: &Self, b: &Self) -> bool {
        a.running == b.running
            && a.tasks.len() == b.tasks.len()
            && a.tasks
                .iter()
                .zip(&b.tasks)
                .all(|(x, y)| x.state == y.state)
    }

    /// Measures one hyperperiod of kernel execution between two states
    /// captured `h` apart: the busy time. The state holds no other count
    /// of past events, so the clock, the busy meter and the timer times
    /// are all that a periodic schedule moves.
    ///
    /// A measurement proves nothing by itself. Certification advances `a`
    /// by the program once and accepts the sample only when the result
    /// equals `b`, so every field the program does not move must be
    /// unchanged. A busy meter that ran backwards measures 0 and fails
    /// that comparison.
    pub fn measure(a: &Self, b: &Self, h: Duration) -> CycleProgram {
        CycleProgram {
            h,
            d_busy: b.busy.saturating_sub(a.busy),
        }
    }

    /// Advances the state `k` hyperperiods by `program` in closed form:
    /// the clock and busy meter advance `k` hyperperiods and every pending
    /// timer shifts `k` hyperperiods later. O(pending timers), independent
    /// of how many events the skipped span would have fired.
    ///
    /// Certification calls it with k = 1 on the earlier sample; the jump
    /// ([`Os::advance`]) calls it with k on the live state. A program is
    /// only valid on the state it was certified from, one hyperperiod
    /// back; anything else diverges silently.
    pub fn advance(&mut self, program: &CycleProgram, k: u64) {
        let shift = program.h * k;
        self.now += shift;
        self.busy += program.d_busy * k;
        self.timers.fast_forward(shift);
    }
}

/// The compiled steady-state schedule: the hyperperiod and the busy time
/// one hyperperiod of kernel execution adds, measured from one sampled
/// hyperperiod by [`OsState::measure`] and applied k-at-a-time by
/// [`OsState::advance`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CycleProgram {
    h: Duration,
    d_busy: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Script;

    type W = Vec<String>;

    /// Computes `cost`, then logs `label` with the time.
    fn log_body(label: &'static str, cost: Duration) -> Script<W> {
        Script::new()
            .compute(cost)
            .effect(move |w: &mut W, ctx| w.push(format!("{label}@{}", ctx.now().as_micros())))
    }

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }
    fn us(n: u64) -> Duration {
        Duration::from_micros(n)
    }

    #[test]
    fn cyclic_alarm_activates_task_periodically() {
        let mut os: Os<W> = Os::new();
        let t = os.add_task(TaskConfig::new("p", Priority(1)), log_body("p", us(100)));
        let a = os.add_alarm("cyc", AlarmAction::ActivateTask(t));
        let mut w = W::new();
        os.start(&mut w);
        os.set_rel_alarm(a, ms(10), Some(ms(10))).unwrap();
        os.run_until(Instant::from_millis(55), &mut w);
        assert_eq!(w.len(), 5, "{w:?}");
        assert_eq!(w[0], "p@10100");
    }

    #[test]
    fn higher_priority_task_preempts_lower() {
        let mut os: Os<W> = Os::new();
        let lo = os.add_task(TaskConfig::new("lo", Priority(1)), log_body("lo", ms(10)));
        let hi = os.add_task(TaskConfig::new("hi", Priority(5)), log_body("hi", us(500)));
        let a_lo = os.add_alarm("alo", AlarmAction::ActivateTask(lo));
        let a_hi = os.add_alarm("ahi", AlarmAction::ActivateTask(hi));
        let mut w = W::new();
        os.start(&mut w);
        os.set_rel_alarm(a_lo, ms(1), None).unwrap();
        os.set_rel_alarm(a_hi, ms(5), None).unwrap();
        os.run_until(Instant::from_millis(20), &mut w);
        // hi runs 5.0–5.5ms; lo resumes and finishes at 11.5ms.
        assert_eq!(w, vec!["hi@5500".to_string(), "lo@11500".to_string()]);
        assert_eq!(os.trace().count_kind("preempt"), 1);
    }

    #[test]
    fn equal_priority_is_fifo_and_non_preemptive() {
        let mut os: Os<W> = Os::new();
        let a = os.add_task(TaskConfig::new("a", Priority(2)), log_body("a", ms(2)));
        let b = os.add_task(TaskConfig::new("b", Priority(2)), log_body("b", ms(2)));
        let al_a = os.add_alarm("aa", AlarmAction::ActivateTask(a));
        let al_b = os.add_alarm("ab", AlarmAction::ActivateTask(b));
        let mut w = W::new();
        os.start(&mut w);
        os.set_rel_alarm(al_a, ms(1), None).unwrap();
        os.set_rel_alarm(al_b, ms(2), None).unwrap(); // during a's execution
        os.run_until(Instant::from_millis(10), &mut w);
        assert_eq!(w, vec!["a@3000".to_string(), "b@5000".to_string()]);
    }

    #[test]
    fn preempted_task_reenters_front_of_its_band() {
        let mut os: Os<W> = Os::new();
        let a = os.add_task(TaskConfig::new("a", Priority(2)), log_body("a", ms(4)));
        let b = os.add_task(TaskConfig::new("b", Priority(2)), log_body("b", ms(1)));
        let hi = os.add_task(TaskConfig::new("hi", Priority(9)), log_body("hi", ms(1)));
        let al_a = os.add_alarm("aa", AlarmAction::ActivateTask(a));
        let al_b = os.add_alarm("ab", AlarmAction::ActivateTask(b));
        let al_h = os.add_alarm("ah", AlarmAction::ActivateTask(hi));
        let mut w = W::new();
        os.start(&mut w);
        os.set_rel_alarm(al_a, ms(1), None).unwrap();
        os.set_rel_alarm(al_b, ms(2), None).unwrap(); // queued behind a
        os.set_rel_alarm(al_h, ms(3), None).unwrap(); // preempts a
        os.run_until(Instant::from_millis(20), &mut w);
        // After hi (3-4ms), a resumes before b despite b being activated.
        assert_eq!(
            w,
            vec![
                "hi@4000".to_string(),
                "a@6000".to_string(),
                "b@7000".to_string()
            ]
        );
    }

    #[test]
    fn multiple_activations_queue_up_to_limit() {
        let mut os: Os<W> = Os::new();
        let t = os.add_task(
            TaskConfig::new("t", Priority(1)).with_max_activations(2),
            log_body("t", ms(8)),
        );
        let a = os.add_alarm("a", AlarmAction::ActivateTask(t));
        let mut w = W::new();
        os.start(&mut w);
        // Period 5ms < execution 8ms: activations pile up, third is lost.
        os.set_rel_alarm(a, ms(5), Some(ms(5))).unwrap();
        os.run_until(Instant::from_millis(30), &mut w);
        assert!(
            os.trace().count_kind("os_error") > 0,
            "activation limit reported"
        );
        assert!(!w.is_empty());
    }

    #[test]
    fn deadline_miss_is_reported_exactly_once_per_late_activation() {
        let mut os: Os<W> = Os::new();
        let t = os.add_task(
            TaskConfig::new("t", Priority(1)).with_deadline(ms(5)),
            log_body("t", ms(8)),
        );
        let a = os.add_alarm("a", AlarmAction::ActivateTask(t));
        let mut w = W::new();
        os.start(&mut w);
        os.set_rel_alarm(a, ms(1), None).unwrap();
        os.run_until(Instant::from_millis(20), &mut w);
        assert_eq!(os.trace().count_kind("deadline_miss"), 1);
        let miss = os.trace().first_of_kind("deadline_miss").unwrap();
        assert_eq!(miss.at, Instant::from_millis(6));
    }

    #[test]
    fn meeting_deadline_reports_nothing() {
        let mut os: Os<W> = Os::new();
        let t = os.add_task(
            TaskConfig::new("t", Priority(1)).with_deadline(ms(5)),
            log_body("t", ms(2)),
        );
        let a = os.add_alarm("a", AlarmAction::ActivateTask(t));
        let mut w = W::new();
        os.start(&mut w);
        os.set_rel_alarm(a, ms(1), Some(ms(10))).unwrap();
        os.run_until(Instant::from_millis(50), &mut w);
        assert_eq!(os.trace().count_kind("deadline_miss"), 0);
    }

    #[test]
    fn budget_overrun_fires_at_exact_crossing() {
        let mut os: Os<W> = Os::new();
        let t = os.add_task(
            TaskConfig::new("t", Priority(1)).with_execution_budget(ms(3)),
            log_body("t", ms(10)),
        );
        let a = os.add_alarm("a", AlarmAction::ActivateTask(t));
        let mut w = W::new();
        os.start(&mut w);
        os.set_rel_alarm(a, ms(1), None).unwrap();
        os.run_until(Instant::from_millis(20), &mut w);
        assert_eq!(os.trace().count_kind("budget_exceeded"), 1);
        let e = os.trace().first_of_kind("budget_exceeded").unwrap();
        assert_eq!(e.at, Instant::from_millis(4)); // activated at 1ms + 3ms budget
    }

    #[test]
    fn hooks_observe_lifecycle() {
        use std::sync::{Arc, Mutex};
        let seen: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let mut os: Os<W> = Os::new();
        let t = os.add_task(TaskConfig::new("t", Priority(1)), log_body("t", ms(1)));
        os.add_observer(move |_now: Instant, ev: HookEvent, _w: &mut W| {
            sink.lock().unwrap().push(ev.to_string());
        });
        let mut w = W::new();
        os.start(&mut w);
        os.activate_task(t, &mut w).unwrap();
        os.run_until(Instant::from_millis(5), &mut w);
        let log = seen.lock().unwrap();
        assert_eq!(
            *log,
            vec![
                "startup".to_string(),
                format!("activate {t}"),
                format!("pre-task {t}"),
                format!("terminate {t}"),
            ]
        );
    }

    #[test]
    fn hooks_reach_only_the_observers_interested_in_them() {
        use std::sync::{Arc, Mutex};
        type Log = Arc<Mutex<Vec<(Instant, HookEvent)>>>;
        struct Recorder(HookMask, Log);
        impl HookObserver<W> for Recorder {
            fn on_hook(&mut self, now: Instant, event: HookEvent, _w: &mut W) {
                self.1.lock().unwrap().push((now, event));
            }
            fn interest(&self) -> HookMask {
                self.0
            }
        }
        let all: Log = Log::default();
        let misses: Log = Log::default();
        // lo misses its 5 ms deadline every period; hi preempts it.
        let mut os: Os<W> = Os::new();
        let lo = os.add_task(
            TaskConfig::new("lo", Priority(1)).with_deadline(ms(5)),
            log_body("lo", ms(6)),
        );
        let hi = os.add_task(TaskConfig::new("hi", Priority(5)), log_body("hi", ms(1)));
        let a_lo = os.add_alarm("alo", AlarmAction::ActivateTask(lo));
        let a_hi = os.add_alarm("ahi", AlarmAction::ActivateTask(hi));
        os.add_observer(Recorder(HookMask::DEADLINE_MISS, Arc::clone(&misses)));
        os.add_observer(Recorder(HookMask::ALL, Arc::clone(&all)));
        let mut w = W::new();
        os.start(&mut w);
        os.set_rel_alarm(a_lo, ms(1), Some(ms(10))).unwrap();
        os.set_rel_alarm(a_hi, ms(3), Some(ms(10))).unwrap();
        os.run_until(Instant::from_millis(40), &mut w);

        let all = all.lock().unwrap();
        let misses = misses.lock().unwrap();
        let all_misses: Vec<_> = all
            .iter()
            .filter(|(_, e)| matches!(e, HookEvent::DeadlineMiss { .. }))
            .copied()
            .collect();
        assert_eq!(misses.len(), 4, "{misses:?}");
        assert_eq!(*misses, all_misses);
        assert_eq!(misses[0].0, Instant::from_millis(6));
        // The catch-all observer still sees every lifecycle event.
        let count = |kind: HookMask| all.iter().filter(|&&(_, e)| kind.contains(e)).count();
        let trace = os.trace();
        assert_eq!(count(HookMask::PRE_TASK), trace.count_kind("dispatch"));
        assert_eq!(count(HookMask::POST_TASK), trace.count_kind("preempt"));
        assert_eq!(count(HookMask::ACTIVATE), trace.count_kind("activate"));
        assert_eq!(count(HookMask::TERMINATE), trace.count_kind("terminate"));
        assert_eq!(trace.count_kind("preempt"), 4);
        assert_eq!(trace.count_kind("terminate"), 8);
    }

    #[test]
    fn a_task_readied_where_a_decision_is_skipped_still_runs_first() {
        // (1) hi's alarm expires exactly when lo's compute step completes:
        // the completing compute fires that instant's timers and decides
        // before lo's effect may run.
        let mut os: Os<W> = Os::new();
        let lo = os.add_task(TaskConfig::new("lo", Priority(1)), log_body("lo", ms(2)));
        let hi = os.add_task(TaskConfig::new("hi", Priority(5)), log_body("hi", us(500)));
        let a_lo = os.add_alarm("alo", AlarmAction::ActivateTask(lo));
        let a_hi = os.add_alarm("ahi", AlarmAction::ActivateTask(hi));
        let mut w = W::new();
        os.start(&mut w);
        os.set_rel_alarm(a_lo, ms(1), None).unwrap();
        os.set_rel_alarm(a_hi, ms(3), None).unwrap();
        os.run_until(Instant::from_millis(10), &mut w);
        assert_eq!(w, vec!["hi@3500".to_string(), "lo@3500".to_string()]);

        // (2) An effect activates hi: the kernel decides again before lo's
        // next step, itself an effect.
        let mut os: Os<W> = Os::new();
        let hi = os.add_task(TaskConfig::new("hi", Priority(5)), log_body("hi", us(500)));
        let lo_body = Script::new()
            .compute(ms(1))
            .effect(move |w: &mut W, ctx| ctx.activate_task(hi, w).unwrap())
            .effect(|w: &mut W, ctx| w.push(format!("lo@{}", ctx.now().as_micros())));
        let lo = os.add_task(TaskConfig::new("lo", Priority(1)), lo_body);
        let mut w = W::new();
        os.start(&mut w);
        os.activate_task(lo, &mut w).unwrap();
        os.run_until(Instant::from_millis(10), &mut w);
        assert_eq!(w, vec!["hi@1500".to_string(), "lo@1500".to_string()]);
        assert_eq!(os.trace().count_kind("preempt"), 1);
    }

    #[test]
    fn utilization_accounts_busy_time() {
        let mut os: Os<W> = Os::new();
        let t = os.add_task(TaskConfig::new("t", Priority(1)), log_body("t", ms(5)));
        let a = os.add_alarm("a", AlarmAction::ActivateTask(t));
        let mut w = W::new();
        os.start(&mut w);
        os.set_rel_alarm(a, ms(10), Some(ms(10))).unwrap();
        os.run_until(Instant::from_millis(100), &mut w);
        let u = os.utilization();
        assert!((u - 0.5).abs() < 0.06, "expected ~50% utilisation, got {u}");
    }

    #[test]
    fn cancelled_alarm_does_not_fire() {
        let mut os: Os<W> = Os::new();
        let t = os.add_task(TaskConfig::new("t", Priority(1)), log_body("t", ms(1)));
        let a = os.add_alarm("a", AlarmAction::ActivateTask(t));
        let mut w = W::new();
        os.start(&mut w);
        os.set_rel_alarm(a, ms(10), Some(ms(10))).unwrap();
        os.run_until(Instant::from_millis(15), &mut w);
        os.cancel_alarm(a).unwrap();
        os.run_until(Instant::from_millis(60), &mut w);
        assert_eq!(w.len(), 1, "only the first expiry fires: {w:?}");
    }

    #[test]
    fn set_rel_alarm_validates_arguments() {
        let mut os: Os<W> = Os::new();
        let t = os.add_task(TaskConfig::new("t", Priority(1)), log_body("t", ms(1)));
        let a = os.add_alarm("a", AlarmAction::ActivateTask(t));
        assert_eq!(
            os.set_rel_alarm(AlarmId(9), ms(1), None),
            Err(OsError::InvalidId)
        );
        assert_eq!(
            os.set_rel_alarm(a, Duration::ZERO, None),
            Err(OsError::InvalidValue)
        );
        os.set_rel_alarm(a, ms(1), None).unwrap();
        assert_eq!(os.set_rel_alarm(a, ms(1), None), Err(OsError::InvalidState));
        assert_eq!(os.cancel_alarm(AlarmId(9)), Err(OsError::InvalidId));
        os.cancel_alarm(a).unwrap();
        assert_eq!(os.cancel_alarm(a), Err(OsError::AlarmNotInUse));
    }

    #[test]
    fn snapshot_restore_replays_identically() {
        // Run a preemption-heavy scene to 5 ms, snapshot, run to 20 ms;
        // then restore and re-run: world effects and the kernel trace must
        // replay byte-for-byte, including mid-flight plans and timers.
        let mut os: Os<W> = Os::new();
        let hi = os.add_task(TaskConfig::new("hi", Priority(9)), log_body("hi", ms(1)));
        let lo = os.add_task(
            TaskConfig::new("lo", Priority(1)),
            Script::new()
                .compute(ms(1))
                .effect(|w: &mut W, ctx| w.push(format!("lo-a@{}", ctx.now().as_micros())))
                .compute(ms(3))
                .effect(|w: &mut W, ctx| w.push(format!("lo-b@{}", ctx.now().as_micros()))),
        );
        let a_hi = os.add_alarm("a_hi", AlarmAction::ActivateTask(hi));
        let a_lo = os.add_alarm("a_lo", AlarmAction::ActivateTask(lo));
        let mut w = W::new();
        os.start(&mut w);
        os.set_rel_alarm(a_hi, ms(3), Some(ms(3))).unwrap();
        os.set_rel_alarm(a_lo, ms(2), Some(ms(7))).unwrap();
        os.run_until(Instant::from_millis(5), &mut w);
        let snap = os.state().clone();
        // Mid-activation: `lo` ran its first effect at 4 ms, after `hi`
        // preempted it at 3 ms, and is 1 ms into its second compute step,
        // with its second effect still ahead.
        assert_eq!(w, ["hi@4000", "lo-a@4000"]);
        assert_eq!(
            format!("{:?}", snap.plans[lo.index()]),
            "Plan { remainder: Some(Duration(2000)), steps: [EffectRef(1)] }"
        );
        let world_mark = w.len();
        os.run_until(Instant::from_millis(20), &mut w);
        let tail: Vec<String> = w[world_mark..].to_vec();
        let trace_once = format!("{:?}", os.trace());

        // The kernel does not own the world; the caller restores it (here:
        // truncate back to the snapshot point).
        os.restore(&snap);
        assert_eq!(os.now(), Instant::from_millis(5));
        assert_eq!(os.state(), &snap);
        let mut w2: W = w[..world_mark].to_vec();
        os.run_until(Instant::from_millis(20), &mut w2);
        assert_eq!(
            &w2[world_mark..],
            &tail[..],
            "world effects diverge after restore"
        );
        assert_eq!(
            format!("{:?}", os.trace()),
            trace_once,
            "trace diverges after restore"
        );
    }

    /// A body that computes `cost` and does nothing else.
    fn compute(cost: Duration) -> Script<W> {
        Script::new().compute(cost)
    }

    /// A bare periodic kernel without a trace: one compute-only task per
    /// `(config, cost, period in ms)`, each activated by a cyclic alarm.
    fn periodic_os(tasks: Vec<(TaskConfig, Duration, u64)>) -> (Os<W>, W) {
        let mut os: Os<W> = Os::with_disabled_trace();
        let mut alarms = Vec::new();
        for (config, cost, period) in tasks {
            let task = os.add_task(config, compute(cost));
            alarms.push((
                os.add_alarm("cyc", AlarmAction::ActivateTask(task)),
                ms(period),
            ));
        }
        let mut w = W::new();
        os.start(&mut w);
        for (alarm, period) in alarms {
            os.set_rel_alarm(alarm, period, Some(period)).unwrap();
        }
        (os, w)
    }

    #[test]
    fn advancing_a_sample_equals_simulating_its_hyperperiods() {
        let h = ms(20);
        // Tasks at 5, 10 and 20 ms (H = 20 ms), the 10 ms one with a
        // deadline check.
        let staggered = || {
            vec![
                (TaskConfig::new("fast", Priority(3)), us(300), 5),
                (
                    TaskConfig::new("mid", Priority(2)).with_deadline(ms(8)),
                    ms(2),
                    10,
                ),
                (TaskConfig::new("slow", Priority(1)), ms(3), 20),
            ]
        };
        // `hog` keeps the CPU busy for good, meeting its 6 ms deadline;
        // `starved`, readied once at 20 ms, waits `Ready` from then on and
        // its later activations are refused.
        let starving = vec![
            (
                TaskConfig::new("hog", Priority(2))
                    .with_max_activations(2)
                    .with_deadline(ms(6)),
                ms(5),
                5,
            ),
            (TaskConfig::new("starved", Priority(1)), ms(1), 20),
        ];
        // 43.5 ms: `slow` runs, `fast` and `mid` are done, nothing is
        // Ready, and the alarms are pending. 40.5 ms: `mid` runs while
        // `slow` waits Ready. 41.5 ms: `hog` runs and `starved` has waited
        // through a whole hyperperiod already.
        for (tasks, t0_us, ready) in [
            (staggered(), 43_500, false),
            (staggered(), 40_500, true),
            (starving, 41_500, true),
        ] {
            let (mut os, mut w) = periodic_os(tasks);
            let t0 = Instant::from_micros(t0_us);
            os.run_until(t0, &mut w);
            let sample = os.state().clone();
            assert!(sample.running.is_some());
            assert_eq!(
                sample.tasks.iter().any(|t| t.state == TaskState::Ready),
                ready
            );
            assert!(sample
                .timers
                .entries()
                .iter()
                .any(|(_, ev)| matches!(ev, KernelEvent::DeadlineCheck(_))));
            let program = {
                os.run_until(t0 + h, &mut w);
                OsState::measure(&sample, os.state(), h)
            };
            for k in 1..=4 {
                os.run_until(t0 + h * k, &mut w);
                let mut advanced = sample.clone();
                advanced.advance(&program, k);
                assert_eq!(&advanced, os.state(), "{t0_us} us, {k} hyperperiods");
            }
        }
    }

    #[test]
    fn running_to_the_same_instant_twice_changes_nothing() {
        // `lo` computes 1–5 ms, across `hi`'s alarm at 3 ms.
        let mut os: Os<W> = Os::new();
        let lo = os.add_task(TaskConfig::new("lo", Priority(1)), compute(ms(4)));
        let hi = os.add_task(TaskConfig::new("hi", Priority(5)), compute(ms(1)));
        let a_lo = os.add_alarm("alo", AlarmAction::ActivateTask(lo));
        let a_hi = os.add_alarm("ahi", AlarmAction::ActivateTask(hi));
        let mut w = W::new();
        os.start(&mut w);
        os.set_rel_alarm(a_lo, ms(1), None).unwrap();
        os.set_rel_alarm(a_hi, ms(3), None).unwrap();
        os.run_until(Instant::from_millis(3), &mut w);
        let once = os.state().clone();
        os.run_until(Instant::from_millis(3), &mut w);
        assert_eq!(os.state(), &once);
        // The alarm due at 3 ms fires in the next call that moves on.
        assert_eq!(os.task_state(lo), Ok(TaskState::Running));
        os.run_until(Instant::from_millis(6), &mut w);
        assert_eq!(os.trace().count_kind("preempt"), 1);
    }

    #[test]
    fn deadline_checks_count_the_activations_still_queued() {
        // Three activations at 0 ms with room for two: the third is
        // refused. Both checks fall due at 5 ms; the first activation
        // ended at 3 ms, the second ends at 6 ms. A later, punctual
        // activation at 20 ms adds no report.
        let mut os: Os<W> = Os::new();
        let t = os.add_task(
            TaskConfig::new("t", Priority(1))
                .with_max_activations(2)
                .with_deadline(ms(5)),
            compute(ms(3)),
        );
        let a = os.add_alarm("a", AlarmAction::ActivateTask(t));
        let mut w = W::new();
        os.start(&mut w);
        os.activate_task(t, &mut w).unwrap();
        os.activate_task(t, &mut w).unwrap();
        assert_eq!(os.activate_task(t, &mut w), Err(OsError::ActivationLimit));
        os.set_rel_alarm(a, ms(20), None).unwrap();
        os.run_until(Instant::from_millis(40), &mut w);
        assert_eq!(os.trace().count_kind("deadline_miss"), 1);
        let miss = os.trace().first_of_kind("deadline_miss").unwrap();
        assert_eq!(miss.at, Instant::from_millis(5));
        assert_eq!(os.trace().count_kind("terminate"), 3);
    }

    #[test]
    #[should_panic(expected = "different task/alarm tables")]
    fn restore_rejects_the_state_of_a_differently_built_os() {
        let mut small: Os<W> = Os::new();
        small.add_task(TaskConfig::new("a", Priority(1)), log_body("a", ms(1)));
        let mut big: Os<W> = Os::new();
        big.add_task(TaskConfig::new("a", Priority(1)), log_body("a", ms(1)));
        big.add_task(TaskConfig::new("b", Priority(2)), log_body("b", ms(1)));
        small.restore(big.state());
    }

    #[test]
    fn effect_direct_activation_matches_legacy_request_semantics() {
        // Through the direct-call API the activation executes synchronously
        // inside the effect; preemption by the higher-priority peer only
        // materialises at the next scheduling decision, after the step —
        // the same observable outcome the retired request-queue shim had.
        let mut os: Os<W> = Os::new();
        let b = os.add_task(TaskConfig::new("b", Priority(9)), log_body("b", ms(1)));
        let a = os.add_task(
            TaskConfig::new("a", Priority(1)),
            Script::new()
                .effect(move |w: &mut W, ctx| ctx.activate_task(b, w).unwrap())
                .compute(ms(5))
                .effect(|w: &mut W, ctx| w.push(format!("a@{}", ctx.now().as_micros()))),
        );
        let mut w = W::new();
        os.start(&mut w);
        os.activate_task(a, &mut w).unwrap();
        os.run_until(Instant::from_millis(10), &mut w);
        assert_eq!(w, vec!["b@1000".to_string(), "a@6000".to_string()]);
        // The direct call went through the same kernel path: activation
        // traces for os start, a and b.
        assert_eq!(os.trace().count_kind("activate"), 2);
    }

    #[test]
    fn arena_body_calls_services_directly_in_place() {
        // An arena-backed body (plan_into + EffectRef) exercises the whole
        // split-borrow path: run_effect executes on the body in place and
        // activates a peer task synchronously through its context.
        struct Activator {
            peer: Option<TaskId>,
            fired: u32,
        }
        impl TaskBody<W> for Activator {
            fn plan_into(&mut self, _world: &W, out: &mut Plan) {
                out.push_compute(Duration::from_millis(1));
                out.push_effect_ref(0);
            }
            fn run_effect(&mut self, token: u32, world: &mut W, ctx: &mut EffectCtx<'_, W>) {
                assert_eq!(token, 0);
                self.fired += 1;
                world.push(format!("activator@{}", ctx.now().as_micros()));
                if let Some(peer) = self.peer {
                    ctx.activate_task(peer, world).unwrap();
                    assert_eq!(ctx.task_state(peer), Ok(TaskState::Ready));
                }
            }
        }
        let mut os: Os<W> = Os::new();
        let peer = os.add_task(
            TaskConfig::new("peer", Priority(1)),
            log_body("peer", ms(1)),
        );
        let activator = os.add_task(
            TaskConfig::new("activator", Priority(5)),
            Activator {
                peer: Some(peer),
                fired: 0,
            },
        );
        let mut w = W::new();
        os.start(&mut w);
        os.activate_task(activator, &mut w).unwrap();
        os.run_until(Instant::from_millis(10), &mut w);
        assert_eq!(
            w,
            vec!["activator@1000".to_string(), "peer@2000".to_string()]
        );
    }

    #[test]
    fn effect_services_run_on_the_kernel() {
        // `caller` computes 0–1 ms, then its effect calls every service
        // while it still runs.
        let mut os: Os<W> = Os::new();
        let hi = os.add_task(TaskConfig::new("hi", Priority(3)), log_body("hi", us(100)));
        let peer = os.add_task(
            TaskConfig::new("peer", Priority(1)),
            log_body("peer", us(100)),
        );
        let alarm = os.add_alarm("a", AlarmAction::ActivateTask(peer));
        let caller = os.add_task(
            TaskConfig::new("caller", Priority(2)),
            Script::new().compute(ms(1)).effect(move |w: &mut W, ctx| {
                w.push(format!("{}@{}", ctx.task(), ctx.now().as_micros()));
                assert_eq!(ctx.task_state(ctx.task()), Ok(TaskState::Running));
                for t in [peer, hi] {
                    assert_eq!(ctx.task_state(t), Ok(TaskState::Suspended));
                    assert_eq!(ctx.activate_task(t, w), Ok(()));
                    assert_eq!(ctx.task_state(t), Ok(TaskState::Ready));
                }
                assert_eq!(ctx.activate_task(hi, w), Err(OsError::ActivationLimit));
                assert_eq!(ctx.cancel_alarm(alarm.0), Ok(()));
                assert_eq!(ctx.cancel_alarm(alarm.0), Err(OsError::AlarmNotInUse));
                assert_eq!(ctx.task_state(TaskId(9)), Err(OsError::InvalidId));
                assert!(ctx.trace_enabled());
                ctx.trace("body", "mark", "services");
            }),
        );
        let mut w = W::new();
        os.start(&mut w);
        os.set_rel_alarm(alarm, ms(5), Some(ms(5))).unwrap();
        os.activate_task(caller, &mut w).unwrap();
        os.run_until(Instant::from_millis(20), &mut w);
        // `hi` runs before the peer readied ahead of it; the alarm never
        // fires.
        assert_eq!(
            w,
            vec![
                format!("{caller}@1000"),
                "hi@1100".into(),
                "peer@1200".into()
            ]
        );
        assert_eq!(os.trace().count_kind("alarm"), 0);
        assert_eq!(os.trace().count_kind("os_error"), 1);
        let mark = os.trace().first_of_kind("mark").unwrap();
        assert_eq!(
            (mark.at, mark.source.as_str()),
            (Instant::from_millis(1), "body")
        );
    }

    #[test]
    fn task_names_and_invalid_ids() {
        let mut os: Os<W> = Os::new();
        let t = os.add_task(
            TaskConfig::new("SafeSpeedTask", Priority(1)),
            log_body("x", ms(1)),
        );
        assert_eq!(os.task_name(t).unwrap(), "SafeSpeedTask");
        assert_eq!(os.task_name(TaskId(9)), Err(OsError::InvalidId));
        assert_eq!(os.task_state(TaskId(9)), Err(OsError::InvalidId));
    }

    /// Forwards to a body, counting its `plan_into` calls.
    struct Counted<B> {
        body: B,
        plans: std::sync::Arc<std::sync::atomic::AtomicU32>,
    }

    impl<B: TaskBody<W>> TaskBody<W> for Counted<B> {
        fn plan_into(&mut self, w: &W, out: &mut Plan) {
            self.plans
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.body.plan_into(w, out);
        }

        fn plan_key(&self, w: &W) -> Option<u64> {
            self.body.plan_key(w)
        }

        fn run_effect(&mut self, token: u32, w: &mut W, ctx: &mut EffectCtx<'_, W>) {
            self.body.run_effect(token, w, ctx);
        }
    }

    /// Computes 1 ms more than the world has entries, then logs. Its plan
    /// key is the world's length, or a constant when it `lies`.
    struct LengthBody {
        lies: bool,
    }

    impl TaskBody<W> for LengthBody {
        fn plan_into(&mut self, w: &W, out: &mut Plan) {
            out.push_compute(ms(1 + w.len() as u64));
            out.push_effect_ref(0);
        }

        fn plan_key(&self, w: &W) -> Option<u64> {
            Some(if self.lies { 0 } else { w.len() as u64 })
        }

        fn run_effect(&mut self, _token: u32, w: &mut W, ctx: &mut EffectCtx<'_, W>) {
            w.push(format!("t@{}", ctx.now().as_micros()));
        }
    }

    /// Runs a [`LengthBody`] task activated at 0, 10, 20 and 30 ms, with
    /// the world emptied before the last two activations: keys 0, 1, 0, 0.
    /// Returns the log and the number of `plan_into` calls.
    fn run_length_body(lies: bool) -> (W, u32) {
        use std::sync::atomic::Ordering;
        let plans = std::sync::Arc::default();
        let mut os: Os<W> = Os::new();
        let body = Counted {
            body: LengthBody { lies },
            plans: std::sync::Arc::clone(&plans),
        };
        let t = os.add_task(TaskConfig::new("t", Priority(1)), body);
        let mut w = W::new();
        let mut log = W::new();
        os.start(&mut w);
        for at in [0, 10, 20, 30] {
            os.run_until(Instant::from_millis(at).max(os.now()), &mut w);
            if at >= 20 {
                log.append(&mut w);
            }
            os.activate_task(t, &mut w).unwrap();
        }
        os.run_until(Instant::from_millis(40), &mut w);
        log.append(&mut w);
        (log, plans.load(Ordering::Relaxed))
    }

    #[test]
    fn a_plan_is_replayed_until_its_key_changes() {
        // Keys 0, 1, 0, 0: planned, planned afresh (2 ms), planned again
        // (the retained plan was built under key 1), replayed.
        let (log, plans) = run_length_body(false);
        assert_eq!(log, ["t@1000", "t@12000", "t@21000", "t@31000"]);
        // Debug builds also plan at the replay, to check it.
        assert_eq!(plans, if cfg!(debug_assertions) { 4 } else { 3 });
    }

    #[test]
    fn a_script_is_planned_once_and_runs_its_effects_in_order_at_every_activation() {
        let plans = std::sync::Arc::default();
        let mut activation = 0;
        let script = Script::new()
            .effect(|w: &mut W, ctx| w.push(format!("a@{}", ctx.now().as_micros())))
            .compute(ms(1))
            .effect(|w: &mut W, ctx| w.push(format!("b@{}", ctx.now().as_micros())))
            .effect(move |w: &mut W, _| {
                // The script keeps its closures, and their state, across
                // activations.
                activation += 1;
                w.push(format!("c{activation}"));
            });
        let mut os: Os<W> = Os::new();
        let t = os.add_task(
            TaskConfig::new("t", Priority(1)),
            Counted {
                body: script,
                plans: std::sync::Arc::clone(&plans),
            },
        );
        let a = os.add_alarm("a", AlarmAction::ActivateTask(t));
        let mut w = W::new();
        os.start(&mut w);
        os.set_rel_alarm(a, ms(10), Some(ms(10))).unwrap();
        os.run_until(Instant::from_millis(35), &mut w);
        assert_eq!(
            w,
            ["a@10000", "b@11000", "c1", "a@20000", "b@21000", "c2", "a@30000", "b@31000", "c3"]
        );
        assert_eq!(os.state().plans[t.index()].key(), Some(0));
        // Debug builds also plan at every replay, to check it.
        let planned = plans.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(planned, if cfg!(debug_assertions) { 3 } else { 1 });
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "only debug builds check replays")]
    #[should_panic(expected = "task T0 (t) replayed Plan")]
    fn debug_builds_fail_closed_on_a_stale_plan_key() {
        // The second activation replays the 1 ms plan where planning
        // builds 2 ms.
        run_length_body(true);
    }

    #[test]
    fn run_until_is_resumable_across_calls() {
        let mut os: Os<W> = Os::new();
        let t = os.add_task(TaskConfig::new("t", Priority(1)), log_body("t", ms(10)));
        let mut w = W::new();
        os.start(&mut w);
        os.activate_task(t, &mut w).unwrap();
        // Split the 10ms execution across three run_until calls.
        os.run_until(Instant::from_millis(3), &mut w);
        assert!(w.is_empty());
        os.run_until(Instant::from_millis(7), &mut w);
        assert!(w.is_empty());
        os.run_until(Instant::from_millis(12), &mut w);
        assert_eq!(w, vec!["t@10000".to_string()]);
    }
}
