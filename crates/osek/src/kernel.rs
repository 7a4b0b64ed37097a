//! The OS kernel: fixed-priority preemptive scheduling over simulated time.
//!
//! [`Os`] owns the task, alarm and resource tables and executes task plans
//! under OSEK full-preemptive scheduling semantics:
//!
//! * the highest-priority ready task runs; equal priorities are FIFO and a
//!   preempted task re-enters its priority level at the *front* (OSEK spec);
//! * non-preemptable tasks yield only at termination or `WaitEvent`;
//! * resources follow the priority-ceiling protocol;
//! * cyclic alarms re-arm with their (possibly injector-scaled) cycle;
//! * optional per-task deadlines (OSEKTime) and execution budgets
//!   (AUTOSAR OS timing protection) are detected exactly and reported
//!   through hooks and the trace.
//!
//! Execution is deterministic: ties on the event queue break by insertion
//! order and the scheduler state machine contains no hidden randomness.
//!
//! # Split-borrow ownership
//!
//! [`Os`] is factored into two disjoint parts: the task *bodies* and the
//! scheduler *core*. The core holds the build-time wiring (task, alarm and
//! resource tables, hook observers) next to the kernel's whole runtime
//! state, one [`OsState`]: TCBs, alarm arming, resource holders, timer
//! queue, clock, trace and the per-task plan arena. Because bodies and core
//! are separate fields, dispatch borrows them simultaneously without moving
//! anything: planning calls [`TaskBody::plan_into`] on the body **in
//! place** while the arena slot and the clock are borrowed alongside, and
//! [`Step::EffectRef`] execution hands [`TaskBody::run_effect`] a
//! [`KernelServices`] view of the core so effects call
//! `ActivateTask`/`SetEvent`/`CancelAlarm` **directly and synchronously** —
//! no `Option::take`/restore of the body, no deferred request queue on the
//! hot path.

use crate::alarm::{Alarm, AlarmAction, AlarmId};
use crate::error::OsError;
use crate::hooks::{HookEvent, HookMask, HookObserver};
use crate::plan::{EffectCtx, KernelServices, PlanArena, ResourceId, ServiceCore, Step, TaskBody};
use crate::resource::{HeldResources, Resource};
use crate::task::{EventMask, Priority, TaskConfig, TaskId, TaskKind, TaskState};
use easis_sim::event::EventQueue;
use easis_sim::time::{Duration, Instant};
use easis_sim::trace::TraceRecorder;

/// Trace source tag used by the kernel.
pub const TRACE_SOURCE: &str = "osek";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KernelEvent {
    AlarmExpiry(AlarmId),
    DeadlineCheck { task: TaskId, seq: u64 },
}

easis_sim::clone_fields! {
    /// Runtime fields of one task control block. The task's configuration
    /// is wiring and lives in the core's task table (same index); its body
    /// lives in `Os::bodies`.
    #[derive(Debug, PartialEq, Eq)]
    struct Tcb {
        state: TaskState,
        /// `true` once the current activation's plan has been filled into
        /// the kernel's [`PlanArena`] slot (cleared at termination).
        planned: bool,
        current_priority: Priority,
        set_events: EventMask,
        waiting_for: EventMask,
        held: HeldResources,
        /// Activations issued / completed (monotonic counters); the
        /// difference is the queue depth including the current instance.
        issued: u64,
        completed: u64,
        /// Execution time consumed by the current activation.
        exec_time: Duration,
        budget_reported: bool,
        /// Ordering key within a priority band: lower runs first.
        /// Preempted tasks receive keys below all waiting ones (front of
        /// the band). Back keys count up from 1 and front keys down from
        /// −1; a `Suspended` or `Waiting` task holds 0, so its dead key is
        /// the same however it was last readied (see
        /// [`OsState::advance`]).
        ready_key: i64,
    }
}

impl Tcb {
    fn new(priority: Priority) -> Self {
        Tcb {
            state: TaskState::Suspended,
            planned: false,
            current_priority: priority,
            set_events: EventMask::NONE,
            waiting_for: EventMask::NONE,
            held: HeldResources::new(),
            issued: 0,
            completed: 0,
            exec_time: Duration::ZERO,
            budget_reported: false,
            ready_key: 0,
        }
    }

    fn queued(&self) -> u64 {
        self.issued - self.completed
    }
}

easis_sim::clone_fields! {
    /// Everything a kernel run can change: TCBs, alarm arming and cycle
    /// scales, resource holders, pending timers, the clock, the running
    /// task, the ready-key cursors, the busy meter, the trace, and the
    /// plan arena (in-flight plans). It is the kernel's checkpoint:
    /// [`Os::state`] lends it for capture, [`Os::restore`] copies one back,
    /// and a warm `clone_from` allocates nothing.
    ///
    /// Task bodies, the task/alarm/resource tables and hook observers are
    /// wiring and stay out: bodies must keep all replay-relevant state in
    /// their arena plans, and observers keep their own state at the node
    /// level. Cloning a state whose arena holds a boxed [`Step::Effect`]
    /// closure panics (a closure cannot be duplicated); arena bodies plan
    /// [`Step::EffectRef`] tokens instead.
    #[derive(Debug)]
    pub struct OsState<W> {
        tasks: Vec<Tcb>,
        alarms: Vec<Alarm>,
        /// Holder of each resource, by resource id.
        holders: Vec<Option<TaskId>>,
        timers: EventQueue<KernelEvent>,
        now: Instant,
        running: Option<TaskId>,
        trace: TraceRecorder,
        started: bool,
        /// Monotone counters generating the tasks' ready keys.
        next_back_key: i64,
        next_front_key: i64,
        busy: Duration,
        /// Capacity-retained per-task plan buffers (slot `i` belongs to
        /// task `i`); cleared, never shrunk, across activations and
        /// restores.
        arena: PlanArena<W>,
    }
}

impl<W> Default for OsState<W> {
    fn default() -> Self {
        OsState {
            tasks: Vec::new(),
            alarms: Vec::new(),
            holders: Vec::new(),
            timers: EventQueue::new(),
            now: Instant::ZERO,
            running: None,
            trace: TraceRecorder::new(),
            started: false,
            next_back_key: 1,
            next_front_key: -1,
            busy: Duration::ZERO,
            arena: PlanArena::new(),
        }
    }
}

/// Field by field, without a bound on the world type (the arena compares
/// plans step by step).
impl<W> PartialEq for OsState<W> {
    fn eq(&self, other: &Self) -> bool {
        let OsState {
            tasks,
            alarms,
            holders,
            timers,
            now,
            running,
            trace,
            started,
            next_back_key,
            next_front_key,
            busy,
            arena,
        } = self;
        *tasks == other.tasks
            && *alarms == other.alarms
            && *holders == other.holders
            && *timers == other.timers
            && *now == other.now
            && *running == other.running
            && *trace == other.trace
            && *started == other.started
            && *next_back_key == other.next_back_key
            && *next_front_key == other.next_front_key
            && *busy == other.busy
            && *arena == other.arena
    }
}

/// The scheduler core: the kernel's wiring plus its whole runtime state.
/// Holding it as one field gives dispatch the split borrow the effect path
/// needs — `&mut Core<W>` (as the effect's [`KernelServices`]) alongside
/// `&mut` the executing body — and it is the kernel-side implementation of
/// [`ServiceCore`].
struct Core<W> {
    /// Task configurations, indexed by task id.
    configs: Vec<TaskConfig>,
    /// Alarm names and expiry actions, indexed by alarm id.
    alarm_wiring: Vec<(String, AlarmAction)>,
    resources: Vec<Resource>,
    /// Subscribed observers, each with the interest it declared.
    observers: Vec<(HookMask, Box<dyn HookObserver<W>>)>,
    /// Union of the observers' interests: hook kinds outside it are
    /// dropped before the observer list is touched.
    interest: HookMask,
    state: OsState<W>,
}

/// The OSEK operating system model, generic over the ECU world type `W`.
///
/// # Examples
///
/// ```
/// use easis_osek::kernel::Os;
/// use easis_osek::plan::Plan;
/// use easis_osek::task::{Priority, TaskConfig};
/// use easis_sim::time::{Duration, Instant};
///
/// let mut os: Os<u32> = Os::new();
/// let t = os.add_task(
///     TaskConfig::new("tick", Priority(1)),
///     |_now: Instant, _w: &u32| {
///         Plan::new()
///             .compute(Duration::from_micros(100))
///             .effect(|w, _ctx| *w += 1)
///     },
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
    /// core so an effect can run on its body in place while holding the
    /// core as its [`KernelServices`] view.
    bodies: Vec<Box<dyn TaskBody<W>>>,
    /// Wiring and runtime state — the [`ServiceCore`] handed to effects.
    core: Core<W>,
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
                resources: Vec::new(),
                observers: Vec::new(),
                interest: HookMask::NONE,
                state: OsState::default(),
            },
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
        state.tasks.push(Tcb::new(config.priority()));
        self.core.configs.push(config);
        state.arena.grow_to(state.tasks.len());
        id
    }

    /// Declares an alarm. Returns its id; arm it with [`Os::set_rel_alarm`].
    pub fn add_alarm(&mut self, name: impl Into<String>, action: AlarmAction) -> AlarmId {
        let id = AlarmId(self.core.alarm_wiring.len() as u32);
        self.core.alarm_wiring.push((name.into(), action));
        self.core.state.alarms.push(Alarm::default());
        id
    }

    /// Declares a resource with the given ceiling priority. Returns its id.
    pub fn add_resource(&mut self, name: impl Into<String>, ceiling: Priority) -> ResourceId {
        let id = ResourceId(self.core.resources.len() as u32);
        self.core.resources.push(Resource::new(name, ceiling));
        self.core.state.holders.push(None);
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

    /// Number of declared tasks.
    pub fn task_count(&self) -> usize {
        self.core.configs.len()
    }

    /// State of a task.
    ///
    /// # Errors
    ///
    /// Returns [`OsError::InvalidId`] for an unknown id.
    pub fn task_state(&self, id: TaskId) -> Result<TaskState, OsError> {
        ServiceCore::task_state(&self.core, id)
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

    /// Finds a task by name.
    pub fn find_task(&self, name: &str) -> Option<TaskId> {
        self.core
            .configs
            .iter()
            .position(|c| c.name() == name)
            .map(|i| TaskId(i as u32))
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

    /// Starts the OS: fires the startup hook and activates autostart tasks.
    pub fn start(&mut self, world: &mut W) {
        self.core.start(world);
    }

    /// Shuts the OS down (fires the shutdown hook; scheduling stops).
    pub fn shutdown(&mut self, world: &mut W) {
        self.core.shutdown(world);
    }

    /// The kernel's runtime state — its checkpoint (see [`OsState`]).
    /// `snap.clone_from(os.state())` captures it into a warm buffer
    /// without allocating.
    pub fn state(&self) -> &OsState<W> {
        &self.core.state
    }

    /// Restores runtime state captured from [`Os::state`], after which the
    /// OS replays exactly like the captured one. One `clone_from`: buffers
    /// (timer entries, arena plan slots, TCB resource stacks) are
    /// overwritten in place with their capacity retained.
    ///
    /// # Panics
    ///
    /// Panics if the state belongs to an OS with different task, alarm or
    /// resource tables — it must come from an identically built OS,
    /// normally the same instance.
    pub fn restore(&mut self, state: &OsState<W>) {
        assert_eq!(
            (
                self.core.configs.len(),
                self.core.alarm_wiring.len(),
                self.core.resources.len()
            ),
            (state.tasks.len(), state.alarms.len(), state.holders.len()),
            "state belongs to an OS with different task/alarm/resource tables"
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

    /// `SetEvent`: sets events on an extended task, waking it if it waits
    /// for any of them.
    ///
    /// # Errors
    ///
    /// [`OsError::InvalidId`] for unknown tasks, [`OsError::InvalidAccess`]
    /// for basic tasks, [`OsError::InvalidState`] if the task is suspended.
    pub fn set_event(&mut self, id: TaskId, mask: EventMask, world: &mut W) -> Result<(), OsError> {
        self.core.set_event(id, mask, world)
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

    /// Runs the simulation until `end` (inclusive of events at `end`).
    ///
    /// # Panics
    ///
    /// Panics if the OS was not started or `end` is in the past.
    pub fn run_until(&mut self, end: Instant, world: &mut W) {
        assert!(self.core.state.started, "call start() first");
        assert!(end >= self.core.state.now, "cannot run backwards in time");
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
        // First dispatch of an activation: plan the body into the task's
        // arena slot (cleared, capacity retained — no allocation once the
        // slot has grown to the steady-state plan length). The body plans
        // in place: `bodies` and `core` are disjoint fields, so no move out
        // of the TCB is needed.
        let state = &mut self.core.state;
        if !state.tasks[i].planned {
            let buf = state.arena.slot_mut(i);
            buf.clear();
            self.bodies[i].plan_into(state.now, world, buf);
            let tcb = &mut state.tasks[i];
            tcb.planned = true;
            tcb.exec_time = Duration::ZERO;
            tcb.budget_reported = false;
        }
    }

    /// Executes steps of the running task until it terminates, blocks, is
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
            // task, or dropped this one's priority.
            if !decided && self.core.pick_next() != Some(id) {
                return false;
            }
            decided = false;
            let step = self.core.state.arena.slot_mut(i).pop();
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
                Step::Effect(mut f) => {
                    let now = self.core.state.now;
                    let mut ctx = EffectCtx::for_kernel(now, id, KernelServices::new(&mut self.core));
                    f(world, &mut ctx);
                }
                Step::EffectRef(token) => {
                    // In-place dispatch: the body stays in `bodies` while
                    // the effect holds the core as its service view — the
                    // split borrow that replaced the take/restore dance.
                    let now = self.core.state.now;
                    let mut ctx = EffectCtx::for_kernel(now, id, KernelServices::new(&mut self.core));
                    self.bodies[i].run_effect(token, world, &mut ctx);
                }
                Step::ActivateTask(t) => {
                    let _ = self.core.activate_task(t, world);
                }
                Step::SetEvent(t, m) => {
                    let _ = self.core.set_event(t, m, world);
                }
                Step::WaitEvent(mask) => {
                    if self.core.configs[i].kind() != TaskKind::Extended {
                        self.core.report_error(OsError::InvalidAccess, world);
                        // Basic tasks cannot wait; ignore the step.
                        continue;
                    }
                    let tcb = &mut self.core.state.tasks[i];
                    if tcb.set_events.intersects(mask) {
                        continue; // event already pending: no blocking
                    }
                    tcb.waiting_for = mask;
                    tcb.state = TaskState::Waiting;
                    tcb.ready_key = 0;
                    self.core.state.running = None;
                    self.core.record(id, "wait");
                    self.core.fire_hook(HookEvent::PostTask(id), world);
                    return false;
                }
                Step::ClearEvent(mask) => {
                    let tcb = &mut self.core.state.tasks[i];
                    tcb.set_events = tcb.set_events.clear(mask);
                }
                Step::GetResource(rid) => {
                    let r = rid.0 as usize;
                    if r >= self.core.resources.len() {
                        self.core.report_error(OsError::InvalidId, world);
                        continue;
                    }
                    if self.core.state.holders[r].is_some() {
                        // With a correct ceiling this cannot happen; report
                        // and skip so faulty configs surface in the trace.
                        self.core.report_error(OsError::ResourceOrder, world);
                        continue;
                    }
                    let ceiling = self.core.resources[r].ceiling();
                    let state = &mut self.core.state;
                    state.holders[r] = Some(id);
                    let tcb = &mut state.tasks[i];
                    tcb.held.push(rid, tcb.current_priority);
                    if ceiling > tcb.current_priority {
                        tcb.current_priority = ceiling;
                    }
                }
                Step::ReleaseResource(rid) => {
                    let r = rid.0 as usize;
                    if r >= self.core.resources.len() {
                        self.core.report_error(OsError::InvalidId, world);
                        continue;
                    }
                    let restored = self.core.state.tasks[i].held.pop_matching(rid);
                    match restored {
                        Some(prior) => {
                            self.core.state.holders[r] = None;
                            self.core.state.tasks[i].current_priority = prior;
                            // Dropping priority may enable preemption.
                            if self.core.pick_next() != Some(id) {
                                return false;
                            }
                        }
                        None => {
                            self.core.report_error(OsError::ResourceOrder, world);
                        }
                    }
                }
                Step::ChainTask(t) => {
                    self.terminate_running(id, world);
                    let _ = self.core.activate_task(t, world);
                    return false;
                }
                Step::Schedule => {
                    // Re-run the dispatch decision ignoring this task's
                    // non-preemptability: OSEK Schedule() semantics. If a
                    // higher-priority task is ready, yield to it (re-enter
                    // its priority level at the front, like a preemption).
                    if let Some(best) = self.core.pick_ignoring_nonpreempt() {
                        if best != id {
                            self.core.make_ready(id, true);
                            self.core.record(id, "yield");
                            self.core.state.running = None;
                            self.core.fire_hook(HookEvent::PostTask(id), world);
                            return false;
                        }
                    }
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
                // Horizon reached mid-compute: save the remainder.
                self.core
                    .state
                    .arena
                    .slot_mut(i)
                    .push_front(Step::Compute(remaining));
                return Some(true);
            }
            // Process timers due exactly now; they may ready someone higher.
            self.core.fire_due_timers(world);
            if self.core.pick_next() != Some(id) {
                if !remaining.is_zero() {
                    self.core
                        .state
                        .arena
                        .slot_mut(i)
                        .push_front(Step::Compute(remaining));
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
        // OSEK: terminating with occupied resources is an error; release them.
        if !self.core.state.tasks[i].held.is_empty() {
            self.core.report_error(OsError::ResourceOrder, world);
            let state = &mut self.core.state;
            let tcb = &mut state.tasks[i];
            for rid in tcb.held.ids() {
                state.holders[rid.0 as usize] = None;
            }
            tcb.held.clear();
            tcb.current_priority = self.core.configs[i].priority();
        }
        let state = &mut self.core.state;
        let tcb = &mut state.tasks[i];
        tcb.completed += 1;
        tcb.planned = false;
        tcb.set_events = EventMask::NONE;
        state.arena.slot_mut(i).clear();
        state.running = None;
        self.core.record(id, "terminate");
        self.core.fire_hook(HookEvent::Terminate(id), world);
        // Queued activation pending? Re-enter ready immediately.
        if self.core.state.tasks[i].queued() > 0 {
            self.core.make_ready(id, false);
        } else {
            let tcb = &mut self.core.state.tasks[i];
            tcb.state = TaskState::Suspended;
            tcb.ready_key = 0;
        }
    }
}

impl<W> Core<W> {
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

    fn start(&mut self, world: &mut W) {
        assert!(!self.state.started, "OS started twice");
        self.state.started = true;
        self.state
            .trace
            .record(self.state.now, TRACE_SOURCE, "startup", "");
        self.fire_hook(HookEvent::Startup, world);
        let autostart: Vec<TaskId> = self
            .configs
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_autostart())
            .map(|(i, _)| TaskId(i as u32))
            .collect();
        for id in autostart {
            let _ = self.activate_task(id, world);
        }
    }

    fn shutdown(&mut self, world: &mut W) {
        self.state
            .trace
            .record(self.state.now, TRACE_SOURCE, "shutdown", "");
        self.fire_hook(HookEvent::Shutdown, world);
        self.state.started = false;
    }

    fn activate_task(&mut self, id: TaskId, world: &mut W) -> Result<(), OsError> {
        let i = id.index();
        let Some(config) = self.configs.get(i) else {
            return Err(OsError::InvalidId);
        };
        let (max, deadline) = (config.max_activations() as u64, config.deadline());
        if self.state.tasks[i].queued() >= max {
            self.report_error(OsError::ActivationLimit, world);
            return Err(OsError::ActivationLimit);
        }
        self.state.tasks[i].issued += 1;
        let seq = self.state.tasks[i].issued;
        // Arm the deadline check for this activation.
        if let Some(deadline) = deadline {
            self.state.timers.schedule(
                self.state.now + deadline,
                KernelEvent::DeadlineCheck { task: id, seq },
            );
        }
        self.record(id, "activate");
        self.fire_hook(HookEvent::Activate(id), world);
        if self.state.tasks[i].state == TaskState::Suspended {
            self.make_ready(id, false);
        }
        Ok(())
    }

    fn set_event(&mut self, id: TaskId, mask: EventMask, world: &mut W) -> Result<(), OsError> {
        let Some(config) = self.configs.get(id.index()) else {
            return Err(OsError::InvalidId);
        };
        if config.kind() != TaskKind::Extended {
            self.report_error(OsError::InvalidAccess, world);
            return Err(OsError::InvalidAccess);
        }
        let tcb = &mut self.state.tasks[id.index()];
        if tcb.state == TaskState::Suspended {
            self.report_error(OsError::InvalidState, world);
            return Err(OsError::InvalidState);
        }
        tcb.set_events = tcb.set_events.union(mask);
        let wake = tcb.state == TaskState::Waiting && tcb.set_events.intersects(tcb.waiting_for);
        if wake {
            tcb.waiting_for = EventMask::NONE;
            self.make_ready(id, false);
            self.record(id, "wake");
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

    fn cancel_alarm(&mut self, id: AlarmId) -> Result<(), OsError> {
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
                KernelEvent::DeadlineCheck { task, seq } => self.check_deadline(task, seq, world),
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
        match *action {
            AlarmAction::ActivateTask(t) => {
                let _ = self.activate_task(t, world);
            }
            AlarmAction::SetEvent(t, m) => {
                let _ = self.set_event(t, m, world);
            }
        }
    }

    fn check_deadline(&mut self, task: TaskId, seq: u64, world: &mut W) {
        if self.state.tasks[task.index()].completed < seq {
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

    fn make_ready(&mut self, id: TaskId, front: bool) {
        let state = &mut self.state;
        let key = if front {
            let k = state.next_front_key;
            state.next_front_key -= 1;
            k
        } else {
            let k = state.next_back_key;
            state.next_back_key += 1;
            k
        };
        let tcb = &mut state.tasks[id.index()];
        tcb.state = TaskState::Ready;
        tcb.ready_key = key;
    }

    /// The highest-priority eligible task: the `Ready` or `Running` task
    /// with the highest `current_priority`, then the lowest ready key. Keys
    /// are globally unique, so the order is total: back keys ascend (FIFO
    /// within a priority) and a preempted task re-enters with a front key
    /// below every other.
    ///
    /// A plain scan of the TCBs rather than a ready queue: the campaign
    /// node's kernel runs five tasks, and at most four were `Ready` at once
    /// over ~77 M dispatch decisions of all four `easis_bench` workloads
    /// (seed 1, `--quick`; none were `Ready` in 62% of them). Kept a plain
    /// loop: a `filter`/`max_by_key` chain measured ~40% more time per
    /// simulated millisecond on the campaign node (2-core x86-64 Xeon).
    fn best_eligible(&self) -> Option<TaskId> {
        let mut best: Option<(usize, &Tcb)> = None;
        for (i, tcb) in self.state.tasks.iter().enumerate() {
            let eligible = matches!(tcb.state, TaskState::Ready | TaskState::Running);
            let outranks = |b: &Tcb| {
                tcb.current_priority > b.current_priority
                    || (tcb.current_priority == b.current_priority && tcb.ready_key < b.ready_key)
            };
            if eligible && best.is_none_or(|(_, b)| outranks(b)) {
                best = Some((i, tcb));
            }
        }
        best.map(|(i, _)| TaskId(i as u32))
    }

    /// Like [`Core::pick_next`] but ignoring the running task's
    /// non-preemptability — the decision `Schedule()` asks for.
    fn pick_ignoring_nonpreempt(&self) -> Option<TaskId> {
        self.best_eligible()
    }

    /// Picks the task that should run now, honouring non-preemptability.
    fn pick_next(&self) -> Option<TaskId> {
        if let Some(run) = self.state.running {
            if self.state.tasks[run.index()].state == TaskState::Running
                && !self.configs[run.index()].is_preemptable()
            {
                return Some(run);
            }
        }
        // The running task keeps the CPU against equal-priority ready tasks:
        // its key is its dispatch-time key which is already minimal in band.
        self.best_eligible()
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

/// The kernel side of the split borrow: effects reach these services
/// through the [`KernelServices`] view on their [`EffectCtx`].
impl<W> ServiceCore<W> for Core<W> {
    fn activate_task(&mut self, task: TaskId, world: &mut W) -> Result<(), OsError> {
        Core::activate_task(self, task, world)
    }

    fn set_event(&mut self, task: TaskId, mask: EventMask, world: &mut W) -> Result<(), OsError> {
        Core::set_event(self, task, mask, world)
    }

    fn cancel_alarm_raw(&mut self, raw_alarm_id: u32) -> Result<(), OsError> {
        Core::cancel_alarm(self, AlarmId(raw_alarm_id))
    }

    fn task_state(&self, task: TaskId) -> Result<TaskState, OsError> {
        self.state
            .tasks
            .get(task.index())
            .map(|t| t.state)
            .ok_or(OsError::InvalidId)
    }

    fn trace_mut(&mut self) -> &mut TraceRecorder {
        &mut self.state.trace
    }

    fn trace_enabled(&self) -> bool {
        self.state.trace.is_enabled()
    }
}

impl<W> std::fmt::Debug for Os<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Os")
            .field("now", &self.core.state.now)
            .field("tasks", &self.core.configs.len())
            .field("alarms", &self.core.alarm_wiring.len())
            .field("resources", &self.core.resources.len())
            .field("running", &self.core.state.running)
            .finish()
    }
}

impl<W> OsState<W> {
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
            && a.tasks.iter().zip(&b.tasks).all(|(x, y)| x.state == y.state)
    }

    /// Measures the kernel's independent counter advances between two
    /// states captured `h` apart into `program`: the busy time, both
    /// ready-key cursors, the timer sequence counter and each task's
    /// issued activations. Returns `false` when the task tables differ in
    /// size.
    ///
    /// A measurement proves nothing by itself. Certification advances `a`
    /// by the program once and accepts the sample only when the result
    /// equals `b`, so every field the program does not move must be
    /// unchanged, and every linked counter must have moved with the one it
    /// follows. A counter that ran backwards measures 0 and fails that
    /// comparison. Reuses `program`'s vector; steady-state certification
    /// allocates nothing once warm.
    pub fn measure(a: &Self, b: &Self, h: Duration, program: &mut CycleProgram) -> bool {
        if a.tasks.len() != b.tasks.len() {
            return false;
        }
        program.h = h;
        program.d_busy = b.busy.saturating_sub(a.busy);
        program.d_back = b.next_back_key - a.next_back_key;
        program.d_front = b.next_front_key - a.next_front_key;
        program.d_seq = b.timers.next_seq().saturating_sub(a.timers.next_seq());
        program.d_issued.clear();
        program.d_issued.extend(
            a.tasks
                .iter()
                .zip(&b.tasks)
                .map(|(ta, tb)| tb.issued.saturating_sub(ta.issued)),
        );
        true
    }

    /// Advances the state `k` hyperperiods by `program` in closed form:
    /// the clock and busy meter advance `k` hyperperiods, the key cursors
    /// and every live ready key (a `Ready` or `Running` task's) advance by
    /// their cursor's delta, each task's `issued` and `completed` counts by
    /// its activation delta, and
    /// the timer queue shifts every pending entry, deadline checks carrying
    /// their task's activation delta. O(tasks + pending timers),
    /// independent of how many events the skipped span would have fired.
    ///
    /// Certification calls it with k = 1 on the earlier sample; the jump
    /// ([`Os::advance`]) calls it with k on the live state. A program is
    /// only valid on the state it was certified from, one hyperperiod
    /// back; anything else diverges silently.
    pub fn advance(&mut self, program: &CycleProgram, k: u64) {
        let shift = program.h * k;
        self.now += shift;
        self.busy += program.d_busy * k;
        self.next_back_key += program.d_back * k as i64;
        self.next_front_key += program.d_front * k as i64;
        for (tcb, &d_issued) in self.tasks.iter_mut().zip(&program.d_issued) {
            if matches!(tcb.state, TaskState::Ready | TaskState::Running) {
                tcb.ready_key += program.d_key(tcb.ready_key) * k as i64;
            }
            tcb.issued += d_issued * k;
            tcb.completed += d_issued * k;
        }
        let d_issued = &program.d_issued;
        self.timers.fast_forward(shift, program.d_seq * k, |ev| {
            if let KernelEvent::DeadlineCheck { task, seq } = ev {
                *seq += d_issued[task.index()] * k;
            }
        });
    }
}

/// The compiled steady-state schedule: the counter advances one
/// hyperperiod of kernel execution makes, measured from one sampled
/// hyperperiod by [`OsState::measure`] and applied k-at-a-time by
/// [`OsState::advance`].
#[derive(Debug, Clone, Default)]
pub struct CycleProgram {
    h: Duration,
    d_busy: Duration,
    d_back: i64,
    d_front: i64,
    d_seq: u64,
    /// Activations issued (and completed) per hyperperiod, by task index.
    d_issued: Vec<u64>,
}

impl CycleProgram {
    /// Per-hyperperiod advance of a live ready key: its cursor's.
    fn d_key(&self, key: i64) -> i64 {
        if key > 0 {
            self.d_back
        } else {
            self.d_front
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Plan;

    type W = Vec<String>;

    fn log_body(
        label: &'static str,
        cost: Duration,
    ) -> impl FnMut(Instant, &W) -> Plan<W> + Send {
        move |_now, _w| {
            Plan::new().compute(cost).effect(move |w: &mut W, ctx| {
                w.push(format!("{label}@{}", ctx.now().as_micros()));
            })
        }
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
    fn non_preemptable_task_defers_higher_priority() {
        let mut os: Os<W> = Os::new();
        let lo = os.add_task(
            TaskConfig::new("lo", Priority(1)).non_preemptable(),
            log_body("lo", ms(10)),
        );
        let hi = os.add_task(TaskConfig::new("hi", Priority(5)), log_body("hi", us(500)));
        let a_lo = os.add_alarm("alo", AlarmAction::ActivateTask(lo));
        let a_hi = os.add_alarm("ahi", AlarmAction::ActivateTask(hi));
        let mut w = W::new();
        os.start(&mut w);
        os.set_rel_alarm(a_lo, ms(1), None).unwrap();
        os.set_rel_alarm(a_hi, ms(5), None).unwrap();
        os.run_until(Instant::from_millis(20), &mut w);
        assert_eq!(w, vec!["lo@11000".to_string(), "hi@11500".to_string()]);
        assert_eq!(os.trace().count_kind("preempt"), 0);
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
            vec!["hi@4000".to_string(), "a@6000".to_string(), "b@7000".to_string()]
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
        assert!(os.trace().count_kind("os_error") > 0, "activation limit reported");
        assert!(!w.is_empty());
    }

    #[test]
    fn extended_task_waits_and_wakes_on_event() {
        let mut os: Os<W> = Os::new();
        let waiter_body = |_now: Instant, _w: &W| {
            Plan::new()
                .effect(|w: &mut W, ctx| w.push(format!("before@{}", ctx.now().as_micros())))
                .step(Step::WaitEvent(EventMask::bit(0)))
                .effect(|w: &mut W, ctx| w.push(format!("after@{}", ctx.now().as_micros())))
        };
        let waiter = os.add_task(
            TaskConfig::new("waiter", Priority(3))
                .with_kind(TaskKind::Extended)
                .autostart(),
            waiter_body,
        );
        let a = os.add_alarm("wake", AlarmAction::SetEvent(waiter, EventMask::bit(0)));
        let mut w = W::new();
        os.start(&mut w);
        os.set_rel_alarm(a, ms(7), None).unwrap();
        os.run_until(Instant::from_millis(10), &mut w);
        assert_eq!(w, vec!["before@0".to_string(), "after@7000".to_string()]);
        assert_eq!(os.task_state(waiter).unwrap(), TaskState::Suspended);
    }

    #[test]
    fn wait_with_pending_event_does_not_block() {
        let mut os: Os<W> = Os::new();
        let t = os.add_task(
            TaskConfig::new("t", Priority(1)).with_kind(TaskKind::Extended),
            |_now: Instant, _w: &W| {
                Plan::new()
                    .step(Step::WaitEvent(EventMask::bit(1)))
                    .effect(|w: &mut W, _| w.push("ran".into()))
            },
        );
        let mut w = W::new();
        os.start(&mut w);
        os.activate_task(t, &mut w).unwrap();
        // Event set while the task is ready (before it reaches WaitEvent).
        os.set_event(t, EventMask::bit(1), &mut w).unwrap();
        os.run_until(Instant::from_millis(1), &mut w);
        assert_eq!(w, vec!["ran".to_string()]);
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
    fn resource_ceiling_blocks_mid_priority_interference() {
        // lo takes R (ceiling hi); mid is activated meanwhile; with the
        // ceiling protocol, mid must not run until lo releases R.
        let mut os: Os<W> = Os::new();
        let r = ResourceId(0);
        let lo = os.add_task(TaskConfig::new("lo", Priority(1)), move |_n: Instant, _w: &W| {
            Plan::new()
                .step(Step::GetResource(r))
                .compute(ms(5))
                .step(Step::ReleaseResource(r))
                .effect(|w: &mut W, ctx| w.push(format!("lo@{}", ctx.now().as_micros())))
        });
        let mid = os.add_task(TaskConfig::new("mid", Priority(3)), log_body("mid", ms(1)));
        let _ = os.add_resource("R", Priority(5));
        let a_lo = os.add_alarm("alo", AlarmAction::ActivateTask(lo));
        let a_mid = os.add_alarm("amid", AlarmAction::ActivateTask(mid));
        let mut w = W::new();
        os.start(&mut w);
        os.set_rel_alarm(a_lo, ms(1), None).unwrap();
        os.set_rel_alarm(a_mid, ms(2), None).unwrap();
        os.run_until(Instant::from_millis(20), &mut w);
        // Without the ceiling, mid would preempt lo at 2ms and log at 3000.
        // With it, mid is deferred to the release point (6ms), runs 6–7ms,
        // and lo's post-release effect then executes at 7ms.
        assert_eq!(w, vec!["mid@7000".to_string(), "lo@7000".to_string()]);
        assert_eq!(os.trace().count_kind("preempt"), 1); // only at release
    }

    #[test]
    fn lifo_violation_reports_resource_error() {
        let mut os: Os<W> = Os::new();
        let r0 = ResourceId(0);
        let r1 = ResourceId(1);
        let t = os.add_task(TaskConfig::new("t", Priority(1)), move |_n: Instant, _w: &W| {
            Plan::new()
                .step(Step::GetResource(r0))
                .step(Step::GetResource(r1))
                .step(Step::ReleaseResource(r0)) // out of order
                .step(Step::ReleaseResource(r1))
                .step(Step::ReleaseResource(r0))
        });
        os.add_resource("R0", Priority(5));
        os.add_resource("R1", Priority(5));
        let mut w = W::new();
        os.start(&mut w);
        os.activate_task(t, &mut w).unwrap();
        os.run_until(Instant::from_millis(1), &mut w);
        assert_eq!(os.trace().count_kind("os_error"), 1);
    }

    #[test]
    fn terminating_with_held_resource_releases_and_reports() {
        let mut os: Os<W> = Os::new();
        let r0 = ResourceId(0);
        let t = os.add_task(TaskConfig::new("t", Priority(1)), move |_n: Instant, _w: &W| {
            Plan::new().step(Step::GetResource(r0)).compute(ms(1))
        });
        os.add_resource("R0", Priority(5));
        let mut w = W::new();
        os.start(&mut w);
        os.activate_task(t, &mut w).unwrap();
        os.run_until(Instant::from_millis(5), &mut w);
        assert_eq!(os.trace().count_kind("os_error"), 1);
        // Resource is free again: re-running the task must not error twice
        // because of a stuck resource.
        os.activate_task(t, &mut w).unwrap();
        os.run_until(Instant::from_millis(10), &mut w);
        assert_eq!(os.trace().count_kind("os_error"), 2); // same error, fresh run
    }

    #[test]
    fn chain_task_terminates_and_activates() {
        let mut os: Os<W> = Os::new();
        // b logs, a chains to b.
        let b = os.add_task(TaskConfig::new("b", Priority(1)), log_body("b", ms(1)));
        let a = os.add_task(TaskConfig::new("a", Priority(2)), move |_n: Instant, _w: &W| {
            Plan::new().compute(ms(1)).step(Step::ChainTask(b))
        });
        let mut w = W::new();
        os.start(&mut w);
        os.activate_task(a, &mut w).unwrap();
        os.run_until(Instant::from_millis(5), &mut w);
        assert_eq!(w, vec!["b@2000".to_string()]);
        assert_eq!(os.task_state(a).unwrap(), TaskState::Suspended);
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
        let lo_body = move |_n: Instant, _w: &W| {
            Plan::new()
                .compute(ms(1))
                .effect(move |w: &mut W, ctx| ctx.activate_task(hi, w).unwrap())
                .effect(|w: &mut W, ctx| w.push(format!("lo@{}", ctx.now().as_micros())))
        };
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
    fn set_event_on_basic_task_is_access_error() {
        let mut os: Os<W> = Os::new();
        let t = os.add_task(TaskConfig::new("t", Priority(1)), log_body("t", ms(1)));
        let mut w = W::new();
        os.start(&mut w);
        os.activate_task(t, &mut w).unwrap();
        assert_eq!(
            os.set_event(t, EventMask::bit(0), &mut w),
            Err(OsError::InvalidAccess)
        );
    }

    #[test]
    fn snapshot_restore_replays_identically() {
        // Run a preemption-heavy scene to 5 ms, snapshot, run to 20 ms;
        // then restore and re-run: world effects and the kernel trace must
        // replay byte-for-byte, including mid-flight plans and timers.
        // Bodies use arena EffectRef tokens — boxed-closure plans cannot be
        // snapshotted (arena_snapshot_rejects_boxed_effects pins that).
        struct RefLogBody {
            label: &'static str,
            cost: Duration,
        }
        impl TaskBody<W> for RefLogBody {
            fn plan_into(&mut self, _now: Instant, _w: &W, out: &mut Plan<W>) {
                out.push_compute(self.cost);
                out.push_effect_ref(0);
            }
            fn run_effect(&mut self, _token: u32, w: &mut W, ctx: &mut EffectCtx<'_, W>) {
                w.push(format!("{}@{}", self.label, ctx.now().as_micros()));
            }
            fn name(&self) -> &str {
                self.label
            }
        }
        let mut os: Os<W> = Os::new();
        let hi = os.add_task(
            TaskConfig::new("hi", Priority(9)),
            RefLogBody { label: "hi", cost: ms(1) },
        );
        let lo = os.add_task(
            TaskConfig::new("lo", Priority(1)),
            RefLogBody { label: "lo", cost: ms(4) },
        );
        let a_hi = os.add_alarm("a_hi", AlarmAction::ActivateTask(hi));
        let a_lo = os.add_alarm("a_lo", AlarmAction::ActivateTask(lo));
        let mut w = W::new();
        os.start(&mut w);
        os.set_rel_alarm(a_hi, ms(3), Some(ms(3))).unwrap();
        os.set_rel_alarm(a_lo, ms(2), Some(ms(7))).unwrap();
        os.run_until(Instant::from_millis(5), &mut w);
        let snap = os.state().clone();
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
        assert_eq!(&w2[world_mark..], &tail[..], "world effects diverge after restore");
        assert_eq!(format!("{:?}", os.trace()), trace_once, "trace diverges after restore");
    }

    /// A bare periodic kernel without a trace: compute-only tasks at 5, 10
    /// and 20 ms (H = 20 ms), the 10 ms one with a deadline check.
    fn periodic_os() -> (Os<W>, W) {
        let compute = |cost: Duration| move |_: Instant, _: &W| Plan::new().compute(cost);
        let mut os: Os<W> = Os::with_disabled_trace();
        let tasks = [
            (TaskConfig::new("fast", Priority(3)), us(300), 5),
            (TaskConfig::new("mid", Priority(2)).with_deadline(ms(8)), ms(2), 10),
            (TaskConfig::new("slow", Priority(1)), ms(3), 20),
        ];
        let mut alarms = Vec::new();
        for (config, cost, period) in tasks {
            let task = os.add_task(config, compute(cost));
            alarms.push((os.add_alarm("cyc", AlarmAction::ActivateTask(task)), ms(period)));
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
        // 43.5 ms: `slow` runs, `fast` and `mid` are done, nothing is
        // Ready, and the alarms are pending. 40.5 ms: `mid` runs while
        // `slow` waits Ready, so two keys are live and both move with the
        // back-key cursor.
        for (t0_us, ready) in [(43_500, false), (40_500, true)] {
            let (mut os, mut w) = periodic_os();
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
                .any(|(_, _, ev)| matches!(ev, KernelEvent::DeadlineCheck { .. })));
            let mut program = CycleProgram::default();
            for k in 1..=4 {
                os.run_until(t0 + h * k, &mut w);
                if k == 1 {
                    assert!(OsState::measure(&sample, os.state(), h, &mut program));
                }
                let mut advanced = sample.clone();
                advanced.advance(&program, k);
                assert_eq!(&advanced, os.state(), "{t0_us} us, {k} hyperperiods");
            }
        }
    }

    #[test]
    #[should_panic(expected = "different task/alarm/resource tables")]
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
        let a = os.add_task(TaskConfig::new("a", Priority(1)), move |_n: Instant, _w: &W| {
            Plan::new()
                .effect(move |w: &mut W, ctx| ctx.activate_task(b, w).unwrap())
                .compute(ms(5))
                .effect(|w: &mut W, ctx| w.push(format!("a@{}", ctx.now().as_micros())))
        });
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
        // activates a peer task synchronously through its KernelServices.
        struct Chainer {
            peer: Option<TaskId>,
            fired: u32,
        }
        impl TaskBody<W> for Chainer {
            fn plan_into(&mut self, _now: Instant, _world: &W, out: &mut Plan<W>) {
                out.push_compute(Duration::from_millis(1));
                out.push_effect_ref(0);
            }
            fn run_effect(&mut self, token: u32, world: &mut W, ctx: &mut EffectCtx<'_, W>) {
                assert_eq!(token, 0);
                self.fired += 1;
                world.push(format!("chainer@{}", ctx.now().as_micros()));
                if let Some(peer) = self.peer {
                    ctx.activate_task(peer, world).unwrap();
                    assert_eq!(
                        ctx.kernel().unwrap().task_state(peer),
                        Ok(TaskState::Ready)
                    );
                }
            }
            fn name(&self) -> &str {
                "chainer"
            }
        }
        let mut os: Os<W> = Os::new();
        let peer = os.add_task(TaskConfig::new("peer", Priority(1)), log_body("peer", ms(1)));
        let chainer = os.add_task(
            TaskConfig::new("chainer", Priority(5)),
            Chainer { peer: Some(peer), fired: 0 },
        );
        let mut w = W::new();
        os.start(&mut w);
        os.activate_task(chainer, &mut w).unwrap();
        os.run_until(Instant::from_millis(10), &mut w);
        assert_eq!(w, vec!["chainer@1000".to_string(), "peer@2000".to_string()]);
    }

    #[test]
    fn find_task_and_names() {
        let mut os: Os<W> = Os::new();
        let t = os.add_task(TaskConfig::new("SafeSpeedTask", Priority(1)), log_body("x", ms(1)));
        assert_eq!(os.find_task("SafeSpeedTask"), Some(t));
        assert_eq!(os.find_task("nope"), None);
        assert_eq!(os.task_name(t).unwrap(), "SafeSpeedTask");
        assert_eq!(os.task_name(TaskId(9)), Err(OsError::InvalidId));
        assert_eq!(os.task_state(TaskId(9)), Err(OsError::InvalidId));
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

#[cfg(test)]
mod schedule_tests {
    use super::*;
    use crate::plan::Plan;

    type W = Vec<String>;
    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn schedule_yields_inside_non_preemptable_task() {
        let mut os: Os<W> = Os::new();
        let hi = os.add_task(TaskConfig::new("hi", Priority(9)), |_: Instant, _: &W| {
            Plan::new()
                .compute(ms(1))
                .effect(|w: &mut W, ctx| w.push(format!("hi@{}", ctx.now().as_micros())))
        });
        let lo = os.add_task(
            TaskConfig::new("lo", Priority(1)).non_preemptable(),
            |_: Instant, _: &W| {
                Plan::new()
                    .compute(ms(4))
                    .step(Step::Schedule)
                    .compute(ms(4))
                    .effect(|w: &mut W, ctx| w.push(format!("lo@{}", ctx.now().as_micros())))
            },
        );
        let a_lo = os.add_alarm("alo", AlarmAction::ActivateTask(lo));
        let a_hi = os.add_alarm("ahi", AlarmAction::ActivateTask(hi));
        let mut w = W::new();
        os.start(&mut w);
        os.set_rel_alarm(a_lo, ms(1), None).unwrap();
        os.set_rel_alarm(a_hi, ms(2), None).unwrap(); // during lo's first half
        os.run_until(Instant::from_millis(20), &mut w);
        // Without Schedule, hi would wait until lo terminates (9ms);
        // with it, hi runs at the explicit scheduling point (5ms).
        assert_eq!(w, vec!["hi@6000".to_string(), "lo@10000".to_string()]);
    }

    #[test]
    fn schedule_is_noop_without_higher_priority_work() {
        let mut os: Os<W> = Os::new();
        let t = os.add_task(
            TaskConfig::new("t", Priority(5)).non_preemptable(),
            |_: Instant, _: &W| {
                Plan::new()
                    .compute(ms(1))
                    .step(Step::Schedule)
                    .compute(ms(1))
                    .effect(|w: &mut W, ctx| w.push(format!("t@{}", ctx.now().as_micros())))
            },
        );
        let mut w = W::new();
        os.start(&mut w);
        os.activate_task(t, &mut w).unwrap();
        os.run_until(Instant::from_millis(5), &mut w);
        assert_eq!(w, vec!["t@2000".to_string()]);
        assert_eq!(os.trace().count_kind("preempt"), 0);
    }
}
