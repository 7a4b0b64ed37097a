//! Edge cases of the kernel's OSEK service semantics, exercised through
//! the public API.

use easis_osek::alarm::AlarmAction;
use easis_osek::error::OsError;
use easis_osek::hooks::HookEvent;
use easis_osek::kernel::Os;
use easis_osek::plan::{EffectCtx, Plan, ResourceId, Script, Step, TaskBody};
use easis_osek::task::{EventMask, Priority, TaskConfig, TaskId, TaskKind, TaskState};
use easis_sim::time::{Duration, Instant};

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

/// Computes 1 ms and bumps the world counter, then chains to itself
/// while the counter it planned against is below 2.
struct SelfChainer;

impl TaskBody<u32> for SelfChainer {
    fn plan_into(&mut self, w: &u32, out: &mut Plan) {
        out.push_compute(ms(1));
        out.push_effect_ref(0);
        if *w < 2 {
            // The chain target id equals this task's own id (0).
            out.push(Step::ChainTask(TaskId(0)));
        }
    }

    fn run_effect(&mut self, _token: u32, w: &mut u32, _ctx: &mut EffectCtx<'_, u32>) {
        *w += 1;
    }
}

#[test]
fn chain_task_to_itself_reruns_immediately() {
    let mut os: Os<u32> = Os::new();
    let t = os.add_task(TaskConfig::new("self", Priority(1)), SelfChainer);
    let mut w = 0u32;
    os.start(&mut w);
    os.activate_task(t, &mut w).unwrap();
    os.run_until(Instant::from_millis(20), &mut w);
    assert_eq!(w, 3); // initial + two chains
    assert_eq!(os.task_state(t).unwrap(), TaskState::Suspended);
}

#[test]
fn wait_event_wakes_on_any_of_multiple_bits() {
    let mut os: Os<Vec<u8>> = Os::new();
    let waiter = os.add_task(
        TaskConfig::new("waiter", Priority(2))
            .with_kind(TaskKind::Extended)
            .autostart(),
        Script::new()
            .step(Step::WaitEvent(EventMask::bit(0).union(EventMask::bit(3))))
            .effect(|w: &mut Vec<u8>, _| w.push(1)),
    );
    let a = os.add_alarm("wake", AlarmAction::SetEvent(waiter, EventMask::bit(3)));
    let mut w = Vec::new();
    os.start(&mut w);
    os.set_rel_alarm(a, ms(5), None).unwrap();
    os.run_until(Instant::from_millis(10), &mut w);
    assert_eq!(w, vec![1], "bit 3 alone must wake a waiter on bits {{0,3}}");
}

#[test]
fn clear_event_prevents_stale_wakeups() {
    let mut os: Os<Vec<u8>> = Os::new();
    let waiter = os.add_task(
        TaskConfig::new("waiter", Priority(2))
            .with_kind(TaskKind::Extended)
            .autostart(),
        Script::new()
            .step(Step::WaitEvent(EventMask::bit(0)))
            .effect(|w: &mut Vec<u8>, _| w.push(1))
            .step(Step::ClearEvent(EventMask::bit(0)))
            // Second wait: the cleared bit must block again.
            .step(Step::WaitEvent(EventMask::bit(0)))
            .effect(|w: &mut Vec<u8>, _| w.push(2)),
    );
    let a = os.add_alarm("wake", AlarmAction::SetEvent(waiter, EventMask::bit(0)));
    let mut w = Vec::new();
    os.start(&mut w);
    os.set_rel_alarm(a, ms(5), None).unwrap();
    os.run_until(Instant::from_millis(20), &mut w);
    // Only the first wait was satisfied; the second blocks forever.
    assert_eq!(w, vec![1]);
    assert_eq!(os.task_state(waiter).unwrap(), TaskState::Waiting);
}

#[test]
fn set_event_on_suspended_task_is_a_state_error() {
    let mut os: Os<()> = Os::new();
    let t = os.add_task(
        TaskConfig::new("ext", Priority(1)).with_kind(TaskKind::Extended),
        Script::new(),
    );
    let mut w = ();
    os.start(&mut w);
    assert_eq!(
        os.set_event(t, EventMask::bit(0), &mut w),
        Err(OsError::InvalidState)
    );
}

#[test]
fn one_shot_alarm_can_be_rearmed_after_firing() {
    let mut os: Os<u32> = Os::new();
    let t = os.add_task(
        TaskConfig::new("t", Priority(1)),
        Script::new().effect(|w: &mut u32, _| *w += 1),
    );
    let a = os.add_alarm("once", AlarmAction::ActivateTask(t));
    let mut w = 0u32;
    os.start(&mut w);
    os.set_rel_alarm(a, ms(5), None).unwrap();
    os.run_until(Instant::from_millis(10), &mut w);
    assert_eq!(w, 1);
    // After expiry the alarm is free again.
    os.set_rel_alarm(a, ms(5), None).unwrap();
    os.run_until(Instant::from_millis(20), &mut w);
    assert_eq!(w, 2);
}

#[test]
fn cancelled_cyclic_alarm_rearmed_runs_one_expiry_chain() {
    let mut os: Os<Vec<u64>> = Os::new();
    let t = os.add_task(
        TaskConfig::new("t", Priority(1)),
        Script::new().effect(|w: &mut Vec<u64>, ctx| w.push(ctx.now().as_millis())),
    );
    let a = os.add_alarm("cyc", AlarmAction::ActivateTask(t));
    let mut w = Vec::new();
    os.start(&mut w);
    os.set_rel_alarm(a, ms(10), Some(ms(10))).unwrap();
    os.run_until(Instant::from_millis(2), &mut w);
    os.cancel_alarm(a).unwrap();
    // Re-armed before the cancelled 10 ms expiry would have fired: only
    // the new 5 ms-offset chain may activate the task.
    os.set_rel_alarm(a, ms(5), Some(ms(10))).unwrap();
    os.run_until(Instant::from_millis(40), &mut w);
    assert_eq!(w, vec![7, 17, 27, 37]);
}

#[test]
fn idle_cpu_jumps_to_the_horizon() {
    let mut os: Os<()> = Os::new();
    let mut w = ();
    os.start(&mut w);
    os.run_until(Instant::from_millis(1_000), &mut w);
    assert_eq!(os.now(), Instant::from_millis(1_000));
    assert_eq!(os.busy_time(), Duration::ZERO);
    assert_eq!(os.utilization(), 0.0);
}

#[test]
fn activation_during_execution_queues_a_back_to_back_rerun() {
    let mut os: Os<u32> = Os::new();
    let t = os.add_task(
        TaskConfig::new("t", Priority(1)).with_max_activations(2),
        Script::new()
            .compute(ms(3))
            .effect(|w: &mut u32, _| *w += 1),
    );
    let mut w = 0u32;
    os.start(&mut w);
    os.activate_task(t, &mut w).unwrap();
    os.run_until(Instant::from_millis(1), &mut w);
    // Mid-execution re-activation queues a second run.
    os.activate_task(t, &mut w).unwrap();
    os.run_until(Instant::from_millis(10), &mut w);
    assert_eq!(w, 2);
    // Effects landed back to back at 3ms and 6ms.
    let runs: Vec<u64> = os
        .trace()
        .of_kind("terminate")
        .map(|e| e.at.as_millis())
        .collect();
    assert_eq!(runs, vec![3, 6]);
}

#[test]
fn activating_an_invalid_task_id_fails_cleanly() {
    let mut os: Os<()> = Os::new();
    let mut w = ();
    os.start(&mut w);
    assert_eq!(
        os.activate_task(easis_osek::task::TaskId(42), &mut w),
        Err(OsError::InvalidId)
    );
}

#[test]
fn run_until_same_instant_is_a_noop() {
    let mut os: Os<()> = Os::new();
    let mut w = ();
    os.start(&mut w);
    os.run_until(Instant::from_millis(5), &mut w);
    os.run_until(Instant::from_millis(5), &mut w);
    assert_eq!(os.now(), Instant::from_millis(5));
}

#[test]
fn isr_during_idle_runs_at_trigger_time() {
    let mut os: Os<Vec<u64>> = Os::new();
    let isr = os.add_isr("rx", Duration::from_micros(20), |w: &mut Vec<u64>, ctx| {
        w.push(ctx.now().as_micros())
    });
    let mut w = Vec::new();
    os.start(&mut w);
    os.run_until(Instant::from_millis(3), &mut w);
    os.trigger_isr(isr, &mut w).unwrap();
    os.run_until(Instant::from_millis(5), &mut w);
    assert_eq!(w, vec![3_020]);
}

#[test]
fn waiting_inside_a_resource_section_reports_the_error_and_keeps_the_cpu() {
    // OSEK forbids `WaitEvent` while the task occupies a resource: the
    // service reports E_OS_RESOURCE through the error hook and the task
    // runs on instead of blocking with its ceiling priority.
    let mut os: Os<Vec<String>> = Os::new();
    let r0 = ResourceId(0);
    let t = os.add_task(
        TaskConfig::new("t", Priority(1)).with_kind(TaskKind::Extended),
        Script::new()
            .step(Step::GetResource(r0))
            .step(Step::WaitEvent(EventMask::bit(0)))
            .effect(|w: &mut Vec<String>, ctx| w.push(format!("ran on@{}", ctx.now().as_micros())))
            .step(Step::ReleaseResource(r0))
            .compute(ms(1)),
    );
    os.add_resource("R0", Priority(5));
    os.add_observer(|_: Instant, event: HookEvent, w: &mut Vec<String>| {
        if let HookEvent::Error(e) = event {
            w.push(format!("error {e:?}"));
        }
    });
    let mut w = Vec::new();
    os.start(&mut w);
    os.activate_task(t, &mut w).unwrap();
    os.run_until(Instant::from_millis(5), &mut w);
    assert_eq!(
        w,
        vec!["error ResourceOrder".to_string(), "ran on@0".to_string()]
    );
    assert_eq!(os.task_state(t).unwrap(), TaskState::Suspended);
}

#[test]
#[should_panic(expected = "zero-time livelock")]
fn a_task_that_chains_itself_without_computing_panics_instead_of_hanging() {
    let mut os: Os<u32> = Os::new();
    let t = os.add_task(
        TaskConfig::new("spin", Priority(1)),
        Script::new().step(Step::ChainTask(TaskId(0))),
    );
    let mut w = 0u32;
    os.start(&mut w);
    os.activate_task(t, &mut w).unwrap();
    os.run_until(Instant::from_millis(1), &mut w);
}
