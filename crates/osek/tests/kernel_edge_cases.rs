//! Edge cases of the kernel's OSEK service semantics, exercised through
//! the public API.

use easis_osek::alarm::AlarmAction;
use easis_osek::error::OsError;
use easis_osek::kernel::Os;
use easis_osek::plan::{Script, Step};
use easis_osek::task::{Priority, TaskConfig, TaskId};
use easis_sim::time::{Duration, Instant};

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
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
#[should_panic(expected = "zero-time livelock")]
fn a_task_that_activates_itself_without_computing_panics_instead_of_hanging() {
    // Each run queues the next before it terminates, so the task is
    // readied again at the same instant, forever.
    let mut os: Os<u32> = Os::new();
    let t = os.add_task(
        TaskConfig::new("spin", Priority(1)).with_max_activations(2),
        Script::new().step(Step::ActivateTask(TaskId(0))),
    );
    let mut w = 0u32;
    os.start(&mut w);
    os.activate_task(t, &mut w).unwrap();
    os.run_until(Instant::from_millis(1), &mut w);
}
