//! Cross-crate platform integration: OSEK scheduling + runnable layer +
//! watchdog supervision interacting under load and preemption.

use easis::injection::Injector;
use easis::osek::alarm::AlarmAction;
use easis::osek::kernel::Os;
use easis::osek::task::{Priority, TaskConfig};
use easis::rte::assembly::SequencedTask;
use easis::rte::runnable::{RunnableDef, RunnableRegistry};
use easis::rte::world::BasicEcuWorld;
use easis::sim::time::{Duration, Instant};
use easis::validator::{CentralNode, NodeConfig};

fn ms(n: u64) -> Instant {
    Instant::from_millis(n)
}

#[test]
fn preemption_preserves_heartbeat_ordering_within_each_task() {
    // A slow low-priority task is preempted every period by a fast
    // high-priority one; heartbeats of each task must still appear in the
    // task's own program order.
    let mut registry = RunnableRegistry::new();
    let slow_specs: Vec<_> = (0..3)
        .map(|i| registry.register(format!("slow{i}"), Duration::from_millis(3)))
        .collect();
    let fast_spec = registry.register("fast", Duration::from_micros(100));
    let slow_ids: Vec<_> = slow_specs.iter().map(|s| s.id()).collect();
    let fast_id = fast_spec.id();

    let mut os: Os<BasicEcuWorld> = Os::new();
    let slow_task = os.add_task(
        TaskConfig::new("slow", Priority(1)),
        SequencedTask::fixed(slow_specs.into_iter().map(RunnableDef::no_op).collect()),
    );
    let fast_task = os.add_task(
        TaskConfig::new("fast", Priority(5)),
        SequencedTask::fixed(vec![RunnableDef::no_op(fast_spec)]),
    );
    let a_slow = os.add_alarm("slow", AlarmAction::ActivateTask(slow_task));
    let a_fast = os.add_alarm("fast", AlarmAction::ActivateTask(fast_task));
    let mut world = BasicEcuWorld::new();
    os.start(&mut world);
    os.set_rel_alarm(a_slow, Duration::from_millis(20), Some(Duration::from_millis(20)))
        .unwrap();
    os.set_rel_alarm(a_fast, Duration::from_millis(2), Some(Duration::from_millis(2)))
        .unwrap();
    os.run_until(ms(200), &mut world);

    // The fast task interleaved (it ran ~100 times, the slow one ~9).
    let fast_beats = world.heartbeats.iter().filter(|&&(r, _)| r == fast_id).count();
    assert!(fast_beats >= 90, "fast ran {fast_beats} times");
    // Per-task projection of the heartbeat stream is strictly cyclic.
    let slow_seq: Vec<_> = world
        .heartbeats
        .iter()
        .filter(|(r, _)| slow_ids.contains(r))
        .map(|&(r, _)| r)
        .collect();
    assert!(!slow_seq.is_empty());
    for (i, r) in slow_seq.iter().enumerate() {
        assert_eq!(*r, slow_ids[i % 3], "slow sequence broken at {i}");
    }
    assert_eq!(os.trace().count_kind("deadline_miss"), 0);
}

#[test]
fn watchdog_task_survives_heavy_application_load() {
    // Even with the CPU ~95% loaded, the highest-priority watchdog task
    // keeps its cycle cadence.
    let mut node = CentralNode::build(NodeConfig::default());
    node.start();
    // Stretch every steer runnable so the 5 ms task consumes most of the CPU.
    let r0 = node.runnable("ReadHandwheel");
    node.world.controls.runnable_mut(r0).exec_scale_ppm = 150_000_000; // 20µs → 3ms
    let mut injector = Injector::none();
    node.run_until(ms(500), &mut injector);
    let cycles = node.world.watchdog.cycles_run();
    assert!(cycles >= 48, "watchdog starved: only {cycles} cycles");
    assert!(node.os.utilization() > 0.5, "load {}", node.os.utilization());
}

#[test]
fn trace_contains_the_full_dispatch_story() {
    let mut node = CentralNode::build(NodeConfig::safespeed_only());
    node.start();
    let mut injector = Injector::none();
    node.run_until(ms(100), &mut injector);
    let trace = node.os.trace();
    assert!(trace.count_kind("startup") == 1);
    assert!(trace.count_kind("alarm") >= 19); // 10ms task + wd + kick
    assert!(trace.count_kind("dispatch") >= 19);
    assert!(trace.count_kind("terminate") >= 19);
    assert!(trace.of_kind("runnable").count() >= 27); // 9 periods × 3
}
