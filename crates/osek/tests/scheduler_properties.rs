//! Property-based scheduler tests: random periodic task sets must uphold
//! the fixed-priority invariants regardless of parameters.

use easis_osek::alarm::AlarmAction;
use easis_osek::kernel::Os;
use easis_osek::plan::Script;
use easis_osek::task::{Priority, TaskConfig};
use easis_sim::time::{Duration, Instant};
use proptest::prelude::*;

/// A generated periodic task: (priority, period_ms ∈ 2..=20, cost_us).
fn task_set() -> impl Strategy<Value = Vec<(u8, u64, u64)>> {
    prop::collection::vec((0u8..8, 2u64..=20, 50u64..500), 1..6)
}

/// Builds the OS; the world counts completions per task.
fn build(tasks: &[(u8, u64, u64)]) -> (Os<Vec<u64>>, Vec<u64>) {
    let mut os: Os<Vec<u64>> = Os::with_disabled_trace();
    for (i, &(prio, _period, cost)) in tasks.iter().enumerate() {
        let t = os.add_task(
            TaskConfig::new(format!("t{i}"), Priority(prio)).with_max_activations(50),
            Script::new()
                .compute(Duration::from_micros(cost))
                .effect(move |w: &mut Vec<u64>, _| w[i] += 1),
        );
        os.add_alarm(format!("a{i}"), AlarmAction::ActivateTask(t));
    }
    let world = vec![0u64; tasks.len()];
    (os, world)
}

fn total_utilization(tasks: &[(u8, u64, u64)]) -> f64 {
    tasks
        .iter()
        .map(|&(_, p, c)| c as f64 / (p as f64 * 1000.0))
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Busy time never exceeds elapsed time, and utilisation accounting is
    /// consistent with it.
    #[test]
    fn busy_time_is_bounded_by_elapsed(tasks in task_set()) {
        let (mut os, mut world) = build(&tasks);
        os.start(&mut world);
        for (i, &(_, period, _)) in tasks.iter().enumerate() {
            os.set_rel_alarm(
                easis_osek::alarm::AlarmId(i as u32),
                Duration::from_millis(period),
                Some(Duration::from_millis(period)),
            ).unwrap();
        }
        os.run_until(Instant::from_millis(300), &mut world);
        prop_assert!(os.busy_time() <= Duration::from_millis(300));
        prop_assert!(os.utilization() <= 1.0 + 1e-9);
    }

    /// Under total utilisation < 0.8 every activation completes: the
    /// completion count of each task matches its activation count.
    #[test]
    fn feasible_sets_complete_every_activation(tasks in task_set()) {
        prop_assume!(total_utilization(&tasks) < 0.8);
        let (mut os, mut world) = build(&tasks);
        os.start(&mut world);
        for (i, &(_, period, _)) in tasks.iter().enumerate() {
            os.set_rel_alarm(
                easis_osek::alarm::AlarmId(i as u32),
                Duration::from_millis(period),
                Some(Duration::from_millis(period)),
            ).unwrap();
        }
        // Run to a horizon plus slack so final activations can finish.
        os.run_until(Instant::from_millis(400), &mut world);
        os.run_until(Instant::from_millis(440), &mut world);
        for (i, &(_, period, _)) in tasks.iter().enumerate() {
            let expected = 400 / period; // activations issued by 400ms
            prop_assert!(
                world[i] >= expected,
                "task {i}: {} completions, expected ≥ {expected}",
                world[i]
            );
        }
    }

    /// Determinism: running the same set twice produces identical
    /// completion vectors.
    #[test]
    fn schedules_are_deterministic(tasks in task_set()) {
        let run = |tasks: &[(u8, u64, u64)]| {
            let (mut os, mut world) = build(tasks);
            os.start(&mut world);
            for (i, &(_, period, _)) in tasks.iter().enumerate() {
                os.set_rel_alarm(
                    easis_osek::alarm::AlarmId(i as u32),
                    Duration::from_millis(period),
                    Some(Duration::from_millis(period)),
                ).unwrap();
            }
            os.run_until(Instant::from_millis(250), &mut world);
            world
        };
        prop_assert_eq!(run(&tasks), run(&tasks));
    }

    /// Interference freedom: adding lower-priority tasks never reduces the
    /// completion count of the strictly highest-priority task.
    #[test]
    fn lower_priority_load_cannot_starve_higher(
        base_cost in 50u64..400,
        extra in prop::collection::vec((2u64..=20, 100u64..2_000), 0..4),
    ) {
        let run = |extra: &[(u64, u64)]| {
            let mut os: Os<u64> = Os::with_disabled_trace();
            let hi = os.add_task(
                TaskConfig::new("hi", Priority(9)).with_max_activations(50),
                Script::new()
                        .compute(Duration::from_micros(base_cost))
                        .effect(|w, _| *w += 1),
            );
            let a_hi = os.add_alarm("hi", AlarmAction::ActivateTask(hi));
            let mut alarms = Vec::new();
            for (i, &(period, cost)) in extra.iter().enumerate() {
                let t = os.add_task(
                    TaskConfig::new(format!("lo{i}"), Priority(1)).with_max_activations(50),
                    Script::new().compute(Duration::from_micros(cost)),
                );
                alarms.push((os.add_alarm(format!("lo{i}"), AlarmAction::ActivateTask(t)), period));
            }
            let mut w = 0u64;
            os.start(&mut w);
            os.set_rel_alarm(a_hi, Duration::from_millis(5), Some(Duration::from_millis(5))).unwrap();
            for (a, period) in alarms {
                os.set_rel_alarm(a, Duration::from_millis(period), Some(Duration::from_millis(period))).unwrap();
            }
            os.run_until(Instant::from_millis(300), &mut w);
            w
        };
        let alone = run(&[]);
        let contended = run(&extra);
        prop_assert_eq!(alone, contended, "high-priority completions changed under low load");
    }
}
