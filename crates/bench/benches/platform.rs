//! Criterion benchmarks of the platform substrates: OSEK scheduling
//! throughput, the supervised central node, and the full HIL loop —
//! simulated seconds per wall-clock second.

use criterion::{criterion_group, criterion_main, Criterion};
use easis_injection::injector::Injector;
use easis_osek::alarm::AlarmAction;
use easis_osek::kernel::Os;
use easis_osek::plan::Script;
use easis_osek::task::{Priority, TaskConfig};
use easis_sim::time::{Duration, Instant};
use easis_validator::hil::HilValidator;
use easis_validator::{CentralNode, NodeConfig};
use std::hint::black_box;

fn bench_osek(c: &mut Criterion) {
    c.bench_function("osek_1s_three_periodic_tasks", |b| {
        b.iter(|| {
            let mut os: Os<u64> = Os::with_disabled_trace();
            for (i, period) in [(0u32, 5u64), (1, 10), (2, 20)] {
                let t = os.add_task(
                    TaskConfig::new(format!("t{i}"), Priority(i as u8 + 1)),
                    Script::new()
                        .compute(Duration::from_micros(200))
                        .effect(|w: &mut u64, _| *w += 1),
                );
                let a = os.add_alarm(format!("a{i}"), AlarmAction::ActivateTask(t));
                // Arming happens after start below; stash via closure scope.
                let _ = (a, period);
            }
            let mut w = 0u64;
            os.start(&mut w);
            for (i, period) in [(0u32, 5u64), (1, 10), (2, 20)] {
                let a = easis_osek::alarm::AlarmId(i);
                os.set_rel_alarm(a, Duration::from_millis(period), Some(Duration::from_millis(period)))
                    .expect("arm");
            }
            os.run_until(Instant::from_millis(1_000), &mut w);
            black_box(w)
        })
    });
}

fn bench_central_node(c: &mut Criterion) {
    c.bench_function("central_node_1s_supervised", |b| {
        b.iter(|| {
            let mut node = CentralNode::build(NodeConfig::default());
            node.start();
            let mut injector = Injector::none();
            node.run_until(Instant::from_millis(1_000), &mut injector);
            black_box(node.world.watchdog.cycles_run())
        })
    });
}

fn bench_hil(c: &mut Criterion) {
    c.bench_function("hil_1s_closed_loop", |b| {
        b.iter(|| {
            let mut hil = HilValidator::motorway(25.0, 13.9, None, 1);
            let mut injector = Injector::none();
            let report = hil.run(Duration::from_secs(1), &mut injector, None);
            black_box(report.can_frames)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_osek, bench_central_node, bench_hil
}
criterion_main!(benches);
