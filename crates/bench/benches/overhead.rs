//! Criterion micro-benchmarks of the monitoring primitives (wall-clock
//! counterpart of the cycle-model table T-OVH): heartbeat indication,
//! watchdog cycle check, PFC look-up and CFCSS block entry.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use easis_baselines::cfcss::{BlockId, CfcssMonitor, CfcssProgram, ControlFlowGraph};
use easis_rte::runnable::RunnableId;
use easis_sim::cpu::CostMeter;
use easis_sim::time::{Duration, Instant};
use easis_watchdog::config::{RunnableHypothesis, WatchdogConfig};
use easis_watchdog::pfc::{FlowTable, PfcState};
use easis_watchdog::SoftwareWatchdog;
use std::hint::black_box;

fn safespeed_watchdog(runnables: u32) -> SoftwareWatchdog {
    let mut builder =
        WatchdogConfig::builder(Duration::from_millis(10)).allow_entry(RunnableId(0));
    for i in 0..runnables {
        builder = builder
            .monitor(
                RunnableHypothesis::new(RunnableId(i))
                    .alive_at_least(1, 1)
                    .arrive_at_most(2, 1),
            )
            .allow_flow(RunnableId(i), RunnableId((i + 1) % runnables));
    }
    SoftwareWatchdog::new(builder.build())
}

fn bench_heartbeat(c: &mut Criterion) {
    let mut group = c.benchmark_group("watchdog");
    group.bench_function("heartbeat_indication", |b| {
        b.iter_batched_ref(
            || safespeed_watchdog(3),
            |wd| {
                for i in 0..3 {
                    wd.heartbeat(RunnableId(i), Instant::from_millis(5));
                }
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("cycle_check_3_runnables", |b| {
        b.iter_batched_ref(
            || {
                let mut wd = safespeed_watchdog(3);
                for i in 0..3 {
                    wd.heartbeat(RunnableId(i), Instant::from_millis(5));
                }
                wd
            },
            |wd| black_box(wd.run_cycle(Instant::from_millis(10))),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("cycle_check_30_runnables", |b| {
        b.iter_batched_ref(
            || {
                let mut wd = safespeed_watchdog(30);
                for i in 0..30 {
                    wd.heartbeat(RunnableId(i), Instant::from_millis(5));
                }
                wd
            },
            |wd| black_box(wd.run_cycle(Instant::from_millis(10))),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_flow_checking(c: &mut Criterion) {
    let mut group = c.benchmark_group("flow_checking");
    // Look-up table over 3 runnables.
    let mut table = FlowTable::new();
    for i in 0..3u32 {
        table.allow(RunnableId(i), RunnableId((i + 1) % 3));
    }
    group.bench_function("pfc_lookup_per_runnable", |b| {
        let compiled = table.compile();
        let mut pfc = PfcState::default();
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 1) % 3;
            black_box(pfc.observe(&compiled, RunnableId(i)))
        })
    });
    // CFCSS at 24 blocks per runnable.
    let program = CfcssProgram::instrument(ControlFlowGraph::chain(72), 5);
    group.bench_function("cfcss_per_runnable_24_blocks", |b| {
        let mut monitor = CfcssMonitor::new(program.clone(), BlockId(0));
        let mut costs = CostMeter::new();
        let mut pos = 0u32;
        b.iter(|| {
            for _ in 0..24 {
                pos = (pos + 1) % 72;
                black_box(monitor.enter(BlockId(pos), &mut costs));
            }
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_heartbeat, bench_flow_checking
}
criterion_main!(benches);
