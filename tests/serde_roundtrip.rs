//! Serialisation round-trips of the configuration and report types — the
//! artifacts a real deployment would persist (fault hypotheses, DTC
//! memory, experiment records).

use easis::fmf::dtc::{DtcStore, FreezeFrame};
use easis::rte::mapping::SystemMapping;
use easis::rte::runnable::RunnableId;
use easis::rte::signal::SignalId;
use easis::osek::task::TaskId;
use easis::sim::series::SeriesSet;
use easis::sim::time::{Duration, Instant};
use easis::watchdog::config::{RunnableHypothesis, WatchdogConfig};
use easis::watchdog::report::{DetectedFault, FaultKind, RunnableCounters};

#[test]
fn watchdog_config_round_trips_through_json() {
    let mut mapping = SystemMapping::new();
    let app = mapping.add_application("SafeSpeed");
    mapping.assign_task(TaskId(0), app);
    mapping.assign_runnable(RunnableId(0), TaskId(0));
    let config = WatchdogConfig::builder(Duration::from_millis(10))
        .mapping(mapping)
        .monitor(
            RunnableHypothesis::new(RunnableId(0))
                .alive_at_least(1, 2)
                .arrive_at_most(3, 2),
        )
        .allow_entry(RunnableId(0))
        .allow_flow(RunnableId(0), RunnableId(1))
        .error_threshold(5)
        .build();
    let json = serde_json::to_string(&config).expect("serialise");
    let back: WatchdogConfig = serde_json::from_str(&json).expect("deserialise");
    assert_eq!(back.check_period(), config.check_period());
    assert_eq!(back.error_threshold(), config.error_threshold());
    assert_eq!(
        back.deactivate_on_faulty_task(),
        config.deactivate_on_faulty_task()
    );
    assert_eq!(
        back.hypothesis(RunnableId(0)),
        config.hypothesis(RunnableId(0))
    );
    assert_eq!(back.flow_table(), config.flow_table());
}

#[test]
fn dtc_store_round_trips_with_records() {
    let mut store = DtcStore::new(2, 10);
    for ms in [10, 20, 30] {
        store.record(
            DetectedFault {
                at: Instant::from_millis(ms),
                runnable: RunnableId(4),
                kind: FaultKind::ProgramFlow,
            },
            FreezeFrame {
                conditions: [Some((SignalId(3), 19.4)), None],
            },
        );
    }
    let json = serde_json::to_string(&store).expect("serialise");
    let back: DtcStore = serde_json::from_str(&json).expect("deserialise");
    assert_eq!(back.len(), store.len());
    let code = easis::fmf::dtc::DtcCode::of(RunnableId(4), FaultKind::ProgramFlow);
    assert_eq!(back.get(code), store.get(code));
}

#[test]
fn series_set_round_trips_for_experiment_records() {
    let mut set = SeriesSet::new("fig_demo");
    for i in 0..20 {
        set.push(Instant::from_millis(i * 10), "AC", (i % 3) as f64);
    }
    let json = serde_json::to_string(&set).expect("serialise");
    let back: SeriesSet = serde_json::from_str(&json).expect("deserialise");
    assert_eq!(back.name(), "fig_demo");
    assert_eq!(
        back.series("AC").unwrap().samples(),
        set.series("AC").unwrap().samples()
    );
}

#[test]
fn counters_and_faults_are_stable_wire_types() {
    let fault = DetectedFault {
        at: Instant::from_millis(42),
        runnable: RunnableId(3),
        kind: FaultKind::ArrivalRate,
    };
    let json = serde_json::to_string(&fault).unwrap();
    assert_eq!(serde_json::from_str::<DetectedFault>(&json).unwrap(), fault);

    let counters = RunnableCounters {
        ac: 1,
        arc: 2,
        cca: 3,
        ccar: 4,
        activation: true,
        aliveness_errors: 5,
        arrival_rate_errors: 6,
        program_flow_errors: 7,
    };
    let json = serde_json::to_string(&counters).unwrap();
    assert_eq!(
        serde_json::from_str::<RunnableCounters>(&json).unwrap(),
        counters
    );
}
