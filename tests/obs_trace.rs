//! End-to-end observability trace test.
//!
//! Runs the paper's central node with the flight recorder enabled, injects
//! a heartbeat loss, and checks that the JSONL trace tells the whole story
//! in sim-time order: the injection arming, the aliveness miss detected
//! inside a cycle check, and the TSI state transition that follows.

use easis::injection::injector::{ErrorClass, Injection, Injector};
use easis::obs::{FaultClass, ObsEvent, StateScope};
use easis::sim::time::{Duration, Instant};
use easis::validator::{CentralNode, NodeConfig};

fn ms(n: u64) -> Instant {
    Instant::from_millis(n)
}

fn faulty_trial_node() -> CentralNode {
    let config = NodeConfig {
        obs_capacity: Some(4096),
        ..NodeConfig::safespeed_only()
    };
    let mut node = CentralNode::build(config);
    node.start();
    let target = node.runnable("SAFE_CC_process");
    let mut injector = Injector::new([Injection::new(
        ErrorClass::HeartbeatLoss { runnable: target },
        ms(200),
        ms(400),
    )]);
    node.run_until(ms(1_000), &mut injector);
    node
}

#[test]
fn trace_contains_the_fault_story_in_sim_time_order() {
    let node = faulty_trial_node();
    let target = node.runnable("SAFE_CC_process");
    let events = node.world.obs.events();
    assert!(!events.is_empty(), "enabled sink recorded nothing");

    // The trace is in causal (recording) order: sequence numbers are
    // strictly monotonic. The `at` stamps carry each event's semantic
    // time — e.g. an FMF reaction is stamped with the fault's detection
    // time, which may precede the cycle check that delivered it.
    for pair in events.windows(2) {
        assert!(pair[0].seq < pair[1].seq, "{pair:?} sequence not monotonic");
    }

    let pos = |pred: &dyn Fn(&ObsEvent) -> bool| events.iter().position(|e| pred(&e.event));

    let armed = pos(&|e| {
        matches!(e, ObsEvent::InjectionActivated { class } if *class == "heartbeat_loss")
    })
    .expect("injection arming on the trace");
    let miss = pos(&|e| {
        matches!(e, ObsEvent::FaultDetected { runnable, kind }
            if *runnable == target && *kind == FaultClass::Aliveness)
    })
    .expect("aliveness miss on the trace");
    let transition = pos(&|e| {
        matches!(e, ObsEvent::StateTransition { scope: StateScope::Task(_), faulty: true })
    })
    .expect("task state transition on the trace");
    assert!(armed < miss, "miss detected before the injection armed");
    assert!(miss <= transition, "state transition before the first miss");
    // The story events are also ordered in sim-time.
    assert!(events[armed].at <= events[miss].at);
    assert!(events[miss].at <= events[transition].at);

    // The miss was detected inside a cycle-check bracket that counted it.
    let check_start = events[..miss]
        .iter()
        .rposition(|e| matches!(e.event, ObsEvent::CycleCheckStart { .. }))
        .expect("cycle check opened before the miss");
    let check_end = events[miss..]
        .iter()
        .position(|e| matches!(e.event, ObsEvent::CycleCheckEnd { .. }))
        .map(|i| miss + i)
        .expect("cycle check closed after the miss");
    assert!(check_start < miss && miss < check_end);
    let ObsEvent::CycleCheckEnd { faults, .. } = events[check_end].event else {
        unreachable!()
    };
    assert!(faults > 0, "closing bracket did not count the miss");

    // The injection disarmed later and the trace says so.
    let disarmed = pos(&|e| {
        matches!(e, ObsEvent::InjectionDeactivated { class } if *class == "heartbeat_loss")
    })
    .expect("injection disarm on the trace");
    assert!(disarmed > armed);
}

#[test]
fn jsonl_export_carries_the_same_story() {
    let node = faulty_trial_node();
    let jsonl = node.world.obs.to_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), node.world.obs.events().len());
    assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
    assert!(jsonl.contains("injection_activated"));
    assert!(jsonl.contains("fault_detected"));
    assert!(jsonl.contains("state_transition"));
    assert!(jsonl.contains("cycle_check_start"));
    assert!(jsonl.contains("cycle_check_end"));
}

#[test]
fn metrics_count_what_the_trace_shows() {
    let node = faulty_trial_node();
    let sink = &node.world.obs;
    let events = sink.events();
    let detected = events
        .iter()
        .filter(|e| matches!(e.event, ObsEvent::FaultDetected { .. }))
        .count() as u64;
    assert!(detected > 0);
    assert_eq!(sink.counter("fault_detected"), detected);
    let snapshot = sink.metrics_snapshot();
    let site = snapshot
        .site("watchdog.cycle_check")
        .expect("cycle latency site populated");
    assert!(site.count >= 98, "one sample per watchdog cycle, got {}", site.count);
    assert!(site.latency.is_some());
}

/// Macro-stepping must stand down whenever a trace could observe the
/// difference: an elided hyperperiod records no flight-recorder events and
/// no kernel trace entries, so with either trace enabled the engine must
/// not elide anything — and the traces must come out byte-identical to a
/// run that never heard of fast-forwarding.
#[test]
fn fastforward_auto_disables_under_traces_keeping_them_byte_identical() {
    let run = |ffwd: bool| {
        let config = NodeConfig {
            obs_capacity: Some(4096),
            ..NodeConfig::safespeed_only()
        };
        let mut node = CentralNode::build(config);
        node.set_fastforward(Some(ffwd));
        node.start();
        // An injection-free span the engine would otherwise macro-step.
        node.run_span(ms(600));
        let target = node.runnable("SAFE_CC_process");
        let mut injector = Injector::new([Injection::new(
            ErrorClass::HeartbeatLoss { runnable: target },
            ms(700),
            ms(900),
        )]);
        node.run_until(ms(1_500), &mut injector);
        node
    };
    let fast = run(true);
    let plain = run(false);

    // Both traces are enabled, so the engine stood down: the spans were
    // recorded (the denominator moves) but nothing was fast-forwarded.
    let stats = fast.ffwd_stats();
    assert_eq!(stats.fastforwarded, Duration::ZERO, "{stats:?}");
    assert_eq!(stats.certifications, 0, "{stats:?}");
    assert!(stats.span > Duration::ZERO, "{stats:?}");

    // Byte-identical observability JSONL and kernel trace.
    assert!(!fast.world.obs.to_jsonl().is_empty());
    assert_eq!(fast.world.obs.to_jsonl(), plain.world.obs.to_jsonl());
    assert_eq!(
        format!("{:?}", fast.os.trace()),
        format!("{:?}", plain.os.trace())
    );

    // Each trace gates the engine independently: kernel trace only…
    let mut kernel_only = CentralNode::build(NodeConfig::safespeed_only());
    kernel_only.set_fastforward(Some(true));
    kernel_only.start();
    kernel_only.run_span(ms(600));
    assert_eq!(kernel_only.ffwd_stats().fastforwarded, Duration::ZERO);

    // …and flight recorder only.
    let mut obs_only = CentralNode::build(NodeConfig {
        obs_capacity: Some(4096),
        kernel_trace: false,
        ..NodeConfig::safespeed_only()
    });
    obs_only.set_fastforward(Some(true));
    obs_only.start();
    obs_only.run_span(ms(600));
    assert_eq!(obs_only.ffwd_stats().fastforwarded, Duration::ZERO);

    // With both traces off the same span does fast-forward — the gate is
    // the traces, not the configuration shape.
    let mut untraced = CentralNode::build(NodeConfig {
        kernel_trace: false,
        ..NodeConfig::safespeed_only()
    });
    untraced.set_fastforward(Some(true));
    untraced.start();
    untraced.run_span(ms(600));
    assert!(untraced.ffwd_stats().fastforwarded > Duration::ZERO);
}

#[test]
fn disabled_sink_records_nothing_on_the_same_trial() {
    let mut node = CentralNode::build(NodeConfig::safespeed_only());
    node.start();
    let target = node.runnable("SAFE_CC_process");
    let mut injector = Injector::new([Injection::new(
        ErrorClass::HeartbeatLoss { runnable: target },
        ms(200),
        ms(400),
    )]);
    node.run_until(ms(1_000), &mut injector);
    assert!(!node.world.obs.is_enabled());
    assert!(node.world.obs.events().is_empty());
    assert!(node.world.obs.to_jsonl().is_empty());
    // The fault is still detected — observability is read-only.
    assert!(node.world.watchdog.log().faults().next().is_some());
}
