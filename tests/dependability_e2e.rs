//! End-to-end dependability tests: injected error → watchdog detection →
//! TSI rollup → FMF treatment → recovery, across the whole stack.

use easis::fmf::dtc::DtcRecord;
use easis::fmf::policy::{Treatment, TreatmentPolicy};
use easis::injection::{ErrorClass, Injection, Injector, TrialSpec};
use easis::osek::alarm::AlarmId;
use easis::rte::runnable::RunnableId;
use easis::sim::time::Instant;
use easis::validator::scenario::{campaign_node_config, run_trial};
use easis::validator::{CentralNode, NodeConfig};
use easis::watchdog::report::{FaultKind, HealthState};
use easis::watchdog::DetectorId;

fn ms(n: u64) -> Instant {
    Instant::from_millis(n)
}

#[test]
fn heartbeat_loss_is_detected_treated_and_recovered() {
    let mut node = CentralNode::build(NodeConfig::default());
    node.start();
    let target = node.runnable("SAFE_CC_process");
    let task = node.tasks["SafeSpeedTask"];
    let mut injector = Injector::new([Injection::new(
        ErrorClass::HeartbeatLoss { runnable: target },
        ms(200),
        ms(300),
    )]);
    node.run_until(ms(800), &mut injector);

    // Detection: aliveness faults on the right runnable.
    let aliveness: Vec<_> = node
        .world
        .watchdog
        .log()
        .faults()
        .filter(|f| f.kind == FaultKind::Aliveness)
        .collect();
    assert!(!aliveness.is_empty());
    assert!(aliveness.iter().all(|f| f.runnable == target));

    // Treatment: the application was restarted.
    assert!(node
        .world
        .treatments
        .iter()
        .any(|t| matches!(t.treatment, Treatment::RestartApplication(_))));

    // Recovery: after the window everything is healthy again.
    assert_eq!(node.world.watchdog.task_state(task), HealthState::Ok);
    assert!(node.counters_of("SAFE_CC_process").activation);
}

#[test]
fn persistent_fault_escalates_to_application_termination() {
    // The fault outlives the restart budget (3): the FMF terminates the
    // application, which cancels its activation alarm.
    let mut node = CentralNode::build(NodeConfig {
        policy: TreatmentPolicy {
            reset_on_ecu_faulty: false, // isolate the app-level escalation
            ..TreatmentPolicy::default()
        },
        ..NodeConfig::safespeed_only()
    });
    node.start();
    let target = node.runnable("SAFE_CC_process");
    let mut injector = Injector::new([Injection::new(
        ErrorClass::SkipRunnable { runnable: target },
        ms(200),
        ms(2_000),
    )]);
    node.run_until(ms(2_500), &mut injector);

    let app = node.apps["SafeSpeed"];
    assert!(node.world.fmf.is_terminated(app));
    assert_eq!(node.world.fmf.restarts_of(app), 3);
    assert!(node
        .world
        .treatments
        .iter()
        .any(|t| matches!(t.treatment, Treatment::TerminateApplication(_))));
    // The activation alarm was cancelled: the task stops running, so the
    // trace shows no SafeSpeedTask dispatches near the end of the run.
    let last_dispatch = node
        .os
        .trace()
        .of_kind("dispatch")
        .filter(|e| e.detail == "SafeSpeedTask")
        .last()
        .expect("task ran at least once")
        .at;
    assert!(last_dispatch < ms(2_400), "task still running at {last_dispatch}");
}

#[test]
fn single_app_node_escalates_to_ecu_reset() {
    // With one application, app-faulty implies ECU-faulty (default
    // threshold: all apps); the policy then commands a software reset.
    let mut node = CentralNode::build(NodeConfig::safespeed_only());
    node.start();
    let target = node.runnable("Speed_process");
    let mut injector = Injector::new([Injection::new(
        ErrorClass::HeartbeatLoss { runnable: target },
        ms(200),
        ms(400),
    )]);
    node.run_until(ms(1_000), &mut injector);
    assert!(node.world.fmf.ecu_resets() > 0, "expected an ECU software reset");
    assert!(node
        .world
        .treatments
        .iter()
        .any(|t| t.treatment == Treatment::EcuReset));
    // The reset cleared the budgets: the FMF can restart again later.
    assert!(!node.world.fmf.is_terminated(node.apps["SafeSpeed"]));
}

#[test]
fn faults_in_one_app_do_not_disturb_the_others() {
    let mut node = CentralNode::build(NodeConfig::default());
    node.start();
    let target = node.runnable("LDW_process"); // SafeLane
    let mut injector = Injector::new([Injection::new(
        ErrorClass::HeartbeatLoss { runnable: target },
        ms(200),
        ms(400),
    )]);
    node.run_until(ms(1_000), &mut injector);
    // SafeLane was flagged (the lost heartbeat shows up as an aliveness
    // error on LDW_process and as flow errors on its observed successor —
    // both SafeLane runnables)…
    let safelane_task = node.tasks["SafeLaneTask"];
    let mapping = node.world.watchdog.config().mapping().clone();
    let faults: Vec<_> = node.world.watchdog.log().faults().collect();
    assert!(!faults.is_empty());
    assert!(
        faults
            .iter()
            .all(|f| mapping.task_of(f.runnable) == Some(safelane_task)),
        "{faults:?}"
    );
    let _ = target;
    // …while SafeSpeed and steer-by-wire stayed healthy.
    assert_eq!(
        node.world.watchdog.task_state(node.tasks["SafeSpeedTask"]),
        HealthState::Ok
    );
    assert_eq!(
        node.world.watchdog.task_state(node.tasks["SteerByWireTask"]),
        HealthState::Ok
    );
    assert_eq!(node.world.watchdog.ecu_state(), HealthState::Ok);
}

#[test]
fn cpu_saturating_fault_reaches_the_hardware_watchdog() {
    let mut node = CentralNode::build(NodeConfig {
        keep_monitoring_faulty: true,
        policy: TreatmentPolicy::observe_only(),
        ..NodeConfig::default()
    });
    node.start();
    let target = node.runnable("SAFE_CC_process");
    let mut injector = Injector::new([Injection::new(
        ErrorClass::ExecutionSlowdown {
            runnable: target,
            scale_ppm: 400_000_000, // 400× ≈ 48 ms per activation
        },
        ms(200),
        ms(500),
    )]);
    node.run_until(ms(1_000), &mut injector);
    // The kick task starves; the hardware watchdog expires.
    let log = node.world.watchdog.log();
    assert!(log.count(DetectorId::HwWatchdog) > 0);
    // And the software monitors detected it much earlier.
    let first_sw = log.faults().next().expect("sw detection").at;
    let hw = log
        .entries()
        .iter()
        .find(|d| d.detector == DetectorId::HwWatchdog)
        .expect("hw expiry")
        .at;
    assert!(first_sw < hw, "sw {first_sw} must beat hw {hw}");
}

#[test]
fn application_restart_resets_internal_state() {
    // Drive the integrator up, then force a restart treatment: the
    // restarted component must start from initialised state.
    let mut node = CentralNode::build(NodeConfig::safespeed_only());
    node.start();
    let measured = node.world.signals.id_of("speed_measured").unwrap();
    let limit = node.world.signals.id_of("speed_limit").unwrap();
    node.world.signals.write(measured, 30.0, Instant::ZERO);
    node.world.signals.write(limit, 10.0, Instant::ZERO);
    let mut quiet = Injector::none();
    node.run_until(ms(300), &mut quiet);
    let integrator = node.world.signals.id_of("safespeed.integrator").unwrap();
    assert_eq!(node.world.signals.read(integrator), 5.0, "integrator saturated");

    // A heartbeat loss triggers detection → restart treatment.
    let target = node.runnable("SAFE_CC_process");
    let mut injector = Injector::new([Injection::new(
        ErrorClass::HeartbeatLoss { runnable: target },
        ms(300),
        ms(340),
    )]);
    node.run_until(ms(400), &mut injector);
    assert!(node
        .world
        .treatments
        .iter()
        .any(|t| matches!(t.treatment, Treatment::RestartApplication(_))));
    // Right after the restart the integrator was cleared; it then winds up
    // again from zero (~0.2/period), so by 400 ms it is far below the
    // saturated pre-fault value…
    let wound_again = node.world.signals.read(integrator);
    assert!(wound_again < 2.0, "integrator after restart: {wound_again}");
    // …while non-app-internal signals (inputs) were left untouched.
    assert_eq!(node.world.signals.read(measured), 30.0);
}

/// A freeze frame holds the values of the node's two freeze signals by
/// id; the node's signal database names them. Rewinding the node to its
/// t=0 snapshot — what a campaign worker does between trials — clears the
/// fault memory, and the replayed faulty run records the same DTCs, frames
/// included.
#[test]
fn freeze_frames_capture_the_node_signals_and_replay_across_a_rewind() {
    let mut node = CentralNode::build(NodeConfig::default());
    node.start();
    let cold = node.snapshot();
    let faulty_run = |node: &mut CentralNode| {
        let target = node.runnable("SAFE_CC_process");
        let mut injector = Injector::new([Injection::new(
            ErrorClass::HeartbeatLoss { runnable: target },
            ms(200),
            ms(300),
        )]);
        node.run_until(ms(500), &mut injector);
        let records: Vec<DtcRecord> = node.world.fmf.dtc().iter().copied().collect();
        assert!(!records.is_empty(), "faulty run must record DTCs");
        records
    };

    let first = faulty_run(&mut node);
    for record in &first {
        let names: Vec<&str> = record
            .freeze_frame
            .conditions
            .iter()
            .flatten()
            .map(|&(id, _)| node.world.signals.name(id))
            .collect();
        assert_eq!(names, ["speed_measured", "lateral_measured"], "{}", record.code);
    }

    node.restore_from(&cold);
    assert!(
        node.world.fmf.dtc().is_empty(),
        "the rewind clears the fault memory"
    );
    let second = faulty_run(&mut node);
    assert_eq!(first, second, "the replay must record the same DTCs and frames");
}

/// One strong instance of each error class, in declaration order. The
/// list is a chain through an exhaustive `match`: each class names the
/// next one's instance, so a new class does not compile until it gets an
/// arm, and with it a row.
fn one_strong_instance_per_class(safe_cc: RunnableId, alarm: AlarmId) -> Vec<ErrorClass> {
    let next = |class: &ErrorClass| match class {
        ErrorClass::ExecutionSlowdown { .. } => {
            Some(ErrorClass::HeartbeatLoss { runnable: safe_cc })
        }
        ErrorClass::HeartbeatLoss { .. } => Some(ErrorClass::SkipRunnable { runnable: safe_cc }),
        ErrorClass::SkipRunnable { .. } => Some(ErrorClass::DuplicateDispatch {
            runnable: safe_cc,
            extra: 2,
        }),
        ErrorClass::DuplicateDispatch { .. } => Some(ErrorClass::LoopOverrun {
            runnable: safe_cc,
            iterations: 20_000,
        }),
        ErrorClass::LoopOverrun { .. } => Some(ErrorClass::AlarmScale {
            alarm,
            scale_ppm: 3_000_000,
        }),
        ErrorClass::AlarmScale { .. } => None,
    };
    let first = ErrorClass::ExecutionSlowdown {
        runnable: safe_cc,
        scale_ppm: 100_000_000,
    };
    std::iter::successors(Some(first), next).collect()
}

/// Every error class reaches some detector: a strong instance of each,
/// armed from 300 to 700 ms on the campaign node, is seen before the 1 s
/// horizon. A class no detector can see would read 0% in every coverage
/// table without a fault in the watchdog.
#[test]
fn every_error_class_reaches_a_detector() {
    let node = CentralNode::build(campaign_node_config());
    let classes = one_strong_instance_per_class(
        node.runnable("SAFE_CC_process"),
        node.alarms["SafeSpeedTask"],
    );
    assert_eq!(classes.len(), 6);
    for class in classes {
        let spec = TrialSpec {
            seed: 0,
            injection: Injection::new(class, ms(300), ms(700)),
        };
        let outcome = run_trial(&spec, ms(1_000));
        assert!(
            !outcome.detections.is_empty(),
            "no detector saw {:?}",
            spec.injection.class
        );
    }
}
