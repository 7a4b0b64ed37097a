//! SafeLane — lane departure warning.
//!
//! "SafeLane is a lane departure warning application" (paper §4.1). Three
//! runnables mirror the SafeSpeed decomposition: sample the camera's
//! lateral position, run the debounced departure detector, drive the
//! warning actuator (HMI).

use crate::bundle::AppBundle;
use crate::control::lane_departure_detect;
use easis_osek::task::Priority;
use easis_rte::runnable::{RunnableDef, RunnableRegistry};
use easis_rte::signal::SignalDb;
use easis_rte::world::EcuWorld;
use easis_sim::time::Duration;

/// Signal names used by SafeLane.
pub mod signals {
    /// Input: measured lateral offset from the lane centre \[m\].
    pub const LATERAL_MEASURED: &str = "lateral_measured";
    /// Input: lane half-width / departure threshold \[m\].
    pub const LANE_THRESHOLD: &str = "lane_threshold";
    /// Internal: sampled offset.
    pub const LATERAL_INTERNAL: &str = "safelane.lateral_internal";
    /// Internal: debounce counter.
    pub const DEBOUNCE: &str = "safelane.debounce";
    /// Internal: raw warning decision.
    pub const RAW_WARNING: &str = "safelane.raw_warning";
    /// Output: lane departure warning to the HMI.
    pub const CMD_WARNING: &str = "cmd.ldw_warning";
}

/// Consecutive out-of-lane samples required before warning.
pub const DEBOUNCE_LIMIT: f64 = 3.0;

/// Builds the SafeLane application (20 ms period, priority 4).
pub fn build<W: EcuWorld + 'static>(
    db: &mut SignalDb,
    registry: &mut RunnableRegistry,
) -> AppBundle<W> {
    let period = Duration::from_millis(20);

    let s_measured = db.declare(signals::LATERAL_MEASURED, 0.0);
    let s_threshold = db.declare(signals::LANE_THRESHOLD, 1.75);
    let s_internal = db.declare(signals::LATERAL_INTERNAL, 0.0);
    let s_debounce = db.declare(signals::DEBOUNCE, 0.0);
    let s_raw = db.declare(signals::RAW_WARNING, 0.0);
    let s_cmd = db.declare(signals::CMD_WARNING, 0.0);

    let get_lane = registry.register("GetLanePosition", Duration::from_micros(60));
    let ldw = registry.register_with_loop(
        "LDW_process",
        Duration::from_micros(70),
        Duration::from_micros(3),
        8,
    );
    let warn = registry.register("Warn_actuate", Duration::from_micros(25));

    let runnables = vec![
        RunnableDef::new(get_lane, move |w: &mut W, ctx| {
            let now = ctx.now();
            let v = w.signals().read(s_measured);
            w.signals_mut().write(s_internal, v, now);
        }),
        RunnableDef::new(ldw, move |w: &mut W, ctx| {
            let now = ctx.now();
            let offset = w.signals().read(s_internal);
            let threshold = w.signals().read(s_threshold);
            let debounce = w.signals().read(s_debounce);
            let out = lane_departure_detect(offset, threshold, debounce, DEBOUNCE_LIMIT);
            let sig = w.signals_mut();
            sig.write(s_debounce, out.debounce, now);
            sig.write_bool(s_raw, out.warning, now);
        }),
        RunnableDef::new(warn, move |w: &mut W, ctx| {
            let now = ctx.now();
            let warning = w.signals().read_bool(s_raw);
            w.signals_mut().write_bool(s_cmd, warning, now);
        }),
    ];

    AppBundle {
        app_name: "SafeLane",
        task_name: "SafeLaneTask",
        period,
        signal_prefix: "safelane.",
        priority: Priority(4),
        runnables,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easis_osek::alarm::AlarmAction;
    use easis_osek::kernel::Os;
    use easis_osek::task::TaskConfig;
    use easis_rte::assembly::SequencedTask;
    use easis_rte::world::BasicEcuWorld;
    use easis_sim::time::Instant;

    fn build_system() -> (Os<BasicEcuWorld>, BasicEcuWorld) {
        let mut world = BasicEcuWorld::new();
        let mut registry = RunnableRegistry::new();
        let bundle = build::<BasicEcuWorld>(&mut world.signals, &mut registry);
        let mut os = Os::new();
        let body = SequencedTask::fixed(bundle.runnables);
        let task = os.add_task(TaskConfig::new(bundle.task_name, bundle.priority), body);
        let alarm = os.add_alarm("safelane_cycle", AlarmAction::ActivateTask(task));
        os.start(&mut world);
        os.set_rel_alarm(alarm, bundle.period, Some(bundle.period)).unwrap();
        (os, world)
    }

    #[test]
    fn centered_vehicle_never_warns() {
        let (mut os, mut world) = build_system();
        os.run_until(Instant::from_millis(200), &mut world);
        let cmd = world.signals.id_of(signals::CMD_WARNING).unwrap();
        assert!(!world.signals.read_bool(cmd));
    }

    #[test]
    fn sustained_departure_warns_after_debounce() {
        let (mut os, mut world) = build_system();
        let measured = world.signals.id_of(signals::LATERAL_MEASURED).unwrap();
        world.signals.write(measured, 2.2, Instant::ZERO);
        let cmd = world.signals.id_of(signals::CMD_WARNING).unwrap();
        // Two periods: below the debounce limit of 3.
        os.run_until(Instant::from_millis(45), &mut world);
        assert!(!world.signals.read_bool(cmd));
        // Third out-of-lane sample fires the warning.
        os.run_until(Instant::from_millis(65), &mut world);
        assert!(world.signals.read_bool(cmd));
    }

    #[test]
    fn warning_clears_on_recovery() {
        let (mut os, mut world) = build_system();
        let measured = world.signals.id_of(signals::LATERAL_MEASURED).unwrap();
        world.signals.write(measured, 2.2, Instant::ZERO);
        os.run_until(Instant::from_millis(100), &mut world);
        world.signals.write(measured, 0.1, os.now());
        os.run_until(Instant::from_millis(140), &mut world);
        let cmd = world.signals.id_of(signals::CMD_WARNING).unwrap();
        assert!(!world.signals.read_bool(cmd));
    }

    #[test]
    fn bundle_metadata_is_consistent() {
        let mut db = SignalDb::new();
        let mut reg = RunnableRegistry::new();
        let bundle = build::<BasicEcuWorld>(&mut db, &mut reg);
        assert_eq!(bundle.task_name, "SafeLaneTask");
        assert_eq!(bundle.runnables.len(), 3);
        assert_eq!(bundle.period, Duration::from_millis(20));
    }
}
