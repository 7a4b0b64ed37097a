//! SafeSpeed — automatic speed limiting.
//!
//! "SafeSpeed is a system to automatically limit the vehicle speed to an
//! externally commanded maximum value" (paper §4.1), and its decomposition
//! is given explicitly in §4.3: "sensor value reading in `GetSensorValue`,
//! the control algorithm in `SAFE_CC_process` and setting of the actuator
//! in `Speed_process`", triggered in that sequence by the SafeSpeed chart.
//! The same three runnables are built here.

use crate::bundle::AppBundle;
use crate::control::speed_limit_control;
use easis_osek::task::Priority;
use easis_rte::runnable::{RunnableDef, RunnableRegistry};
use easis_rte::signal::SignalDb;
use easis_rte::world::EcuWorld;
use easis_sim::time::Duration;

/// Signal names used by SafeSpeed (inputs must be fed by the platform).
pub mod signals {
    /// Input: measured vehicle speed \[m/s\].
    pub const SPEED_MEASURED: &str = "speed_measured";
    /// Input: externally commanded maximum speed \[m/s\].
    pub const SPEED_LIMIT: &str = "speed_limit";
    /// Internal: sampled speed used by the control algorithm.
    pub const SPEED_INTERNAL: &str = "safespeed.speed_internal";
    /// Internal: PI integrator state.
    pub const INTEGRATOR: &str = "safespeed.integrator";
    /// Internal: raw controller outputs before actuation.
    pub const RAW_CEILING: &str = "safespeed.raw_ceiling";
    /// Internal: raw brake demand before actuation.
    pub const RAW_BRAKE: &str = "safespeed.raw_brake";
    /// Output: throttle ceiling command to the actuator node.
    pub const CMD_THROTTLE_CEILING: &str = "cmd.throttle_ceiling";
    /// Output: brake request command to the actuator node.
    pub const CMD_BRAKE_REQUEST: &str = "cmd.brake_request";
}

/// Builds the SafeSpeed application: declares its signals, registers its
/// three runnables and returns the bundle (10 ms period, priority 5).
pub fn build<W: EcuWorld + 'static>(
    db: &mut SignalDb,
    registry: &mut RunnableRegistry,
) -> AppBundle<W> {
    let period = Duration::from_millis(10);
    let dt_s = period.as_secs_f64();

    let s_measured = db.declare(signals::SPEED_MEASURED, 0.0);
    let s_limit = db.declare(signals::SPEED_LIMIT, 27.8);
    let s_internal = db.declare(signals::SPEED_INTERNAL, 0.0);
    let s_integrator = db.declare(signals::INTEGRATOR, 0.0);
    let s_raw_ceiling = db.declare(signals::RAW_CEILING, 1.0);
    let s_raw_brake = db.declare(signals::RAW_BRAKE, 0.0);
    let s_cmd_ceiling = db.declare(signals::CMD_THROTTLE_CEILING, 1.0);
    let s_cmd_brake = db.declare(signals::CMD_BRAKE_REQUEST, 0.0);

    let get_sensor = registry.register("GetSensorValue", Duration::from_micros(40));
    let cc_process = registry.register_with_loop(
        "SAFE_CC_process",
        Duration::from_micros(80),
        Duration::from_micros(4),
        10,
    );
    let speed_process = registry.register("Speed_process", Duration::from_micros(30));

    let runnables = vec![
        RunnableDef::new(get_sensor, move |w: &mut W, ctx| {
            let now = ctx.now();
            let v = w.signals().read(s_measured);
            w.signals_mut().write(s_internal, v, now);
        }),
        RunnableDef::new(cc_process, move |w: &mut W, ctx| {
            let now = ctx.now();
            let speed = w.signals().read(s_internal);
            let limit = w.signals().read(s_limit);
            let integ = w.signals().read(s_integrator);
            let out = speed_limit_control(speed, limit, integ, dt_s);
            let sig = w.signals_mut();
            sig.write(s_integrator, out.integrator, now);
            sig.write(s_raw_ceiling, out.throttle_ceiling, now);
            sig.write(s_raw_brake, out.brake_request, now);
        }),
        RunnableDef::new(speed_process, move |w: &mut W, ctx| {
            let now = ctx.now();
            let ceiling = w.signals().read(s_raw_ceiling).clamp(0.0, 1.0);
            let brake = w.signals().read(s_raw_brake).clamp(0.0, 1.0);
            let sig = w.signals_mut();
            sig.write(s_cmd_ceiling, ceiling, now);
            sig.write(s_cmd_brake, brake, now);
        }),
    ];

    AppBundle {
        app_name: "SafeSpeed",
        task_name: "SafeSpeedTask",
        period,
        signal_prefix: "safespeed.",
        priority: Priority(5),
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
        let alarm = os.add_alarm("safespeed_cycle", AlarmAction::ActivateTask(task));
        os.start(&mut world);
        os.set_rel_alarm(alarm, bundle.period, Some(bundle.period)).unwrap();
        (os, world)
    }

    #[test]
    fn bundle_has_paper_runnable_names() {
        let mut db = SignalDb::new();
        let mut reg = RunnableRegistry::new();
        let bundle = build::<BasicEcuWorld>(&mut db, &mut reg);
        let names: Vec<&str> = bundle.runnables.iter().map(|r| r.spec().name()).collect();
        assert_eq!(names, vec!["GetSensorValue", "SAFE_CC_process", "Speed_process"]);
        assert_eq!(bundle.app_name, "SafeSpeed");
        assert_eq!(bundle.flow_pairs().len(), 3);
    }

    #[test]
    fn over_limit_produces_brake_command_through_the_task() {
        let (mut os, mut world) = build_system();
        let measured = world.signals.id_of(signals::SPEED_MEASURED).unwrap();
        let limit = world.signals.id_of(signals::SPEED_LIMIT).unwrap();
        world.signals.write(measured, 25.0, Instant::ZERO);
        world.signals.write(limit, 13.9, Instant::ZERO);
        os.run_until(Instant::from_millis(55), &mut world);
        let brake = world
            .signals
            .read(world.signals.id_of(signals::CMD_BRAKE_REQUEST).unwrap());
        let ceiling = world
            .signals
            .read(world.signals.id_of(signals::CMD_THROTTLE_CEILING).unwrap());
        assert!(brake > 0.0, "brake {brake}");
        assert_eq!(ceiling, 0.0);
        assert_eq!(world.heartbeats.len(), 15); // 5 periods × 3 runnables
    }

    #[test]
    fn under_limit_keeps_throttle_open() {
        let (mut os, mut world) = build_system();
        let measured = world.signals.id_of(signals::SPEED_MEASURED).unwrap();
        world.signals.write(measured, 10.0, Instant::ZERO);
        os.run_until(Instant::from_millis(25), &mut world);
        let brake = world
            .signals
            .read(world.signals.id_of(signals::CMD_BRAKE_REQUEST).unwrap());
        let ceiling = world
            .signals
            .read(world.signals.id_of(signals::CMD_THROTTLE_CEILING).unwrap());
        assert_eq!(brake, 0.0);
        assert!(ceiling > 0.9);
    }

    #[test]
    fn redeclaring_signals_is_idempotent() {
        let mut db = SignalDb::new();
        let mut reg1 = RunnableRegistry::new();
        let _ = build::<BasicEcuWorld>(&mut db, &mut reg1);
        let count = db.len();
        let mut reg2 = RunnableRegistry::new();
        let _ = build::<BasicEcuWorld>(&mut db, &mut reg2);
        assert_eq!(db.len(), count);
    }
}
