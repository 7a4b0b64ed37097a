//! Steer-by-wire command path.
//!
//! The validator hosts SafeSpeed "with Steer-by-Wire technology" (paper
//! §4.1): there is no mechanical column, so the handwheel angle travels as
//! a signal through the ECU to the steering actuator — the availability of
//! this path is safety-critical, which is why its runnables are prime
//! candidates for watchdog supervision at a short period.

use crate::bundle::AppBundle;
use crate::control::steer_by_wire_shape;
use easis_osek::task::Priority;
use easis_rte::runnable::{RunnableDef, RunnableRegistry};
use easis_rte::signal::SignalDb;
use easis_rte::world::EcuWorld;
use easis_sim::time::Duration;

/// Signal names used by steer-by-wire.
pub mod signals {
    /// Input: handwheel angle \[rad\].
    pub const HANDWHEEL: &str = "handwheel_angle";
    /// Internal: sampled handwheel angle.
    pub const HANDWHEEL_INTERNAL: &str = "sbw.handwheel_internal";
    /// Output: road-wheel steering command \[rad\].
    pub const CMD_STEER: &str = "cmd.steer";
}

/// Road-wheel slew-rate limit \[rad/s\].
pub const MAX_STEER_RATE: f64 = 0.8;

/// Builds the steer-by-wire application (5 ms period, priority 6 — the
/// most time-critical path on the node).
pub fn build<W: EcuWorld + 'static>(
    db: &mut SignalDb,
    registry: &mut RunnableRegistry,
) -> AppBundle<W> {
    let period = Duration::from_millis(5);
    let dt_s = period.as_secs_f64();

    let s_hand = db.declare(signals::HANDWHEEL, 0.0);
    let s_internal = db.declare(signals::HANDWHEEL_INTERNAL, 0.0);
    let s_cmd = db.declare(signals::CMD_STEER, 0.0);

    let read_hw = registry.register("ReadHandwheel", Duration::from_micros(20));
    let shape = registry.register("SbW_process", Duration::from_micros(45));
    let actuate = registry.register("Steer_actuate", Duration::from_micros(20));

    let runnables = vec![
        RunnableDef::new(read_hw, move |w: &mut W, ctx| {
            let now = ctx.now();
            let v = w.signals().read(s_hand);
            w.signals_mut().write(s_internal, v, now);
        }),
        RunnableDef::new(shape, move |w: &mut W, ctx| {
            let now = ctx.now();
            let hand = w.signals().read(s_internal);
            let prev = w.signals().read(s_cmd);
            let cmd = steer_by_wire_shape(hand, prev, MAX_STEER_RATE, dt_s);
            w.signals_mut().write(s_cmd, cmd, now);
        }),
        // The actuate runnable exists to model the transmission cost; the
        // command signal is already final.
        RunnableDef::no_op(actuate),
    ];

    AppBundle {
        app_name: "SteerByWire",
        task_name: "SteerByWireTask",
        period,
        signal_prefix: "sbw.",
        priority: Priority(6),
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

    #[test]
    fn handwheel_propagates_with_rate_limit() {
        let mut world = BasicEcuWorld::new();
        let mut registry = RunnableRegistry::new();
        let bundle = build::<BasicEcuWorld>(&mut world.signals, &mut registry);
        let mut os = Os::new();
        let body = SequencedTask::fixed(bundle.runnables);
        let task = os.add_task(TaskConfig::new(bundle.task_name, bundle.priority), body);
        let alarm = os.add_alarm("sbw_cycle", AlarmAction::ActivateTask(task));
        os.start(&mut world);
        os.set_rel_alarm(alarm, bundle.period, Some(bundle.period)).unwrap();

        let hand = world.signals.id_of(signals::HANDWHEEL).unwrap();
        world.signals.write(hand, 1.5, Instant::ZERO);
        os.run_until(Instant::from_millis(20), &mut world);
        let cmd = world.signals.read(world.signals.id_of(signals::CMD_STEER).unwrap());
        // 4 periods × 0.8 rad/s × 5 ms = 0.016 rad max travel.
        assert!(cmd > 0.0 && cmd <= 0.016 + 1e-9, "cmd {cmd}");
        // Long run converges to 1.5/15 = 0.1.
        os.run_until(Instant::from_millis(2_000), &mut world);
        let cmd = world.signals.read(world.signals.id_of(signals::CMD_STEER).unwrap());
        assert!((cmd - 0.1).abs() < 1e-6, "cmd {cmd}");
    }

    #[test]
    fn bundle_is_fastest_and_highest_priority() {
        let mut db = SignalDb::new();
        let mut reg = RunnableRegistry::new();
        let bundle = build::<BasicEcuWorld>(&mut db, &mut reg);
        assert_eq!(bundle.period, Duration::from_millis(5));
        assert_eq!(bundle.priority, Priority(6));
        assert_eq!(bundle.runnables.len(), 3);
    }
}
