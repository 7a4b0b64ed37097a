//! Light control.
//!
//! The validator's node list (paper §4.1) includes a "light control node".
//! The application is simple — ambient-light-dependent headlight control
//! with hysteresis plus speed-dependent daytime running lights — but as a
//! body-domain component it broadens the deployment the watchdog
//! supervises beyond the chassis/powertrain functions.

use crate::bundle::AppBundle;
use easis_osek::task::Priority;
use easis_rte::runnable::{RunnableDef, RunnableRegistry};
use easis_rte::signal::SignalDb;
use easis_rte::world::EcuWorld;
use easis_sim::time::Duration;

/// Signal names used by light control.
pub mod signals {
    /// Input: ambient illuminance \[lx\].
    pub const AMBIENT_LUX: &str = "ambient_lux";
    /// Input: vehicle speed (for daytime running lights) \[m/s\].
    pub const SPEED_FOR_LIGHTS: &str = "speed_measured";
    /// Internal: filtered ambient level.
    pub const FILTERED_LUX: &str = "lightctl.filtered_lux";
    /// Internal: current headlight decision (hysteresis state).
    pub const HEADLIGHT_STATE: &str = "lightctl.headlight_state";
    /// Output: low-beam headlights on/off.
    pub const CMD_HEADLIGHTS: &str = "cmd.headlights";
    /// Output: daytime running lights on/off.
    pub const CMD_DRL: &str = "cmd.drl";
}

/// Headlights switch on below this illuminance \[lx\].
pub const LUX_ON: f64 = 400.0;
/// Headlights switch off above this illuminance \[lx\] (hysteresis).
pub const LUX_OFF: f64 = 700.0;

/// Pure decision law: headlight state with hysteresis.
fn headlight_decision(filtered_lux: f64, currently_on: bool) -> bool {
    if currently_on {
        filtered_lux < LUX_OFF
    } else {
        filtered_lux < LUX_ON
    }
}

/// Builds the light-control application (50 ms period, priority 2 — the
/// least time-critical function on the node).
pub fn build<W: EcuWorld + 'static>(
    db: &mut SignalDb,
    registry: &mut RunnableRegistry,
) -> AppBundle<W> {
    let period = Duration::from_millis(50);

    let s_ambient = db.declare(signals::AMBIENT_LUX, 10_000.0);
    let s_speed = db.declare(signals::SPEED_FOR_LIGHTS, 0.0);
    let s_filtered = db.declare(signals::FILTERED_LUX, 10_000.0);
    let s_state = db.declare(signals::HEADLIGHT_STATE, 0.0);
    let s_cmd_head = db.declare(signals::CMD_HEADLIGHTS, 0.0);
    let s_cmd_drl = db.declare(signals::CMD_DRL, 0.0);

    let sense = registry.register("GetAmbientLight", Duration::from_micros(30));
    let decide = registry.register("LightCtl_process", Duration::from_micros(40));
    let actuate = registry.register("Light_actuate", Duration::from_micros(20));

    let runnables = vec![
        RunnableDef::new(sense, move |w: &mut W, ctx| {
            let now = ctx.now();
            // First-order low-pass (tunnel entries shouldn't flicker).
            let raw = w.signals().read(s_ambient);
            let filtered = 0.7 * w.signals().read(s_filtered) + 0.3 * raw;
            w.signals_mut().write(s_filtered, filtered, now);
        }),
        RunnableDef::new(decide, move |w: &mut W, ctx| {
            let now = ctx.now();
            let filtered = w.signals().read(s_filtered);
            let on = w.signals().read_bool(s_state);
            let next = headlight_decision(filtered, on);
            w.signals_mut().write_bool(s_state, next, now);
        }),
        RunnableDef::new(actuate, move |w: &mut W, ctx| {
            let now = ctx.now();
            let head = w.signals().read_bool(s_state);
            let moving = w.signals().read(s_speed) > 0.5;
            let sig = w.signals_mut();
            sig.write_bool(s_cmd_head, head, now);
            sig.write_bool(s_cmd_drl, moving && !head, now);
        }),
    ];

    AppBundle {
        app_name: "LightControl",
        task_name: "LightControlTask",
        period,
        signal_prefix: "lightctl.",
        priority: Priority(2),
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
        let alarm = os.add_alarm("light_cycle", AlarmAction::ActivateTask(task));
        os.start(&mut world);
        os.set_rel_alarm(alarm, bundle.period, Some(bundle.period)).unwrap();
        (os, world)
    }

    #[test]
    fn hysteresis_prevents_flicker() {
        assert!(headlight_decision(300.0, false)); // dark → on
        assert!(headlight_decision(550.0, true)); // mid band, stays on
        assert!(!headlight_decision(550.0, false)); // mid band, stays off
        assert!(!headlight_decision(800.0, true)); // bright → off
    }

    #[test]
    fn tunnel_entry_turns_headlights_on() {
        let (mut os, mut world) = build_system();
        let ambient = world.signals.id_of(signals::AMBIENT_LUX).unwrap();
        os.run_until(Instant::from_millis(300), &mut world);
        let head = world.signals.id_of(signals::CMD_HEADLIGHTS).unwrap();
        assert!(!world.signals.read_bool(head), "daylight: lights off");
        // Tunnel: ambient collapses; the filter needs a few periods.
        world.signals.write(ambient, 20.0, os.now());
        os.run_until(Instant::from_millis(800), &mut world);
        assert!(world.signals.read_bool(head), "tunnel: lights on");
    }

    #[test]
    fn drl_active_when_moving_in_daylight() {
        let (mut os, mut world) = build_system();
        let speed = world.signals.id_of(signals::SPEED_FOR_LIGHTS).unwrap();
        world.signals.write(speed, 13.9, Instant::ZERO);
        os.run_until(Instant::from_millis(100), &mut world);
        let drl = world.signals.id_of(signals::CMD_DRL).unwrap();
        assert!(world.signals.read_bool(drl));
        // In the dark, low beams replace the DRLs.
        let ambient = world.signals.id_of(signals::AMBIENT_LUX).unwrap();
        world.signals.write(ambient, 10.0, os.now());
        os.run_until(Instant::from_millis(900), &mut world);
        assert!(!world.signals.read_bool(drl));
    }

    #[test]
    fn bundle_metadata() {
        let mut db = SignalDb::new();
        let mut reg = RunnableRegistry::new();
        let bundle = build::<BasicEcuWorld>(&mut db, &mut reg);
        assert_eq!(bundle.app_name, "LightControl");
        assert_eq!(bundle.period, Duration::from_millis(50));
        assert_eq!(bundle.signal_prefix, "lightctl.");
        assert_eq!(bundle.runnables.len(), 3);
    }
}
