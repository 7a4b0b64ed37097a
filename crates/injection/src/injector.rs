//! Error injectors.
//!
//! "Stateflow is used to manipulate the execution frequency and sequence of
//! runnables by changing the timing parameter of runnables, manipulation of
//! loop counters and building invalid execution branches" (paper §4.5), with
//! ControlDesk triggering the injection at runtime. [`ErrorClass`] is the
//! taxonomy of those manipulations (an invalid branch is
//! [`ErrorClass::SkipRunnable`], a path that bypasses one runnable); an
//! [`Injector`] arms/disarms them inside a time window by writing the
//! runnable layer's control store — the same surface ControlDesk wrote on
//! the real rig.

use easis_obs::{ObsEvent, ObsSink};
use easis_osek::alarm::AlarmId;
use easis_osek::kernel::Os;
use easis_rte::control::RunnableControls;
use easis_rte::runnable::RunnableId;
use easis_sim::time::Instant;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The classes of injected errors.
///
/// `Hash`/`Ord` make the class usable as (part of) a lookup key: the
/// campaign runner collapses trials whose class and effective arming
/// ticks coincide, because such trials are behaviorally identical.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ErrorClass {
    /// Stretch a runnable's execution time (the "time scalar" slider);
    /// `scale_ppm` = parts-per-million of nominal, e.g. `4_000_000` = 4×.
    ExecutionSlowdown {
        /// Target runnable.
        runnable: RunnableId,
        /// Execution-time scale in ppm of nominal.
        scale_ppm: u64,
    },
    /// Suppress the aliveness-indication glue while the logic still runs
    /// (lost heartbeat).
    HeartbeatLoss {
        /// Target runnable.
        runnable: RunnableId,
    },
    /// Remove the runnable from its task's execution sequence (an invalid
    /// branch bypassing it).
    SkipRunnable {
        /// Target runnable.
        runnable: RunnableId,
    },
    /// Emit extra heartbeats per execution (excessive dispatch).
    DuplicateDispatch {
        /// Target runnable.
        runnable: RunnableId,
        /// Additional heartbeats per execution.
        extra: u32,
    },
    /// Override the loop iteration count of the runnable's cost model.
    LoopOverrun {
        /// Target runnable.
        runnable: RunnableId,
        /// Forced iteration count.
        iterations: u32,
    },
    /// Rescale a cyclic alarm's period (task-level frequency error).
    AlarmScale {
        /// Target alarm.
        alarm: AlarmId,
        /// Cycle scale in ppm of nominal.
        scale_ppm: u64,
    },
}

impl ErrorClass {
    /// Stable tag for reports and coverage tables.
    pub fn tag(&self) -> &'static str {
        match self {
            ErrorClass::ExecutionSlowdown { .. } => "execution_slowdown",
            ErrorClass::HeartbeatLoss { .. } => "heartbeat_loss",
            ErrorClass::SkipRunnable { .. } => "skip_runnable",
            ErrorClass::DuplicateDispatch { .. } => "duplicate_dispatch",
            ErrorClass::LoopOverrun { .. } => "loop_overrun",
            ErrorClass::AlarmScale { .. } => "alarm_scale",
        }
    }

    /// The runnable this class targets, if any.
    pub fn target_runnable(&self) -> Option<RunnableId> {
        match *self {
            ErrorClass::ExecutionSlowdown { runnable, .. }
            | ErrorClass::HeartbeatLoss { runnable }
            | ErrorClass::SkipRunnable { runnable }
            | ErrorClass::DuplicateDispatch { runnable, .. }
            | ErrorClass::LoopOverrun { runnable, .. } => Some(runnable),
            ErrorClass::AlarmScale { .. } => None,
        }
    }
}

impl fmt::Display for ErrorClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// An error class armed inside a time window.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Injection {
    /// What to inject.
    pub class: ErrorClass,
    /// Arm at this instant.
    pub from: Instant,
    /// Disarm at this instant (exclusive).
    pub to: Instant,
}

impl Injection {
    /// Creates an injection.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty.
    pub fn new(class: ErrorClass, from: Instant, to: Instant) -> Self {
        assert!(from < to, "injection window must be non-empty");
        Injection { class, from, to }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Pending,
    Armed,
    Done,
}

/// Applies a set of injections to the control store / OS as simulated time
/// advances. Call [`Injector::tick`] between OS run slices (e.g. every
/// watchdog cycle).
#[derive(Debug)]
pub struct Injector {
    injections: Vec<(Injection, Phase)>,
    obs: ObsSink,
}

impl Injector {
    /// Creates an injector over the given injections.
    pub fn new(injections: impl IntoIterator<Item = Injection>) -> Self {
        Injector {
            injections: injections
                .into_iter()
                .map(|i| (i, Phase::Pending))
                .collect(),
            obs: ObsSink::disabled(),
        }
    }

    /// Attaches an observability sink; arming and disarming then leave
    /// [`ObsEvent::InjectionActivated`] / [`ObsEvent::InjectionDeactivated`]
    /// markers on the trace.
    pub fn attach_obs(&mut self, obs: ObsSink) {
        self.obs = obs;
    }

    /// An injector with nothing armed (golden runs).
    pub fn none() -> Self {
        Injector::new([])
    }

    /// Re-arms the injector over a new injection set, retaining the
    /// backing buffer's capacity. The campaign engine keeps one
    /// injector per worker and reloads it per trial instead of
    /// constructing a fresh one — dropping the injector-setup heap block
    /// from every trial. Reloading is exactly equivalent to
    /// [`Injector::new`] with the same injections (the attached
    /// observability sink is kept).
    pub fn reload(&mut self, injections: impl IntoIterator<Item = Injection>) {
        self.injections.clear();
        self.injections
            .extend(injections.into_iter().map(|i| (i, Phase::Pending)));
    }

    /// Arms/disarms injections according to `now`.
    pub fn tick<W>(&mut self, now: Instant, controls: &mut RunnableControls, os: &mut Os<W>) {
        for (inj, phase) in &mut self.injections {
            match *phase {
                Phase::Pending if now >= inj.from => {
                    Self::apply(&inj.class, controls, os, true);
                    self.obs.record(
                        now,
                        ObsEvent::InjectionActivated {
                            class: inj.class.tag(),
                        },
                    );
                    *phase = Phase::Armed;
                    // Fall through check: a zero-length residual window is
                    // prevented by the constructor.
                }
                Phase::Armed if now >= inj.to => {
                    Self::apply(&inj.class, controls, os, false);
                    self.obs.record(
                        now,
                        ObsEvent::InjectionDeactivated {
                            class: inj.class.tag(),
                        },
                    );
                    *phase = Phase::Done;
                }
                _ => {}
            }
        }
    }

    fn apply<W>(class: &ErrorClass, controls: &mut RunnableControls, os: &mut Os<W>, arm: bool) {
        match class {
            ErrorClass::ExecutionSlowdown {
                runnable,
                scale_ppm,
            } => {
                controls.runnable_mut(*runnable).exec_scale_ppm =
                    if arm { *scale_ppm } else { 1_000_000 };
            }
            ErrorClass::HeartbeatLoss { runnable } => {
                controls.runnable_mut(*runnable).suppress_heartbeat = arm;
            }
            ErrorClass::SkipRunnable { runnable } => {
                controls.runnable_mut(*runnable).skip = arm;
            }
            ErrorClass::DuplicateDispatch { runnable, extra } => {
                controls.runnable_mut(*runnable).extra_heartbeats = if arm { *extra } else { 0 };
            }
            ErrorClass::LoopOverrun {
                runnable,
                iterations,
            } => {
                controls.runnable_mut(*runnable).iterations_override = arm.then_some(*iterations);
            }
            ErrorClass::AlarmScale { alarm, scale_ppm } => {
                if let Ok(a) = os.alarm_mut(*alarm) {
                    a.set_cycle_scale_ppm(if arm { *scale_ppm } else { 1_000_000 });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easis_rte::world::BasicEcuWorld;

    fn t(ms: u64) -> Instant {
        Instant::from_millis(ms)
    }
    fn r(n: u32) -> RunnableId {
        RunnableId(n)
    }

    #[test]
    fn window_arms_and_reverts_controls() {
        let mut injector = Injector::new([Injection::new(
            ErrorClass::HeartbeatLoss { runnable: r(1) },
            t(100),
            t(200),
        )]);
        let mut controls = RunnableControls::new();
        let mut os: Os<BasicEcuWorld> = Os::new();
        injector.tick(t(50), &mut controls, &mut os);
        assert!(!controls.runnable(r(1)).suppress_heartbeat);
        injector.tick(t(100), &mut controls, &mut os);
        assert!(controls.runnable(r(1)).suppress_heartbeat);
        injector.tick(t(200), &mut controls, &mut os);
        assert!(!controls.runnable(r(1)).suppress_heartbeat);
        // Done: a later tick does not arm the window again.
        injector.tick(t(250), &mut controls, &mut os);
        assert!(controls.is_nominal());
    }

    #[test]
    fn every_class_round_trips_to_nominal() {
        let classes = vec![
            ErrorClass::ExecutionSlowdown {
                runnable: r(0),
                scale_ppm: 5_000_000,
            },
            ErrorClass::HeartbeatLoss { runnable: r(0) },
            ErrorClass::SkipRunnable { runnable: r(0) },
            ErrorClass::DuplicateDispatch {
                runnable: r(0),
                extra: 3,
            },
            ErrorClass::LoopOverrun {
                runnable: r(0),
                iterations: 500,
            },
        ];
        for class in classes {
            let mut injector = Injector::new([Injection::new(class.clone(), t(10), t(20))]);
            let mut controls = RunnableControls::new();
            let mut os: Os<BasicEcuWorld> = Os::new();
            injector.tick(t(10), &mut controls, &mut os);
            assert!(!controls.is_nominal(), "{class} did not arm");
            injector.tick(t(20), &mut controls, &mut os);
            assert!(controls.is_nominal(), "{class} did not revert");
        }
    }

    #[test]
    fn alarm_scale_reaches_the_os() {
        use easis_osek::alarm::AlarmAction;
        use easis_osek::task::TaskId;
        let mut os: Os<BasicEcuWorld> = Os::new();
        let a = os.add_alarm("cyc", AlarmAction::ActivateTask(TaskId(0)));
        let mut injector = Injector::new([Injection::new(
            ErrorClass::AlarmScale {
                alarm: a,
                scale_ppm: 3_000_000,
            },
            t(10),
            t(20),
        )]);
        let mut controls = RunnableControls::new();
        injector.tick(t(10), &mut controls, &mut os);
        assert_eq!(os.alarm(a).unwrap().cycle_scale_ppm(), 3_000_000);
        injector.tick(t(25), &mut controls, &mut os);
        assert_eq!(os.alarm(a).unwrap().cycle_scale_ppm(), 1_000_000);
    }

    #[test]
    fn tags_and_targets() {
        let c = ErrorClass::SkipRunnable { runnable: r(7) };
        assert_eq!(c.tag(), "skip_runnable");
        assert_eq!(c.target_runnable(), Some(r(7)));
        let a = ErrorClass::AlarmScale {
            alarm: AlarmId(0),
            scale_ppm: 2_000_000,
        };
        assert_eq!(a.target_runnable(), None);
    }

    #[test]
    fn arming_and_disarming_leave_trace_markers() {
        let mut injector = Injector::new([Injection::new(
            ErrorClass::SkipRunnable { runnable: r(3) },
            t(100),
            t(200),
        )]);
        let sink = ObsSink::enabled(8);
        injector.attach_obs(sink.clone());
        let mut controls = RunnableControls::new();
        let mut os: Os<BasicEcuWorld> = Os::new();
        injector.tick(t(50), &mut controls, &mut os);
        assert!(sink.events().is_empty());
        injector.tick(t(100), &mut controls, &mut os);
        injector.tick(t(150), &mut controls, &mut os);
        injector.tick(t(200), &mut controls, &mut os);
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0].event,
            ObsEvent::InjectionActivated {
                class: "skip_runnable"
            }
        );
        assert_eq!(events[0].at, t(100));
        assert_eq!(
            events[1].event,
            ObsEvent::InjectionDeactivated {
                class: "skip_runnable"
            }
        );
        assert_eq!(events[1].at, t(200));
    }

    #[test]
    fn reload_is_equivalent_to_new() {
        let injection = Injection::new(ErrorClass::SkipRunnable { runnable: r(3) }, t(100), t(200));
        let mut reloaded = Injector::new([Injection::new(
            ErrorClass::HeartbeatLoss { runnable: r(9) },
            t(1),
            t(2),
        )]);
        // Burn through the first load so phases are in a non-trivial state.
        let mut controls = RunnableControls::new();
        let mut os: Os<BasicEcuWorld> = Os::new();
        reloaded.tick(t(5), &mut controls, &mut os);
        reloaded.tick(t(6), &mut controls, &mut os);
        assert!(reloaded.injections.iter().all(|(_, p)| *p == Phase::Done));

        reloaded.reload([injection.clone()]);
        let mut fresh = Injector::new([injection]);
        assert_eq!(reloaded.injections, fresh.injections);
        let (mut c1, mut c2) = (RunnableControls::new(), RunnableControls::new());
        let mut o1: Os<BasicEcuWorld> = Os::new();
        let mut o2: Os<BasicEcuWorld> = Os::new();
        for at in [50, 100, 150, 200] {
            reloaded.tick(t(at), &mut c1, &mut o1);
            fresh.tick(t(at), &mut c2, &mut o2);
            assert_eq!(reloaded.injections, fresh.injections, "at {at}");
            assert_eq!(c1, c2, "at {at}");
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_window_rejected() {
        let _ = Injection::new(ErrorClass::HeartbeatLoss { runnable: r(0) }, t(5), t(5));
    }
}
