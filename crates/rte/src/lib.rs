//! # easis-rte — the runnable layer of the EASIS platform
//!
//! The DSN 2007 Software Watchdog paper supervises *runnables*: code
//! sequence components of application software mapped onto OSEK tasks. This
//! crate provides that abstraction layer between applications and the OS:
//!
//! * [`signal`] — the signal database runnables communicate through;
//! * [`runnable`] — runnable specs (identity + cost model incl. loop
//!   terms), logic, registry, and the [`runnable::HeartbeatSink`] glue-code
//!   interface to the dependability services;
//! * [`assembly`] — [`assembly::SequencedTask`], the Stateflow-chart
//!   equivalent that turns a runnable list into a preemptible OSEK task
//!   body running it in declaration order, with auto-inserted
//!   aliveness-indication glue;
//! * [`control`] — the ControlDesk-style runtime manipulation surface used
//!   for error injection (execution-time scalars, loop counters, skipped
//!   runnables as invalid branches, heartbeat suppression/duplication);
//! * [`mapping`] — the application/task/runnable deployment map consumed
//!   by task state indication and fault treatment;
//! * [`world`] — the [`world::EcuWorld`] trait tying it all together.
//!
//! # Examples
//!
//! ```
//! use easis_osek::alarm::AlarmAction;
//! use easis_osek::kernel::Os;
//! use easis_osek::task::{Priority, TaskConfig};
//! use easis_rte::assembly::SequencedTask;
//! use easis_rte::runnable::{RunnableDef, RunnableRegistry};
//! use easis_rte::world::BasicEcuWorld;
//! use easis_sim::time::{Duration, Instant};
//!
//! // One periodic task with two monitored runnables.
//! let mut registry = RunnableRegistry::new();
//! let sense = registry.register("Sense", Duration::from_micros(50));
//! let act = registry.register("Act", Duration::from_micros(80));
//! let body = SequencedTask::fixed(vec![RunnableDef::no_op(sense), RunnableDef::no_op(act)]);
//! let mut os: Os<BasicEcuWorld> = Os::new();
//! let task = os.add_task(TaskConfig::new("MainTask", Priority(2)), body);
//! let alarm = os.add_alarm("cyc", AlarmAction::ActivateTask(task));
//! let mut world = BasicEcuWorld::new();
//! os.start(&mut world);
//! os.set_rel_alarm(alarm, Duration::from_millis(10), Some(Duration::from_millis(10)))?;
//! os.run_until(Instant::from_millis(25), &mut world);
//! assert_eq!(world.heartbeats.len(), 4); // 2 periods × 2 runnables
//! # Ok::<(), easis_osek::error::OsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assembly;
pub mod control;
pub mod mapping;
pub mod runnable;
pub mod signal;
pub mod world;

pub use assembly::SequencedTask;
pub use control::{RunnableControl, RunnableControls};
pub use mapping::{ApplicationId, SystemMapping};
pub use runnable::{HeartbeatSink, RunnableDef, RunnableId, RunnableRegistry, RunnableSpec};
pub use signal::{SignalDb, SignalId, SignalState};
pub use world::{BasicEcuWorld, EcuWorld};
