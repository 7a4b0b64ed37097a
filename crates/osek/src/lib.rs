//! # easis-osek — an OSEK/VDX operating-system model
//!
//! The EASIS software platform (DSN 2007 Software Watchdog paper, §3.1)
//! integrates "an OSEK-conforming operating system with safety relevant
//! services" across layers L2/L3. This crate is that substrate: a
//! deterministic simulation of the OSEK subset the platform runs. The
//! Software Watchdog touches the OS only through task dispatch, periodic
//! activation and hooks, so the model has
//!
//! * basic tasks with multiple activation under fixed-priority
//!   full-preemptive scheduling ([`kernel::Os`]), activated by
//!   `ActivateTask`;
//! * counters/alarms for periodic activation, with `CancelAlarm` and
//!   injector-scaled cycles ([`alarm`]);
//! * category-2 ISRs ([`isr`]);
//! * startup/pre-task/post-task/error hooks ([`hooks`]) plus
//!   OSEKTime-style deadline monitoring and AUTOSAR-OS-style execution
//!   budgets — the *task-granularity* comparators of the paper's related
//!   work section;
//! * task bodies expressed as preemptible execution [`plan`]s, which the
//!   kernel retains and replays by cursor until the body's plan key
//!   changes. A body owns its effects: it plans them as tokens, and the
//!   kernel hands each back to the body with an [`EffectCtx`] through
//!   which the effect calls OS services. Only the kernel builds one,
//!   lending it the scheduler core, so every service call from an effect
//!   runs the kernel's own code. A [`Script`] is the body for a fixed
//!   sequence of steps with closure effects.
//!
//! # Examples
//!
//! ```
//! use easis_osek::alarm::AlarmAction;
//! use easis_osek::kernel::Os;
//! use easis_osek::plan::Script;
//! use easis_osek::task::{Priority, TaskConfig};
//! use easis_sim::time::{Duration, Instant};
//!
//! // A 10 ms periodic task incrementing a counter in the shared world.
//! let mut os: Os<u64> = Os::new();
//! let body = Script::new()
//!     .compute(Duration::from_micros(200))
//!     .effect(|w: &mut u64, _| *w += 1);
//! let task = os.add_task(TaskConfig::new("tick", Priority(1)), body);
//! let alarm = os.add_alarm("cyc", AlarmAction::ActivateTask(task));
//! let mut world = 0;
//! os.start(&mut world);
//! os.set_rel_alarm(alarm, Duration::from_millis(10), Some(Duration::from_millis(10)))?;
//! os.run_until(Instant::from_millis(55), &mut world);
//! assert_eq!(world, 5);
//! # Ok::<(), easis_osek::error::OsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alarm;
pub mod error;
pub mod gantt;
pub mod hooks;
pub mod isr;
pub mod kernel;
pub mod plan;
pub mod task;

pub use alarm::{Alarm, AlarmAction, AlarmId};
pub use error::OsError;
pub use hooks::{HookEvent, HookMask, HookObserver};
pub use isr::{IsrId, ISR_PRIORITY};
pub use kernel::Os;
pub use plan::{EffectCtx, Plan, Script, Step, TaskBody};
pub use task::{Priority, TaskConfig, TaskId, TaskState};
