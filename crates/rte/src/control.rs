//! Runtime calibration and manipulation controls.
//!
//! The paper injects errors with dSPACE ControlDesk by manipulating, at
//! runtime, "the timing parameter of runnables … loop counters and …
//! invalid execution branches". [`RunnableControls`] is that manipulation
//! surface: a per-runnable parameter store that the task assembly consults
//! when it plans an activation. With all controls at their defaults the system
//! behaves nominally; the error-injection crate drives experiments purely
//! by writing here.
//!
//! Every mutable access gives the store a new
//! [`generation`](RunnableControls::generation), so a task plan built from
//! the controls is keyed by it and replayed until the next write.

use crate::runnable::RunnableId;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-runnable manipulation parameters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunnableControl {
    /// Execution-time scale in parts-per-million of nominal (the
    /// ControlDesk "time scalar" slider). `1_000_000` = nominal.
    pub exec_scale_ppm: u64,
    /// Overrides the loop iteration count of the cost model.
    pub iterations_override: Option<u32>,
    /// Drops the aliveness-indication glue call (models glue-code loss or
    /// a crashed runnable whose computation still burns time).
    pub suppress_heartbeat: bool,
    /// Emits this many additional heartbeats per execution (models
    /// excessive dispatch without scheduling it — used for targeted
    /// arrival-rate tests).
    pub extra_heartbeats: u32,
    /// Removes the runnable from every execution sequence (models an
    /// invalid branch that bypasses it).
    pub skip: bool,
}

impl Default for RunnableControl {
    fn default() -> Self {
        RunnableControl {
            exec_scale_ppm: 1_000_000,
            iterations_override: None,
            suppress_heartbeat: false,
            extra_heartbeats: 0,
            skip: false,
        }
    }
}

impl RunnableControl {
    /// `true` if every parameter is at its nominal default.
    pub fn is_nominal(&self) -> bool {
        *self == RunnableControl::default()
    }

    /// Effective iteration count given a spec default.
    pub fn effective_iterations(&self, default_iterations: u32) -> u32 {
        self.iterations_override.unwrap_or(default_iterations)
    }
}

/// A generation no store in this process has held yet. `Relaxed` is
/// enough: each read-modify-write of the one counter returns a distinct
/// value under any ordering, and the value publishes no other data.
fn fresh_generation() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

easis_sim::clone_fields! {
    /// The ECU-wide control store: one [`RunnableControl`] per runnable and
    /// the global CPU scale.
    ///
    /// # Examples
    ///
    /// ```
    /// use easis_rte::control::RunnableControls;
    /// use easis_rte::runnable::RunnableId;
    ///
    /// let mut controls = RunnableControls::new();
    /// controls.runnable_mut(RunnableId(2)).exec_scale_ppm = 3_000_000;
    /// assert_eq!(controls.runnable(RunnableId(2)).exec_scale_ppm, 3_000_000);
    /// assert!(controls.runnable(RunnableId(7)).is_nominal());
    /// ```
    ///
    /// The store is all runtime state. Its `clone_from` keeps the grown
    /// runnable table, so a node restore rewrites the entries in place.
    #[derive(Debug)]
    pub struct RunnableControls {
        runnables: Vec<RunnableControl>,
        /// Global execution-time scale in ppm applied to *every* runnable on
        /// top of its individual scale. Models running the identical software
        /// on a slower CPU (e.g. the outlook's 50 MHz S12XF instead of the
        /// 480 MHz AutoBox ⇒ ~9.6e6 ppm).
        global_exec_scale_ppm: u64,
        /// The version of the contents, drawn afresh by every mutable
        /// access (see [`RunnableControls::generation`]).
        generation: u64,
    }
}

/// The controls alone: the generation names a version of them and is left
/// out, so a store written and written back equals its earlier self.
impl PartialEq for RunnableControls {
    fn eq(&self, other: &Self) -> bool {
        self.runnables == other.runnables
            && self.global_exec_scale_ppm == other.global_exec_scale_ppm
    }
}

impl Eq for RunnableControls {}

impl Default for RunnableControls {
    fn default() -> Self {
        RunnableControls {
            runnables: Vec::new(),
            global_exec_scale_ppm: 1_000_000,
            generation: fresh_generation(),
        }
    }
}

impl RunnableControls {
    /// Creates a store with everything nominal.
    pub fn new() -> Self {
        RunnableControls::default()
    }

    /// Sets the global execution-time scale (CPU-speed model).
    ///
    /// # Panics
    ///
    /// Panics if `ppm` is zero.
    pub fn set_global_exec_scale_ppm(&mut self, ppm: u64) {
        assert!(ppm > 0, "global scale must be positive");
        self.generation = fresh_generation();
        self.global_exec_scale_ppm = ppm;
    }

    /// The global execution-time scale in ppm.
    pub fn global_exec_scale_ppm(&self) -> u64 {
        self.global_exec_scale_ppm
    }

    /// Control block of a runnable (default values if never touched).
    pub fn runnable(&self, id: RunnableId) -> RunnableControl {
        self.runnables.get(id.index()).cloned().unwrap_or_default()
    }

    /// Mutable control block of a runnable, growing the table as needed.
    pub fn runnable_mut(&mut self, id: RunnableId) -> &mut RunnableControl {
        self.generation = fresh_generation();
        if self.runnables.len() <= id.index() {
            self.runnables
                .resize_with(id.index() + 1, RunnableControl::default);
        }
        &mut self.runnables[id.index()]
    }

    /// `true` if every runnable control is nominal (the global CPU scale
    /// is not an injection and does not count).
    pub fn is_nominal(&self) -> bool {
        self.runnables.iter().all(RunnableControl::is_nominal)
    }

    /// The version of the contents. Every mutable access draws a new one
    /// from a single process-wide sequence, and `clone` and `clone_from`
    /// copy it with the contents it names, so two stores of one generation
    /// hold equal controls. A store restored to a capture and written again
    /// therefore never meets a generation it held on another path.
    /// [`SequencedTask`](crate::assembly::SequencedTask) keys its plans by it.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_nominal() {
        let c = RunnableControls::new();
        assert!(c.is_nominal());
        assert!(c.runnable(RunnableId(5)).is_nominal());
    }

    #[test]
    fn runnable_mut_grows_table() {
        let mut c = RunnableControls::new();
        c.runnable_mut(RunnableId(3)).suppress_heartbeat = true;
        assert!(c.runnable(RunnableId(3)).suppress_heartbeat);
        assert!(c.runnable(RunnableId(0)).is_nominal());
        assert!(!c.is_nominal());
    }

    #[test]
    fn global_scale_round_trips_and_is_not_an_injection() {
        let mut c = RunnableControls::new();
        assert_eq!(c.global_exec_scale_ppm(), 1_000_000);
        c.set_global_exec_scale_ppm(9_600_000);
        assert_eq!(c.global_exec_scale_ppm(), 9_600_000);
        assert!(c.is_nominal(), "global scale is not an injection");
    }

    #[test]
    fn clone_from_a_nominal_store_keeps_the_grown_table() {
        let nominal = RunnableControls::new();
        let mut c = RunnableControls::new();
        c.runnable_mut(RunnableId(8)).skip = true;
        let capacity = c.runnables.capacity();
        c.clone_from(&nominal);
        assert_eq!(c, nominal);
        assert!(c.is_nominal());
        assert_eq!(
            c.runnables.capacity(),
            capacity,
            "restore dropped the table"
        );
    }

    #[test]
    fn every_mutable_access_draws_a_new_generation_that_copies_carry() {
        let mut c = RunnableControls::new();
        assert_ne!(RunnableControls::new().generation(), c.generation());
        c.runnable_mut(RunnableId(1));
        let nominal = c.clone();
        assert_eq!(nominal.generation(), c.generation());
        let _ = c.runnable(RunnableId(1));
        assert_eq!(
            c.generation(),
            nominal.generation(),
            "a read writes nothing"
        );
        c.runnable_mut(RunnableId(1)).skip = true;
        let skipped = c.generation();
        assert_ne!(skipped, nominal.generation());
        let capture = c.clone();
        c.runnable_mut(RunnableId(1)).skip = false;
        assert_ne!(c.generation(), skipped);
        assert_eq!(c, nominal, "== leaves the generation out");
        c.set_global_exec_scale_ppm(2_000_000);
        let scaled = c.generation();
        c.clone_from(&capture);
        assert_eq!(c.generation(), skipped);
        // Written again from the restored capture: a generation never seen.
        c.runnable_mut(RunnableId(1)).skip = false;
        assert!(![nominal.generation(), skipped, scaled].contains(&c.generation()));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_global_scale_rejected() {
        RunnableControls::new().set_global_exec_scale_ppm(0);
    }

    #[test]
    fn effective_iterations_prefers_override() {
        let mut ctl = RunnableControl::default();
        assert_eq!(ctl.effective_iterations(7), 7);
        ctl.iterations_override = Some(100);
        assert_eq!(ctl.effective_iterations(7), 100);
    }
}
