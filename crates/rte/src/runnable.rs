//! Runnables.
//!
//! A *runnable* is the paper's unit of supervision: a code-sequence
//! component of an application software component, mapped onto an OS task
//! together with runnables from possibly different applications. Here a
//! runnable is a [`RunnableSpec`] (identity + execution-cost model) plus a
//! stateless [`RunnableLogic`] function over the ECU world. State the logic
//! needs across activations (integrators, debounce counters) lives in the
//! signal database, mirroring AUTOSAR inter-runnable variables.
//!
//! The cost model includes a data-dependent loop term — the paper's error
//! injection manipulates exactly this ("manipulation of loop counters").

use easis_osek::plan::EffectCtx;
use easis_sim::time::Duration;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Identifier of a runnable, unique per ECU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RunnableId(pub u32);

impl RunnableId {
    /// Index into per-ECU runnable tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RunnableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// Static description of a runnable: name and execution-cost model.
///
/// Execution cost per activation is
/// `base_cost + iterations * per_iteration_cost`, where `iterations`
/// defaults to [`RunnableSpec::default_iterations`] and can be overridden at
/// runtime through [`crate::control::RunnableControls`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunnableSpec {
    id: RunnableId,
    name: String,
    base_cost: Duration,
    per_iteration_cost: Duration,
    default_iterations: u32,
}

impl RunnableSpec {
    /// Creates a spec with a pure base cost (no loop term).
    pub fn new(id: RunnableId, name: impl Into<String>, base_cost: Duration) -> Self {
        RunnableSpec {
            id,
            name: name.into(),
            base_cost,
            per_iteration_cost: Duration::ZERO,
            default_iterations: 0,
        }
    }

    /// Adds a loop term: `iterations` runs of `per_iteration` cost each.
    pub fn with_loop(mut self, per_iteration: Duration, iterations: u32) -> Self {
        self.per_iteration_cost = per_iteration;
        self.default_iterations = iterations;
        self
    }

    /// Runnable id.
    pub fn id(&self) -> RunnableId {
        self.id
    }

    /// Runnable name (e.g. `"GetSensorValue"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Fixed part of the execution cost.
    pub fn base_cost(&self) -> Duration {
        self.base_cost
    }

    /// Nominal loop iteration count.
    pub fn default_iterations(&self) -> u32 {
        self.default_iterations
    }

    /// Execution cost for a given iteration count.
    pub fn cost_with_iterations(&self, iterations: u32) -> Duration {
        self.base_cost + self.per_iteration_cost * iterations as u64
    }

    /// Nominal execution cost.
    pub fn nominal_cost(&self) -> Duration {
        self.cost_with_iterations(self.default_iterations)
    }
}

/// The functional logic of a runnable: an instantaneous effect over the ECU
/// world, executed when the runnable's compute segment completes.
///
/// Shared (`Arc`) so one logic can be planned into many activations.
pub type RunnableLogic<W> = Arc<dyn Fn(&mut W, &mut EffectCtx<'_, W>) + Send + Sync>;

/// A runnable ready for task assembly: spec + logic.
pub struct RunnableDef<W> {
    spec: RunnableSpec,
    logic: RunnableLogic<W>,
}

impl<W> Clone for RunnableDef<W> {
    fn clone(&self) -> Self {
        RunnableDef {
            spec: self.spec.clone(),
            logic: Arc::clone(&self.logic),
        }
    }
}

impl<W> fmt::Debug for RunnableDef<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunnableDef")
            .field("spec", &self.spec)
            .finish()
    }
}

impl<W> RunnableDef<W> {
    /// Pairs a spec with its logic.
    pub fn new(
        spec: RunnableSpec,
        logic: impl Fn(&mut W, &mut EffectCtx<'_, W>) + Send + Sync + 'static,
    ) -> Self {
        RunnableDef {
            spec,
            logic: Arc::new(logic),
        }
    }

    /// A runnable that does nothing but consume its cost (placeholder /
    /// load generator).
    pub fn no_op(spec: RunnableSpec) -> Self {
        RunnableDef::new(spec, |_w, _ctx| {})
    }

    /// The spec.
    pub fn spec(&self) -> &RunnableSpec {
        &self.spec
    }

    /// The logic, cheaply cloneable.
    pub fn logic(&self) -> RunnableLogic<W> {
        Arc::clone(&self.logic)
    }

    /// Runs the logic in place: the definition is borrowed apart from the
    /// world and the effect context, so no `Arc` is cloned per execution.
    pub(crate) fn run(&self, world: &mut W, ctx: &mut EffectCtx<'_, W>) {
        (self.logic)(world, ctx)
    }
}

/// Registry assigning dense [`RunnableId`]s per ECU and remembering specs.
///
/// The watchdog configuration and the PFC look-up table are keyed by these
/// ids, so registry construction is the single naming authority of one ECU.
#[derive(Debug, Clone, Default)]
pub struct RunnableRegistry {
    specs: Vec<RunnableSpec>,
}

impl RunnableRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        RunnableRegistry::default()
    }

    /// Registers a runnable, assigning the next id.
    pub fn register(&mut self, name: impl Into<String>, base_cost: Duration) -> RunnableSpec {
        let id = RunnableId(self.specs.len() as u32);
        let spec = RunnableSpec::new(id, name, base_cost);
        self.specs.push(spec.clone());
        spec
    }

    /// Registers a runnable with a loop cost term.
    pub fn register_with_loop(
        &mut self,
        name: impl Into<String>,
        base_cost: Duration,
        per_iteration: Duration,
        iterations: u32,
    ) -> RunnableSpec {
        let id = RunnableId(self.specs.len() as u32);
        let spec = RunnableSpec::new(id, name, base_cost).with_loop(per_iteration, iterations);
        self.specs.push(spec.clone());
        spec
    }

    /// Looks up a spec by id.
    pub fn spec(&self, id: RunnableId) -> Option<&RunnableSpec> {
        self.specs.get(id.index())
    }

    /// Looks up an id by name.
    pub fn id_of(&self, name: &str) -> Option<RunnableId> {
        self.specs.iter().find(|s| s.name() == name).map(|s| s.id())
    }

    /// Number of registered runnables.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// `true` if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// All specs in id order.
    pub fn iter(&self) -> impl Iterator<Item = &RunnableSpec> {
        self.specs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easis_osek::kernel::Os;
    use easis_osek::plan::Script;
    use easis_osek::task::{Priority, TaskConfig};
    use easis_sim::time::Instant;

    #[test]
    fn cost_model_combines_base_and_loop() {
        let spec = RunnableSpec::new(RunnableId(0), "r", Duration::from_micros(100))
            .with_loop(Duration::from_micros(10), 5);
        assert_eq!(spec.nominal_cost(), Duration::from_micros(150));
        assert_eq!(spec.cost_with_iterations(20), Duration::from_micros(300));
        assert_eq!(spec.cost_with_iterations(0), Duration::from_micros(100));
    }

    #[test]
    fn registry_assigns_dense_ids() {
        let mut reg = RunnableRegistry::new();
        let a = reg.register("GetSensorValue", Duration::from_micros(50));
        let b = reg.register("SAFE_CC_process", Duration::from_micros(200));
        assert_eq!(a.id(), RunnableId(0));
        assert_eq!(b.id(), RunnableId(1));
        assert_eq!(reg.id_of("SAFE_CC_process"), Some(RunnableId(1)));
        assert_eq!(
            reg.spec(RunnableId(0)).map(RunnableSpec::name),
            Some("GetSensorValue")
        );
        assert_eq!(reg.spec(RunnableId(9)), None);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn registry_with_loop_registers_loop_term() {
        let mut reg = RunnableRegistry::new();
        let s = reg.register_with_loop("r", Duration::from_micros(10), Duration::from_micros(2), 3);
        assert_eq!(s.nominal_cost(), Duration::from_micros(16));
    }

    /// Runs `logic` once as a task's effect on a started kernel and
    /// returns the world it leaves.
    fn run_as_effect(logic: RunnableLogic<u32>, mut world: u32) -> u32 {
        let mut os: Os<u32> = Os::new();
        let task = os.add_task(
            TaskConfig::new("t", Priority(1)),
            Script::new().effect(move |w, ctx| logic(w, ctx)),
        );
        os.start(&mut world);
        os.activate_task(task, &mut world).unwrap();
        os.run_until(Instant::from_micros(1), &mut world);
        world
    }

    #[test]
    fn runnable_def_shares_logic() {
        let spec = RunnableSpec::new(RunnableId(0), "r", Duration::ZERO);
        let def: RunnableDef<u32> = RunnableDef::new(spec, |w, _| *w += 1);
        let cloned = def.clone();
        assert_eq!(run_as_effect(cloned.logic(), 0), 1);
        assert_eq!(def.spec().name(), "r");
    }

    #[test]
    fn no_op_runnable_has_empty_logic() {
        let spec = RunnableSpec::new(RunnableId(0), "idle", Duration::from_micros(5));
        let def: RunnableDef<u32> = RunnableDef::no_op(spec);
        assert_eq!(run_as_effect(def.logic(), 7), 7);
    }
}
