//! Task assembly: runnables → OSEK task bodies with heartbeat glue code.
//!
//! The paper models each application as runnables "triggered as
//! function-call subsystems by the Stateflow chart …, in which the
//! execution sequence of runnables is implemented", with additional
//! subsystems simulating "the glue code … which report the execution of the
//! runnables". [`SequencedTask`] is that chart: it owns the task's
//! runnables and plans per runnable in declaration order a compute segment
//! followed by an effect that (a) fires the aliveness-indication glue and
//! (b) runs the runnable logic. All manipulation controls are honoured
//! here — an invalid execution branch is a runnable whose `skip` control
//! leaves it out of the activation — so error injection needs no special
//! code paths in the applications.
//!
//! The chart changes only when the controls do, so the plan is keyed by
//! the controls' [generation](crate::control::RunnableControls::generation):
//! the kernel replays it at every activation until a control is written.
//! Skips, costs and loop counts are read at plan time, so an activation
//! keeps the plan it was dispatched with; the heartbeat controls are read
//! when each runnable's effect runs.

use crate::runnable::RunnableDef;
use crate::world::EcuWorld;
use easis_osek::plan::{EffectCtx, Plan, TaskBody};

/// Trace source tag used by the runnable layer.
pub const TRACE_SOURCE: &str = "rte";

/// An OSEK task body executing a sequence of runnables with heartbeat glue.
/// The kernel names the task ([`TaskConfig`](easis_osek::task::TaskConfig)).
pub struct SequencedTask<W> {
    runnables: Vec<RunnableDef<W>>,
}

impl<W> std::fmt::Debug for SequencedTask<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SequencedTask")
            .field("runnables", &self.runnables.len())
            .finish()
    }
}

impl<W: EcuWorld + 'static> SequencedTask<W> {
    /// Creates a task body running `runnables` in declaration order.
    pub fn fixed(runnables: Vec<RunnableDef<W>>) -> Self {
        SequencedTask { runnables }
    }
}

impl<W: EcuWorld + 'static> TaskBody<W> for SequencedTask<W> {
    /// Plans `Compute(cost) + EffectRef(runnable index)` pairs, one per
    /// unskipped runnable in declaration order, into the kernel's retained
    /// plan — no step-buffer allocation once the plan has grown to the
    /// sequence length. The effect half of each pair dispatches back into
    /// [`SequencedTask::run_effect`].
    fn plan_into(&mut self, world: &W, out: &mut Plan) {
        let global_ppm = world.controls().global_exec_scale_ppm();
        for (idx, def) in self.runnables.iter().enumerate() {
            let spec = def.spec();
            let ctl = world.controls().runnable(spec.id());
            if ctl.skip {
                continue;
            }
            let iters = ctl.effective_iterations(spec.default_iterations());
            let mut cost = spec.cost_with_iterations(iters);
            // Both scales nominal: the f64 product below is exactly 1.0 and
            // gives back the cost unchanged (any cost under 2^53 µs).
            if ctl.exec_scale_ppm != 1_000_000 || global_ppm != 1_000_000 {
                let scale =
                    ctl.exec_scale_ppm as f64 / 1_000_000.0 * global_ppm as f64 / 1_000_000.0;
                cost = cost.mul_f64(scale);
            }
            out.push_compute(cost);
            out.push_effect_ref(idx as u32);
        }
    }

    /// The controls' generation: the plan reads nothing else of the world.
    fn plan_key(&self, world: &W) -> Option<u64> {
        Some(world.controls().generation())
    }

    /// Executes runnable `token` (the declaration index planned by
    /// [`SequencedTask::plan_into`]) with its heartbeat glue.
    fn run_effect(&mut self, token: u32, world: &mut W, ctx: &mut EffectCtx<'_, W>) {
        let def = &self.runnables[token as usize];
        let id = def.spec().id();
        // Glue code: aliveness indication (controls re-read at execution
        // time so mid-run injection takes effect).
        let ctl = world.controls().runnable(id);
        if !ctl.suppress_heartbeat {
            world.indicate_heartbeat(id, ctx.now());
        }
        for _ in 0..ctl.extra_heartbeats {
            world.indicate_heartbeat(id, ctx.now());
        }
        def.run(world, ctx);
        // The label stays borrowed: the recorder only converts it to an
        // owned `String` when tracing is enabled.
        ctx.trace(TRACE_SOURCE, "runnable", def.spec().name());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runnable::{RunnableId, RunnableRegistry, RunnableSpec};
    use crate::world::BasicEcuWorld;
    use easis_osek::alarm::AlarmAction;
    use easis_osek::kernel::Os;
    use easis_osek::plan::Step;
    use easis_osek::task::{Priority, TaskConfig};
    use easis_sim::time::{Duration, Instant};

    fn us(n: u64) -> Duration {
        Duration::from_micros(n)
    }
    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// Builds a 3-runnable SafeSpeed-like task on a fresh OS.
    fn build() -> (Os<BasicEcuWorld>, BasicEcuWorld, Vec<RunnableId>) {
        let mut reg = RunnableRegistry::new();
        let s0 = reg.register("GetSensorValue", us(50));
        let s1 = reg.register_with_loop("SAFE_CC_process", us(100), us(10), 5);
        let s2 = reg.register("Speed_process", us(50));
        let mut world = BasicEcuWorld::new();
        let out = world.signals_mut().declare("out", 0.0);
        let defs = vec![
            RunnableDef::no_op(s0.clone()),
            RunnableDef::new(s1.clone(), move |w: &mut BasicEcuWorld, ctx| {
                let now = ctx.now();
                let v = w.signals().read(out);
                w.signals_mut().write(out, v + 1.0, now);
            }),
            RunnableDef::no_op(s2.clone()),
        ];
        let body = SequencedTask::fixed(defs);
        let mut os = Os::new();
        let t = os.add_task(TaskConfig::new("SafeSpeedTask", Priority(3)), body);
        let a = os.add_alarm("cyc", AlarmAction::ActivateTask(t));
        os.start(&mut world);
        os.set_rel_alarm(a, ms(10), Some(ms(10))).unwrap();
        (os, world, vec![s0.id(), s1.id(), s2.id()])
    }

    #[test]
    fn nominal_run_heartbeats_in_sequence() {
        let (mut os, mut world, ids) = build();
        os.run_until(Instant::from_millis(35), &mut world);
        // 3 periods × 3 runnables.
        assert_eq!(world.heartbeats.len(), 9);
        let first: Vec<RunnableId> = world.heartbeats.iter().take(3).map(|&(r, _)| r).collect();
        assert_eq!(first, ids);
        // Logic ran: out incremented once per period.
        let out = world.signals.id_of("out").unwrap();
        assert_eq!(world.signals.read(out), 3.0);
    }

    #[test]
    fn heartbeat_times_reflect_compute_costs() {
        let (mut os, mut world, _) = build();
        os.run_until(Instant::from_millis(15), &mut world);
        // Period starts at 10ms: R0 at +50us, R1 at +50+150us, R2 at +250us.
        let times: Vec<u64> = world
            .heartbeats
            .iter()
            .map(|&(_, t)| t.as_micros())
            .collect();
        assert_eq!(times, vec![10_050, 10_200, 10_250]);
    }

    #[test]
    fn skip_control_removes_runnable_from_sequence() {
        let (mut os, mut world, ids) = build();
        world.controls.runnable_mut(ids[1]).skip = true;
        os.run_until(Instant::from_millis(15), &mut world);
        let seen: Vec<RunnableId> = world.heartbeats.iter().map(|&(r, _)| r).collect();
        assert_eq!(seen, vec![ids[0], ids[2]]);
    }

    #[test]
    fn suppress_heartbeat_keeps_logic_but_drops_glue() {
        let (mut os, mut world, ids) = build();
        world.controls.runnable_mut(ids[1]).suppress_heartbeat = true;
        os.run_until(Instant::from_millis(15), &mut world);
        let seen: Vec<RunnableId> = world.heartbeats.iter().map(|&(r, _)| r).collect();
        assert_eq!(seen, vec![ids[0], ids[2]]);
        // Logic still executed.
        let out = world.signals.id_of("out").unwrap();
        assert_eq!(world.signals.read(out), 1.0);
    }

    #[test]
    fn extra_heartbeats_duplicate_indications() {
        let (mut os, mut world, ids) = build();
        world.controls.runnable_mut(ids[0]).extra_heartbeats = 2;
        os.run_until(Instant::from_millis(15), &mut world);
        let count0 = world
            .heartbeats
            .iter()
            .filter(|&&(r, _)| r == ids[0])
            .count();
        assert_eq!(count0, 3);
    }

    #[test]
    fn exec_scale_stretches_compute() {
        let (mut os, mut world, ids) = build();
        world.controls.runnable_mut(ids[0]).exec_scale_ppm = 10_000_000; // 10x
        os.run_until(Instant::from_millis(15), &mut world);
        let times: Vec<u64> = world
            .heartbeats
            .iter()
            .map(|&(_, t)| t.as_micros())
            .collect();
        assert_eq!(times[0], 10_500); // 50us → 500us
    }

    #[test]
    fn iteration_override_changes_loop_cost() {
        let (mut os, mut world, ids) = build();
        world.controls.runnable_mut(ids[1]).iterations_override = Some(100);
        os.run_until(Instant::from_millis(15), &mut world);
        // R1 cost: 100 + 100*10 = 1100us, so R2 heartbeat at 10_050+1100+50.
        let times: Vec<u64> = world
            .heartbeats
            .iter()
            .map(|&(_, t)| t.as_micros())
            .collect();
        assert_eq!(times[2], 11_200);
    }

    #[test]
    fn controls_written_mid_activation_reach_the_next_one() {
        // At 10.1 ms R1 computes: the activation keeps its plan, so R1
        // still runs and R2 keeps its nominal 50 µs. The next activation
        // skips R1 and stretches R2 tenfold.
        let (mut os, mut world, ids) = build();
        os.run_until(Instant::from_micros(10_100), &mut world);
        world.controls.runnable_mut(ids[2]).exec_scale_ppm = 10_000_000;
        world.controls.runnable_mut(ids[1]).skip = true;
        os.run_until(Instant::from_millis(25), &mut world);
        let seen: Vec<(u32, u64)> = world
            .heartbeats
            .iter()
            .map(|&(r, t)| (r.0, t.as_micros()))
            .collect();
        assert_eq!(
            seen,
            [
                (0, 10_050),
                (1, 10_200),
                (2, 10_250),
                (0, 20_050),
                (2, 20_550)
            ]
        );
    }

    #[test]
    fn planned_costs_are_unscaled_at_nominal_and_the_f64_product_otherwise() {
        let mut reg = RunnableRegistry::new();
        let specs = [
            reg.register("a", us(50)),
            reg.register_with_loop("b", us(100), us(10), 5),
            reg.register("c", us(333)),
        ];
        let defs = specs.iter().cloned().map(RunnableDef::no_op).collect();
        let mut body = SequencedTask::fixed(defs);
        let mut world = BasicEcuWorld::new();
        let mut planned = |world: &BasicEcuWorld| -> Vec<Duration> {
            let mut plan = Plan::default();
            body.plan_into(world, &mut plan);
            plan.steps()
                .iter()
                .filter_map(|step| match *step {
                    Step::Compute(d) => Some(d),
                    _ => None,
                })
                .collect()
        };
        let slow = specs[1].id();
        world.controls.runnable_mut(slow).iterations_override = Some(7);
        let iters = [1, 7, 1];
        let nominal: Vec<Duration> = specs
            .iter()
            .zip(iters)
            .map(|(s, i)| s.cost_with_iterations(i))
            .collect();
        assert_eq!(planned(&world), nominal);

        // The S12XF CPU scale with one runnable slowed down on top.
        world.controls.set_global_exec_scale_ppm(9_600_000);
        world.controls.runnable_mut(slow).exec_scale_ppm = 2_000_000;
        let scaled: Vec<Duration> = nominal
            .iter()
            .zip([1_000_000u64, 2_000_000, 1_000_000])
            .map(|(cost, ppm)| cost.mul_f64(ppm as f64 / 1_000_000.0 * 9_600_000.0 / 1_000_000.0))
            .collect();
        assert_eq!(planned(&world), scaled);
        assert_eq!(scaled[1], us(3_264)); // 170 µs × 2 × 9.6
    }

    #[test]
    fn spec_builder_is_consistent() {
        let spec = RunnableSpec::new(RunnableId(7), "x", us(1)).with_loop(us(2), 3);
        assert_eq!(spec.id(), RunnableId(7));
        assert_eq!(spec.nominal_cost(), us(7));
    }
}
