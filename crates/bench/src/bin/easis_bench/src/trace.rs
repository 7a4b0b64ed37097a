//! The traced replay: the campaign engine's per-trial pipeline re-run
//! through public calls, with a span around each call.
//!
//! The replay mirrors the forked trial path (fork checkpoint, arming tick,
//! armed window, disarming tick, tail, rewind) without its caches, so the
//! spans time each layer's public entry point. It is a measurement
//! harness, not an oracle: outcomes are checked against
//! `scenario::run_trial` elsewhere.

use crate::alloc;
use crate::stats::median;
use crate::workloads::{disarm_tick, fork_tick};
use easis_injection::campaign::CampaignPlan;
use easis_injection::injector::Injector;
use easis_sim::snap::RestoreStats;
use easis_sim::time::Instant;
use easis_validator::node::{CentralNode, NodeBlueprint, NodeSnapshot};
use std::fmt::Write as _;

/// Trials of plan 0 the replay runs, evenly spaced over the plan.
pub const TRACED_TRIALS: usize = 100;

/// Span names, in pipeline order.
pub const SPAN_NAMES: [&str; 10] = [
    "build_start",
    "trial",
    "restore_from",
    "run_prefix",
    "snapshot_into",
    "reload_tick",
    "set_armed",
    "run_armed",
    "disarm_tick",
    "run_tail",
];

/// Spans only trials with a disarming tick before the horizon have.
pub const DISARMED_ONLY: [&str; 2] = ["disarm_tick", "run_tail"];

pub struct Span {
    id: usize,
    parent: Option<usize>,
    name: &'static str,
    trial: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    /// Simulated microseconds a `run_*` span covered.
    sim_us: u64,
    /// Heap blocks the call allocated (`snapshot_into` only).
    allocs: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when `on`; otherwise only runs the calls.
pub struct Tracer {
    on: bool,
    origin: std::time::Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: std::time::Instant::now(),
            spans: Vec::with_capacity(if on { 16 * TRACED_TRIALS } else { 0 }),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, trial: Option<usize>) -> usize {
        let id = self.spans.len();
        if self.on {
            let start_ns = self.now_ns();
            self.spans.push(Span {
                id,
                parent,
                name,
                trial,
                start_ns,
                end_ns: start_ns,
                sim_us: 0,
                allocs: 0,
            });
        }
        id
    }

    fn close(&mut self, id: usize) -> Option<&mut Span> {
        if !self.on {
            return None;
        }
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        Some(span)
    }

    /// Runs `f` inside a span and returns its result.
    fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        trial: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, trial);
        let out = f();
        self.close(id);
        out
    }

    /// Runs the simulation call `f` covering `sim_us` inside a span.
    fn sim_span(
        &mut self,
        name: &'static str,
        parent: usize,
        trial: usize,
        sim_us: u64,
        f: impl FnOnce(),
    ) {
        let id = self.open(name, Some(parent), Some(trial));
        f();
        if let Some(span) = self.close(id) {
            span.sim_us = sim_us;
        }
    }
}

/// Layer measurements of one traced replay pass.
#[derive(Default)]
pub struct ReplayStats {
    pub restores: RestoreStats,
    pub wall_ns: u64,
}

/// Replays [`TRACED_TRIALS`] evenly spaced trials of `plan` in fork order
/// on a node built from `blueprint`. With `event_level`, fast-forward is
/// switched off from each fork on (the prefix keeps it), so the post-fork
/// spans give the event-level floor of the same simulated time.
pub fn replay(
    blueprint: &NodeBlueprint,
    plan: &CampaignPlan,
    horizon: Instant,
    event_level: bool,
    tracer: &mut Tracer,
) -> ReplayStats {
    let wall = std::time::Instant::now();
    let trials = plan.trials();
    let n = TRACED_TRIALS.min(trials.len());
    let mut picked: Vec<usize> = (0..n).map(|k| k * trials.len() / n).collect();
    picked.sort_by_key(|&i| fork_tick(&trials[i], horizon));

    let mut node = tracer.span("build_start", None, None, || {
        let mut node = CentralNode::build_from_blueprint(blueprint);
        node.start();
        node
    });
    let mut injector = Injector::none();
    let mut ckpt = NodeSnapshot::default();
    let mut ckpt_at: Option<Instant> = None;
    let mut stats = ReplayStats::default();
    for i in picked {
        let spec = &trials[i];
        let fork = fork_tick(spec, horizon);
        let disarm = disarm_tick(spec, horizon);
        let root = tracer.open("trial", None, Some(i));
        if ckpt_at.is_some() {
            let restored = tracer.span("restore_from", Some(root), Some(i), || {
                node.restore_from(&ckpt)
            });
            stats.restores.absorb(restored);
        }
        if ckpt_at != Some(fork) {
            let now = node.os.now();
            if now < fork {
                let sim_us = fork.as_micros() - now.as_micros();
                tracer.sim_span("run_prefix", root, i, sim_us, || node.run_span(fork));
            }
            let id = tracer.open("snapshot_into", Some(root), Some(i));
            let before = alloc::allocations();
            node.snapshot_into(&mut ckpt);
            let allocs = alloc::allocations() - before;
            if let Some(span) = tracer.close(id) {
                span.allocs = allocs;
            }
            ckpt_at = Some(fork);
        }
        if event_level {
            node.set_fastforward(Some(false));
        }
        tracer.span("reload_tick", Some(root), Some(i), || {
            injector.reload([spec.injection.clone()]);
            injector.attach_obs(node.world.obs.clone());
            injector.tick(fork, &mut node.world.controls, &mut node.os);
        });
        // Horizons are whole milliseconds, so this is "arms on a tick at
        // or before the horizon".
        let arms = spec.injection.from <= horizon;
        tracer.span("set_armed", Some(root), Some(i), || {
            node.set_injection_armed(arms)
        });
        if let Some(disarm) = disarm {
            let sim_us = disarm.as_micros() - fork.as_micros();
            tracer.sim_span("run_armed", root, i, sim_us, || node.run_span(disarm));
            tracer.span("disarm_tick", Some(root), Some(i), || {
                injector.tick(disarm, &mut node.world.controls, &mut node.os);
                node.set_injection_armed(false);
            });
        }
        let now = node.os.now();
        if now < horizon {
            // Without a disarming tick the injection is still armed here.
            let name = if disarm.is_some() {
                "run_tail"
            } else {
                "run_armed"
            };
            let sim_us = horizon.as_micros() - now.as_micros();
            tracer.sim_span(name, root, i, sim_us, || node.run_span(horizon));
            injector.tick(horizon, &mut node.world.controls, &mut node.os);
        }
        node.set_injection_armed(false);
        node.set_fastforward(None);
        tracer.close(root);
    }
    stats.wall_ns = wall.elapsed().as_nanos() as u64;
    stats
}

impl Tracer {
    fn of<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Host nanoseconds per simulated millisecond over the named spans; 0
    /// when the pass had none.
    pub fn ns_per_sim_ms(&self, names: &[&str]) -> f64 {
        let (ns, sim_us) = names
            .iter()
            .flat_map(|name| self.of(name))
            .fold((0u64, 0u64), |(ns, us), s| (ns + s.ns(), us + s.sim_us));
        if sim_us == 0 {
            0.0
        } else {
            ns as f64 * 1_000.0 / sim_us as f64
        }
    }

    /// Host nanoseconds summed over the named spans.
    pub fn total_ns(&self, names: &[&str]) -> u64 {
        names
            .iter()
            .flat_map(|name| self.of(name))
            .map(Span::ns)
            .sum()
    }

    fn median_of(&self, name: &str, value: impl Fn(&Span) -> u64) -> f64 {
        let values: Vec<f64> = self.of(name).map(|s| value(s) as f64).collect();
        if values.is_empty() {
            0.0
        } else {
            median(&values)
        }
    }

    /// Median duration of the named span, in nanoseconds (0 if absent).
    pub fn median_ns(&self, name: &str) -> f64 {
        self.median_of(name, Span::ns)
    }

    /// Median heap blocks allocated per `snapshot_into`.
    pub fn median_capture_allocs(&self) -> f64 {
        self.median_of("snapshot_into", |s| s.allocs)
    }

    /// Self time per span name, in [`SPAN_NAMES`] order, in milliseconds:
    /// each span's duration minus the time its child spans cover, summed
    /// over the pass.
    pub fn self_ms(&self) -> Vec<(&'static str, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(parent) = s.parent {
                child_ns[parent] += s.ns();
            }
        }
        SPAN_NAMES
            .iter()
            .map(|&name| {
                let ns: u64 = self.of(name).map(|s| s.ns() - child_ns[s.id]).sum();
                (name, ns as f64 / 1e6)
            })
            .collect()
    }

    /// Appends the spans as JSON lines tagged with `pass`.
    pub fn write_jsonl(&self, pass: &str, out: &mut String) {
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"pass\":\"{pass}\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"trial\":{},\"start_ns\":{},\"end_ns\":{},\"sim_us\":{}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.trial.map_or("null".to_string(), |t| t.to_string()),
                s.start_ns,
                s.end_ns,
                s.sim_us,
            );
        }
    }
}
