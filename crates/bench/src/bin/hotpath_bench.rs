//! **HOTPATH** — per-event overhead of the id-indexed data plane.
//!
//! The watchdog sits on every runnable dispatch, so its per-event cost is
//! *the* overhead that decides whether runnable-granularity monitoring
//! beats task-level deadline monitoring (the paper picks a look-up-table
//! PFC over embedded signatures for exactly this reason). This bin
//! measures the three hot operations —
//!
//! 1. **heartbeat indication** (`HeartbeatMonitor::record`),
//! 2. **PFC transition check** (`PfcState::observe` over a
//!    `CompiledFlowTable`, the code the watchdog service runs),
//! 3. **end-of-cycle window check** (`HeartbeatMonitor::end_of_cycle`) —
//!
//! against faithful re-implementations of the pre-dense `BTreeMap` data
//! plane (map-keyed counter structs, two-level successor-map probes with
//! the quadratic `is_monitored` fallback), and asserts the dense paths are
//! at least 2× faster. A fourth probe, **direct dispatch**, times the
//! kernel's effect step on one real `Os`: a body's `Step::EffectRef`,
//! replayed from its retained plan and run in place on the body — the
//! per-effect floor of every task body. It also drives a full
//! `SoftwareWatchdog` through steady-state cycles under a counting
//! allocator and asserts **zero** heap allocations per nominal cycle.
//! Results land in `BENCH_hotpath.json` (stable schema, `schema_version`
//! 4) so future changes have a perf trajectory to beat.
//!
//! Usage: `hotpath_bench [iterations]` (default 2,000,000; the speedup
//! assertions are skipped below 1,000,000 iterations so CI smoke runs
//! stay timing-noise-proof).

use easis_obs::ObsSink;
use easis_osek::kernel::Os;
use easis_osek::plan::{EffectCtx, Plan, TaskBody};
use easis_osek::task::{Priority, TaskConfig};
use easis_rte::runnable::RunnableId;
use easis_sim::cpu::CostMeter;
use easis_sim::time::{Duration, Instant};
use easis_watchdog::config::{RunnableHypothesis, WatchdogConfig};
use easis_watchdog::heartbeat::HeartbeatMonitor;
use easis_watchdog::pfc::{FlowTable, FlowVerdict, PfcState};
use easis_watchdog::SoftwareWatchdog;
use serde::Serialize;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation so steady-state `run_cycle` can be proven
/// allocation-free, not just claimed.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to the system allocator; the counter is a
// relaxed atomic with no other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

const MONITORED: u32 = 64;
const DEFAULT_ITERATIONS: u64 = 2_000_000;
/// Below this the ≥2× assertions are timing noise, not signal.
const ASSERT_FLOOR: u64 = 1_000_000;

// ---------------------------------------------------------------------
// Map-based baselines: the pre-dense data plane, re-implemented verbatim
// so the speedup is measured by the same bin on the same workload.
// ---------------------------------------------------------------------

struct MapHeartbeatState {
    hypothesis: RunnableHypothesis,
    ac: u32,
    arc: u32,
    cca: u32,
    ccar: u32,
    active: bool,
    aliveness_errors: u32,
    arrival_rate_errors: u32,
}

/// The old `HeartbeatMonitor`: one map probe per indication, map walk per
/// cycle check.
struct MapHeartbeatMonitor {
    states: BTreeMap<RunnableId, MapHeartbeatState>,
}

impl MapHeartbeatMonitor {
    fn new(hypotheses: impl IntoIterator<Item = RunnableHypothesis>) -> Self {
        MapHeartbeatMonitor {
            states: hypotheses
                .into_iter()
                .map(|h| {
                    (
                        h.runnable,
                        MapHeartbeatState {
                            active: h.initially_active,
                            hypothesis: h,
                            ac: 0,
                            arc: 0,
                            cca: 0,
                            ccar: 0,
                            aliveness_errors: 0,
                            arrival_rate_errors: 0,
                        },
                    )
                })
                .collect(),
        }
    }

    fn record(&mut self, runnable: RunnableId, costs: &mut CostMeter) {
        costs.charge(easis_watchdog::heartbeat::HEARTBEAT_COST_CYCLES);
        if let Some(st) = self.states.get_mut(&runnable) {
            if st.active {
                st.ac = st.ac.saturating_add(1);
                st.arc = st.arc.saturating_add(1);
            }
        }
    }

    fn end_of_cycle(&mut self, costs: &mut CostMeter) -> u32 {
        let mut faults = 0;
        for st in self.states.values_mut() {
            if !st.active {
                continue;
            }
            costs.charge(easis_watchdog::heartbeat::CHECK_COST_CYCLES);
            if let Some(spec) = st.hypothesis.aliveness {
                st.cca += 1;
                if st.cca >= spec.cycles {
                    if st.ac < spec.min_indications {
                        st.aliveness_errors += 1;
                        faults += 1;
                    }
                    st.ac = 0;
                    st.cca = 0;
                }
            }
            if let Some(spec) = st.hypothesis.arrival_rate {
                st.ccar += 1;
                if st.ccar >= spec.cycles {
                    if st.arc > spec.max_indications {
                        st.arrival_rate_errors += 1;
                        faults += 1;
                    }
                    st.arc = 0;
                    st.ccar = 0;
                }
            }
        }
        faults
    }
}

/// The old map-based flow checker: two-level successor-map probe per
/// transition, plus the quadratic `values().any(..)` monitored-set
/// fallback this PR's satellite task removed.
struct MapFlowChecker {
    successors: BTreeMap<RunnableId, BTreeSet<RunnableId>>,
    entries: BTreeSet<RunnableId>,
    last: Option<RunnableId>,
    errors_detected: u64,
}

impl MapFlowChecker {
    fn new(table: &FlowTable) -> Self {
        let mut successors: BTreeMap<RunnableId, BTreeSet<RunnableId>> = BTreeMap::new();
        for (pred, succ) in table.pairs() {
            successors.entry(pred).or_default().insert(succ);
        }
        // The workload table has a constrained entry set, so `is_entry`
        // answers membership directly.
        let entries: BTreeSet<RunnableId> =
            table.monitored_ids().filter(|&r| table.is_entry(r)).collect();
        MapFlowChecker {
            successors,
            entries,
            last: None,
            errors_detected: 0,
        }
    }

    fn is_monitored(&self, runnable: RunnableId) -> bool {
        self.entries.contains(&runnable)
            || self.successors.contains_key(&runnable)
            || self.successors.values().any(|set| set.contains(&runnable))
    }

    fn is_entry(&self, runnable: RunnableId) -> bool {
        self.entries.is_empty() || self.entries.contains(&runnable)
    }

    fn is_allowed(&self, predecessor: RunnableId, successor: RunnableId) -> bool {
        self.successors
            .get(&predecessor)
            .is_some_and(|s| s.contains(&successor))
    }

    fn observe(&mut self, runnable: RunnableId) -> bool {
        if !self.is_monitored(runnable) {
            return true;
        }
        let ok = match self.last {
            None => self.is_entry(runnable),
            Some(prev) => self.is_allowed(prev, runnable),
        };
        if !ok {
            self.errors_detected += 1;
        }
        self.last = Some(runnable);
        ok
    }
}

// ---------------------------------------------------------------------
// Effect-dispatch probe: the kernel's effect step on one real `Os`.
// ---------------------------------------------------------------------

/// Effect steps per activation: enough that activating, dispatching and
/// terminating the task is a small share of each step's time.
const EFFECTS_PER_ACTIVATION: u32 = 64;

/// One effect's work, shaped like the runnables' heartbeat glue: read the
/// clock, update the world, trace (off).
fn effect_work(token: u32, world: &mut u64, ctx: &mut EffectCtx<'_, u64>) {
    *world = world.wrapping_add(ctx.now().as_micros() ^ u64::from(token));
    ctx.trace("dispatch-bench", "effect", "");
}

/// An arena body: plans `EffectRef` tokens into the kernel's retained
/// plan under a constant key, so the kernel plans it once and replays it
/// at every activation, running each token on the body in place.
struct RefBody;

impl TaskBody<u64> for RefBody {
    fn plan_into(&mut self, _world: &u64, out: &mut Plan) {
        for token in 0..EFFECTS_PER_ACTIVATION {
            out.push_effect_ref(token);
        }
    }

    fn plan_key(&self, _world: &u64) -> Option<u64> {
        Some(0)
    }

    fn run_effect(&mut self, token: u32, world: &mut u64, ctx: &mut EffectCtx<'_, u64>) {
        effect_work(token, world, ctx);
    }
}

fn bench_direct_dispatch(iterations: u64) -> Dispatch {
    let mut os: Os<u64> = Os::with_disabled_trace();
    let task = os.add_task(TaskConfig::new("effect-ref", Priority(1)), RefBody);
    let mut world = 0u64;
    os.start(&mut world);
    let activations = (iterations / u64::from(EFFECTS_PER_ACTIVATION)).max(REPS);
    // One activation runs all its effect steps at one instant; the next
    // starts a microsecond later.
    let effect_ref = measure(activations, || {
        os.activate_task(task, &mut world)
            .expect("task is suspended");
        let end = os.now() + Duration::from_micros(1);
        os.run_until(end, &mut world);
    }) / f64::from(EFFECTS_PER_ACTIVATION);
    black_box(world);
    Dispatch { effect_ref }
}

// ---------------------------------------------------------------------
// Workload: 64 monitored runnables in one dispatch chain 0→1→…→63→0.
// ---------------------------------------------------------------------

fn hypotheses() -> Vec<RunnableHypothesis> {
    (0..MONITORED)
        .map(|i| {
            RunnableHypothesis::new(RunnableId(i))
                .alive_at_least(1, 4)
                .arrive_at_most(8, 4)
        })
        .collect()
}

fn chain_table() -> FlowTable {
    let mut table = FlowTable::new();
    table.allow_entry(RunnableId(0));
    for i in 0..MONITORED {
        table.allow(RunnableId(i), RunnableId((i + 1) % MONITORED));
    }
    table
}

/// Timing passes per measurement; the fastest is reported.
const REPS: u64 = 7;

/// Runs `op` in [`REPS`] back-to-back passes of `iterations / REPS` calls
/// each and returns the fastest pass's ns/op. Taking the minimum is the
/// standard low-noise micro-bench estimator: interference (preemption,
/// frequency dips, timer interrupts) only ever *adds* time, so the best
/// pass is the closest observation of the true cost — one bad pass can
/// no longer poison the whole measurement.
fn measure<F: FnMut()>(iterations: u64, mut op: F) -> f64 {
    let per_pass = (iterations / REPS).max(1);
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let start = std::time::Instant::now();
        for _ in 0..per_pass {
            op();
        }
        let ns = start.elapsed().as_nanos() as f64 / per_pass as f64;
        best = best.min(ns);
    }
    best
}

// ---------------------------------------------------------------------
// Report schema (schema_version 4 — keep stable, future changes diff
// this; v2 added the `direct_dispatch` probe, v3 times it on the kernel,
// v4 drops its boxed-closure baseline with the kernel path it timed).
// ---------------------------------------------------------------------

#[derive(Serialize)]
struct Comparison {
    dense: f64,
    map_baseline: f64,
    speedup: f64,
}

impl Comparison {
    fn new(dense: f64, map_baseline: f64) -> Self {
        Comparison {
            dense,
            map_baseline,
            speedup: map_baseline / dense,
        }
    }
}

/// ns per kernel effect step: a body's `EffectRef`, replayed.
#[derive(Serialize)]
struct Dispatch {
    effect_ref: f64,
}

#[derive(Serialize)]
struct Report {
    schema_version: u32,
    iterations: u64,
    monitored_runnables: u32,
    ns_per_heartbeat: Comparison,
    ns_per_pfc_check: Comparison,
    ns_per_cycle_check: Comparison,
    direct_dispatch: Dispatch,
    steady_state_cycle_allocs: u64,
}

fn bench_heartbeat(iterations: u64) -> Comparison {
    let mut dense = HeartbeatMonitor::new(hypotheses());
    let mut costs = CostMeter::new();
    let mut i = 0u32;
    let dense_ns = measure(iterations, || {
        dense.record(
            RunnableId(i % MONITORED),
            Instant::ZERO,
            &mut costs,
            &ObsSink::DISABLED,
        );
        i = i.wrapping_add(1);
    });
    black_box(dense.counters(RunnableId(0)));

    let mut map = MapHeartbeatMonitor::new(hypotheses());
    let mut costs = CostMeter::new();
    let mut i = 0u32;
    let map_ns = measure(iterations, || {
        map.record(RunnableId(i % MONITORED), &mut costs);
        i = i.wrapping_add(1);
    });
    black_box(map.states.len());
    Comparison::new(dense_ns, map_ns)
}

fn bench_pfc(iterations: u64) -> Comparison {
    let table = chain_table();
    let compiled = table.compile();
    let mut dense = PfcState::default();
    let mut violations = 0u64;
    let mut i = 0u32;
    let dense_ns = measure(iterations, || {
        let verdict = black_box(dense.observe(&compiled, RunnableId(i % MONITORED)));
        if let FlowVerdict::Violation { .. } = verdict {
            violations += 1;
        }
        i = i.wrapping_add(1);
    });
    assert_eq!(violations, 0, "chain workload must stay clean");

    let mut map = MapFlowChecker::new(&table);
    let mut i = 0u32;
    let map_ns = measure(iterations, || {
        black_box(map.observe(RunnableId(i % MONITORED)));
        i = i.wrapping_add(1);
    });
    assert_eq!(map.errors_detected, 0, "baseline must agree with dense");
    Comparison::new(dense_ns, map_ns)
}

fn bench_cycle_check(iterations: u64) -> Comparison {
    // One "cycle" = beat every runnable once, then run the window check;
    // the reported figure is ns per end-of-cycle sweep (64 runnables).
    let cycles = (iterations / MONITORED as u64).max(1_000);

    let mut dense = HeartbeatMonitor::new(hypotheses());
    let mut costs = CostMeter::new();
    let mut faults = Vec::new();
    let dense_ns = measure(cycles, || {
        for i in 0..MONITORED {
            dense.record(RunnableId(i), Instant::ZERO, &mut costs, &ObsSink::DISABLED);
        }
        dense.end_of_cycle_into(Instant::ZERO, &mut costs, &mut faults, &ObsSink::DISABLED);
    });
    assert!(faults.is_empty(), "nominal cycles must stay fault-free");

    let mut map = MapHeartbeatMonitor::new(hypotheses());
    let mut costs = CostMeter::new();
    let mut total_faults = 0u32;
    let map_ns = measure(cycles, || {
        for i in 0..MONITORED {
            map.record(RunnableId(i), &mut costs);
        }
        total_faults += map.end_of_cycle(&mut costs);
    });
    assert_eq!(total_faults, 0, "baseline must agree with dense");
    Comparison::new(dense_ns, map_ns)
}

/// Drives a full service (heartbeats + run_cycle) in its steady state and
/// returns the allocations per cycle (must be zero).
fn steady_state_allocs() -> u64 {
    let mut mapping = easis_rte::mapping::SystemMapping::new();
    let app = mapping.add_application("Hotpath");
    mapping.assign_task(easis_osek::task::TaskId(0), app);
    for i in 0..MONITORED {
        mapping.assign_runnable(RunnableId(i), easis_osek::task::TaskId(0));
    }
    let mut builder = WatchdogConfig::builder(Duration::from_millis(10)).mapping(mapping);
    builder = builder.allow_entry(RunnableId(0));
    for i in 0..MONITORED {
        builder = builder.allow_flow(RunnableId(i), RunnableId((i + 1) % MONITORED));
    }
    for hypothesis in hypotheses() {
        builder = builder.monitor(hypothesis);
    }
    let mut watchdog = SoftwareWatchdog::new(builder.build());

    let cycle = |watchdog: &mut SoftwareWatchdog, n: u64| {
        for i in 0..MONITORED {
            watchdog.heartbeat(RunnableId(i), Instant::from_millis(n * 10 + 5));
        }
        let report = watchdog.run_cycle(Instant::from_millis(n * 10 + 10));
        assert!(report.faults.is_empty(), "steady state must stay clean");
    };

    // Warm up so every capacity-retained buffer reaches its fixpoint.
    for n in 0..16 {
        cycle(&mut watchdog, n);
    }
    const MEASURED_CYCLES: u64 = 1_000;
    let before = allocations();
    for n in 16..16 + MEASURED_CYCLES {
        cycle(&mut watchdog, n);
    }
    let total = allocations() - before;
    black_box(watchdog.costs().total_cycles());
    // Report per-cycle to keep the figure stable if MEASURED_CYCLES moves.
    total / MEASURED_CYCLES
}

fn validate_emitted_json(path: &str) {
    let text = std::fs::read_to_string(path).expect("BENCH_hotpath.json written");
    let value = serde_json::parse_value(&text).expect("BENCH_hotpath.json parses");
    let serde::Value::Map(entries) = value else {
        panic!("BENCH_hotpath.json must be a JSON object");
    };
    for key in [
        "schema_version",
        "iterations",
        "monitored_runnables",
        "ns_per_heartbeat",
        "ns_per_pfc_check",
        "ns_per_cycle_check",
        "direct_dispatch",
        "steady_state_cycle_allocs",
    ] {
        assert!(
            entries.iter().any(|(k, _)| k == key),
            "BENCH_hotpath.json missing key {key:?}"
        );
    }
}

fn main() {
    let iterations = std::env::args()
        .nth(1)
        .map(|raw| raw.parse::<u64>().expect("iterations must be a number"))
        .unwrap_or(DEFAULT_ITERATIONS);

    println!("================================================================");
    println!("experiment HOTPATH — per-event overhead, dense vs map data plane");
    println!("{iterations} iterations over {MONITORED} monitored runnables");
    println!("================================================================");

    let heartbeat = bench_heartbeat(iterations);
    let pfc = bench_pfc(iterations);
    let cycle = bench_cycle_check(iterations);
    let dispatch = bench_direct_dispatch(iterations);
    let cycle_allocs = steady_state_allocs();

    println!("{:<22} {:>10} {:>12} {:>9}", "operation", "dense ns", "map ns", "speedup");
    for (name, c) in [
        ("heartbeat indication", &heartbeat),
        ("pfc transition check", &pfc),
        ("end-of-cycle sweep", &cycle),
    ] {
        println!(
            "{:<22} {:>10.1} {:>12.1} {:>8.1}x",
            name, c.dense, c.map_baseline, c.speedup
        );
    }
    println!(
        "{:<22} {:>10.1}   (replayed EffectRef)",
        "kernel effect step", dispatch.effect_ref
    );
    println!("steady-state run_cycle allocations/cycle: {cycle_allocs}");

    assert_eq!(
        cycle_allocs, 0,
        "steady-state run_cycle must not allocate (counting allocator saw traffic)"
    );
    if iterations >= ASSERT_FLOOR {
        assert!(
            heartbeat.speedup >= 2.0,
            "heartbeat dense path must be ≥2× the map baseline, got {:.2}×",
            heartbeat.speedup
        );
        assert!(
            pfc.speedup >= 2.0,
            "PFC dense path must be ≥2× the map baseline, got {:.2}×",
            pfc.speedup
        );
    } else {
        println!("(speedup assertions skipped below {ASSERT_FLOOR} iterations)");
    }

    let report = Report {
        schema_version: 4,
        iterations,
        monitored_runnables: MONITORED,
        ns_per_heartbeat: heartbeat,
        ns_per_pfc_check: pfc,
        ns_per_cycle_check: cycle,
        direct_dispatch: dispatch,
        steady_state_cycle_allocs: cycle_allocs,
    };
    let path = "BENCH_hotpath.json";
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write(path, json).expect("BENCH_hotpath.json writable");
    validate_emitted_json(path);
    println!("[record written to {path}]");
}
