//! **easis_bench** — seeded, interleaved fault-campaign benchmark.
//!
//! ```text
//! easis_bench --seed <u64> [--workload <name>] [--seconds <s>] [--trace 0|1] [--quick]
//! easis_bench compare A.jsonl B.jsonl
//! ```
//!
//! Builds every workload's plans from `--seed` and runs them through the
//! production engine `scenario::run_plan` at one worker, one campaign at a
//! time (closed loop). Rounds interleave the selected workloads, rotating
//! their order, so a noisy-neighbour episode spreads over all of them.
//! Without `--seconds` each workload runs 100 measured campaigns (3 with
//! `--quick`); with it, rounds repeat until that many seconds have passed.
//! Every campaign's stats digest, a workers=min(2, nproc) rerun of each
//! plan and sampled trials against the event-level oracle are checked;
//! any mismatch makes the exit code non-zero.
//!
//! Prints `workload metric value unit` lines, writes one record per
//! workload to `target/bench/`, and ends with one JSON line holding
//! `correct`, `attempted`, `failed` and the metrics: the end-to-end ones,
//! or with `--trace 1` the per-layer ones from the traced replay. See
//! README.md for every metric and workload.

mod alloc;
mod compare;
mod stats;
mod trace;
mod workloads;

use easis_injection::campaign::CampaignPlan;
use easis_injection::executor::CampaignExecutor;
use easis_injection::report::CampaignReport;
use easis_injection::stats::CampaignStats;
use easis_validator::ffwd::{self, FfwdMetrics};
use easis_validator::node::{CentralNode, NodeBlueprint};
use easis_validator::scenario::{campaign_node_config, run_plan, run_trial};
use stats::{median, percentile};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;
use trace::Tracer;
use workloads::{Workload, PLANS_PER_WORKLOAD};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Measured campaigns per workload without `--seconds`: the 90th
/// percentile then has ten samples beyond it.
const CAMPAIGNS: usize = 100;
const QUICK_CAMPAIGNS: usize = 3;
/// Set-ups per run, the first before measuring and the others at least
/// `SETUP_SPACING_S` apart; `setup_s` is their median.
const SETUP_REPS: usize = 9;
const SETUP_SPACING_S: f64 = 1.0;
/// Trials per plan checked against `scenario::run_trial`.
const ORACLE_TRIALS: usize = 25;
/// Campaigns per side of the parallel-efficiency diagnostic.
const PARALLEL_CAMPAIGNS: usize = 20;
/// Repetitions of the cheap node set-up probes and of the replay passes.
const PROBE_REPS: usize = 5;
const REPLAY_REPS: usize = 3;

const USAGE: &str = "usage: easis_bench --seed <u64> [--workload <name>] [--seconds <s>] \
[--trace 0|1] [--quick]\n       easis_bench compare A.jsonl B.jsonl";

struct RunArgs {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
}

fn parse_args(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workloads: Workload::ALL.to_vec(),
        seed: 0,
        seconds: None,
        trace: false,
        quick: false,
    };
    let mut seed = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => {
                let raw = value()?;
                seed = Some(raw.parse().map_err(|_| format!("bad --seed {raw:?}"))?);
            }
            "--workload" => {
                let raw = value()?;
                let w = Workload::parse(raw).ok_or_else(|| format!("unknown workload {raw:?}"))?;
                run.workloads = vec![w];
            }
            "--seconds" => {
                let raw = value()?;
                let s: f64 = raw.parse().map_err(|_| format!("bad --seconds {raw:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                run.seconds = Some(s);
            }
            "--trace" => {
                run.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => run.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    run.seed = seed.ok_or("--seed is required")?;
    Ok(run)
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    let name = name.into();
    assert!(value.is_finite(), "metric {name} is not finite: {value}");
    Metric { name, value, unit }
}

fn metrics_json<'a>(metrics: impl IntoIterator<Item = &'a Metric>) -> String {
    let body: Vec<String> = metrics
        .into_iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// FNV-1a over the stats' JSON: equal digests mean byte-identical stats.
fn digest(stats: &CampaignStats) -> u64 {
    let json = serde_json::to_string(stats).expect("campaign stats serialise");
    json.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn elapsed_ns(since: Instant) -> f64 {
    since.elapsed().as_nanos() as f64
}

/// Fraction `num / den`, 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Everything measured and checked for one workload.
struct WorkloadRun {
    workload: Workload,
    plans: Vec<CampaignPlan>,
    /// First stats digest seen per plan, and those stats (the oracle's
    /// reference).
    digests: Vec<Option<u64>>,
    reference: Vec<Option<CampaignStats>>,
    checks: u64,
    failures: u64,
    setup_ns: Vec<f64>,
    plan_build_ns: Vec<f64>,
    campaign_ns: Vec<f64>,
    peak_bytes: Vec<f64>,
    allocs_per_trial: Vec<f64>,
    report_ns: Vec<f64>,
    ffwd: FfwdMetrics,
    trials_run: u64,
    /// Per-layer metrics of the traced run: those in the summary line,
    /// and those only printed and recorded.
    layers: Vec<Metric>,
    layer_details: Vec<Metric>,
}

impl WorkloadRun {
    fn new(workload: Workload, seed: u64) -> WorkloadRun {
        WorkloadRun {
            workload,
            plans: workload.plans(seed),
            digests: vec![None; PLANS_PER_WORKLOAD],
            reference: vec![None; PLANS_PER_WORKLOAD],
            checks: 0,
            failures: 0,
            setup_ns: Vec::new(),
            plan_build_ns: Vec::new(),
            campaign_ns: Vec::new(),
            peak_bytes: Vec::new(),
            allocs_per_trial: Vec::new(),
            report_ns: Vec::new(),
            ffwd: FfwdMetrics::default(),
            trials_run: 0,
            layers: Vec::new(),
            layer_details: Vec::new(),
        }
    }

    fn name(&self) -> &'static str {
        self.workload.name()
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures += 1;
            eprintln!("MISMATCH {}: {}", self.name(), what());
        }
    }

    fn check_digest(&mut self, plan: usize, stats: CampaignStats, source: &str) {
        let d = digest(&stats);
        match self.digests[plan] {
            None => {
                self.checks += 1;
                self.digests[plan] = Some(d);
                self.reference[plan] = Some(stats);
            }
            Some(first) => self.check(first == d, || {
                format!("plan {plan} stats digest {d:016x} ({source}) != {first:016x}")
            }),
        }
    }

    /// One set-up as a run starts: plan generation plus a first campaign
    /// of plan 0 (`run_plan` compiles a fresh blueprint and builds a fresh
    /// node on every call). It runs on the measuring thread, because a
    /// new thread may land on the other core and time that core's load
    /// instead. Returns its nanoseconds.
    fn setup(&mut self, seed: u64) -> f64 {
        let start = Instant::now();
        let plans: Vec<CampaignPlan> = (0..PLANS_PER_WORKLOAD)
            .map(|i| {
                let t = Instant::now();
                let plan = self.workload.plan(seed, i);
                self.plan_build_ns.push(elapsed_ns(t));
                plan
            })
            .collect();
        let stats = run_plan(
            &plans[0],
            self.workload.horizon(),
            &CampaignExecutor::serial(),
        );
        let setup_ns = elapsed_ns(start);
        self.setup_ns.push(setup_ns);
        self.check_digest(0, stats, "set-up");
        setup_ns
    }

    /// One measured campaign of plan `p`.
    fn measure(&mut self, p: usize, trace: bool) {
        let horizon = self.workload.horizon();
        let plan = &self.plans[p];
        ffwd::reset_metrics();
        let live = alloc::reset_peak();
        let allocs = alloc::allocations();
        let start = Instant::now();
        let stats = black_box(run_plan(
            black_box(plan),
            horizon,
            &CampaignExecutor::serial(),
        ));
        let ns = elapsed_ns(start);
        let allocs = alloc::allocations() - allocs;
        let peak = alloc::peak() - live;
        let m = ffwd::metrics();
        self.campaign_ns.push(ns);
        self.peak_bytes.push(peak as f64);
        self.allocs_per_trial
            .push(allocs as f64 / plan.len() as f64);
        self.trials_run += plan.len() as u64;
        self.ffwd.fastforwarded_us += m.fastforwarded_us;
        self.ffwd.span_us += m.span_us;
        self.ffwd.fallbacks += m.fallbacks;
        self.ffwd.certifications += m.certifications;
        if trace {
            let start = Instant::now();
            let report = CampaignReport::from_stats(&stats);
            black_box(serde_json::to_string(&report).expect("report serialises"));
            self.report_ns.push(elapsed_ns(start));
        }
        self.check_digest(p, stats, "measured campaign");
    }

    /// Digest of every plan at workers=min(2, nproc), and sampled trials
    /// against the event-level oracle `scenario::run_trial` (untimed).
    fn check_outputs(&mut self, workers: usize) {
        let horizon = self.workload.horizon();
        for p in 0..PLANS_PER_WORKLOAD {
            if self.reference[p].is_none() {
                let stats = run_plan(&self.plans[p], horizon, &CampaignExecutor::serial());
                self.check_digest(p, stats, "workers=1");
            }
            let parallel = run_plan(&self.plans[p], horizon, &CampaignExecutor::new(workers));
            self.check_digest(p, parallel, "parallel executor");
            let trials = self.plans[p].trials();
            let reference = self.reference[p]
                .as_ref()
                .expect("reference stats recorded");
            let n = ORACLE_TRIALS.min(trials.len());
            let verdicts: Vec<(usize, bool)> = (0..n)
                .map(|k| k * trials.len() / n)
                .map(|i| (i, run_trial(&trials[i], horizon) == reference.trials()[i]))
                .collect();
            for (i, ok) in verdicts {
                self.check(ok, || format!("plan {p} trial {i} differs from run_trial"));
            }
        }
    }

    /// The metrics `BENCHMARK.json` bounds. Throughput comes from the
    /// fastest campaign: every campaign of a plan does identical work and
    /// host interference only adds time, so the fastest one is the
    /// closest observation of the engine's cost (the median and p90 drift
    /// with neighbouring load and are reported by [`Self::diagnostics`]).
    fn end_to_end(&self) -> Vec<Metric> {
        let trials = self.plans[0].len() as f64;
        let fastest_ns = self
            .campaign_ns
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        vec![
            metric("trials_per_sec", trials / (fastest_ns / 1e9), "1/s"),
            metric(
                "peak_heap_mib",
                median(&self.peak_bytes) / f64::from(1u32 << 20),
                "MiB",
            ),
            metric("setup_s", median(&self.setup_ns) / 1e9, "s"),
        ]
    }

    /// Printed and recorded, not bounded.
    fn diagnostics(&self) -> Vec<Metric> {
        vec![
            metric("campaign_ms_median", median(&self.campaign_ns) / 1e6, "ms"),
            metric(
                "campaign_ms_p90",
                percentile(&self.campaign_ns, 90.0) / 1e6,
                "ms",
            ),
            metric(
                "failed_fraction",
                ratio(self.failures as f64, self.checks as f64),
                "fraction",
            ),
        ]
    }

    /// The traced run: node set-up probes, the replay passes, the
    /// parallel-efficiency diagnostic and the campaign-derived layer
    /// counters. Writes the spans to `target/bench/trace-<workload>.jsonl`.
    fn trace_layers(&mut self, workers: usize) {
        let horizon = self.workload.horizon();
        let compile_ns: Vec<f64> = (0..PROBE_REPS)
            .map(|_| {
                let start = Instant::now();
                black_box(NodeBlueprint::compile(campaign_node_config()));
                elapsed_ns(start)
            })
            .collect();
        let blueprint = NodeBlueprint::compile(campaign_node_config());
        let build_ns: Vec<f64> = (0..PROBE_REPS)
            .map(|_| {
                let start = Instant::now();
                let mut node = CentralNode::build_from_blueprint(&blueprint);
                node.start();
                black_box(node);
                elapsed_ns(start)
            })
            .collect();

        // Traced and untraced passes in ABBA order, so neither side always
        // runs second; the spans of the last traced pass are kept, and the
        // wall-time ratio of the two sides is the tracing overhead.
        let plan = &self.plans[0];
        let mut untraced_ns = Vec::new();
        let mut traced_ns = Vec::new();
        let mut passes = Vec::new();
        for rep in 0..2 * REPLAY_REPS {
            let on = (rep % 2 == 0) == (rep / 2 % 2 == 0);
            let mut tracer = Tracer::new(on);
            let pass = trace::replay(&blueprint, plan, horizon, false, &mut tracer);
            if on {
                traced_ns.push(pass.wall_ns as f64);
                passes.push((tracer, pass.restores));
            } else {
                untraced_ns.push(pass.wall_ns as f64);
            }
        }
        let (traced, restores) = passes.pop().expect("at least one traced pass");
        let mut event = Tracer::new(true);
        trace::replay(&blueprint, plan, horizon, true, &mut event);

        let post_fork = ["run_armed", "run_tail"];
        let ffwd_ns = traced.total_ns(&post_fork) as f64;
        let event_ns = event.total_ns(&post_fork) as f64;

        let mut serial_ns = Vec::new();
        let mut parallel_ns = Vec::new();
        for k in 0..PARALLEL_CAMPAIGNS {
            let plan = &self.plans[k % PLANS_PER_WORKLOAD];
            for (executor, out) in [
                (CampaignExecutor::serial(), &mut serial_ns),
                (CampaignExecutor::new(workers), &mut parallel_ns),
            ] {
                let start = Instant::now();
                black_box(run_plan(plan, horizon, &executor));
                out.push(elapsed_ns(start));
            }
        }

        let twin_fraction = self
            .plans
            .iter()
            .map(|p| workloads::twin_fraction(p, horizon))
            .sum::<f64>()
            / self.plans.len() as f64;
        let trials = self.trials_run as f64;
        let f = self.ffwd;
        let mut layers = vec![
            metric("node.compile_us", median(&compile_ns) / 1e3, "us"),
            metric("node.build_us", median(&build_ns) / 1e3, "us"),
            metric(
                "node.armed_ns_per_sim_ms",
                traced.ns_per_sim_ms(&["run_armed"]),
                "ns/ms",
            ),
            metric(
                "node.event_ns_per_sim_ms",
                event.ns_per_sim_ms(&post_fork),
                "ns/ms",
            ),
            metric("node.ffwd_speedup", ratio(event_ns, ffwd_ns), "x"),
            metric("node.capture_ns", traced.median_ns("snapshot_into"), "ns"),
            metric("node.restore_ns", traced.median_ns("restore_from"), "ns"),
            metric(
                "node.restore_dirty_fraction",
                restores.dirty_fraction(),
                "fraction",
            ),
            metric(
                "node.capture_allocs",
                traced.median_capture_allocs(),
                "count",
            ),
            metric("ffwd.span_fraction", f.span_fraction(), "fraction"),
            metric(
                "ffwd.certifications_per_trial",
                ratio(f.certifications as f64, trials),
                "count",
            ),
            metric(
                "ffwd.fallbacks_per_trial",
                ratio(f.fallbacks as f64, trials),
                "count",
            ),
            metric(
                "ffwd.cert_yield",
                ratio(
                    f.certifications as f64,
                    (f.certifications + f.fallbacks) as f64,
                ),
                "fraction",
            ),
            metric("scenario.twin_fraction", twin_fraction, "fraction"),
            metric(
                "scenario.run_plan_ms",
                median(&self.campaign_ns) / 1e6,
                "ms",
            ),
            metric(
                "injection.plan_build_us",
                median(&self.plan_build_ns) / 1e3,
                "us",
            ),
            metric("injection.report_us", median(&self.report_ns) / 1e3, "us"),
            metric("alloc.per_trial", median(&self.allocs_per_trial), "count"),
            metric(
                "injection.executor.parallel_efficiency",
                median(&serial_ns) / median(&parallel_ns) / workers as f64,
                "fraction",
            ),
            metric(
                "trace.overhead_fraction",
                median(&traced_ns) / median(&untraced_ns) - 1.0,
                "fraction",
            ),
        ];
        // Spans after a disarming tick never occur on `armed`, so their
        // metrics read 0 there on every run; they are printed and
        // recorded, but the summary line keeps to metrics every workload
        // measures.
        let mut details = vec![metric(
            "node.tail_ns_per_sim_ms",
            traced.ns_per_sim_ms(&["run_tail"]),
            "ns/ms",
        )];
        for (name, ms) in traced.self_ms() {
            let m = metric(format!("span.{name}.self_ms"), ms, "ms");
            if trace::DISARMED_ONLY.contains(&name) {
                details.push(m);
            } else {
                layers.push(m);
            }
        }
        self.layers = layers;
        self.layer_details = details;

        let mut jsonl = String::new();
        traced.write_jsonl("ffwd", &mut jsonl);
        event.write_jsonl("event", &mut jsonl);
        write_output(&format!("trace-{}.jsonl", self.name()), &jsonl);
    }
}

/// Writes `body` to `target/bench/<file>`; a failure is reported, not
/// fatal, since the results are also printed.
fn write_output(file: &str, body: &str) {
    let dir = std::path::Path::new("target/bench");
    let result = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(dir.join(file), body));
    if let Err(e) = result {
        eprintln!("warning: could not write target/bench/{file}: {e}");
    }
}

fn run(args: &RunArgs) -> bool {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let mut runs: Vec<WorkloadRun> = args
        .workloads
        .iter()
        .map(|&w| WorkloadRun::new(w, args.seed))
        .collect();

    let setup_reps = if args.quick { 1 } else { SETUP_REPS };
    let setups =
        |runs: &mut [WorkloadRun]| -> f64 { runs.iter_mut().map(|run| run.setup(args.seed)).sum() };
    // The first set-up is also the unmeasured warm-up campaign; the others
    // are spread over the measured rounds, so one burst of neighbouring
    // load cannot cover most of them.
    let mut setup_totals = vec![setups(&mut runs)];
    let target = if args.quick {
        QUICK_CAMPAIGNS
    } else {
        CAMPAIGNS
    };
    let start = Instant::now();
    let mut next_setup = SETUP_SPACING_S;
    let mut round = 0;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let done = match args.seconds {
            Some(s) => elapsed >= s,
            None => round >= target,
        };
        if done && round > 0 {
            break;
        }
        if elapsed >= next_setup && setup_totals.len() < setup_reps {
            setup_totals.push(setups(&mut runs));
            next_setup += SETUP_SPACING_S;
        }
        for k in 0..runs.len() {
            let n = runs.len();
            runs[(round + k) % n].measure(round % PLANS_PER_WORKLOAD, args.trace);
        }
        round += 1;
    }
    while setup_totals.len() < setup_reps {
        setup_totals.push(setups(&mut runs));
    }

    for run in &mut runs {
        run.check_outputs(workers);
        if args.trace {
            run.trace_layers(workers);
        }
    }

    let single = runs.len() == 1;
    let mut summary: Vec<Metric> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let label = if single { runs[0].name() } else { "all" };
    let mut records = String::new();
    for run in &runs {
        let e2e = run.end_to_end();
        let diagnostics = run.diagnostics();
        let all: Vec<&Metric> = e2e
            .iter()
            .chain(&diagnostics)
            .chain(&run.layers)
            .chain(&run.layer_details)
            .collect();
        for m in &all {
            println!("{} {} {} {}", run.name(), m.name, m.value, m.unit);
        }
        let summarised = if args.trace { &run.layers } else { &e2e };
        for m in summarised {
            let name = if single {
                m.name.clone()
            } else {
                format!("{}.{}", run.name(), m.name)
            };
            summary.push(Metric { name, ..*m });
        }
        attempted += run.checks;
        failed += run.failures;
        let _ = writeln!(
            records,
            "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"campaigns\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            run.name(),
            args.seed,
            args.trace,
            run.campaign_ns.len(),
            run.failures == 0,
            run.checks,
            run.failures,
            metrics_json(all),
        );
    }
    if !single && !args.trace {
        let setup = metric("setup_s", median(&setup_totals) / 1e9, "s");
        println!("all {} {} {}", setup.name, setup.value, setup.unit);
        summary.push(setup);
    }
    let trace_tag = if args.trace { "-trace" } else { "" };
    write_output(
        &format!("{label}-seed{}{trace_tag}.jsonl", args.seed),
        &records,
    );
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        failed == 0,
        metrics_json(&summary)
    );
    failed == 0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else {
            eprintln!("{USAGE}");
            std::process::exit(2);
        };
        match compare::run(a, b, "BENCHMARK.json") {
            Ok(true) => {}
            Ok(false) => std::process::exit(1),
            Err(e) => {
                eprintln!("compare: {e}");
                std::process::exit(2);
            }
        }
        return;
    }
    let run_args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if !run(&run_args) {
        std::process::exit(1);
    }
}
