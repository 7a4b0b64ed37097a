//! Seeded campaign plans, one generator per workload.
//!
//! Every plan is a pure function of the workload, the `--seed` and the
//! plan index, built only through the public `CampaignBuilder`,
//! `CampaignPlan::from_trials` and `SimRng`. Each workload shapes its
//! trials so that a particular engine layer does (or cannot do) its work;
//! README.md gives the reasons.

use easis_injection::campaign::{CampaignBuilder, CampaignPlan, TrialSpec};
use easis_injection::injector::{ErrorClass, Injection};
use easis_rte::runnable::RunnableId;
use easis_sim::rng::SimRng;
use easis_sim::time::{Duration, Instant};
use std::collections::BTreeSet;

/// Plans each workload cycles through per run.
pub const PLANS_PER_WORKLOAD: usize = 4;

/// Monitored runnables every workload targets (the golden T-COV set).
const TARGETS: u32 = 9;

/// Runnables with a loop term in their cost model.
const LOOP_TARGETS: [RunnableId; 2] = [RunnableId(4), RunnableId(7)];

/// The four workloads, in the order a round starts from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Tcov,
    Spread,
    LongTail,
    Armed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Tcov,
        Workload::Spread,
        Workload::LongTail,
        Workload::Armed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Tcov => "tcov",
            Workload::Spread => "spread",
            Workload::LongTail => "long_tail",
            Workload::Armed => "armed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated horizon every trial of the workload runs to.
    pub fn horizon(self) -> Instant {
        match self {
            Workload::LongTail => Instant::from_millis(20_000),
            _ => Instant::from_millis(1_500),
        }
    }

    /// Plan `index` of the workload for `seed`.
    pub fn plan(self, seed: u64, index: usize) -> CampaignPlan {
        let tag = Workload::ALL
            .iter()
            .position(|&w| w == self)
            .expect("every workload is listed in ALL") as u64;
        let mut rng = SimRng::seed_from(seed)
            .derive(tag + 1)
            .derive(index as u64 + 1);
        match self {
            Workload::Tcov => tcov(rng.next_u64()),
            Workload::Spread => spread(&mut rng),
            Workload::LongTail => long_tail(&mut rng),
            Workload::Armed => armed(&mut rng, self.horizon()),
        }
    }

    /// The [`PLANS_PER_WORKLOAD`] plans of one run.
    pub fn plans(self, seed: u64) -> Vec<CampaignPlan> {
        (0..PLANS_PER_WORKLOAD)
            .map(|i| self.plan(seed, i))
            .collect()
    }
}

/// The golden T-COV plan shape: 200 trials per class, window 300 ms plus
/// up to 10 ms jitter, 400 ms long.
fn tcov(seed: u64) -> CampaignPlan {
    CampaignBuilder::new(seed, (0..TARGETS).map(RunnableId).collect())
        .loop_targets(LOOP_TARGETS.to_vec())
        .trials_per_class(200)
        .window(Instant::from_millis(300), Duration::from_millis(400))
        .with_horizon(Workload::Tcov.horizon())
        .build()
}

/// One error class of kind `kind` (0..5, `CampaignBuilder`'s order) with
/// `CampaignBuilder`'s parameter ranges.
fn draw_class(rng: &mut SimRng, kind: usize) -> ErrorClass {
    let runnable = RunnableId(rng.next_below(u64::from(TARGETS)) as u32);
    match kind {
        0 => ErrorClass::ExecutionSlowdown {
            runnable,
            scale_ppm: rng.next_in(5, 400) * 1_000_000,
        },
        1 => ErrorClass::HeartbeatLoss { runnable },
        2 => ErrorClass::SkipRunnable { runnable },
        3 => ErrorClass::DuplicateDispatch {
            runnable,
            extra: rng.next_in(2, 6) as u32,
        },
        _ => ErrorClass::LoopOverrun {
            runnable: *rng.pick(&LOOP_TARGETS),
            iterations: rng.next_in(2_000, 30_000) as u32,
        },
    }
}

fn trial(rng: &mut SimRng, class: ErrorClass, from_us: u64, to_us: u64) -> TrialSpec {
    TrialSpec {
        seed: rng.next_u64(),
        injection: Injection::new(
            class,
            Instant::from_micros(from_us),
            Instant::from_micros(to_us),
        ),
    }
}

/// 1 000 trials whose arming ticks are all distinct: a sample without
/// replacement of the 1 400 millisecond ticks in [0, 1 400) ms, each start
/// placed uniformly inside its tick. Lengths are 5–200 ms.
fn spread(rng: &mut SimRng) -> CampaignPlan {
    const TRIALS: usize = 1_000;
    let mut ticks: Vec<u64> = (0..1_400).collect();
    for i in 0..TRIALS {
        let j = i + rng.next_below((ticks.len() - i) as u64) as usize;
        ticks.swap(i, j);
    }
    let trials = ticks[..TRIALS]
        .iter()
        .enumerate()
        .map(|(i, &tick)| {
            let class = draw_class(rng, i % 5);
            // Any start in ((tick - 1) ms, tick ms] arms on `tick`.
            let from = if tick == 0 {
                0
            } else {
                tick * 1_000 - rng.next_below(1_000)
            };
            let len = rng.next_in(5_000, 200_000);
            trial(rng, class, from, from + len)
        })
        .collect::<Vec<_>>();
    CampaignPlan::from_trials(trials)
}

/// 1 000 short injections early in a 20 s horizon, so every trial's tail
/// crosses the 2^24 µs timer-wheel rotation.
fn long_tail(rng: &mut SimRng) -> CampaignPlan {
    let trials = (0..1_000)
        .map(|i| {
            let class = draw_class(rng, i % 5);
            let from = 100_000 + rng.next_below(10_000);
            let len = rng.next_in(10_000, 30_000);
            trial(rng, class, from, from + len)
        })
        .collect::<Vec<_>>();
    CampaignPlan::from_trials(trials)
}

/// 400 injections that arm within the first 5 ms and stay armed past the
/// horizon. Only the classes with a parameter (slowdown, duplicate
/// dispatch, loop overrun) are drawn, and a draw whose tail key already
/// occurred is redrawn, so no trial can be collapsed onto another.
fn armed(rng: &mut SimRng, horizon: Instant) -> CampaignPlan {
    let to = horizon.as_micros() + 500_000;
    let mut seen = BTreeSet::new();
    let trials = (0..400)
        .map(|i| loop {
            let class = draw_class(rng, [0, 3, 4][i % 3]);
            let from = rng.next_below(5_000);
            if seen.insert((class.clone(), ceil_to_tick(Instant::from_micros(from)))) {
                break trial(rng, class, from, to);
            }
        })
        .collect::<Vec<_>>();
    CampaignPlan::from_trials(trials)
}

/// The first whole-millisecond tick at or after `at`.
fn ceil_to_tick(at: Instant) -> Instant {
    Instant::from_micros(at.as_micros().div_ceil(1_000) * 1_000)
}

/// The tick the campaign engine arms a trial on (its fork point), clamped
/// to the horizon.
pub fn fork_tick(spec: &TrialSpec, horizon: Instant) -> Instant {
    ceil_to_tick(spec.injection.from).min(horizon)
}

/// The tick the campaign engine disarms a trial on: the first tick at or
/// after `to` that follows the arming tick, or `None` when the injection
/// is still armed at the horizon (or never arms).
pub fn disarm_tick(spec: &TrialSpec, horizon: Instant) -> Option<Instant> {
    if ceil_to_tick(spec.injection.from) > horizon {
        return None;
    }
    let fork = fork_tick(spec, horizon);
    let disarm = ceil_to_tick(spec.injection.to).max(fork + Duration::from_millis(1));
    (disarm <= horizon).then_some(disarm)
}

/// Share of trials whose (class, arming tick, disarming tick) already
/// occurred earlier in the plan: the trials tail collapsing can answer
/// without simulating.
pub fn twin_fraction(plan: &CampaignPlan, horizon: Instant) -> f64 {
    let mut seen = BTreeSet::new();
    let twins = plan
        .trials()
        .iter()
        .filter(|t| {
            !seen.insert((
                t.injection.class.clone(),
                fork_tick(t, horizon),
                disarm_tick(t, horizon),
            ))
        })
        .count();
    twins as f64 / plan.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_plans_and_another_seed_differs() {
        for w in Workload::ALL {
            let a = w.plans(7);
            let b = w.plans(7);
            let c = w.plans(8);
            for i in 0..PLANS_PER_WORKLOAD {
                assert_eq!(a[i].trials(), b[i].trials(), "{}", w.name());
                assert_ne!(a[i].trials(), c[i].trials(), "{}", w.name());
            }
            assert_ne!(a[0].trials(), a[1].trials(), "{}", w.name());
        }
    }

    #[test]
    fn spread_has_no_twins_and_distinct_fork_ticks() {
        for seed in [1, 2, 3] {
            let plan = Workload::Spread.plan(seed, 0);
            let horizon = Workload::Spread.horizon();
            assert_eq!(plan.len(), 1_000);
            assert_eq!(twin_fraction(&plan, horizon), 0.0);
            let forks: BTreeSet<Instant> = plan
                .trials()
                .iter()
                .map(|t| fork_tick(t, horizon))
                .collect();
            assert!(forks.len() >= 900, "{} distinct fork ticks", forks.len());
        }
    }

    #[test]
    fn tcov_twins_leave_room_for_collapsing() {
        let plan = Workload::Tcov.plan(1, 0);
        assert_eq!(plan.len(), 1_000);
        let twins = twin_fraction(&plan, Workload::Tcov.horizon());
        assert!(twins >= 0.2, "twin fraction {twins}");
    }

    #[test]
    fn long_tail_crosses_the_timer_wheel_rotation() {
        assert!(Workload::LongTail.horizon().as_micros() > 1 << 24);
    }

    #[test]
    fn armed_trials_stay_armed_to_the_horizon_without_twins() {
        let horizon = Workload::Armed.horizon();
        let plan = Workload::Armed.plan(1, 0);
        assert_eq!(plan.len(), 400);
        for t in plan.trials() {
            assert!(fork_tick(t, horizon) <= Instant::from_millis(5));
            assert_eq!(disarm_tick(t, horizon), None);
        }
        assert_eq!(twin_fraction(&plan, horizon), 0.0);
    }
}
