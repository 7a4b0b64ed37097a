//! Parallel, deterministic campaign execution.
//!
//! A realistic coverage analysis (the paper's outlook asks for "further
//! analysis of fault detection coverage") needs thousands of trials, each
//! simulating a full central node to its horizon. A trial's outcome
//! depends only on its [`TrialSpec`], so trials parallelise
//! embarrassingly. [`CampaignExecutor`] cuts a plan into one contiguous
//! **share** per worker, in plan order: the calling thread runs the first
//! share and scoped threads run the others. The shares' outcomes are
//! appended in plan order, so the resulting [`CampaignStats`] is
//! bit-identical to a serial run regardless of worker count or thread
//! scheduling.
//!
//! A worker owns its whole share from the moment it spawns — no shared
//! work queue, no channel — and hands its results over exactly once, when
//! its thread is joined. Shares are equal in trial count, not in cost:
//! plans are blocked by error class, and one class's tails can take longer
//! than another's. No knob rebalances them.
//!
//! [`CampaignExecutor::run_chunked`] hands the runner a worker's whole
//! share in one call, so a runner can amortize per-share work — the
//! validator's forked campaign runner sorts the share by fork tick and
//! tail key, forks trials from golden-prefix snapshots instead of
//! re-simulating the prefix, and simulates each run of identical tails
//! once.
//!
//! ```
//! use easis_injection::campaign::CampaignBuilder;
//! use easis_injection::executor::CampaignExecutor;
//! use easis_injection::stats::TrialOutcome;
//! use easis_rte::runnable::RunnableId;
//!
//! let plan = CampaignBuilder::new(7, vec![RunnableId(0)]).trials_per_class(2).build();
//! let runner = |spec: &easis_injection::campaign::TrialSpec| {
//!     TrialOutcome::new(spec.injection.class.tag())
//! };
//! let serial = CampaignExecutor::serial().run(&plan, runner);
//! let parallel = CampaignExecutor::new(4).run(&plan, runner);
//! assert_eq!(serial, parallel);
//! ```

use crate::campaign::{CampaignPlan, TrialSpec};
use crate::stats::{CampaignStats, TrialOutcome};

/// Executes campaign plans on up to `workers` threads, one contiguous
/// share of the plan each, with deterministic (plan-order) result
/// aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignExecutor {
    workers: usize,
}

impl CampaignExecutor {
    /// A single-threaded executor: the whole plan runs as one share on the
    /// calling thread.
    pub fn serial() -> Self {
        CampaignExecutor { workers: 1 }
    }

    /// An executor with `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        CampaignExecutor {
            workers: workers.max(1),
        }
    }

    /// An executor sized by the `EASIS_WORKERS` environment variable
    /// (worker count), falling back to the machine's available
    /// parallelism. A set-but-invalid value (unparsable, or a worker count
    /// of 0) is rejected with a warning on stderr rather than silently
    /// ignored, then the fallback applies.
    pub fn from_env() -> Self {
        let workers = match std::env::var("EASIS_WORKERS") {
            Ok(raw) => match raw.parse::<usize>() {
                Ok(n) if n > 0 => Some(n),
                Ok(_) => {
                    eprintln!(
                        "warning: EASIS_WORKERS=0 is invalid (need a positive worker count); \
                         falling back to available parallelism"
                    );
                    None
                }
                Err(_) => {
                    eprintln!(
                        "warning: EASIS_WORKERS={raw:?} is not a number; \
                         falling back to available parallelism"
                    );
                    None
                }
            },
            Err(_) => None,
        };
        let workers = workers.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        CampaignExecutor::new(workers)
    }

    /// Number of worker threads this executor uses.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs every trial of `plan` through `runner` and aggregates the
    /// outcomes into [`CampaignStats`].
    ///
    /// Determinism guarantee: outcomes are kept in **plan order**, never
    /// completion order, so for any pure `runner` (one whose outcome
    /// depends only on the [`TrialSpec`]) the returned stats — and any
    /// report or JSON derived from them — are bit-identical across worker
    /// counts and runs.
    ///
    /// # Panics
    ///
    /// Propagates panics from `runner` (a poisoned trial aborts the
    /// campaign rather than silently skewing coverage numbers).
    pub fn run<F>(&self, plan: &CampaignPlan, runner: F) -> CampaignStats
    where
        F: Fn(&TrialSpec) -> TrialOutcome + Sync,
    {
        self.run_chunked(plan, |specs| specs.iter().map(&runner).collect())
    }

    /// Like [`CampaignExecutor::run`], but hands the runner a worker's
    /// whole **share** of trial specs at once and expects one outcome per
    /// spec, in spec order. A share runner may reorder the trials
    /// *internally* (e.g. by fork tick and tail key, to share golden-prefix
    /// snapshots and collapse identical tails) as long as the returned
    /// vector lines up with the input slice.
    ///
    /// The plan is cut in plan order into at most `min(workers, trials)`
    /// contiguous, non-empty shares of at most ⌈trials / workers⌉ trials
    /// each; an empty plan calls the runner not at all. The calling thread
    /// runs the first share, a scoped thread each other one, and the
    /// shares' outcomes are appended in plan order, so the stats are
    /// bit-identical across worker counts for any pure runner.
    ///
    /// # Panics
    ///
    /// Panics if the runner returns the wrong number of outcomes for a
    /// share, and propagates runner panics.
    pub fn run_chunked<F>(&self, plan: &CampaignPlan, share_runner: F) -> CampaignStats
    where
        F: Fn(&[TrialSpec]) -> Vec<TrialOutcome> + Sync,
    {
        let trials = plan.trials();
        let run_share = |specs: &[TrialSpec]| {
            let outcomes = share_runner(specs);
            assert_eq!(
                outcomes.len(),
                specs.len(),
                "share runner must return one outcome per spec"
            );
            outcomes
        };
        let mut shares = trials.chunks(trials.len().div_ceil(self.workers).max(1));
        let first = shares.next();
        std::thread::scope(|scope| {
            let run_share = &run_share;
            let others: Vec<_> = shares
                .map(|specs| scope.spawn(move || run_share(specs)))
                .collect();
            let mut outcomes = first.map(run_share).unwrap_or_default();
            for other in others {
                let mut tail = other
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                outcomes.append(&mut tail);
            }
            CampaignStats::from(outcomes)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignBuilder;
    use crate::stats::DetectorId;
    use easis_rte::runnable::RunnableId;
    use easis_sim::rng::SimRng;
    use easis_sim::time::Duration;
    use std::sync::Mutex;

    /// A cheap runner whose outcome is a pure function of the spec.
    fn synthetic(spec: &TrialSpec) -> TrialOutcome {
        let mut rng = SimRng::seed_from(spec.seed);
        let mut outcome = TrialOutcome::new(spec.injection.class.tag());
        for detector in DetectorId::ALL {
            if rng.next_below(100) < 60 {
                outcome.record(detector, Duration::from_micros(rng.next_in(100, 50_000)));
            }
        }
        outcome
    }

    fn plan() -> CampaignPlan {
        CampaignBuilder::new(0xFEED, (0..4).map(RunnableId).collect())
            .trials_per_class(6)
            .build()
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let plan = plan();
        let serial = CampaignExecutor::serial().run(&plan, synthetic);
        // Up to one trial per worker (30 trials) and past it.
        for workers in [2, 3, 4, 5, 7, 8, 24, 30, 100] {
            let parallel = CampaignExecutor::new(workers).run(&plan, synthetic);
            assert_eq!(serial, parallel, "{workers} workers diverged");
        }
    }

    #[test]
    fn each_worker_runs_one_contiguous_share_in_plan_order() {
        for trials in [0, 1, 4, 10, 25] {
            // Seeds number the trials, so a share names its plan indices.
            let plan = CampaignPlan::from_trials(
                plan().trials()[..trials]
                    .iter()
                    .enumerate()
                    .map(|(index, spec)| TrialSpec {
                        seed: index as u64,
                        ..spec.clone()
                    })
                    .collect::<Vec<_>>(),
            );
            let serial = CampaignExecutor::serial().run(&plan, synthetic);
            for workers in 1..=5 {
                let shares = Mutex::new(Vec::new());
                let stats = CampaignExecutor::new(workers).run_chunked(&plan, |specs| {
                    let indices: Vec<u64> = specs.iter().map(|spec| spec.seed).collect();
                    shares.lock().unwrap().push(indices);
                    specs.iter().map(synthetic).collect()
                });
                assert_eq!(stats, serial, "{workers} workers × {trials} trials");
                let mut shares = shares.into_inner().unwrap();
                assert!(
                    shares.len() <= workers.min(trials),
                    "{workers} workers × {trials} trials made {} runner calls",
                    shares.len()
                );
                for share in &shares {
                    assert!(!share.is_empty(), "empty share at {workers} workers");
                    assert!(share.len() <= trials.div_ceil(workers));
                    assert!(
                        share.windows(2).all(|pair| pair[1] == pair[0] + 1),
                        "share {share:?} is not contiguous"
                    );
                }
                shares.sort();
                let covered: Vec<u64> = shares.concat();
                assert_eq!(covered, (0..trials as u64).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn outcomes_are_in_trial_index_order() {
        let plan = plan();
        let stats = CampaignExecutor::new(4).run(&plan, synthetic);
        assert_eq!(stats.len(), plan.len());
        for (trial, outcome) in plan.trials().iter().zip(stats.trials()) {
            assert_eq!(trial.injection.class.tag(), &*outcome.class);
        }
    }

    #[test]
    fn run_chunked_matches_run_for_any_worker_count() {
        let plan = plan();
        let serial = CampaignExecutor::serial().run(&plan, synthetic);
        for workers in [1, 2, 4, 8] {
            let chunked = CampaignExecutor::new(workers).run_chunked(&plan, |specs| {
                // Process the share back-to-front internally; return in
                // spec order — the contract run_chunked requires.
                let mut out: Vec<Option<TrialOutcome>> = specs.iter().map(|_| None).collect();
                for (i, spec) in specs.iter().enumerate().rev() {
                    out[i] = Some(synthetic(spec));
                }
                out.into_iter().map(Option::unwrap).collect()
            });
            assert_eq!(serial, chunked, "{workers} workers diverged");
        }
    }

    #[test]
    #[should_panic(expected = "one outcome per spec")]
    fn run_chunked_rejects_short_outcome_vectors() {
        let plan = plan();
        let _ = CampaignExecutor::serial()
            .run_chunked(&plan, |specs| specs.iter().skip(1).map(synthetic).collect());
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        assert_eq!(CampaignExecutor::new(0).workers(), 1);
    }

    #[test]
    fn empty_plan_yields_empty_stats() {
        let stats = CampaignExecutor::new(4).run(&CampaignPlan::default(), synthetic);
        assert!(stats.is_empty());
    }

    #[test]
    fn more_workers_than_trials_is_fine() {
        let plan = CampaignBuilder::new(9, vec![RunnableId(0)])
            .trials_per_class(1)
            .build();
        let stats = CampaignExecutor::new(64).run(&plan, synthetic);
        assert_eq!(stats.len(), plan.len());
    }
}
