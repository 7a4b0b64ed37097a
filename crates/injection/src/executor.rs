//! Parallel, deterministic campaign execution.
//!
//! The serial [`CampaignPlan::run`] walks trials one by one; a realistic
//! coverage analysis (the paper's outlook asks for "further analysis of
//! fault detection coverage") needs thousands of trials, each simulating a
//! full central node to its horizon. Trials are hermetic — every one
//! builds its own node world from its [`TrialSpec`] — so they
//! parallelise embarrassingly. [`CampaignExecutor`] fans a plan's chunks
//! across a pool of worker threads and merges the outcomes **by trial
//! index**, so the resulting [`CampaignStats`] is bit-identical to a
//! serial run regardless of worker count, chunk size or thread scheduling.
//!
//! Work distribution is **statically striped**: the plan's chunks are
//! assigned round-robin to workers up front, so a worker owns its whole
//! stripe from the moment it spawns — no shared work queue, no channel
//! receive per chunk. Each worker hands its results over exactly once,
//! when its thread is joined, regardless of plan size. (The earlier
//! shared-queue design paid one channel round-trip per chunk, which on a
//! single-core host was enough synchronization to make two workers
//! *slower* than one.) Campaign trials are near-uniform in cost, so
//! dynamic rebalancing buys nothing here.
//!
//! [`CampaignExecutor::run_chunked`] exposes the chunk boundary to the
//! runner: the whole contiguous chunk of specs is handed over in one call,
//! so a runner can amortize per-chunk work — the validator's forked
//! campaign runner sorts each chunk by fork tick and tail key, forks
//! trials from golden-prefix snapshots instead of re-simulating the
//! prefix, and simulates each run of identical tails once.
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
//! let parallel = CampaignExecutor::new(4).with_chunk_size(3).run(&plan, runner);
//! assert_eq!(serial, parallel);
//! ```

use crate::campaign::{CampaignPlan, TrialSpec};
use crate::stats::{CampaignStats, TrialOutcome};

/// Executes campaign plans across a fixed pool of worker threads with
/// deterministic (order-independent) result aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignExecutor {
    workers: usize,
    /// Trials per chunk; 0 = auto-size from the plan.
    chunk: usize,
}

impl CampaignExecutor {
    /// A single-threaded executor; behaves exactly like
    /// [`CampaignPlan::run`].
    pub fn serial() -> Self {
        CampaignExecutor { workers: 1, chunk: 0 }
    }

    /// An executor with `workers` threads (clamped to at least 1) and
    /// automatic chunk sizing.
    pub fn new(workers: usize) -> Self {
        CampaignExecutor {
            workers: workers.max(1),
            chunk: 0,
        }
    }

    /// Sets the number of trial specs per chunk. `0` restores automatic
    /// sizing (≈ 4 chunks per worker, clamped to 1..=64). The merged stats
    /// are bit-identical for every chunk size. The knob sets the stripe
    /// granularity — how evenly the up-front round-robin spreads the plan
    /// over the workers — and, at more than one worker, which trials share
    /// a chunk runner call: a chunk runner can only reuse work (such as a
    /// golden-prefix checkpoint or a collapsed twin tail) within a chunk.
    /// One worker always runs the whole plan as one chunk.
    pub fn with_chunk_size(mut self, chunk: usize) -> Self {
        self.chunk = chunk;
        self
    }

    /// An executor sized by the `EASIS_WORKERS` environment variable
    /// (worker count), falling back to the machine's available
    /// parallelism, and chunked by `EASIS_CHUNK` (trials per chunk,
    /// 0/unset = auto). A set-but-invalid value (unparsable, or a
    /// worker count of 0) is rejected with a warning on stderr rather
    /// than silently ignored, then the fallback applies.
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
        let chunk = match std::env::var("EASIS_CHUNK") {
            Ok(raw) => match raw.parse::<usize>() {
                Ok(n) => n,
                Err(_) => {
                    eprintln!("warning: EASIS_CHUNK={raw:?} is not a number; using auto chunking");
                    0
                }
            },
            Err(_) => 0,
        };
        CampaignExecutor::new(workers).with_chunk_size(chunk)
    }

    /// Number of worker threads this executor uses.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Configured trials per chunk (0 = auto).
    pub fn chunk_size(&self) -> usize {
        self.chunk
    }

    /// The chunk size actually used for a plan of `trials` trials.
    fn effective_chunk(&self, trials: usize) -> usize {
        if self.chunk > 0 {
            return self.chunk;
        }
        // Auto: ~4 chunks per worker spread each stripe over the whole
        // plan; at least 1 trial so tiny plans still parallelise, at most
        // 64 so long plans stripe finely.
        (trials / (self.workers * 4)).clamp(1, 64)
    }

    /// Runs every trial of `plan` through `runner` and aggregates the
    /// outcomes into [`CampaignStats`].
    ///
    /// Determinism guarantee: outcomes are merged in **trial index
    /// order**, never completion order, so for any pure `runner` (one
    /// whose outcome depends only on the [`TrialSpec`]) the returned
    /// stats — and any report or JSON derived from them — are
    /// bit-identical across worker counts, chunk sizes and runs.
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

    /// Like [`CampaignExecutor::run`], but hands the runner a whole
    /// contiguous **chunk** of trial specs at once and expects one outcome
    /// per spec, in spec order. A chunk runner may reorder the trials
    /// *internally* (e.g. by fork tick and tail key, to share golden-prefix
    /// snapshots and collapse identical tails) as long as the returned
    /// vector lines up with the input slice.
    ///
    /// Chunks are striped round-robin across the worker pool before any
    /// thread spawns; each worker walks its own stripe without touching a
    /// shared queue and returns all its results when joined. One worker
    /// runs the whole plan as a single chunk on the calling thread.
    /// Outcomes are merged by trial index, so the stats are bit-identical
    /// across worker counts and chunk sizes for any pure runner.
    ///
    /// # Panics
    ///
    /// Panics if the runner returns the wrong number of outcomes for a
    /// chunk, and propagates runner panics.
    pub fn run_chunked<F>(&self, plan: &CampaignPlan, chunk_runner: F) -> CampaignStats
    where
        F: Fn(&[TrialSpec]) -> Vec<TrialOutcome> + Sync,
    {
        let trials = plan.trials();
        let (workers, chunk) = if self.workers == 1 {
            (1, trials.len().max(1))
        } else {
            (self.workers.min(trials.len()), self.effective_chunk(trials.len()))
        };
        // Worker `w`'s stripe: chunks w, w+W, … — known entirely up front.
        let stripe = |worker: usize| {
            let mut produced: Vec<(usize, Vec<TrialOutcome>)> = Vec::new();
            for start in (worker * chunk..trials.len()).step_by(chunk * workers) {
                let specs = &trials[start..(start + chunk).min(trials.len())];
                let outcomes = chunk_runner(specs);
                assert_eq!(
                    outcomes.len(),
                    specs.len(),
                    "chunk runner must return one outcome per spec"
                );
                produced.push((start, outcomes));
            }
            produced
        };
        let stripes: Vec<Vec<(usize, Vec<TrialOutcome>)>> = if workers <= 1 {
            (0..workers).map(stripe).collect()
        } else {
            crossbeam::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|worker| {
                        let stripe = &stripe;
                        scope.spawn(move || stripe(worker))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
                    .collect()
            })
            .expect("campaign worker panicked")
        };

        // Merge by trial index: completion order is scheduling noise.
        let mut slots: Vec<Option<TrialOutcome>> = vec![None; trials.len()];
        for (start, outcomes) in stripes.into_iter().flatten() {
            for (offset, outcome) in outcomes.into_iter().enumerate() {
                debug_assert!(
                    slots[start + offset].is_none(),
                    "trial {} ran twice",
                    start + offset
                );
                slots[start + offset] = Some(outcome);
            }
        }
        let mut stats = CampaignStats::new();
        for (index, slot) in slots.into_iter().enumerate() {
            stats.push(slot.unwrap_or_else(|| panic!("trial {index} produced no outcome")));
        }
        stats
    }
}

impl Default for CampaignExecutor {
    fn default() -> Self {
        CampaignExecutor::from_env()
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
        for workers in [2, 3, 4, 8] {
            let parallel = CampaignExecutor::new(workers).run(&plan, synthetic);
            assert_eq!(serial, parallel, "{workers} workers diverged");
        }
    }

    #[test]
    fn every_chunk_size_matches_serial_exactly() {
        let plan = plan();
        let serial = CampaignExecutor::serial().run(&plan, synthetic);
        for chunk in [1, 2, 3, 5, 7, 24, 100] {
            let chunked = CampaignExecutor::new(4).with_chunk_size(chunk).run(&plan, synthetic);
            assert_eq!(serial, chunked, "chunk size {chunk} diverged");
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
                // Process the chunk back-to-front internally; return in
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
    fn auto_chunk_is_bounded() {
        let exec = CampaignExecutor::new(4);
        assert_eq!(exec.chunk_size(), 0);
        assert_eq!(exec.effective_chunk(0), 1);
        assert_eq!(exec.effective_chunk(8), 1);
        assert_eq!(exec.effective_chunk(1000), 62);
        assert_eq!(exec.effective_chunk(1_000_000), 64);
        assert_eq!(CampaignExecutor::new(4).with_chunk_size(7).effective_chunk(1000), 7);
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
