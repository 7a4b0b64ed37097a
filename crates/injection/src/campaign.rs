//! Fault-injection campaigns.
//!
//! The paper's outlook asks for "further analysis of fault detection
//! coverage"; a campaign is the instrument: a seeded plan of injection
//! trials across error classes and target runnables, executed by a
//! [`CampaignExecutor`] with a scenario runner (provided by the validator
//! crate) and aggregated into [`CampaignStats`].
//!
//! [`CampaignExecutor`]: crate::executor::CampaignExecutor
//! [`CampaignStats`]: crate::stats::CampaignStats

use crate::injector::{ErrorClass, Injection};
use easis_rte::runnable::RunnableId;
use easis_sim::rng::SimRng;
use easis_sim::time::{Duration, Instant};

/// One planned trial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialSpec {
    /// Seed for any randomness inside the scenario.
    pub seed: u64,
    /// The injection to perform.
    pub injection: Injection,
}

/// A reproducible plan of trials.
#[derive(Debug, Clone, Default)]
pub struct CampaignPlan {
    trials: Vec<TrialSpec>,
}

impl CampaignPlan {
    /// Creates a plan directly from a trial list (for filtered sub-plans
    /// and synthetic plans in tests; seeded plans come from
    /// [`CampaignBuilder`]).
    pub fn from_trials(trials: impl Into<Vec<TrialSpec>>) -> CampaignPlan {
        CampaignPlan {
            trials: trials.into(),
        }
    }

    /// The planned trials.
    pub fn trials(&self) -> &[TrialSpec] {
        &self.trials
    }

    /// Number of planned trials.
    pub fn len(&self) -> usize {
        self.trials.len()
    }

    /// `true` if the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.trials.is_empty()
    }
}

/// Builds seeded campaign plans over a set of target runnables.
#[derive(Debug, Clone)]
pub struct CampaignBuilder {
    rng: SimRng,
    targets: Vec<RunnableId>,
    loop_targets: Vec<RunnableId>,
    trials_per_class: usize,
    inject_from: Instant,
    inject_len: Duration,
    horizon: Instant,
}

impl CampaignBuilder {
    /// Creates a builder over the monitored runnables of the scenario.
    ///
    /// # Panics
    ///
    /// Panics if `targets` is empty.
    pub fn new(seed: u64, targets: Vec<RunnableId>) -> Self {
        assert!(!targets.is_empty(), "need at least one target runnable");
        CampaignBuilder {
            rng: SimRng::seed_from(seed),
            loop_targets: targets.clone(),
            targets,
            trials_per_class: 10,
            inject_from: Instant::from_millis(200),
            inject_len: Duration::from_millis(300),
            horizon: Instant::from_millis(1_000),
        }
    }

    /// Sets the number of trials per error class (default 10).
    pub fn trials_per_class(mut self, n: usize) -> Self {
        self.trials_per_class = n;
        self
    }

    /// Restricts loop-overrun trials to runnables that actually have a
    /// loop term in their cost model (manipulating the loop counter of a
    /// loop-free runnable is a no-op and would dilute coverage numbers).
    ///
    /// # Panics
    ///
    /// Panics if `targets` is empty.
    pub fn loop_targets(mut self, targets: Vec<RunnableId>) -> Self {
        assert!(!targets.is_empty(), "need at least one loop target");
        self.loop_targets = targets;
        self
    }

    /// Sets the injection window start and length.
    pub fn window(mut self, from: Instant, len: Duration) -> Self {
        self.inject_from = from;
        self.inject_len = len;
        self
    }

    /// The simulation horizon trials should run to (past the window, so
    /// end-of-period checks can fire).
    pub fn horizon(&self) -> Instant {
        self.horizon
    }

    /// Sets the simulation horizon.
    pub fn with_horizon(mut self, horizon: Instant) -> Self {
        self.horizon = horizon;
        self
    }

    fn pick_target(&mut self) -> RunnableId {
        *self.rng.pick(&self.targets)
    }

    fn make_class(&mut self, kind: usize) -> ErrorClass {
        let runnable = self.pick_target();
        match kind {
            0 => ErrorClass::ExecutionSlowdown {
                runnable,
                // 5×–400× nominal: from budget-only overruns up to
                // period-crossing starvation and CPU saturation.
                scale_ppm: self.rng.next_in(5, 400) * 1_000_000,
            },
            1 => ErrorClass::HeartbeatLoss { runnable },
            2 => ErrorClass::SkipRunnable { runnable },
            3 => ErrorClass::DuplicateDispatch {
                runnable,
                extra: self.rng.next_in(2, 6) as u32,
            },
            _ => ErrorClass::LoopOverrun {
                runnable: *self.rng.pick(&self.loop_targets),
                iterations: self.rng.next_in(2_000, 30_000) as u32,
            },
        }
    }

    /// Builds a plan covering the five runnable-level error classes.
    pub fn build(mut self) -> CampaignPlan {
        let mut trials = Vec::new();
        for kind in 0..5 {
            for _ in 0..self.trials_per_class {
                let class = self.make_class(kind);
                // Jitter the window start to decorrelate from task phases.
                let jitter = Duration::from_micros(self.rng.next_below(10_000));
                let from = self.inject_from + jitter;
                let to = from + self.inject_len;
                trials.push(TrialSpec {
                    seed: self.rng.next_u64(),
                    injection: Injection::new(class, from, to),
                });
            }
        }
        CampaignPlan { trials }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::CampaignExecutor;
    use crate::stats::{DetectorId, TrialOutcome};

    fn targets() -> Vec<RunnableId> {
        (0..3).map(RunnableId).collect()
    }

    #[test]
    fn plan_covers_all_classes_with_requested_trials() {
        let plan = CampaignBuilder::new(1, targets())
            .trials_per_class(4)
            .build();
        assert_eq!(plan.len(), 20);
        let tags: std::collections::BTreeSet<&str> = plan
            .trials()
            .iter()
            .map(|t| t.injection.class.tag())
            .collect();
        assert_eq!(tags.len(), 5);
    }

    #[test]
    fn plans_are_reproducible_per_seed() {
        let a = CampaignBuilder::new(42, targets()).build();
        let b = CampaignBuilder::new(42, targets()).build();
        assert_eq!(a.trials(), b.trials());
        let c = CampaignBuilder::new(43, targets()).build();
        assert_ne!(a.trials(), c.trials());
    }

    #[test]
    fn windows_land_in_the_configured_range() {
        let plan = CampaignBuilder::new(7, targets())
            .window(Instant::from_millis(100), Duration::from_millis(50))
            .build();
        for t in plan.trials() {
            assert!(t.injection.from >= Instant::from_millis(100));
            assert!(t.injection.from < Instant::from_millis(110));
            assert_eq!(t.injection.to - t.injection.from, Duration::from_millis(50));
        }
    }

    #[test]
    fn loop_overruns_draw_from_the_loop_targets_and_the_other_classes_from_the_targets() {
        let plan = CampaignBuilder::new(5, targets())
            .loop_targets(vec![RunnableId(7)])
            .build();
        for t in plan.trials() {
            let class = &t.injection.class;
            let runnable = class.target_runnable().expect("a runnable-level class");
            if let ErrorClass::LoopOverrun { .. } = class {
                assert_eq!(runnable, RunnableId(7));
            } else {
                assert!(targets().contains(&runnable), "{class:?}");
            }
        }
    }

    #[test]
    fn run_aggregates_outcomes() {
        let plan = CampaignBuilder::new(3, targets())
            .trials_per_class(2)
            .build();
        let stats = CampaignExecutor::serial().run(&plan, |trial| {
            let mut o = TrialOutcome::new(trial.injection.class.tag());
            o.record(DetectorId::SwAliveness, Duration::from_millis(10));
            o
        });
        assert_eq!(stats.len(), 10);
        for class in stats.classes() {
            assert_eq!(stats.coverage(class, DetectorId::SwAliveness), 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one target")]
    fn empty_targets_rejected() {
        let _ = CampaignBuilder::new(1, vec![]);
    }
}
