//! Campaign outcomes are allocation-free: once a worker's pooled node is
//! warm, the heap blocks a `run_plan` campaign allocates do not grow with
//! its trial count, even when every trial detects. Each outcome keeps its
//! detections in inline slots, so a campaign allocates its outcome vector
//! and its trial order and nothing per trial.
//!
//! The counting global allocator covers the whole test binary, so this
//! file holds this one test; it counts only the allocations of the
//! thread that runs the campaigns.

use easis::injection::{CampaignExecutor, CampaignPlan, ErrorClass, Injection, TrialSpec};
use easis::rte::runnable::RunnableId;
use easis::sim::time::{Duration, Instant};
use easis::validator::scenario::run_plan;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Heap blocks allocated or reallocated by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // A thread tearing down its locals may still allocate; skip it then.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// count is a statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// How long each trial's injection stays armed.
const HOLD: Duration = Duration::from_millis(100);

/// `trials` detecting trials, heartbeat losses and skipped runnables in
/// turn across the node's runnables, each armed at its own tick so that
/// no two share a tail and every trial simulates.
fn detecting_plan(trials: u64) -> CampaignPlan {
    CampaignPlan::from_trials(
        (0..trials)
            .map(|i| {
                let runnable = RunnableId((i % 9) as u32);
                let class = if i % 2 == 0 {
                    ErrorClass::HeartbeatLoss { runnable }
                } else {
                    ErrorClass::SkipRunnable { runnable }
                };
                let from = Instant::from_millis(100 + 3 * i);
                TrialSpec {
                    seed: i,
                    injection: Injection::new(class, from, from + HOLD),
                }
            })
            .collect::<Vec<_>>(),
    )
}

#[test]
fn campaign_allocations_do_not_grow_with_detecting_trials() {
    const N: u64 = 8;
    let horizon = Instant::from_millis(500);
    let exec = CampaignExecutor::serial();
    let (small, large) = (detecting_plan(N), detecting_plan(4 * N));
    // Warm the pooled node, its checkpoints and detection log on both
    // campaigns, so every buffer has reached the capacity they need.
    for plan in [&large, &small] {
        let stats = run_plan(plan, horizon, &exec);
        assert!(
            stats.trials().iter().all(|t| !t.detections.is_empty()),
            "every trial must detect: {:?}",
            stats.trials()
        );
    }
    let allocations_of = |plan: &CampaignPlan| {
        let before = allocations();
        let stats = run_plan(plan, horizon, &exec);
        let allocated = allocations() - before;
        assert_eq!(stats.len(), plan.len());
        allocated
    };
    let (of_small, of_large) = (allocations_of(&small), allocations_of(&large));
    assert_eq!(
        of_small,
        of_large,
        "a campaign of {N} detecting trials allocated {of_small} heap blocks, one of {} \
         allocated {of_large}",
        4 * N
    );
}
