//! Pooled campaign nodes outlive the executor's scoped threads: once the
//! pool has warmed up, a two-worker `run_plan` call builds no node, though
//! its second share runs on a thread spawned for that call.
//!
//! The counting global allocator covers the whole test binary and counts
//! the allocations of every thread, so this file holds this one test.

use easis::injection::{CampaignBuilder, CampaignExecutor};
use easis::rte::runnable::RunnableId;
use easis::sim::time::{Duration, Instant};
use easis::validator::scenario::{campaign_node_config, run_plan};
use easis::validator::CentralNode;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

/// Heap blocks allocated or reallocated by any thread.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// count is a statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
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

#[test]
fn parallel_campaigns_reuse_the_pooled_nodes() {
    let horizon = Instant::from_millis(600);
    let plan = CampaignBuilder::new(5, (0..9).map(RunnableId).collect())
        .trials_per_class(2)
        .window(Instant::from_millis(300), Duration::from_millis(100))
        .with_horizon(horizon)
        .build();
    let executor = CampaignExecutor::new(2);

    // What a share pays for a node the pool cannot give it: build, start
    // and capture at t=0.
    let before = allocations();
    let mut node = CentralNode::build(campaign_node_config());
    node.start();
    let cold = node.snapshot();
    let node_build = allocations() - before;
    drop((node, cold));

    let warm = run_plan(&plan, horizon, &executor);
    let before = allocations();
    for call in 0..10 {
        assert_eq!(run_plan(&plan, horizon, &executor), warm, "call {call}");
    }
    let ten_calls = allocations() - before;
    assert!(
        ten_calls < 3 * node_build,
        "ten warm 2-worker campaigns allocated {ten_calls} blocks; \
         one node build allocates {node_build}"
    );
}
