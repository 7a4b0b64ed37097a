//! Property-based tests (proptest) on the core invariants of the
//! monitoring units and substrates, exercised through the public API.

use easis::baselines::cfcss::{BlockId, CfcssMonitor, CfcssProgram, ControlFlowGraph};
use easis::injection::campaign::{CampaignBuilder, TrialSpec};
use easis::injection::executor::CampaignExecutor;
use easis::injection::stats::{DetectorId, TrialOutcome};
use easis::rte::runnable::RunnableId;
use easis::sim::cpu::CostMeter;
use easis::sim::event::EventQueue;
use easis::sim::rng::SimRng;
use easis::sim::time::{Duration, Instant};
use easis::watchdog::config::{IdIndex, RunnableHypothesis, WatchdogConfig};
use easis::watchdog::heartbeat::HeartbeatMonitor;
use easis::watchdog::pfc::{FlowTable, FlowVerdict, ProgramFlowChecker};
use easis::watchdog::report::{DetectedFault, FaultKind, RunnableCounters};
use easis::watchdog::SoftwareWatchdog;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A cheap trial runner whose outcome is a pure function of the spec —
/// stands in for the (expensive) full-node scenario so the executor
/// property can sweep many plans and worker counts.
fn synthetic_runner(spec: &TrialSpec) -> TrialOutcome {
    let mut rng = SimRng::seed_from(spec.seed);
    let mut outcome = TrialOutcome::new(spec.injection.class.tag());
    for detector in DetectorId::ALL {
        if rng.next_below(100) < 55 {
            outcome.record(detector, Duration::from_micros(rng.next_in(50, 80_000)));
        }
    }
    outcome
}

/// The pre-dense heartbeat data plane, kept verbatim as the reference
/// model: a `BTreeMap` of per-runnable counter structs. The dense
/// `HeartbeatMonitor` must be observationally equivalent to this for
/// every operation sequence.
struct ReferenceHeartbeatMonitor {
    states: BTreeMap<RunnableId, ReferenceState>,
}

struct ReferenceState {
    hypothesis: RunnableHypothesis,
    ac: u32,
    arc: u32,
    cca: u32,
    ccar: u32,
    active: bool,
    aliveness_errors: u32,
    arrival_rate_errors: u32,
}

impl ReferenceState {
    fn new(hypothesis: RunnableHypothesis) -> Self {
        ReferenceState {
            active: hypothesis.initially_active,
            hypothesis,
            ac: 0,
            arc: 0,
            cca: 0,
            ccar: 0,
            aliveness_errors: 0,
            arrival_rate_errors: 0,
        }
    }
}

impl ReferenceHeartbeatMonitor {
    fn new(hypotheses: impl IntoIterator<Item = RunnableHypothesis>) -> Self {
        ReferenceHeartbeatMonitor {
            states: hypotheses
                .into_iter()
                .map(|h| (h.runnable, ReferenceState::new(h)))
                .collect(),
        }
    }

    fn record(&mut self, runnable: RunnableId, costs: &mut CostMeter) {
        costs.charge(easis::watchdog::heartbeat::HEARTBEAT_COST_CYCLES);
        if let Some(st) = self.states.get_mut(&runnable) {
            if st.active {
                st.ac = st.ac.saturating_add(1);
                st.arc = st.arc.saturating_add(1);
            }
        }
    }

    fn end_of_cycle(&mut self, now: Instant, costs: &mut CostMeter) -> Vec<DetectedFault> {
        let mut faults = Vec::new();
        for (&runnable, st) in &mut self.states {
            if !st.active {
                continue;
            }
            costs.charge(easis::watchdog::heartbeat::CHECK_COST_CYCLES);
            if let Some(spec) = st.hypothesis.aliveness {
                st.cca += 1;
                if st.cca >= spec.cycles {
                    if st.ac < spec.min_indications {
                        st.aliveness_errors += 1;
                        faults.push(DetectedFault { at: now, runnable, kind: FaultKind::Aliveness });
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
                        faults.push(DetectedFault { at: now, runnable, kind: FaultKind::ArrivalRate });
                    }
                    st.arc = 0;
                    st.ccar = 0;
                }
            }
        }
        faults
    }

    fn reconfigure(&mut self, hypothesis: RunnableHypothesis) {
        match self.states.get_mut(&hypothesis.runnable) {
            Some(st) => {
                st.hypothesis = hypothesis;
                st.ac = 0;
                st.arc = 0;
                st.cca = 0;
                st.ccar = 0;
            }
            None => {
                self.states
                    .insert(hypothesis.runnable, ReferenceState::new(hypothesis));
            }
        }
    }

    fn set_active(&mut self, runnable: RunnableId, active: bool) -> bool {
        match self.states.get_mut(&runnable) {
            Some(st) => {
                st.active = active;
                if !active {
                    st.ac = 0;
                    st.arc = 0;
                    st.cca = 0;
                    st.ccar = 0;
                }
                true
            }
            None => false,
        }
    }

    fn is_active(&self, runnable: RunnableId) -> bool {
        self.states.get(&runnable).is_some_and(|s| s.active)
    }

    fn counters(&self, runnable: RunnableId) -> Option<RunnableCounters> {
        self.states.get(&runnable).map(|st| RunnableCounters {
            ac: st.ac,
            arc: st.arc,
            cca: st.cca,
            ccar: st.ccar,
            activation: st.active,
            aliveness_errors: st.aliveness_errors,
            arrival_rate_errors: st.arrival_rate_errors,
            program_flow_errors: 0,
        })
    }
}

proptest! {
    /// The campaign executor is deterministic: for any plan and any
    /// worker count, the aggregated stats — and their JSON bytes — equal
    /// the serial run's exactly.
    #[test]
    fn campaign_executor_is_deterministic_for_any_plan_and_worker_count(
        seed in any::<u64>(),
        n_targets in 1u32..6,
        trials_per_class in 1usize..5,
        workers in 1usize..=8,
    ) {
        let targets: Vec<RunnableId> = (0..n_targets).map(RunnableId).collect();
        let plan = CampaignBuilder::new(seed, targets)
            .trials_per_class(trials_per_class)
            .build();
        let serial = CampaignExecutor::serial().run(&plan, synthetic_runner);
        let parallel = CampaignExecutor::new(workers).run(&plan, synthetic_runner);
        prop_assert_eq!(&serial, &parallel, "stats diverged at {} workers", workers);
        prop_assert_eq!(
            serde_json::to_string_pretty(&serial).unwrap(),
            serde_json::to_string_pretty(&parallel).unwrap(),
            "JSON bytes diverged at {} workers", workers
        );
    }

    /// The event queue is a stable priority queue: pops are sorted by time
    /// and FIFO within a timestamp.
    #[test]
    fn event_queue_pops_sorted_and_stable(times in prop::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(Instant::from_micros(t), i);
        }
        let mut last: Option<(Instant, usize)> = None;
        while let Some((at, idx)) = q.pop() {
            if let Some((lt, lidx)) = last {
                prop_assert!(at >= lt);
                if at == lt {
                    prop_assert!(idx > lidx, "FIFO violated within a timestamp");
                }
            }
            last = Some((at, idx));
        }
    }

    /// Heartbeat monitoring never reports an aliveness error while at
    /// least `min` heartbeats arrive per monitoring period, and always
    /// reports within one period once heartbeats stop entirely.
    #[test]
    fn aliveness_detection_is_sound_and_complete(
        min in 1u32..4,
        cycles in 1u32..4,
        healthy_periods in 1u64..10,
    ) {
        let config = WatchdogConfig::builder(Duration::from_millis(10))
            .monitor(RunnableHypothesis::new(RunnableId(0)).alive_at_least(min, cycles))
            .build();
        let mut wd = SoftwareWatchdog::new(config);
        let mut now = Instant::ZERO;
        // Healthy phase: exactly `min` beats per cycle (≥ min per window).
        for _ in 0..healthy_periods * cycles as u64 {
            for _ in 0..min {
                wd.heartbeat(RunnableId(0), now);
            }
            now += Duration::from_millis(10);
            let report = wd.run_cycle(now);
            prop_assert!(report.faults.is_empty(), "false positive: {report:?}");
        }
        // Silent phase: the error must come within `cycles` checks.
        let mut detected = false;
        for _ in 0..cycles {
            now += Duration::from_millis(10);
            if !wd.run_cycle(now).faults.is_empty() {
                detected = true;
                break;
            }
        }
        prop_assert!(detected, "missed detection after {cycles} silent cycles");
    }

    /// Arrival-rate monitoring is exact: `max` beats per window pass,
    /// `max + k` (k ≥ 1) beats are flagged at the window close.
    #[test]
    fn arrival_rate_threshold_is_exact(max in 0u32..5, excess in 1u32..4) {
        let config = WatchdogConfig::builder(Duration::from_millis(10))
            .monitor(RunnableHypothesis::new(RunnableId(0)).arrive_at_most(max, 1))
            .build();
        let mut wd = SoftwareWatchdog::new(config);
        for _ in 0..max {
            wd.heartbeat(RunnableId(0), Instant::from_millis(1));
        }
        prop_assert!(wd.run_cycle(Instant::from_millis(10)).faults.is_empty());
        for _ in 0..max + excess {
            wd.heartbeat(RunnableId(0), Instant::from_millis(11));
        }
        let report = wd.run_cycle(Instant::from_millis(20));
        prop_assert_eq!(report.faults.len(), 1);
    }

    /// Walking any legal path of a flow table never raises a violation;
    /// each counter-table jump raises exactly one.
    #[test]
    fn flow_table_accepts_exactly_its_language(
        chain_len in 2u32..8,
        steps in prop::collection::vec(any::<bool>(), 1..60),
    ) {
        // Table: cycle 0→1→…→n-1→0. `true` = legal next, `false` = skip one
        // (illegal).
        let mut table = FlowTable::new();
        for i in 0..chain_len {
            table.allow(RunnableId(i), RunnableId((i + 1) % chain_len));
        }
        let mut pfc = ProgramFlowChecker::new(table);
        let mut pos = 0u32;
        prop_assert_eq!(pfc.observe(RunnableId(0)), FlowVerdict::Ok);
        let mut expected_errors = 0u64;
        for &legal in &steps {
            let next = if legal {
                (pos + 1) % chain_len
            } else {
                (pos + 2) % chain_len // skips one node: illegal for len > 2
            };
            // For chain_len == 2 the "skip" lands back on `pos` itself,
            // which is equally illegal (no self loops in the table).
            let verdict = pfc.observe(RunnableId(next));
            if legal {
                prop_assert_eq!(verdict, FlowVerdict::Ok);
            } else {
                expected_errors += 1;
                let violated = matches!(verdict, FlowVerdict::Violation { .. });
                prop_assert!(violated);
            }
            pos = next;
        }
        prop_assert_eq!(pfc.errors_detected(), expected_errors);
    }

    /// CFCSS never flags a legal random walk and always flags a random
    /// illegal jump on a chain graph.
    #[test]
    fn cfcss_is_sound_on_legal_walks(
        blocks in 3usize..32,
        walk_len in 1usize..200,
        seed in any::<u64>(),
    ) {
        let program = CfcssProgram::instrument(ControlFlowGraph::chain(blocks), seed);
        let mut monitor = CfcssMonitor::new(program, BlockId(0));
        let mut costs = CostMeter::new();
        for i in 1..=walk_len {
            let failed = monitor.enter(BlockId((i % blocks) as u32), &mut costs);
            prop_assert!(!failed, "false positive at step {i}");
        }
        prop_assert_eq!(monitor.errors(), 0);
    }

    #[test]
    fn cfcss_flags_illegal_jumps(
        blocks in 4usize..32,
        jump in 2usize..30,
        seed in any::<u64>(),
    ) {
        let program = CfcssProgram::instrument(ControlFlowGraph::chain(blocks), seed);
        let mut monitor = CfcssMonitor::new(program, BlockId(0));
        let mut costs = CostMeter::new();
        prop_assert!(!monitor.enter(BlockId(1), &mut costs));
        // Jump somewhere that is not the successor of block 1.
        let target = 1 + 1 + (jump % (blocks - 2).max(1));
        prop_assume!(target % blocks != 2 && target % blocks != 1);
        let failed = monitor.enter(BlockId((target % blocks) as u32), &mut costs);
        prop_assert!(failed, "illegal jump 1→{target} undetected");
    }

    /// TSI threshold semantics: exactly at the threshold the task flips,
    /// never before.
    #[test]
    fn tsi_threshold_is_exact(threshold in 1u32..10) {
        use easis::osek::task::TaskId;
        use easis::rte::mapping::SystemMapping;
        use easis::watchdog::report::{DetectedFault, FaultKind};
        use easis::watchdog::tsi::TaskStateIndication;
        let mut mapping = SystemMapping::new();
        let app = mapping.add_application("A");
        mapping.assign_task(TaskId(0), app);
        mapping.assign_runnable(RunnableId(0), TaskId(0));
        let mut tsi = TaskStateIndication::new(mapping, threshold, u32::MAX);
        for i in 1..=threshold {
            let changes = tsi.record(DetectedFault {
                at: Instant::from_millis(i as u64),
                runnable: RunnableId(0),
                kind: FaultKind::Aliveness,
            });
            if i < threshold {
                prop_assert!(changes.is_empty(), "flipped early at {i}");
            } else {
                prop_assert!(!changes.is_empty(), "did not flip at {threshold}");
            }
        }
    }

    /// The dense-index heartbeat monitor is observationally equivalent to
    /// the `BTreeMap` reference model over arbitrary operation sequences:
    /// identical faults (content *and* order), counters, activation
    /// verdicts, and cost charges — including operations on unknown ids,
    /// which both silently ignore (`set_active` returning `false`).
    #[test]
    fn dense_heartbeat_monitor_matches_btreemap_reference(
        monitored in prop::collection::btree_set(0u32..12, 1..6),
        ops in prop::collection::vec((0u8..4, 0u32..16, 1u32..4, 1u32..4), 1..100),
    ) {
        let hypotheses: Vec<RunnableHypothesis> = monitored
            .iter()
            .map(|&i| {
                RunnableHypothesis::new(RunnableId(i))
                    .alive_at_least(1, 2)
                    .arrive_at_most(2, 3)
            })
            .collect();
        let mut dense = HeartbeatMonitor::new(hypotheses.clone());
        let mut reference = ReferenceHeartbeatMonitor::new(hypotheses);
        let mut dense_costs = CostMeter::new();
        let mut reference_costs = CostMeter::new();
        let mut now = Instant::ZERO;
        for &(op, id, a, b) in &ops {
            let runnable = RunnableId(id);
            match op {
                0 => {
                    dense.record(runnable, now, &mut dense_costs);
                    reference.record(runnable, &mut reference_costs);
                }
                1 => {
                    now += Duration::from_millis(10);
                    let dense_faults = dense.end_of_cycle(now, &mut dense_costs);
                    let reference_faults = reference.end_of_cycle(now, &mut reference_costs);
                    prop_assert_eq!(dense_faults, reference_faults, "cycle faults diverged");
                }
                2 => {
                    let active = a % 2 == 0;
                    prop_assert_eq!(
                        dense.set_active(runnable, active),
                        reference.set_active(runnable, active),
                        "set_active verdict diverged for {:?}", runnable
                    );
                }
                _ => {
                    let hypothesis = RunnableHypothesis::new(runnable)
                        .alive_at_least(a.min(b), a.max(b))
                        .arrive_at_most(a + b, b);
                    dense.reconfigure(hypothesis);
                    reference.reconfigure(hypothesis);
                }
            }
        }
        prop_assert_eq!(dense_costs, reference_costs, "cost charges diverged");
        for id in 0..16u32 {
            let runnable = RunnableId(id);
            prop_assert_eq!(dense.counters(runnable), reference.counters(runnable));
            prop_assert_eq!(dense.is_active(runnable), reference.is_active(runnable));
        }
        prop_assert_eq!(
            dense.monitored().collect::<Vec<_>>(),
            reference.states.keys().copied().collect::<Vec<_>>(),
            "monitored sets diverged"
        );
    }

    /// The compiled bitset flow checker accepts exactly the language of
    /// the builder table, transition by transition, for arbitrary tables
    /// and observation sequences — including unmonitored ids, which stay
    /// transparent (no predecessor update, no error).
    #[test]
    fn dense_pfc_matches_table_reference(
        pairs in prop::collection::vec((0u32..10, 0u32..10), 1..30),
        entries in prop::collection::vec(0u32..10, 0..3),
        observations in prop::collection::vec(0u32..14, 1..120),
    ) {
        let mut table = FlowTable::new();
        for &entry in &entries {
            table.allow_entry(RunnableId(entry));
        }
        for &(pred, succ) in &pairs {
            table.allow(RunnableId(pred), RunnableId(succ));
        }
        let mut dense = ProgramFlowChecker::new(table.clone());
        let mut last: Option<RunnableId> = None;
        let mut errors = 0u64;
        for &observed in &observations {
            let runnable = RunnableId(observed);
            let verdict = dense.observe(runnable);
            let expected = if !table.is_monitored(runnable) {
                FlowVerdict::Ok
            } else {
                let v = match last {
                    None if table.is_entry(runnable) => FlowVerdict::Ok,
                    None => FlowVerdict::Violation { predecessor: None },
                    Some(prev) if table.is_allowed(prev, runnable) => FlowVerdict::Ok,
                    Some(prev) => FlowVerdict::Violation { predecessor: Some(prev) },
                };
                if matches!(v, FlowVerdict::Violation { .. }) {
                    errors += 1;
                }
                last = Some(runnable);
                v
            };
            prop_assert_eq!(verdict, expected, "verdict diverged at {:?}", runnable);
            prop_assert_eq!(dense.last_observed(), last, "predecessor diverged");
        }
        prop_assert_eq!(dense.errors_detected(), errors);
    }

    /// `IdIndex` is an order isomorphism onto `0..len`: slots are dense,
    /// ascending with id, stable under lookup, and unknown ids probe to
    /// `None` — for arbitrary id sets across the direct-map and
    /// binary-search regimes.
    #[test]
    fn id_index_is_a_dense_order_isomorphism(
        ids in prop::collection::btree_set(any::<u32>(), 0..64),
        probes in prop::collection::vec(any::<u32>(), 0..64),
    ) {
        let index = IdIndex::from_ids(ids.iter().copied());
        prop_assert_eq!(index.len(), ids.len());
        for (slot, &id) in ids.iter().enumerate() {
            prop_assert_eq!(index.slot_of(id), Some(slot as u32));
            prop_assert_eq!(index.id_at(slot as u32), id);
        }
        for &probe in &probes {
            let expected = ids.iter().position(|&id| id == probe).map(|p| p as u32);
            prop_assert_eq!(index.slot_of(probe), expected, "probe {} diverged", probe);
        }
        prop_assert_eq!(index.iter().collect::<Vec<_>>(), ids.into_iter().collect::<Vec<_>>());
    }

    /// Incremental `IdIndex::insert` reaches the same frozen index as
    /// rebuilding from scratch, and the returned slot is immediately
    /// consistent with lookup.
    #[test]
    fn id_index_insert_matches_rebuild(
        initial in prop::collection::btree_set(0u32..1_000, 0..20),
        inserted in prop::collection::vec(0u32..1_000, 1..20),
    ) {
        let mut index = IdIndex::from_ids(initial.iter().copied());
        let mut all = initial.clone();
        for &id in &inserted {
            let slot = index.insert(id);
            all.insert(id);
            prop_assert_eq!(index.slot_of(id), Some(slot));
        }
        prop_assert_eq!(index, IdIndex::from_ids(all));
    }

    /// Chunked parallel execution is invisible in the output: any
    /// worker-count/chunk-size combination produces byte-identical stats.
    #[test]
    fn campaign_executor_chunking_is_invisible(
        seed in any::<u64>(),
        trials_per_class in 1usize..5,
        workers in 2usize..=6,
        chunk in 0usize..10,
    ) {
        let plan = CampaignBuilder::new(seed, vec![RunnableId(0), RunnableId(1)])
            .trials_per_class(trials_per_class)
            .build();
        let serial = CampaignExecutor::serial().run(&plan, synthetic_runner);
        let chunked = CampaignExecutor::new(workers)
            .with_chunk_size(chunk)
            .run(&plan, synthetic_runner);
        prop_assert_eq!(&serial, &chunked, "chunk {} diverged", chunk);
        prop_assert_eq!(
            serde_json::to_string_pretty(&serial).unwrap(),
            serde_json::to_string_pretty(&chunked).unwrap()
        );
    }
}

/// The pre-wheel event queue as the reference model: a `BinaryHeap` of
/// `(time, seq)` keys with lazy cancellation. The timer
/// wheel must produce the identical cancel verdicts, peek times and pop
/// stream for every operation sequence.
struct ReferenceEventQueue {
    heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u64)>>,
    cancelled: std::collections::HashSet<u64>,
    next_seq: u64,
}

impl ReferenceEventQueue {
    fn new() -> Self {
        ReferenceEventQueue {
            heap: std::collections::BinaryHeap::new(),
            cancelled: std::collections::HashSet::new(),
            next_seq: 0,
        }
    }

    fn schedule(&mut self, at: Instant) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(std::cmp::Reverse((at.as_micros(), seq)));
        seq
    }

    /// Marks a still-queued event cancelled; an id that already fired
    /// (or was already cancelled) yields `false` and changes nothing.
    fn cancel(&mut self, seq: u64) -> bool {
        self.heap.iter().any(|r| r.0 .1 == seq) && self.cancelled.insert(seq)
    }

    fn peek_time(&mut self) -> Option<Instant> {
        while let Some(&std::cmp::Reverse((at, seq))) = self.heap.peek() {
            if self.cancelled.remove(&seq) {
                self.heap.pop();
            } else {
                return Some(Instant::from_micros(at));
            }
        }
        None
    }

    fn pop(&mut self) -> Option<(Instant, u64)> {
        while let Some(std::cmp::Reverse((at, seq))) = self.heap.pop() {
            if self.cancelled.remove(&seq) {
                continue;
            }
            return Some((Instant::from_micros(at), seq));
        }
        None
    }
}

proptest! {
    /// The hierarchical timer wheel is observationally equivalent to the
    /// `BinaryHeap` it replaced: identical cancel verdicts (including
    /// double-cancel and cancel-after-fire), identical peek times, and an
    /// identical `(time, FIFO)` pop stream — over arbitrary interleavings
    /// of schedule/pop/cancel with heavy same-instant collisions, events
    /// beyond the top wheel level, and events behind the cursor.
    #[test]
    fn timer_wheel_matches_binary_heap_reference(
        ops in prop::collection::vec(
            (0u8..8, 0u64..(1u64 << 27), any::<u32>()),
            1..300,
        ),
    ) {
        let mut wheel: EventQueue<u64> = EventQueue::new();
        let mut reference = ReferenceEventQueue::new();
        let mut issued = Vec::new();
        for &(op, t, pick) in &ops {
            match op {
                // Schedule: half the draws collapse into a small range so
                // same-instant FIFO and cascade co-location are stressed;
                // the other half reach past the top wheel level.
                0..=4 => {
                    let at = Instant::from_micros(if t & 1 == 0 { t >> 14 } else { t });
                    let id = wheel.schedule(at, reference.next_seq);
                    let seq = reference.schedule(at);
                    prop_assert_eq!(id.raw(), seq, "seq allocation diverged");
                    issued.push(id);
                }
                5..=6 => {
                    prop_assert_eq!(wheel.peek_time(), reference.peek_time());
                    let wheel_pop = wheel.pop();
                    let reference_pop = reference.pop();
                    prop_assert_eq!(wheel_pop, reference_pop, "pop stream diverged");
                }
                _ => {
                    if let Some(&id) = issued.get(pick as usize % issued.len().max(1)) {
                        prop_assert_eq!(
                            wheel.cancel(id),
                            reference.cancel(id.raw()),
                            "cancel verdict diverged for {:?}", id
                        );
                    }
                }
            }
        }
        // Drain both completely: the tails must match too.
        loop {
            prop_assert_eq!(wheel.peek_time(), reference.peek_time());
            let wheel_pop = wheel.pop();
            let reference_pop = reference.pop();
            prop_assert_eq!(wheel_pop, reference_pop, "drain diverged");
            if wheel_pop.is_none() {
                break;
            }
        }
    }
}

/// A randomized per-activation effect, executable through either task-body
/// style (see [`apply_effect`]).
#[derive(Clone, Debug)]
enum EffectSpec {
    /// Bump this task's world counter and log `(time, task, value)`.
    Bump(u64),
    /// Record a trace event through the effect context.
    TraceMark,
    /// Request `ActivateTask` on another task.
    Activate(u32),
}

/// Shared world for the arena-vs-boxed equivalence runs: per-task counters,
/// a cost meter charged by every effect, and an ordered observation log.
#[derive(Default)]
struct EquivWorld {
    counters: Vec<u64>,
    meter: CostMeter,
    log: Vec<(u64, u32, u64)>,
}

/// The single source of truth for what an effect does — both body styles
/// call this, so any observable divergence is a dispatch-path bug, not a
/// spec mismatch.
fn apply_effect(
    task: u32,
    spec: &EffectSpec,
    n_tasks: u32,
    world: &mut EquivWorld,
    ctx: &mut easis::osek::plan::EffectCtx<'_, EquivWorld>,
) {
    use easis::osek::task::TaskId;
    world.meter.charge(7);
    match spec {
        EffectSpec::Bump(k) => {
            world.counters[task as usize] += k;
            world.log.push((ctx.now().as_micros(), task, world.counters[task as usize]));
        }
        EffectSpec::TraceMark => {
            ctx.trace("equiv", "mark", format!("t{task}"));
        }
        EffectSpec::Activate(t) => {
            // Direct synchronous service call on the kernel core (the
            // post-redesign style); activating an already-saturated task
            // is spec'd as a lost activation, so errors are ignored.
            let _ = ctx.activate_task(TaskId(t % n_tasks), world);
        }
    }
}

/// Arena-native body: plans `Compute` + `EffectRef` tokens into the
/// kernel-owned buffer; the kernel dispatches the tokens back into
/// `run_effect` on this same (state-retaining) value. Allocation-free per
/// activation — the production style.
struct ArenaSpecBody {
    task: u32,
    n_tasks: u32,
    steps: Vec<(u64, EffectSpec)>,
}

impl easis::osek::plan::TaskBody<EquivWorld> for ArenaSpecBody {
    fn plan_into(
        &mut self,
        _now: Instant,
        _world: &EquivWorld,
        out: &mut easis::osek::plan::Plan<EquivWorld>,
    ) {
        for (token, (cost, _)) in self.steps.iter().enumerate() {
            out.push_compute(Duration::from_micros(*cost));
            out.push_effect_ref(token as u32);
        }
    }

    fn run_effect(
        &mut self,
        token: u32,
        world: &mut EquivWorld,
        ctx: &mut easis::osek::plan::EffectCtx<'_, EquivWorld>,
    ) {
        let spec = self.steps[token as usize].1.clone();
        apply_effect(self.task, &spec, self.n_tasks, world, ctx);
    }

    fn name(&self) -> &str {
        "arena-spec"
    }
}

/// One randomized task: unique priority, cyclic activation period, and a
/// short step list of `(compute µs, effect)` pairs.
#[derive(Clone, Debug)]
struct EquivTaskSpec {
    priority_bit: u8,
    period_ms: u64,
    steps: Vec<(u64, EffectSpec)>,
}

/// Builds an OS running the given task specs with either arena-native
/// bodies (`arena = true`) or the pre-arena reference style (`false`): a
/// boxed closure returning a freshly allocated `Plan` whose effects are
/// per-activation boxed closures — exactly the allocation pattern the
/// `PlanArena` redesign replaced.
fn build_equiv_os(
    specs: &[EquivTaskSpec],
    arena: bool,
) -> easis::osek::kernel::Os<EquivWorld> {
    use easis::osek::alarm::AlarmAction;
    use easis::osek::kernel::Os;
    use easis::osek::plan::Plan;
    use easis::osek::task::{Priority, TaskConfig};
    let n_tasks = specs.len() as u32;
    let mut os: Os<EquivWorld> = Os::new();
    for (idx, spec) in specs.iter().enumerate() {
        // Unique priorities: interleaving is then fully determined by the
        // spec, not by same-priority FIFO accidents of insertion order.
        let priority = Priority((idx as u8 + 1) * 2 + (spec.priority_bit & 1));
        let config = TaskConfig::new(format!("t{idx}"), priority).autostart();
        let id = if arena {
            os.add_task(
                config,
                ArenaSpecBody {
                    task: idx as u32,
                    n_tasks,
                    steps: spec.steps.clone(),
                },
            )
        } else {
            let steps = spec.steps.clone();
            let task = idx as u32;
            os.add_task(config, move |_now: Instant, _w: &EquivWorld| {
                let mut plan = Plan::new();
                for (cost, effect) in &steps {
                    plan = plan.compute(Duration::from_micros(*cost));
                    let effect = effect.clone();
                    plan = plan.effect(move |w, ctx| apply_effect(task, &effect, n_tasks, w, ctx));
                }
                plan
            })
        };
        os.add_alarm(format!("a{idx}"), AlarmAction::ActivateTask(id));
    }
    os
}

/// Starts `os` on a fresh world, arms every cyclic alarm and runs to the
/// horizon; returns the world for observation.
fn run_equiv_os(
    os: &mut easis::osek::kernel::Os<EquivWorld>,
    specs: &[EquivTaskSpec],
    horizon: Instant,
) -> EquivWorld {
    use easis::osek::alarm::AlarmId;
    let mut world = EquivWorld {
        counters: vec![0; specs.len()],
        ..EquivWorld::default()
    };
    os.start(&mut world);
    for (idx, spec) in specs.iter().enumerate() {
        let period = Duration::from_millis(spec.period_ms);
        os.set_rel_alarm(AlarmId(idx as u32), period, Some(period))
            .expect("alarm arms on a fresh/reset OS");
    }
    os.run_until(horizon, &mut world);
    world
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arena-backed task bodies are observationally equivalent to the
    /// boxed-closure reference style they replaced: over randomized task
    /// sets (priorities, periods, compute costs, effect mixes) the kernel
    /// trace, the world counters/log and the `CostMeter` charges are
    /// bit-identical — and stay so when the arena OS is `reset()` and the
    /// campaign is replayed on the retained (capacity-warm) buffers.
    #[test]
    fn arena_bodies_match_boxed_closure_reference(
        raw_tasks in prop::collection::vec(
            (
                any::<u8>(),                                   // priority bit
                1u64..8,                                       // period ms
                prop::collection::vec(
                    (1u64..300, 0u8..3, any::<u32>()),         // (cost µs, kind, param)
                    0..5,
                ),
            ),
            1..5,
        ),
        horizon_ms in 10u64..50,
    ) {
        let specs: Vec<EquivTaskSpec> = raw_tasks
            .iter()
            .map(|(bit, period, raw_steps)| EquivTaskSpec {
                priority_bit: *bit,
                period_ms: *period,
                steps: raw_steps
                    .iter()
                    .map(|&(cost, kind, param)| {
                        let effect = match kind {
                            0 => EffectSpec::Bump(u64::from(param % 9) + 1),
                            1 => EffectSpec::TraceMark,
                            _ => EffectSpec::Activate(param),
                        };
                        (cost, effect)
                    })
                    .collect(),
            })
            .collect();
        let horizon = Instant::from_millis(horizon_ms);

        let mut reference_os = build_equiv_os(&specs, false);
        let reference_world = run_equiv_os(&mut reference_os, &specs, horizon);
        let mut arena_os = build_equiv_os(&specs, true);
        let arena_world = run_equiv_os(&mut arena_os, &specs, horizon);

        prop_assert_eq!(
            arena_os.trace().events(),
            reference_os.trace().events(),
            "kernel + effect trace diverged"
        );
        prop_assert_eq!(&arena_world.counters, &reference_world.counters);
        prop_assert_eq!(&arena_world.log, &reference_world.log, "effect order diverged");
        prop_assert_eq!(&arena_world.meter, &reference_world.meter, "cost charges diverged");

        // Campaign replay: reset the arena OS (slots keep their capacity)
        // and run the identical scenario again — still bit-identical.
        arena_os.reset();
        let replay_world = run_equiv_os(&mut arena_os, &specs, horizon);
        prop_assert_eq!(
            arena_os.trace().events(),
            reference_os.trace().events(),
            "trace diverged after arena reset replay"
        );
        prop_assert_eq!(&replay_world.counters, &reference_world.counters);
        prop_assert_eq!(&replay_world.log, &reference_world.log);
        prop_assert_eq!(&replay_world.meter, &reference_world.meter);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// World pooling is invisible: a trial on a pooled node — built from a
    /// campaign blueprint, dirtied by a different trial, then `reset()` —
    /// produces an outcome byte-identical to the same trial on a freshly
    /// built node. Few cases: every case builds full central nodes and
    /// simulates several hundred milliseconds.
    #[test]
    fn pooled_reset_trial_equals_fresh_build_trial(
        seed in any::<u64>(),
        test_pick in any::<u32>(),
        dirty_pick in any::<u32>(),
    ) {
        use easis::validator::node::NodeBlueprint;
        use easis::validator::scenario::{campaign_node_config, run_trial, run_trial_pooled};
        let horizon = Instant::from_millis(700);
        let plan = CampaignBuilder::new(seed, (0..9).map(RunnableId).collect())
            .loop_targets(vec![RunnableId(4), RunnableId(7)])
            .trials_per_class(1)
            .window(Instant::from_millis(200), Duration::from_millis(200))
            .with_horizon(horizon)
            .build();
        let trials = plan.trials();
        let spec = &trials[test_pick as usize % trials.len()];
        let dirty = &trials[dirty_pick as usize % trials.len()];
        let fresh = run_trial(spec, horizon);
        let blueprint = NodeBlueprint::compile(campaign_node_config());
        // Dirty the pooled world with an unrelated trial first, so the
        // comparison exercises reset-from-a-faulted state, not first-use.
        let _ = run_trial_pooled(&blueprint, dirty, horizon);
        let pooled = run_trial_pooled(&blueprint, spec, horizon);
        prop_assert_eq!(&fresh, &pooled, "pooled reset diverged from fresh build");
        prop_assert_eq!(
            serde_json::to_string_pretty(&fresh).unwrap(),
            serde_json::to_string_pretty(&pooled).unwrap(),
            "JSON bytes diverged"
        );
    }

    /// Golden-run prefix checkpointing is invisible: a random campaign run
    /// through the snapshot-forking engine (`run_plan` — golden prefix
    /// simulated once, every trial restored from a fork-point
    /// `NodeSnapshot`, behavior-identical tails collapsed) produces stats
    /// byte-identical to per-trial fresh builds and to the pooled
    /// per-trial engine, at any worker count. Few cases: every case
    /// simulates a whole (small) campaign three times over.
    #[test]
    fn forked_snapshot_replay_equals_fresh_and_pooled_runs(
        seed in any::<u64>(),
        trials_per_class in 1usize..3,
        workers in 1usize..=4,
    ) {
        use easis::validator::scenario::{run_plan, run_plan_pooled, run_trial};
        let horizon = Instant::from_millis(700);
        let plan = CampaignBuilder::new(seed, (0..9).map(RunnableId).collect())
            .loop_targets(vec![RunnableId(4), RunnableId(7)])
            .trials_per_class(trials_per_class)
            .window(Instant::from_millis(200), Duration::from_millis(200))
            .with_horizon(horizon)
            .build();
        let fresh = CampaignExecutor::serial().run(&plan, |spec| run_trial(spec, horizon));
        let executor = CampaignExecutor::new(workers);
        let forked = run_plan(&plan, horizon, &executor);
        let pooled = run_plan_pooled(&plan, horizon, &executor);
        prop_assert_eq!(&fresh, &forked, "forked diverged from fresh at {} workers", workers);
        prop_assert_eq!(&fresh, &pooled, "pooled diverged from fresh");
        prop_assert_eq!(
            serde_json::to_string_pretty(&fresh).unwrap(),
            serde_json::to_string_pretty(&forked).unwrap(),
            "JSON bytes diverged"
        );
    }

    /// The forked engine's campaign report does not depend on the chunk
    /// size: multi-trial chunks (the worker's slot captures at one fork,
    /// restores, advances to the next fork and captures again) and chunk
    /// size 1 (every trial `reset()`s the node and often restores from a
    /// shared prefix-cache checkpoint) both equal the fresh per-trial
    /// reference byte for byte, over randomized plans, fork windows and
    /// worker counts. Few cases: every case simulates three whole
    /// campaigns.
    #[test]
    fn forked_reports_are_chunk_size_invariant(
        seed in any::<u64>(),
        window_from_ms in 150u64..400,
        window_len_ms in 50u64..300,
        workers in 1usize..=4,
        chunk in 2usize..8,
    ) {
        use easis::validator::scenario::{run_plan, run_trial};
        let horizon = Instant::from_millis(700);
        let plan = CampaignBuilder::new(seed, (0..9).map(RunnableId).collect())
            .loop_targets(vec![RunnableId(4), RunnableId(7)])
            .trials_per_class(2)
            .window(
                Instant::from_millis(window_from_ms),
                Duration::from_millis(window_len_ms),
            )
            .with_horizon(horizon)
            .build();
        let fresh = CampaignExecutor::serial().run(&plan, |spec| run_trial(spec, horizon));
        let chunked = run_plan(
            &plan,
            horizon,
            &CampaignExecutor::new(workers).with_chunk_size(chunk),
        );
        let single = run_plan(
            &plan,
            horizon,
            &CampaignExecutor::new(workers).with_chunk_size(1),
        );
        prop_assert_eq!(&fresh, &chunked, "chunk-{} run diverged", chunk);
        prop_assert_eq!(&fresh, &single, "chunk-1 run diverged at {} workers", workers);
        prop_assert_eq!(
            serde_json::to_string_pretty(&fresh).unwrap(),
            serde_json::to_string_pretty(&chunked).unwrap(),
            "JSON bytes diverged at chunk {}", chunk
        );
        prop_assert_eq!(
            serde_json::to_string_pretty(&fresh).unwrap(),
            serde_json::to_string_pretty(&single).unwrap(),
            "JSON bytes diverged at chunk 1"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Hyperperiod macro-stepping is invisible: driving a random campaign
    /// trial through the node's public API with fast-forwarding enabled
    /// ends in a state bit-identical to the same trial simulated purely
    /// event-by-event. The random window start/length and horizon move the
    /// certification points, the k-jump spans and the sub-hyperperiod
    /// residues around, so the cases also exercise mid-span fallbacks
    /// (arming transients, DTC age-out crossings) — the engine must land
    /// on the exact event-level state every time. Few cases: every case
    /// simulates two full trials.
    #[test]
    fn macro_stepped_trial_equals_event_level_simulation(
        seed in any::<u64>(),
        window_from_ms in 150u64..500,
        window_len_ms in 20u64..300,
        horizon_ms in 800u64..1500,
        pick in any::<u32>(),
    ) {
        use easis::injection::injector::Injector;
        use easis::validator::scenario::campaign_node_config;
        use easis::validator::CentralNode;
        let horizon = Instant::from_millis(horizon_ms);
        let plan = CampaignBuilder::new(seed, (0..9).map(RunnableId).collect())
            .loop_targets(vec![RunnableId(4), RunnableId(7)])
            .trials_per_class(1)
            .window(
                Instant::from_millis(window_from_ms),
                Duration::from_millis(window_len_ms),
            )
            .with_horizon(horizon)
            .build();
        let trials = plan.trials();
        let spec = &trials[pick as usize % trials.len()];
        let run = |ffwd: bool| {
            let mut node = CentralNode::build(campaign_node_config());
            node.set_fastforward(Some(ffwd));
            node.start();
            // Injection-free prefix: eligible for macro-stepping.
            node.run_span(spec.injection.from);
            // Armed window: the engine stands down, the injector ticks
            // at millisecond granularity like the experiments do.
            node.set_injection_armed(true);
            let mut injector = Injector::new([spec.injection.clone()]);
            node.run_until(spec.injection.to, &mut injector);
            node.set_injection_armed(false);
            // Quiescent tail: eligible again (modulo DTC aging et al.).
            node.run_span(horizon);
            node
        };
        let fast = run(true);
        let plain = run(false);
        prop_assert_eq!(fast.os.now(), plain.os.now());
        // The engine saw the spans even when it chose not to jump.
        prop_assert!(fast.ffwd_stats().span > Duration::ZERO);
        prop_assert_eq!(plain.ffwd_stats().fastforwarded, Duration::ZERO);
        let a = fast.snapshot();
        let b = plain.snapshot();
        prop_assert!(
            a.content_eq(&b),
            "macro-stepped end state diverged from event-level for {:?}",
            spec.injection
        );
        prop_assert_eq!(
            a.os_canonical(),
            b.os_canonical(),
            "canonical kernel state diverged for {:?}",
            spec.injection
        );
    }
}

/// Forced mid-span fallback, case 1 — DTC aging and age-out: this exact
/// slowdown (lifted from the campaign plan) leaves a Pending DTC record
/// deep in its aging drain at disarm, so the tail forces the whole
/// fallback machinery in sequence: certify with a non-zero per-hyperperiod
/// DTC-aging delta, jump in spans capped at the age-out horizon, cross the
/// age-out event itself at event level (a fallback), re-certify the new
/// steady state and jump again — and still land bit-identical to the
/// event-level run.
#[test]
fn macro_stepping_falls_back_and_recovers_across_dtc_age_out() {
    use easis::injection::injector::{ErrorClass, Injection, Injector};
    use easis::validator::scenario::campaign_node_config;
    use easis::validator::CentralNode;
    let horizon = Instant::from_millis(1_500);
    let injection = Injection::new(
        ErrorClass::ExecutionSlowdown {
            runnable: RunnableId(3),
            scale_ppm: 223_000_000,
        },
        Instant::from_micros(305_337),
        Instant::from_micros(355_337),
    );
    let run = |ffwd: bool| {
        let mut node = CentralNode::build(campaign_node_config());
        node.set_fastforward(Some(ffwd));
        node.start();
        node.run_span(injection.from);
        node.set_injection_armed(true);
        let mut injector = Injector::new([injection.clone()]);
        node.run_until(injection.to, &mut injector);
        node.set_injection_armed(false);
        // The scenario's whole point: a Pending DTC is still aging when
        // the quiescent tail begins.
        assert!(
            node.world.fmf.pending_cycles_to_age_out().is_some(),
            "scenario drifted: no Pending DTC left at disarm"
        );
        node.run_span(horizon);
        node
    };
    let fast = run(true);
    let plain = run(false);

    let stats = fast.ffwd_stats();
    assert!(
        stats.fastforwarded >= Duration::from_millis(800),
        "the tail should mostly fast-forward despite the drain: {stats:?}"
    );
    assert!(
        stats.fallbacks >= 2,
        "the age-out crossing must fall back to event level: {stats:?}"
    );
    assert!(
        stats.certifications >= 3,
        "the engine must re-certify after the age-out event: {stats:?}"
    );

    assert_eq!(fast.os.now(), plain.os.now());
    let a = fast.snapshot();
    let b = plain.snapshot();
    assert!(
        a.content_eq(&b),
        "macro-stepped end state diverged from event-level across the age-out"
    );
    assert_eq!(a.os_canonical(), b.os_canonical());
}

/// Forced mid-span fallback, case 2 — sampling-phase collision: the window
/// ends exactly on a 10 ms task-period boundary, so every h-spaced
/// certification sample initially lands mid-dispatch (a task running,
/// ready bits set) and is rejected. The backoff's one-millisecond phase
/// nudge must walk the sampler off the boundary, after which the tail
/// certifies and fast-forwards — bit-identical to the event-level run.
#[test]
fn macro_stepping_rephases_off_task_period_boundaries() {
    use easis::injection::injector::{ErrorClass, Injection, Injector};
    use easis::validator::scenario::campaign_node_config;
    use easis::validator::CentralNode;
    let horizon = Instant::from_millis(1_500);
    let injection = Injection::new(
        ErrorClass::ExecutionSlowdown {
            runnable: RunnableId(4),
            scale_ppm: 4_000_000,
        },
        Instant::from_millis(300),
        Instant::from_millis(450),
    );
    let run = |ffwd: bool| {
        let mut node = CentralNode::build(campaign_node_config());
        node.set_fastforward(Some(ffwd));
        node.start();
        node.run_span(injection.from);
        node.set_injection_armed(true);
        let mut injector = Injector::new([injection.clone()]);
        node.run_until(injection.to, &mut injector);
        node.set_injection_armed(false);
        node.run_span(horizon);
        node
    };
    let fast = run(true);
    let plain = run(false);

    let stats = fast.ffwd_stats();
    assert!(
        stats.fallbacks >= 1,
        "the boundary-phased samples must be rejected at least once: {stats:?}"
    );
    assert!(
        stats.certifications >= 2,
        "the nudged sampler must certify the tail after re-phasing: {stats:?}"
    );
    assert!(
        stats.fastforwarded >= Duration::from_millis(500),
        "prefix and re-phased tail should both fast-forward: {stats:?}"
    );

    assert_eq!(fast.os.now(), plain.os.now());
    let a = fast.snapshot();
    let b = plain.snapshot();
    assert!(
        a.content_eq(&b),
        "macro-stepped end state diverged from event-level after re-phasing"
    );
    assert_eq!(a.os_canonical(), b.os_canonical());
}
