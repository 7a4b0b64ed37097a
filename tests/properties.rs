//! Property-based tests (proptest) on the core invariants of the
//! monitoring units and substrates, exercised through the public API.

use easis::baselines::cfcss::{BlockId, CfcssMonitor, CfcssProgram, ControlFlowGraph};
use easis::injection::campaign::{CampaignBuilder, TrialSpec};
use easis::injection::executor::CampaignExecutor;
use easis::injection::injector::{ErrorClass, Injection, Injector};
use easis::injection::stats::{DetectorId, TrialOutcome};
use easis::obs::ObsSink;
use easis::rte::runnable::RunnableId;
use easis::sim::cpu::CostMeter;
use easis::sim::event::EventQueue;
use easis::sim::rng::SimRng;
use easis::sim::time::{Duration, Instant};
use easis::validator::scenario::campaign_node_config;
use easis::validator::CentralNode;
use easis::watchdog::config::{RunnableHypothesis, WatchdogConfig};
use easis::watchdog::heartbeat::HeartbeatMonitor;
use easis::watchdog::pfc::{FlowTable, FlowVerdict, PfcState};
use easis::watchdog::report::{DetectedFault, FaultKind, RunnableCounters};
use easis::watchdog::{DetectionLog, SoftwareWatchdog};
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
        let compiled = table.compile();
        let mut pfc = PfcState::default();
        let mut pos = 0u32;
        prop_assert_eq!(pfc.observe(&compiled, RunnableId(0)), FlowVerdict::Ok);
        let mut expected_errors = 0u64;
        let mut violations = 0u64;
        for &legal in &steps {
            let next = if legal {
                (pos + 1) % chain_len
            } else {
                (pos + 2) % chain_len // skips one node: illegal for len > 2
            };
            // For chain_len == 2 the "skip" lands back on `pos` itself,
            // which is equally illegal (no self loops in the table).
            let verdict = pfc.observe(&compiled, RunnableId(next));
            if matches!(verdict, FlowVerdict::Violation { .. }) {
                violations += 1;
            }
            if legal {
                prop_assert_eq!(verdict, FlowVerdict::Ok);
            } else {
                expected_errors += 1;
                let violated = matches!(verdict, FlowVerdict::Violation { .. });
                prop_assert!(violated);
            }
            pos = next;
        }
        prop_assert_eq!(violations, expected_errors);
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
        use easis::watchdog::tsi::{TaskStateIndication, TsiState};
        let mut mapping = SystemMapping::new();
        let app = mapping.add_application("A");
        mapping.assign_task(TaskId(0), app);
        mapping.assign_runnable(RunnableId(0), TaskId(0));
        let tsi = TaskStateIndication::new(mapping, threshold);
        let mut state = TsiState::new(&tsi);
        for i in 1..=threshold {
            let changes = state.record(&tsi, DetectedFault {
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
    /// which both silently ignore (`set_active` returning `false`). The
    /// unit keeps no error counts: the service counts its faults in the
    /// detection log, and so does this test.
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
        let mut log = DetectionLog::default();
        for &(op, id, a, b) in &ops {
            let runnable = RunnableId(id);
            match op {
                0 => {
                    dense.record(runnable, now, &mut dense_costs, &ObsSink::DISABLED);
                    reference.record(runnable, &mut reference_costs);
                }
                1 => {
                    now += Duration::from_millis(10);
                    let dense_faults = dense.end_of_cycle(now, &mut dense_costs, &ObsSink::DISABLED);
                    let reference_faults = reference.end_of_cycle(now, &mut reference_costs);
                    for &fault in &dense_faults {
                        log.append(fault.into());
                    }
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
            let counted = dense.counters(runnable).map(|c| RunnableCounters {
                aliveness_errors: log.count_on(DetectorId::SwAliveness, runnable),
                arrival_rate_errors: log.count_on(DetectorId::SwArrivalRate, runnable),
                ..c
            });
            prop_assert_eq!(counted, reference.counters(runnable));
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
        let compiled = table.compile();
        let mut dense = PfcState::default();
        let mut last: Option<RunnableId> = None;
        let mut errors = 0u64;
        let mut violations = 0u64;
        for &observed in &observations {
            let runnable = RunnableId(observed);
            let verdict = dense.observe(&compiled, runnable);
            if matches!(verdict, FlowVerdict::Violation { .. }) {
                violations += 1;
            }
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
        prop_assert_eq!(violations, errors);
    }

    /// Cutting the plan into per-worker shares is invisible in the
    /// output: any worker count, up to and past one trial per worker,
    /// produces byte-identical stats.
    #[test]
    fn campaign_executor_chunking_is_invisible(
        seed in any::<u64>(),
        trials_per_class in 1usize..5,
        workers in 2usize..=24,
    ) {
        let plan = CampaignBuilder::new(seed, vec![RunnableId(0), RunnableId(1)])
            .trials_per_class(trials_per_class)
            .build();
        let serial = CampaignExecutor::serial().run(&plan, synthetic_runner);
        let shared = CampaignExecutor::new(workers).run(&plan, synthetic_runner);
        prop_assert_eq!(&serial, &shared, "{} workers diverged", workers);
        prop_assert_eq!(
            serde_json::to_string_pretty(&serial).unwrap(),
            serde_json::to_string_pretty(&shared).unwrap()
        );
    }
}

/// The reference model of the event queue: a `BinaryHeap` of `(time, seq)`
/// keys with lazy cancellation. The queue, scheduling each event with its
/// sequence number as payload and cancelling by `retain` on it, must agree
/// on whether a cancelled event was still pending and produce the
/// identical peek times and pop stream for every operation sequence.
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

    /// Every live `(time, seq)` key, in pop order.
    fn live_keys(&self) -> Vec<(u64, u64)> {
        let mut keys: Vec<(u64, u64)> = self
            .heap
            .iter()
            .map(|r| r.0)
            .filter(|(_, seq)| !self.cancelled.contains(seq))
            .collect();
        keys.sort_unstable();
        keys
    }
}

proptest! {
    /// The event queue is observationally equivalent to a `BinaryHeap`
    /// reference: identical cancel verdicts (the event was still pending,
    /// checked before the `retain`; including double-cancel and
    /// cancel-after-fire), identical peek times, and an identical
    /// `(time, FIFO)` pop stream — over arbitrary interleavings of
    /// schedule/pop/cancel with heavy same-instant collisions, events
    /// beyond 2^24 µs, and events earlier than one already popped. After
    /// every operation the queue's stored entries, reversed, are exactly
    /// the reference's live keys in pop order: certification compares two
    /// queues with `==`, entry by entry in stored order, and relies on
    /// that.
    #[test]
    fn timer_wheel_matches_binary_heap_reference(
        ops in prop::collection::vec(
            (0u8..8, 0u64..(1u64 << 27), any::<u32>()),
            1..300,
        ),
    ) {
        let mut queue: EventQueue<u64> = EventQueue::new();
        let mut reference = ReferenceEventQueue::new();
        let mut issued = Vec::new();
        for &(op, t, pick) in &ops {
            match op {
                // Schedule: half the draws collapse into a small range so
                // same-instant FIFO is stressed; the other half reach past
                // 2^24 µs.
                0..=4 => {
                    let at = Instant::from_micros(if t & 1 == 0 { t >> 14 } else { t });
                    let seq = reference.schedule(at);
                    queue.schedule(at, seq);
                    issued.push(seq);
                }
                5..=6 => {
                    prop_assert_eq!(queue.peek_time(), reference.peek_time());
                    let queue_pop = queue.pop();
                    let reference_pop = reference.pop();
                    prop_assert_eq!(queue_pop, reference_pop, "pop stream diverged");
                }
                _ => {
                    if let Some(&seq) = issued.get(pick as usize % issued.len().max(1)) {
                        let pending = queue.entries().iter().any(|&(_, p)| p == seq);
                        queue.retain(|&p| p != seq);
                        prop_assert_eq!(
                            pending,
                            reference.cancel(seq),
                            "cancel verdict diverged for {}", seq
                        );
                    }
                }
            }
            let stored: Vec<(u64, u64)> = queue
                .entries()
                .iter()
                .rev()
                .copied()
                .collect();
            prop_assert_eq!(stored, reference.live_keys(), "stored order is not pop order");
        }
        // Drain both completely: the tails must match too.
        loop {
            prop_assert_eq!(queue.peek_time(), reference.peek_time());
            let queue_pop = queue.pop();
            let reference_pop = reference.pop();
            prop_assert_eq!(queue_pop, reference_pop, "drain diverged");
            if queue_pop.is_none() {
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

/// Shared world for the arena-vs-script equivalence runs: per-task counters,
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
    fn plan_into(&mut self, _world: &EquivWorld, out: &mut easis::osek::plan::Plan) {
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
/// bodies (`arena = true`) or the reference style (`false`): a `Script`
/// built once per task whose effects are boxed closures it keeps.
fn build_equiv_os(
    specs: &[EquivTaskSpec],
    arena: bool,
) -> easis::osek::kernel::Os<EquivWorld> {
    use easis::osek::alarm::AlarmAction;
    use easis::osek::kernel::Os;
    use easis::osek::plan::Script;
    use easis::osek::task::{Priority, TaskConfig};
    let n_tasks = specs.len() as u32;
    let mut os: Os<EquivWorld> = Os::new();
    for (idx, spec) in specs.iter().enumerate() {
        // Unique priorities: interleaving is then fully determined by the
        // spec, not by same-priority FIFO accidents of insertion order.
        let priority = Priority((idx as u8 + 1) * 2 + (spec.priority_bit & 1));
        let config = TaskConfig::new(format!("t{idx}"), priority);
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
            let task = idx as u32;
            let mut script = Script::new();
            for (cost, effect) in &spec.steps {
                let effect = effect.clone();
                script = script
                    .compute(Duration::from_micros(*cost))
                    .effect(move |w, ctx| apply_effect(task, &effect, n_tasks, w, ctx));
            }
            os.add_task(config, script)
        };
        os.add_alarm(format!("a{idx}"), AlarmAction::ActivateTask(id));
    }
    os
}

/// Starts `os` on a fresh world, activates every task once in
/// declaration order, arms every cyclic alarm and runs to the horizon;
/// returns the world for observation.
fn run_equiv_os(
    os: &mut easis::osek::kernel::Os<EquivWorld>,
    specs: &[EquivTaskSpec],
    horizon: Instant,
) -> EquivWorld {
    use easis::osek::alarm::AlarmId;
    use easis::osek::task::TaskId;
    let mut world = EquivWorld {
        counters: vec![0; specs.len()],
        ..EquivWorld::default()
    };
    os.start(&mut world);
    for idx in 0..specs.len() {
        os.activate_task(TaskId(idx as u32), &mut world)
            .expect("a suspended task activates");
    }
    for (idx, spec) in specs.iter().enumerate() {
        let period = Duration::from_millis(spec.period_ms);
        os.set_rel_alarm(AlarmId(idx as u32), period, Some(period))
            .expect("alarm arms on a fresh/rewound OS");
    }
    os.run_until(horizon, &mut world);
    world
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arena-backed task bodies are observationally equivalent to
    /// `Script` bodies running the same effects as closures: over
    /// randomized task sets (priorities, periods, compute costs, effect
    /// mixes) the kernel trace, the world counters/log and the `CostMeter`
    /// charges are bit-identical — and stay so when the arena OS is
    /// rewound to a snapshot taken before `start()` and the campaign is
    /// replayed on the retained (capacity-warm) buffers.
    #[test]
    fn arena_bodies_match_closure_scripts(
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
        let cold = arena_os.state().clone();
        let arena_world = run_equiv_os(&mut arena_os, &specs, horizon);

        prop_assert_eq!(
            arena_os.trace().events(),
            reference_os.trace().events(),
            "kernel + effect trace diverged"
        );
        prop_assert_eq!(&arena_world.counters, &reference_world.counters);
        prop_assert_eq!(&arena_world.log, &reference_world.log, "effect order diverged");
        prop_assert_eq!(&arena_world.meter, &reference_world.meter, "cost charges diverged");

        // Campaign replay: rewind the arena OS to before `start()` (slots
        // keep their capacity) and run the identical scenario again —
        // still bit-identical.
        arena_os.restore(&cold);
        let replay_world = run_equiv_os(&mut arena_os, &specs, horizon);
        prop_assert_eq!(
            arena_os.trace().events(),
            reference_os.trace().events(),
            "trace diverged after arena rewind replay"
        );
        prop_assert_eq!(&replay_world.counters, &reference_world.counters);
        prop_assert_eq!(&replay_world.log, &reference_world.log);
        prop_assert_eq!(&replay_world.meter, &reference_world.meter);
    }
}

/// Forwards to a task body but names no plan key, so the kernel plans
/// every activation afresh: the reference that plan replay must match.
struct PlanEveryActivation<B>(B);

impl<W, B: easis::osek::plan::TaskBody<W>> easis::osek::plan::TaskBody<W>
    for PlanEveryActivation<B>
{
    fn plan_into(&mut self, world: &W, out: &mut easis::osek::plan::Plan) {
        self.0.plan_into(world, out);
    }

    fn run_effect(
        &mut self,
        token: u32,
        world: &mut W,
        ctx: &mut easis::osek::plan::EffectCtx<'_, W>,
    ) {
        self.0.run_effect(token, world, ctx);
    }
}

/// One randomized runnable task: priority, period and per runnable
/// `(base µs, loop µs, iterations)`.
#[derive(Clone, Debug)]
struct ReplayTaskSpec {
    priority: u8,
    period_ms: u64,
    runnables: Vec<(u64, u64, u32)>,
}

/// A write to the runnable controls, as the injector makes them.
#[derive(Clone, Debug)]
enum ControlWrite {
    Skip(u32, bool),
    Scale(u32, u64),
    Iterations(u32, Option<u32>),
    ExtraHeartbeats(u32, u32),
    GlobalScale(u64),
}

impl ControlWrite {
    fn apply(&self, controls: &mut easis::rte::control::RunnableControls, runnables: u32) {
        let id = |r: &u32| RunnableId(r % runnables);
        match self {
            ControlWrite::Skip(r, on) => controls.runnable_mut(id(r)).skip = *on,
            ControlWrite::Scale(r, ppm) => controls.runnable_mut(id(r)).exec_scale_ppm = *ppm,
            ControlWrite::Iterations(r, n) => {
                controls.runnable_mut(id(r)).iterations_override = *n;
            }
            ControlWrite::ExtraHeartbeats(r, n) => {
                controls.runnable_mut(id(r)).extra_heartbeats = *n;
            }
            ControlWrite::GlobalScale(ppm) => controls.set_global_exec_scale_ppm(*ppm),
        }
    }
}

type ReplayOs = easis::osek::kernel::Os<easis::rte::world::BasicEcuWorld>;

/// Builds and starts the task set: one `SequencedTask` per spec, activated
/// by a cyclic alarm, each wrapped in [`PlanEveryActivation`] unless
/// `replay`. Returns the OS, its world and the number of runnables.
fn build_replay_os(
    specs: &[ReplayTaskSpec],
    replay: bool,
) -> (ReplayOs, easis::rte::world::BasicEcuWorld, u32) {
    use easis::osek::alarm::AlarmAction;
    use easis::osek::task::{Priority, TaskConfig};
    use easis::rte::assembly::SequencedTask;
    use easis::rte::runnable::{RunnableDef, RunnableRegistry};
    let mut registry = RunnableRegistry::new();
    let mut os = ReplayOs::new();
    let mut alarms = Vec::new();
    for (t, spec) in specs.iter().enumerate() {
        let defs = spec
            .runnables
            .iter()
            .map(|&(base, per_loop, iterations)| {
                let name = format!("r{}", registry.len());
                RunnableDef::no_op(registry.register_with_loop(
                    name,
                    Duration::from_micros(base),
                    Duration::from_micros(per_loop),
                    iterations,
                ))
            })
            .collect();
        let body = SequencedTask::fixed(defs);
        let config = TaskConfig::new(format!("t{t}"), Priority(spec.priority));
        let task = if replay {
            os.add_task(config, body)
        } else {
            os.add_task(config, PlanEveryActivation(body))
        };
        let alarm = os.add_alarm(format!("a{t}"), AlarmAction::ActivateTask(task));
        alarms.push((alarm, Duration::from_millis(spec.period_ms)));
    }
    let mut world = easis::rte::world::BasicEcuWorld::new();
    os.start(&mut world);
    for (alarm, period) in alarms {
        os.set_rel_alarm(alarm, period, Some(period))
            .expect("alarm arms once");
    }
    (os, world, registry.len() as u32)
}

/// Runs to `until`, making each write due after the current instant and
/// no later than `until` at its instant (writes sorted by instant).
fn drive_replay_os(
    os: &mut ReplayOs,
    world: &mut easis::rte::world::BasicEcuWorld,
    writes: &[(u64, ControlWrite)],
    runnables: u32,
    until: Instant,
) {
    let from = os.now();
    for (at, write) in writes {
        let at = Instant::from_micros(*at);
        if at > from && at <= until {
            os.run_until(at, world);
            write.apply(&mut world.controls, runnables);
        }
    }
    os.run_until(until, world);
}

/// What a replay-equivalence run shows: the kernel trace (dispatches,
/// preemptions, runnables), the heartbeat log and the kernel state.
type ReplayRun = (
    Vec<easis::sim::trace::TraceEvent>,
    Vec<(RunnableId, Instant)>,
    easis::osek::kernel::OsState,
);

/// Runs the task set to `horizon`, capturing kernel and world at `mid`;
/// then restores the capture and replays from `mid`. Returns the run and
/// its replay.
fn run_and_replay(
    specs: &[ReplayTaskSpec],
    writes: &[(u64, ControlWrite)],
    replay: bool,
    mid: Instant,
    horizon: Instant,
) -> (ReplayRun, ReplayRun) {
    let (mut os, mut world, runnables) = build_replay_os(specs, replay);
    drive_replay_os(&mut os, &mut world, writes, runnables, mid);
    let captured_os = os.state().clone();
    let captured_world = (
        world.signals.clone(),
        world.controls.clone(),
        world.heartbeats.clone(),
    );
    drive_replay_os(&mut os, &mut world, writes, runnables, horizon);
    let observe = |os: &ReplayOs, world: &easis::rte::world::BasicEcuWorld| -> ReplayRun {
        (
            os.trace().events().to_vec(),
            world.heartbeats.clone(),
            os.state().clone(),
        )
    };
    let run = observe(&os, &world);
    os.restore(&captured_os);
    world.signals.clone_from(&captured_world.0);
    world.controls.clone_from(&captured_world.1);
    world.heartbeats.clone_from(&captured_world.2);
    drive_replay_os(&mut os, &mut world, writes, runnables, horizon);
    (run, observe(&os, &world))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Replaying a retained plan is what planning would build: random
    /// runnable task sets, with control writes at random instants (many
    /// right after an activation, inside it), run alike whether every
    /// `SequencedTask` replays its plan under the controls' generation or
    /// plans every activation afresh. Kernel trace, heartbeat log and
    /// kernel state are equal, and again after the kernel and world are
    /// restored to a mid-run capture and replayed. Debug builds also check
    /// every replay against a fresh plan inside the kernel.
    #[test]
    fn replayed_plans_match_planning_every_activation(
        raw_tasks in prop::collection::vec(
            (
                1u8..5,                                        // priority
                2u64..12,                                      // period ms
                prop::collection::vec((1u64..400, 0u64..50, 0u32..6), 1..4),
            ),
            1..5,
        ),
        raw_writes in prop::collection::vec(
            ((any::<u32>(), 0u64..12, 1u64..600), (0u8..5, any::<u32>(), any::<bool>())),
            0..12,
        ),
        horizon_ms in 30u64..80,
        mid_pick in any::<u32>(),
    ) {
        let specs: Vec<ReplayTaskSpec> = raw_tasks
            .iter()
            .map(|(priority, period_ms, runnables)| ReplayTaskSpec {
                priority: *priority,
                period_ms: *period_ms,
                runnables: runnables.clone(),
            })
            .collect();
        // A write lands `offset` µs after the `k`-th activation of a
        // drawn task: inside it, when the task runs then.
        let mut writes: Vec<(u64, ControlWrite)> = raw_writes
            .iter()
            .map(|&((task, k, offset), (kind, param, flag))| {
                let period_us = specs[task as usize % specs.len()].period_ms * 1_000;
                let at = (k * period_us + offset).min(horizon_ms * 1_000);
                let write = match kind {
                    0 => ControlWrite::Skip(param, flag),
                    1 => ControlWrite::Scale(param, 100_000 + u64::from(param % 4_900_000)),
                    2 => ControlWrite::Iterations(param, flag.then_some(param % 20)),
                    3 => ControlWrite::ExtraHeartbeats(param, param % 3),
                    _ => ControlWrite::GlobalScale(200_000 + u64::from(param % 3_000_000)),
                };
                (at, write)
            })
            .collect();
        writes.sort_by_key(|&(at, _)| at);
        let horizon = Instant::from_millis(horizon_ms);
        let mid = Instant::from_micros(u64::from(mid_pick) % (horizon_ms * 1_000));

        let (replayed, replayed_again) = run_and_replay(&specs, &writes, true, mid, horizon);
        let (planned, planned_again) = run_and_replay(&specs, &writes, false, mid, horizon);
        prop_assert_eq!(&replayed.0, &planned.0, "kernel traces diverged");
        prop_assert_eq!(&replayed.1, &planned.1, "heartbeat logs diverged");
        prop_assert_eq!(&replayed.2, &planned.2, "kernel states diverged");
        for (again, label) in [(&replayed_again, "replayed"), (&planned_again, "planned")] {
            prop_assert_eq!(&again.0, &planned.0, "{} run's trace diverged after restore", label);
            prop_assert_eq!(&again.1, &planned.1, "{} run's heartbeats diverged after restore", label);
            prop_assert_eq!(&again.2, &planned.2, "{} run's state diverged after restore", label);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A node rewind is invisible at full-state level: a node built from
    /// the campaign configuration, started and captured at t=0, dirtied by a
    /// different trial and restored to that capture ends the test trial in
    /// exactly the state — kernel, world, detection log — of the same
    /// trial on a freshly built node. Few cases: every case
    /// builds full central nodes and simulates several hundred
    /// milliseconds.
    #[test]
    fn rewound_node_trial_equals_fresh_build_trial(
        seed in any::<u64>(),
        test_pick in any::<u32>(),
        dirty_pick in any::<u32>(),
    ) {
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
        let run = |node: &mut CentralNode, spec: &TrialSpec| {
            node.run_until(horizon, &mut Injector::new([spec.injection.clone()]));
        };

        let mut fresh = CentralNode::build(campaign_node_config());
        fresh.start();
        run(&mut fresh, spec);
        // Dirty the reused node with an unrelated trial first, so the
        // comparison exercises a rewind from a faulted state, not first use.
        let mut reused = CentralNode::build(campaign_node_config());
        reused.start();
        let cold = reused.snapshot();
        run(&mut reused, dirty);
        reused.restore_from(&cold);
        run(&mut reused, spec);

        prop_assert_eq!(
            reused.snapshot(),
            fresh.snapshot(),
            "rewound node diverged from fresh build for {:?}",
            spec.injection
        );
        prop_assert_eq!(reused.world.watchdog.log(), fresh.world.watchdog.log());
    }

    /// A capture taken inside an armed injection window — an app task's
    /// plan in flight, and DTC records and log entries not yet handed
    /// over live once the fault is detected — restores exactly onto a node
    /// that a different trial has dirtied: the dirtied node's recapture
    /// equals the capture, and both nodes finish the trial in the same
    /// state. The other rewind
    /// tests restore captures taken before the injection arms or at a
    /// certified quiescent instant.
    #[test]
    fn capture_inside_the_window_round_trips_onto_a_dirtied_node(
        seed in any::<u64>(),
        test_pick in any::<u32>(),
        dirty_pick in any::<u32>(),
        instant_pick in any::<u32>(),
    ) {
        use easis::osek::kernel::Os;
        use easis::rte::control::RunnableControls;
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
        let injection = &spec.injection;
        // App tasks activate at 5 ms past every 10 ms; capturing on such an
        // instant leaves the activated task's plan in the arena.
        let (from, to) = (injection.from.as_millis(), injection.to.as_millis().min(700));
        let first = from + (15 - from % 10) % 10;
        let instants = if first < to { (to - first).div_ceil(10) } else { 0 };
        let capture = Instant::from_millis(if instants == 0 {
            from
        } else {
            first + 10 * (u64::from(instant_pick) % instants)
        });

        let mut a = CentralNode::build(campaign_node_config());
        a.start();
        let mut injector_a = Injector::new([injection.clone()]);
        a.run_until(capture, &mut injector_a);
        let captured = a.snapshot();

        let mut b = CentralNode::build(campaign_node_config());
        b.start();
        b.run_until(horizon, &mut Injector::new([dirty.injection.clone()]));
        b.restore_from(&captured);
        prop_assert_eq!(
            &b.snapshot(),
            &captured,
            "restore onto a dirtied node is not exact for {:?}",
            injection
        );

        // B's injector in A's state: armed at the capture instant, ticked
        // against throwaway targets so neither node is touched.
        let mut injector_b = Injector::new([injection.clone()]);
        injector_b.tick(capture, &mut RunnableControls::new(), &mut Os::<()>::new());
        a.run_until(horizon, &mut injector_a);
        b.run_until(horizon, &mut injector_b);
        prop_assert_eq!(
            a.snapshot(),
            b.snapshot(),
            "restored node diverged after the capture for {:?}",
            injection
        );
    }

    /// Golden-run prefix checkpointing is invisible: a random campaign run
    /// through the snapshot-forking engine (`run_plan` — golden prefix
    /// simulated once, every trial restored from a fork-point
    /// `NodeSnapshot`, behavior-identical tails collapsed) produces stats
    /// byte-identical to per-trial fresh builds (`run_trial`, the
    /// event-level reference), at any worker count. Few cases: every case
    /// simulates a whole (small) campaign twice over.
    #[test]
    fn forked_snapshot_replay_equals_fresh_runs(
        seed in any::<u64>(),
        trials_per_class in 1usize..3,
        workers in 1usize..=4,
    ) {
        use easis::validator::scenario::{run_plan, run_trial};
        let horizon = Instant::from_millis(700);
        let plan = CampaignBuilder::new(seed, (0..9).map(RunnableId).collect())
            .loop_targets(vec![RunnableId(4), RunnableId(7)])
            .trials_per_class(trials_per_class)
            .window(Instant::from_millis(200), Duration::from_millis(200))
            .with_horizon(horizon)
            .build();
        let fresh = CampaignExecutor::serial().run(&plan, |spec| run_trial(spec, horizon));
        let forked = run_plan(&plan, horizon, &CampaignExecutor::new(workers));
        prop_assert_eq!(&fresh, &forked, "forked diverged from fresh at {} workers", workers);
        prop_assert_eq!(
            serde_json::to_string_pretty(&fresh).unwrap(),
            serde_json::to_string_pretty(&forked).unwrap(),
            "JSON bytes diverged"
        );
    }

    /// The forked engine's campaign report does not depend on the worker
    /// count: multi-trial shares (the worker captures at one fork,
    /// restores, advances to the next fork and captures again) and one
    /// trial per worker (every trial restores the worker's own checkpoint
    /// when it lies at or before the fork, or its t=0 capture and
    /// simulates the prefix otherwise) both equal the fresh per-trial
    /// reference byte for byte, over randomized plans and fork windows.
    /// Few cases: every case simulates three whole campaigns.
    #[test]
    fn forked_reports_are_worker_count_invariant(
        seed in any::<u64>(),
        window_from_ms in 150u64..400,
        window_len_ms in 50u64..300,
        workers in 1usize..=4,
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
        let shared = run_plan(&plan, horizon, &CampaignExecutor::new(workers));
        let single = run_plan(&plan, horizon, &CampaignExecutor::new(plan.len()));
        prop_assert_eq!(&fresh, &shared, "{}-worker run diverged", workers);
        prop_assert_eq!(&fresh, &single, "one-trial-per-worker run diverged");
        prop_assert_eq!(
            serde_json::to_string_pretty(&fresh).unwrap(),
            serde_json::to_string_pretty(&shared).unwrap(),
            "JSON bytes diverged at {} workers", workers
        );
        prop_assert_eq!(
            serde_json::to_string_pretty(&fresh).unwrap(),
            serde_json::to_string_pretty(&single).unwrap(),
            "JSON bytes diverged at one trial per worker"
        );
    }
}

/// Builds the campaign node and drives `injection`'s trial through the
/// node's public API up to disarm: an injection-free prefix to
/// `injection.from`, eligible for macro-stepping, then the armed window,
/// where the injector ticks at millisecond granularity like the
/// experiments do, so the window runs at event level.
fn run_campaign_trial_to_disarm(injection: &Injection, ffwd: bool) -> CentralNode {
    let mut node = CentralNode::build(campaign_node_config());
    node.set_fastforward(Some(ffwd));
    node.start();
    node.run_span(injection.from);
    let mut injector = Injector::new([injection.clone()]);
    node.run_until(injection.to, &mut injector);
    node
}

/// Drives `injection`'s trial to disarm, then through the quiescent tail
/// to `horizon`, eligible for macro-stepping again (modulo DTC aging et
/// al.). Returns the node and the certifications its tail made.
fn run_campaign_trial(injection: &Injection, horizon: Instant, ffwd: bool) -> (CentralNode, u64) {
    let mut node = run_campaign_trial_to_disarm(injection, ffwd);
    let certified = node.ffwd_stats().certifications;
    node.run_span(horizon);
    let tail_certifications = node.ffwd_stats().certifications - certified;
    (node, tail_certifications)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Hyperperiod macro-stepping is invisible: driving a random campaign
    /// trial through the node's public API with fast-forwarding enabled
    /// ends in a state bit-identical to the same trial simulated purely
    /// event-by-event. The random window start/length and horizon move the
    /// certification points, the jump spans and the sub-hyperperiod
    /// residues around. Short windows (5–30 ms) leave Pending DTCs that
    /// age out inside the tail's jump, and horizons up to 20 s carry most
    /// jumps past 2^24 µs (16 777 ms) — the engine must land on the exact
    /// event-level state every time.
    #[test]
    fn macro_stepped_trial_equals_event_level_simulation(
        seed in any::<u64>(),
        window_from_ms in 150u64..500,
        window_len_ms in 5u64..=30,
        horizon_ms in 800u64..=20_000,
        pick in any::<u32>(),
    ) {
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
        let (fast, _) = run_campaign_trial(&spec.injection, horizon, true);
        let (plain, _) = run_campaign_trial(&spec.injection, horizon, false);
        prop_assert_eq!(fast.os.now(), plain.os.now());
        // The engine saw the spans even when it chose not to jump.
        prop_assert!(fast.ffwd_stats().span > Duration::ZERO);
        prop_assert_eq!(plain.ffwd_stats().fastforwarded, Duration::ZERO);
        prop_assert_eq!(
            fast.snapshot(),
            plain.snapshot(),
            "macro-stepped end state diverged from event-level for {:?}",
            spec.injection
        );
    }
}

/// One error class of each of the six kinds, drawn from `pick`: the five
/// runnable classes on a random monitored runnable and an alarm rescaled
/// by ½, 1.5, 2 or 4 on a random cyclic alarm of the node.
fn draw_any_class(node: &CentralNode, kind: u64, pick: u64) -> ErrorClass {
    let runnable = RunnableId((pick % 9) as u32);
    let param = pick / 9;
    match kind % 6 {
        0 => ErrorClass::ExecutionSlowdown {
            runnable,
            scale_ppm: (2 + param % 300) * 1_000_000,
        },
        1 => ErrorClass::HeartbeatLoss { runnable },
        2 => ErrorClass::SkipRunnable { runnable },
        3 => ErrorClass::DuplicateDispatch {
            runnable,
            extra: 1 + (param % 5) as u32,
        },
        4 => ErrorClass::LoopOverrun {
            runnable: [RunnableId(4), RunnableId(7)][(param % 2) as usize],
            iterations: 1_000 + (param % 30_000) as u32,
        },
        _ => {
            let alarms: Vec<_> = node.alarms.values().copied().collect();
            ErrorClass::AlarmScale {
                alarm: alarms[(param % alarms.len() as u64) as usize],
                scale_ppm: [500_000, 1_500_000, 2_000_000, 4_000_000][(param / 7 % 4) as usize],
            }
        }
    }
}

/// Macro-stepping inside armed injection windows is invisible. Each case
/// draws one of the six error classes, a target, a window of up to
/// 600 ms and a horizon, and drives the trial the way the campaign engine
/// does — `run_span` to the arming tick, the tick, `run_span` to the
/// disarming tick, the tick, `run_span` to the horizon — once with
/// fast-forward on and once off. The checkpoints must be equal at the
/// disarming tick and at the horizon, and at least one case must have
/// jumped inside its armed window, so the faulty steady state was
/// certified and its detection bookkeeping replayed.
#[test]
fn macro_stepped_armed_windows_match_event_level() {
    let overrides = proptest::RunOverrides::from_env();
    let mut rng = overrides.rng(concat!(
        module_path!(),
        "::macro_stepped_armed_windows_match_event_level"
    ));
    let cases = overrides.cases(&ProptestConfig::with_cases(16));
    let mut jumped_inside = 0;
    for _ in 0..cases {
        let kind = (0u64..6).generate(&mut rng);
        let pick = any::<u64>().generate(&mut rng);
        let from_us = (0u64..700_000).generate(&mut rng);
        let len_us = (1_000u64..600_000).generate(&mut rng);
        let horizon = Instant::from_millis((800u64..2_000).generate(&mut rng));
        let ms = Duration::from_millis(1);
        let fork = Instant::from_micros(from_us.div_ceil(1_000) * 1_000);
        let to_tick = Instant::from_micros((from_us + len_us).div_ceil(1_000) * 1_000);
        let disarm = to_tick.max(fork + ms);
        let run = |ffwd: bool| {
            let mut node = CentralNode::build(campaign_node_config());
            let class = draw_any_class(&node, kind, pick);
            let injection = Injection::new(
                class,
                Instant::from_micros(from_us),
                Instant::from_micros(from_us + len_us),
            );
            node.set_fastforward(Some(ffwd));
            node.start();
            node.run_span(fork);
            let mut injector = Injector::new([injection.clone()]);
            injector.tick(fork, &mut node.world.controls, &mut node.os);
            let before = node.ffwd_stats().fastforwarded;
            node.run_span(disarm.min(horizon));
            let armed_jump = node.ffwd_stats().fastforwarded - before;
            let at_disarm = node.snapshot();
            if disarm <= horizon {
                injector.tick(disarm, &mut node.world.controls, &mut node.os);
                node.run_span(horizon);
                injector.tick(horizon, &mut node.world.controls, &mut node.os);
            }
            (injection, at_disarm, node.snapshot(), armed_jump)
        };
        let (injection, fast_disarm, fast_end, armed_jump) = run(true);
        let (_, plain_disarm, plain_end, _) = run(false);
        assert_eq!(
            fast_disarm, plain_disarm,
            "macro-stepped armed window diverged from event level for {injection:?}"
        );
        assert_eq!(
            fast_end, plain_end,
            "macro-stepped end state diverged from event level for {injection:?}"
        );
        if armed_jump > Duration::ZERO {
            jumped_inside += 1;
        }
    }
    assert!(
        jumped_inside > 0,
        "no case jumped inside its armed window in {cases} cases"
    );
}

/// Fault tails that certify. In each of the four `easis_bench` trials
/// below (named workload seed/plan/trial), a tail sample after a slowdown
/// or loop-overrun window finds every task `Suspended`, and one task's last
/// readying sits at another place in the sequence of readyings than one
/// hyperperiod earlier. The kernel state records no such history, so the
/// sample certifies from one hyperperiod. Each tail must certify at least
/// once and end in the event-level checkpoint.
#[test]
fn fault_tails_certify_and_match_event_level() {
    let horizon = Instant::from_millis(1_500);
    let slowdown = ErrorClass::ExecutionSlowdown {
        runnable: RunnableId(6),
        scale_ppm: 334_000_000,
    };
    let overrun = ErrorClass::LoopOverrun {
        runnable: RunnableId(7),
        iterations: 6335,
    };
    for (trial, class, from_us, to_us) in [
        ("tcov 10/0/63", &slowdown, 301_737, 701_737),
        ("tcov 10/1/102", &slowdown, 302_838, 702_838),
        ("spread 1/3/374", &overrun, 866_943, 940_027),
        ("spread 7/1/374", &overrun, 869_950, 1_042_324),
    ] {
        let injection = Injection::new(
            class.clone(),
            Instant::from_micros(from_us),
            Instant::from_micros(to_us),
        );
        let (fast, tail_certifications) = run_campaign_trial(&injection, horizon, true);
        let (plain, _) = run_campaign_trial(&injection, horizon, false);
        assert!(
            tail_certifications >= 1,
            "{trial}: the tail must certify: {:?}",
            fast.ffwd_stats()
        );
        assert_eq!(fast.os.now(), plain.os.now(), "{trial}");
        assert_eq!(
            fast.snapshot(),
            plain.snapshot(),
            "{trial}: macro-stepped end state diverged from event-level"
        );
    }
}

/// DTC aging and age-out inside one jump: this exact slowdown (lifted
/// from the campaign plan) leaves a Pending DTC record deep in its aging
/// drain at disarm. After falling back on the settling post-disarm
/// samples, the tail certifies once, with a non-zero per-hyperperiod
/// DTC-aging delta, and applies it in one jump straight across the
/// age-out — the closed form retires the record the way the event level
/// does — landing bit-identical to the event-level run.
#[test]
fn macro_stepping_falls_back_and_recovers_across_dtc_age_out() {
    use easis::fmf::dtc::DtcStatus;
    let horizon = Instant::from_millis(1_500);
    let injection = Injection::new(
        ErrorClass::ExecutionSlowdown {
            runnable: RunnableId(3),
            scale_ppm: 223_000_000,
        },
        Instant::from_micros(305_337),
        Instant::from_micros(355_337),
    );
    // The scenario's whole point: a Pending DTC is still aging when the
    // quiescent tail begins.
    for ffwd in [true, false] {
        let node = run_campaign_trial_to_disarm(&injection, ffwd);
        assert!(
            node.world
                .fmf
                .dtc()
                .iter()
                .any(|r| r.status == DtcStatus::Pending),
            "scenario drifted: no Pending DTC left at disarm"
        );
    }
    let (fast, tail_certifications) = run_campaign_trial(&injection, horizon, true);
    let (plain, _) = run_campaign_trial(&injection, horizon, false);

    let stats = fast.ffwd_stats();
    assert!(
        stats.fastforwarded >= Duration::from_millis(800),
        "the tail should mostly fast-forward despite the drain: {stats:?}"
    );
    assert_eq!(
        tail_certifications, 1,
        "the tail must certify once and jump across the age-out: {stats:?}"
    );
    assert!(
        fast.world
            .fmf
            .dtc()
            .iter()
            .all(|r| r.status == DtcStatus::Confirmed),
        "the jump must retire every Pending record the drain ages out"
    );

    assert_eq!(fast.os.now(), plain.os.now());
    assert_eq!(
        fast.snapshot(),
        plain.snapshot(),
        "macro-stepped end state diverged from event-level across the age-out"
    );
}

/// Forced mid-span fallback, case 2 — sampling-phase collision: the window
/// ends exactly on a 10 ms task-period boundary, so every h-spaced
/// certification sample initially lands mid-dispatch (a task Ready or
/// running) and is rejected. The one-millisecond phase nudge must walk
/// the sampler off the boundary, after which the tail certifies and
/// fast-forwards — bit-identical to the event-level run.
#[test]
fn macro_stepping_rephases_off_task_period_boundaries() {
    let horizon = Instant::from_millis(1_500);
    let injection = Injection::new(
        ErrorClass::ExecutionSlowdown {
            runnable: RunnableId(4),
            scale_ppm: 4_000_000,
        },
        Instant::from_millis(300),
        Instant::from_millis(450),
    );
    let (fast, _) = run_campaign_trial(&injection, horizon, true);
    let (plain, _) = run_campaign_trial(&injection, horizon, false);

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
    assert_eq!(
        fast.snapshot(),
        plain.snapshot(),
        "macro-stepped end state diverged from event-level after re-phasing"
    );
}

/// Runtime reconfiguration between spans: the outlook's O-RECFG mode
/// change lands between two `run_span`s. SafeSpeed's activation alarm
/// slows 2× or 3× at 1 s, with or without its three hypotheses
/// reconfigured to one indication per two watchdog cycles. The engine
/// must certify again after the change and end bit-identical to the
/// event-level run.
#[test]
fn macro_stepping_follows_runtime_reconfiguration() {
    use easis::validator::NodeConfig;
    for (scale_ppm, reconfigure) in [
        (2_000_000, true),
        (2_000_000, false),
        (3_000_000, true),
        (3_000_000, false),
    ] {
        let run = |ffwd: bool| {
            let mut node = CentralNode::build(NodeConfig {
                kernel_trace: false,
                ..NodeConfig::default()
            });
            node.set_fastforward(Some(ffwd));
            node.start();
            node.run_span(Instant::from_millis(1_000));
            let before = node.ffwd_stats();
            let alarm = node.alarms["SafeSpeedTask"];
            node.os
                .alarm_mut(alarm)
                .expect("alarm exists")
                .set_cycle_scale_ppm(scale_ppm);
            if reconfigure {
                for name in ["GetSensorValue", "SAFE_CC_process", "Speed_process"] {
                    let rid = node.runnable(name);
                    node.world.watchdog.reconfigure(
                        RunnableHypothesis::new(rid)
                            .alive_at_least(1, 2)
                            .arrive_at_most(1, 2),
                    );
                }
            }
            node.run_span(Instant::from_millis(3_000));
            (node, before)
        };
        let (fast, before) = run(true);
        let (plain, _) = run(false);
        let after = fast.ffwd_stats();
        let case = format!("{scale_ppm} ppm, reconfigured: {reconfigure}");
        assert!(
            after.certifications > before.certifications,
            "{case}: no certification after the mode change: {before:?} -> {after:?}"
        );
        assert_eq!(fast.os.now(), plain.os.now(), "{case}");
        assert_eq!(
            fast.snapshot(),
            plain.snapshot(),
            "{case}: macro-stepped state diverged after the mode change"
        );
    }
}
