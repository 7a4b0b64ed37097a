//! Long-horizon soak tests: the platform must stay healthy, bounded and
//! deterministic over extended runs. The short variants run in the normal
//! suite; the minutes-long ones are `#[ignore]`d (run with
//! `cargo test -- --ignored`).

use easis::injection::{CampaignBuilder, CampaignExecutor, Injector};
use easis::rte::runnable::RunnableId;
use easis::sim::event::EventQueue;
use easis::sim::rng::SimRng;
use easis::sim::time::{Duration, Instant};
use easis::validator::hil::HilValidator;
use easis::validator::{scenario, CentralNode, NodeConfig};

/// Simulated soak horizon in milliseconds. Defaults to two hours; CI smoke
/// runs set `EASIS_SOAK_HORIZON_MS` to a short horizon (still several
/// multiples of [`BOUNDARY_US`]).
fn soak_horizon_ms() -> u64 {
    std::env::var("EASIS_SOAK_HORIZON_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2 * 60 * 60 * 1000)
}

/// 2^24 µs ≈ 16.8 s. The long-horizon scenarios schedule events further
/// ahead than this and cross it (and its multiples) to pin that ordering,
/// cancel verdicts and fault detection do not depend on how far in the
/// future an event lies or on where simulated time stands.
const BOUNDARY_US: u64 = 1 << 24;

#[test]
fn central_node_stays_clean_for_ten_simulated_seconds() {
    let mut node = CentralNode::build(NodeConfig::default());
    node.start();
    let mut injector = Injector::none();
    node.run_until(Instant::from_millis(10_000), &mut injector);
    assert!(node.world.fault_log.is_empty());
    assert_eq!(node.world.hw_watchdog.expirations(), 0);
    assert_eq!(node.world.watchdog.cycles_run(), 999);
    // The trace grows linearly, not explosively (~60 events per 10ms
    // hyperperiod across 5 tasks).
    assert!(node.os.trace().len() < 100_000, "{}", node.os.trace().len());
}

#[test]
fn hil_long_run_remains_stable_and_supervised() {
    let mut hil = HilValidator::motorway(25.0, 13.9, None, 99);
    let mut injector = Injector::none();
    let report = hil.run(Duration::from_secs(120), &mut injector, None);
    assert!((report.final_speed - 13.9).abs() < 1.5);
    assert_eq!(report.faults_detected, 0);
    // Bus traffic is proportional to time: 120s × (100 speed+50 lat+20 lim)/s.
    assert!(report.can_frames > 15_000);
}

/// Heap-of-record for the event-queue soak: the same lazy-cancellation
/// `BinaryHeap` model the property suite uses, kept minimal here so the
/// soak is self-contained.
struct HeapOfRecord {
    heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u64)>>,
    cancelled: std::collections::HashSet<u64>,
    next_seq: u64,
}

impl HeapOfRecord {
    fn new() -> Self {
        HeapOfRecord {
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

/// Hours of simulated time through the event queue, in lockstep with a
/// binary-heap model: a 10 ms tick, a 60 s re-arming alarm that is always
/// scheduled more than 2^24 µs ahead, random far one-shots up to 90
/// minutes out, and occasional cancellations of far events. Peek, pop and
/// cancel verdicts must agree at every event, including right after every
/// 2^24 µs boundary the clock crosses.
#[test]
fn timer_wheel_soak_matches_heap_across_overflow_cascades() {
    #[derive(Clone, Copy, PartialEq)]
    enum Kind {
        FastTick,
        SlowAlarm,
        FarOneShot,
    }

    let horizon = Instant::from_millis(soak_horizon_ms());
    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut record = HeapOfRecord::new();
    let mut rng = SimRng::seed_from(0x50AC);
    // Payloads are the reference sequence numbers; `kinds[seq]` says how to
    // react to the expiry (re-arm fast/slow, or nothing for one-shots).
    let mut kinds: Vec<Kind> = Vec::new();

    fn schedule(
        queue: &mut EventQueue<u64>,
        record: &mut HeapOfRecord,
        kinds: &mut Vec<Kind>,
        kind: Kind,
        at: Instant,
    ) -> easis::sim::event::EventId {
        let id = queue.schedule(at, record.next_seq);
        let seq = record.schedule(at);
        assert_eq!(id.raw(), seq, "seq allocation diverged");
        kinds.push(kind);
        id
    }

    // Seed the periodic sources.
    let mut far_spills: u64 = 0; // events scheduled more than 2^24 µs ahead
    let mut boundary_crossings: u64 = 0; // 2^24 µs boundaries crossed
    let fast_period = Duration::from_millis(10);
    let slow_period = Duration::from_secs(60);
    schedule(&mut queue, &mut record, &mut kinds, Kind::FastTick, Instant::ZERO + fast_period);
    schedule(&mut queue, &mut record, &mut kinds, Kind::SlowAlarm, Instant::ZERO + slow_period);
    far_spills += 1;
    let mut far_ids = Vec::new();

    let mut last_rotation = 0u64;
    loop {
        assert_eq!(queue.peek_time(), record.peek_time(), "peek diverged");
        let queue_pop = queue.pop();
        let record_pop = record.pop();
        assert_eq!(queue_pop, record_pop, "pop stream diverged");
        let Some((now, seq)) = queue_pop else {
            break;
        };
        if now > horizon {
            break;
        }
        let rotation = now.as_micros() >> 24;
        if rotation != last_rotation {
            boundary_crossings += 1;
            last_rotation = rotation;
            // Right after a boundary the head of both queues must still
            // agree.
            assert_eq!(queue.peek_time(), record.peek_time(), "peek diverged after boundary");
        }

        // Re-arm the periodic sources relative to their own expiry, the way
        // kernel alarms do; sprinkle in far one-shots and cancellations.
        match kinds[seq as usize] {
            Kind::FastTick => {
                schedule(&mut queue, &mut record, &mut kinds, Kind::FastTick, now + fast_period);
                if rng.next_below(100) < 2 {
                    let far = Duration::from_millis(rng.next_in(20_000, 5_400_000));
                    let id = schedule(
                        &mut queue,
                        &mut record,
                        &mut kinds,
                        Kind::FarOneShot,
                        now + far,
                    );
                    if far.as_micros() > BOUNDARY_US {
                        far_spills += 1;
                    }
                    far_ids.push(id);
                    if far_ids.len() > 8 {
                        // Cancel an old far event — often already fired;
                        // the verdicts must agree either way.
                        let pick = rng.next_below(far_ids.len() as u64) as usize;
                        let victim = far_ids.remove(pick);
                        assert_eq!(
                            queue.cancel(victim),
                            record.cancel(victim.raw()),
                            "cancel verdict diverged"
                        );
                    }
                }
            }
            Kind::SlowAlarm => {
                schedule(&mut queue, &mut record, &mut kinds, Kind::SlowAlarm, now + slow_period);
                far_spills += 1;
            }
            Kind::FarOneShot => {}
        }
    }

    // The soak must actually have reached far ahead, not just the near
    // term: every 60 s re-arm spills past 2^24 µs, and hours of time cross
    // many boundaries.
    let expected_rotations = soak_horizon_ms() * 1000 / BOUNDARY_US;
    assert!(
        far_spills >= expected_rotations.div_ceil(4).max(2),
        "only {far_spills} far spills — soak did not reach past 2^24 us"
    );
    assert_eq!(
        boundary_crossings, expected_rotations,
        "boundary count diverged from the simulated horizon"
    );

    // Drain both completely: far one-shots beyond the horizon included.
    loop {
        assert_eq!(queue.peek_time(), record.peek_time(), "drain peek diverged");
        let queue_pop = queue.pop();
        assert_eq!(queue_pop, record.pop(), "drain diverged");
        if queue_pop.is_none() {
            break;
        }
    }
}

/// The same far-ahead traffic end-to-end through the OSEK kernel: a 10 ms
/// task and a 60 s task (whose cyclic alarm re-arms more than 2^24 µs
/// ahead every time) run for hours of simulated time on arena-backed
/// bodies with the trace disabled. Activation counts must come out exact —
/// a lost or duplicated expiry would skew them — and the run must stay
/// allocation-bounded enough to finish in test time.
#[test]
fn kernel_alarm_soak_exact_activation_counts_past_wheel_horizon() {
    use easis::osek::alarm::{AlarmAction, AlarmId};
    use easis::osek::kernel::Os;
    use easis::osek::plan::{Plan, TaskBody};
    use easis::osek::task::{Priority, TaskConfig};

    struct CountBody {
        slot: usize,
        cost: Duration,
    }
    impl TaskBody<[u64; 2]> for CountBody {
        fn plan_into(&mut self, _now: Instant, _world: &[u64; 2], out: &mut Plan<[u64; 2]>) {
            out.push_compute(self.cost);
            out.push_effect_ref(0);
        }
        fn run_effect(
            &mut self,
            _token: u32,
            world: &mut [u64; 2],
            _ctx: &mut easis::osek::plan::EffectCtx<'_, [u64; 2]>,
        ) {
            world[self.slot] += 1;
        }
        fn name(&self) -> &str {
            "count"
        }
    }

    let horizon_ms = soak_horizon_ms();
    let horizon = Instant::from_millis(horizon_ms);
    let mut os: Os<[u64; 2]> = Os::with_disabled_trace();
    let fast = os.add_task(
        TaskConfig::new("fast", Priority(2)),
        CountBody { slot: 0, cost: Duration::from_micros(50) },
    );
    let slow = os.add_task(
        TaskConfig::new("slow", Priority(1)),
        CountBody { slot: 1, cost: Duration::from_micros(200) },
    );
    os.add_alarm("fast", AlarmAction::ActivateTask(fast));
    os.add_alarm("slow", AlarmAction::ActivateTask(slow));

    let mut world = [0u64; 2];
    os.start(&mut world);
    os.set_rel_alarm(AlarmId(0), Duration::from_millis(10), Some(Duration::from_millis(10)))
        .unwrap();
    os.set_rel_alarm(AlarmId(1), Duration::from_secs(60), Some(Duration::from_secs(60)))
        .unwrap();
    os.run_until(horizon, &mut world);

    assert_eq!(world[0], horizon_ms.div_ceil(10).saturating_sub(1), "fast activations");
    assert_eq!(world[1], (horizon_ms / 1000).div_ceil(60).saturating_sub(1), "slow activations");
    assert_eq!(os.now(), horizon);
}

/// Kernel-visible long-horizon scenario: a full central node runs past
/// 2^24 µs ≈ 16.8 s while a heartbeat loss on SAFE_CC is injected across
/// that boundary itself — the injection window opens before it and closes
/// after it. Crossing it must neither drop nor delay the dependability
/// pipeline: the Software Watchdog detects the loss inside the window, the
/// FMF reaction strictly follows the first detection, and after the window
/// closes the node returns to a clean steady state for the rest of the
/// horizon. `EASIS_SOAK_HORIZON_MS`
/// gates how far past the boundary the CI smoke runs (clamped so the
/// default two-hour soak setting stays test-time bounded — the scenario's
/// interesting region is the boundary plus a settle margin).
#[test]
fn central_node_detects_and_treats_fault_across_cascade_boundary() {
    use easis::fmf::policy::Treatment;
    use easis::injection::{ErrorClass, Injection};

    // First boundary, in ms (16_777.216 ms).
    let boundary_ms = BOUNDARY_US / 1000;
    let from = Instant::from_millis(boundary_ms - 80);
    let to = Instant::from_millis(boundary_ms + 120);
    let horizon_ms = soak_horizon_ms().clamp(boundary_ms + 3_000, 60_000);
    let horizon = Instant::from_millis(horizon_ms);

    // Full default node (treatment enabled); the kernel trace would grow
    // linearly over tens of simulated seconds without informing any
    // assertion here, so it stays off like in the other soaks.
    let mut node = CentralNode::build(NodeConfig {
        kernel_trace: false,
        ..NodeConfig::default()
    });
    node.start();
    let mut injector = Injector::new([Injection::new(
        ErrorClass::HeartbeatLoss {
            runnable: RunnableId(4), // SAFE_CC in the full node
        },
        from,
        to,
    )]);
    node.run_until(horizon, &mut injector);
    assert_eq!(node.os.now(), horizon);

    // Detection: the aliveness unit catches the loss despite the boundary
    // crossing inside the window, and every fault lies in the window (plus
    // trailing supervision-window latency) — nothing fires spuriously in
    // the clean stretches before injection or after recovery.
    let first_fault = *node.world.fault_log.first().expect("heartbeat loss detected");
    let late = Instant::from_millis(to.as_millis() + 500);
    assert!(first_fault.at >= from, "detection at {} precedes injection", first_fault.at);
    for fault in &node.world.fault_log {
        assert!(
            fault.at >= from && fault.at <= late,
            "fault at {} outside the injection window — node did not return clean",
            fault.at
        );
    }

    // Reaction: the FMF treats the faulty application, strictly after the
    // first detection and in causal order.
    let treatments = &node.world.treatments;
    assert!(!treatments.is_empty(), "detected fault produced no reaction");
    assert!(
        treatments
            .iter()
            .any(|t| matches!(t.treatment, Treatment::RestartApplication(_))),
        "expected an application restart among the reactions"
    );
    assert!(
        treatments[0].at >= first_fault.at,
        "reaction at {} precedes first detection at {}",
        treatments[0].at,
        first_fault.at
    );
    for pair in treatments.windows(2) {
        assert!(pair[0].at <= pair[1].at, "reactions out of causal order");
    }
    assert!(
        treatments.last().expect("nonempty").at <= late,
        "reactions kept firing after the fault window closed"
    );

    // The software stack caught it — the hardware watchdog never starved.
    assert_eq!(node.world.hw_watchdog.expirations(), 0);
    // The supervision loop itself ran the whole horizon (one cycle per
    // 10 ms period, minus the final boundary cycle).
    assert!(node.world.watchdog.cycles_run() >= horizon_ms / 10 - 2);
}

/// The detection pipeline is boundary independent: a heartbeat-loss
/// window of identical shape, aligned to the node's 20 ms hyperperiod so
/// the phase between injection start and the next watchdog check is the
/// same every time, is swept across three consecutive multiples of
/// 2^24 µs, straddling each. Where simulated time stands must neither
/// delay nor advance detection: the first-detection latency has to come
/// out bit-identical at all three boundaries.
#[test]
fn heartbeat_loss_latency_is_rotation_boundary_independent() {
    use easis::injection::{ErrorClass, Injection};

    let mut latencies = Vec::new();
    for rotation in 1..=3u64 {
        let boundary_us = rotation * BOUNDARY_US;
        // Align the window start to the 20 ms hyperperiod grid (watchdog
        // cycle 10 ms, app periods 5/10/20 ms), 80 ms before the boundary;
        // the 200 ms window then straddles the boundary.
        let from_ms = (boundary_us / 1_000 / 20) * 20 - 80;
        let from = Instant::from_millis(from_ms);
        let to = from + Duration::from_millis(200);
        let horizon = Instant::from_millis(from_ms + 1_000);

        let mut node = CentralNode::build(NodeConfig {
            kernel_trace: false,
            ..NodeConfig::default()
        });
        node.start();
        let mut injector = Injector::new([Injection::new(
            ErrorClass::HeartbeatLoss {
                runnable: RunnableId(4), // SAFE_CC in the full node
            },
            from,
            to,
        )]);
        node.run_until(horizon, &mut injector);

        let first = node
            .world
            .fault_log
            .first()
            .unwrap_or_else(|| panic!("loss undetected at rotation {rotation}"));
        assert!(
            first.at >= from && first.at <= to + Duration::from_millis(500),
            "rotation {rotation}: detection at {} outside the injection window",
            first.at
        );
        latencies.push(first.at.saturating_duration_since(from));
    }

    assert!(
        latencies.windows(2).all(|pair| pair[0] == pair[1]),
        "detection latency varies across rotation boundaries: {latencies:?}"
    );
}

/// The macro-stepping engine over a genuinely long horizon: the
/// injection-free prefix spans 2^24 µs ≈ 16.8 s. The engine certifies once
/// and jumps straight across it — the jump shifts every pending timer in
/// place, so the crossing needs no event-level hyperperiod. A heartbeat
/// loss opens just past the boundary, so detection and
/// treatment run on a node whose entire pre-fault history was
/// fast-forwarded; the dependability verdict and the final node state must
/// come out bit-identical to the event-level run that simulated every one
/// of the ~16 million microseconds.
#[test]
fn macro_stepped_soak_crosses_rotation_boundary_and_detects_fault_past_it() {
    use easis::fmf::policy::Treatment;
    use easis::injection::{ErrorClass, Injection};

    let boundary_ms = BOUNDARY_US / 1000; // 16_777
    let from = Instant::from_millis(boundary_ms + 20);
    let to = Instant::from_millis(boundary_ms + 220);
    let horizon = Instant::from_millis(boundary_ms + 3_000);

    let run = |ffwd: bool| {
        let mut node = CentralNode::build(NodeConfig {
            kernel_trace: false,
            ..NodeConfig::default()
        });
        node.set_fastforward(Some(ffwd));
        node.start();
        // Quiescent prefix across the boundary.
        node.run_span(from);
        let prefix = node.ffwd_stats();
        // The window runs under the per-millisecond injector tick loop,
        // at event level.
        let mut injector = Injector::new([Injection::new(
            ErrorClass::HeartbeatLoss {
                runnable: RunnableId(4), // SAFE_CC in the full node
            },
            from,
            to,
        )]);
        node.run_until(to, &mut injector);
        node.run_span(horizon);
        (node, prefix)
    };
    let (fast, prefix) = run(true);
    let (plain, _) = run(false);

    // The prefix really was macro-stepped: at most one start-up rejection,
    // one certification, then one jump of over 16 s that ends within a
    // hyperperiod (20 ms) of `from` — past the boundary, so the jump
    // crossed it.
    assert_eq!(prefix.certifications, 1, "{prefix:?}");
    assert!(prefix.fallbacks <= 1, "{prefix:?}");
    assert!(
        prefix.fastforwarded >= Duration::from_secs(16),
        "long prefix barely fast-forwarded: {prefix:?}"
    );
    assert_eq!(plain.ffwd_stats().fastforwarded, Duration::ZERO);

    // The fault just past the boundary is detected and treated in causal
    // order on the fast-forwarded node.
    let first_fault = *fast.world.fault_log.first().expect("heartbeat loss detected");
    assert!(
        first_fault.at >= from,
        "detection at {} precedes injection",
        first_fault.at
    );
    let treatments = &fast.world.treatments;
    assert!(
        treatments
            .iter()
            .any(|t| matches!(t.treatment, Treatment::RestartApplication(_))),
        "expected an application restart among the reactions"
    );
    assert!(
        treatments[0].at >= first_fault.at,
        "reaction at {} precedes first detection at {}",
        treatments[0].at,
        first_fault.at
    );
    assert_eq!(fast.world.hw_watchdog.expirations(), 0);

    // And the whole run is bit-identical to the event-level reference.
    assert_eq!(fast.os.now(), plain.os.now());
    assert_eq!(
        fast.snapshot(),
        plain.snapshot(),
        "macro-stepped soak diverged from the event-level run"
    );
}

#[test]
#[ignore = "minutes-long campaign; run with --ignored"]
fn large_campaign_soak() {
    let targets: Vec<RunnableId> = (0..9).map(RunnableId).collect();
    let horizon = Instant::from_millis(1_500);
    let plan = CampaignBuilder::new(7, targets)
        .loop_targets(vec![RunnableId(4), RunnableId(7)])
        .trials_per_class(50)
        .with_horizon(horizon)
        .build();
    let stats = CampaignExecutor::serial().run(&plan, |t| scenario::run_trial(t, horizon));
    assert_eq!(stats.len(), 250);
    // Every runnable-level class stays fully covered at scale.
    for class in ["heartbeat_loss", "skip_runnable"] {
        assert_eq!(stats.sw_coverage(class), 1.0, "{class}");
    }
}
