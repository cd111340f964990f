//! Control-loop contracts: the guarantees the closed-loop PR must keep,
//! end to end through `LocalizationSession` and `SessionManager`.
//!
//! 1. **Hysteresis.** The throttle loop is hysteretic: constant load
//!    yields at most one entry and never oscillates (property-tested
//!    over the closed loop, for any overload/relief pair).
//! 2. **Conservation.** Admission counters conserve:
//!    `offered == admitted + degraded + shed`, for any deadline and
//!    stream (property-tested through `try_enqueue`).
//! 3. **Opt-in is free.** A throttle-armed session under no deadline
//!    pressure is bit-identical to an unthrottled one — the loop
//!    observes until the deadline actually binds.
//! 4. **Binding deadlines bind.** Under a deadline between the
//!    throttled and unthrottled modeled periods the loop enters, stays
//!    (no oscillation), and converges the modeled frame period under
//!    the deadline, with the directive stamped on the records.
//! 5. **Fault-aware pricing.** Dead-reckoned / unserved frames are
//!    priced as IMU-only work: no offloadable kernels, no offload
//!    decisions, zero modeled frontend latency — at the engine seam and
//!    through a real blacked-out session.
//! 6. **Mixed fleets stay parallel.** `poll_parallel` over a fleet with
//!    faulted *and* clean agents matches sequential polling bit for bit
//!    (the faulted agents drain sequentially, surfaced in
//!    `sequential_drains`; the clean ones still shard).
//! 7. **Deadlines without links are armed.** A `ScheduledEngine` with
//!    only a deadline re-plans overruns to all-local, stamps
//!    `deadline_missed`, and counts misses in `LinkStats`.
//!
//! CI runs this suite by name (`cargo test -p eudoxus-core control_`).

use eudoxus_backend::{Kernel, KernelSample};
use eudoxus_core::{
    AdmissionConfig, DegradationState, Enqueue, ExecutionEngine, FallbackCause, FaultPlan,
    FaultProfile, FrameContext, FrameDirective, FrameRecord, FrameVitals, HealthReport,
    LocalizationSession, OffloadPolicy, PipelineConfig, ScheduledEngine, SessionBuilder,
    SessionManager, ThrottleConfig, ThrottleController,
};
use eudoxus_accel::Platform as AccelPlatform;
use eudoxus_frontend::{FrameStats, FrontendTiming};
use eudoxus_sim::{Dataset, ScenarioBuilder, ScenarioKind};
use proptest::prelude::*;
use std::time::Duration;

fn dataset(kind: ScenarioKind, frames: usize, seed: u64) -> Dataset {
    ScenarioBuilder::new(kind).frames(frames).seed(seed).build()
}

fn stream(session: &mut LocalizationSession, data: &Dataset) -> Vec<FrameRecord> {
    data.events().filter_map(|e| session.push(e)).collect()
}

/// Exact bit pattern of a pose.
fn pose_bits(pose: &eudoxus_geometry::Pose) -> [u64; 7] {
    [
        pose.translation.x.to_bits(),
        pose.translation.y.to_bits(),
        pose.translation.z.to_bits(),
        pose.rotation.w.to_bits(),
        pose.rotation.x.to_bits(),
        pose.rotation.y.to_bits(),
        pose.rotation.z.to_bits(),
    ]
}

/// A scheduled always-offload engine on the drone rig (the modeled
/// numbers are deterministic functions of the workload, so throttled
/// runs replay bit for bit).
fn drone_engine() -> ScheduledEngine {
    ScheduledEngine::with_policy(AccelPlatform::edx_drone(), OffloadPolicy::Always)
}

/// A synthetic frame context with offloadable backend work.
fn heavy_ctx<'a>(
    stats: &'a FrameStats,
    timing: &'a FrontendTiming,
    kernels: &'a [KernelSample],
    health: Option<HealthReport>,
) -> FrameContext<'a> {
    FrameContext {
        stats,
        timing,
        backend_kernels: kernels,
        health,
    }
}

fn heavy_stats() -> FrameStats {
    FrameStats {
        keypoints_left: 350,
        keypoints_right: 350,
        stereo_matches: 260,
        tracks_continued: 280,
        tracks_spawned: 40,
        tracks_lost: 30,
    }
}

fn heavy_timing() -> FrontendTiming {
    FrontendTiming {
        detection: Duration::from_millis(30),
        filtering: Duration::from_millis(20),
        description: Duration::from_millis(15),
        stereo: Duration::from_millis(25),
        temporal: Duration::from_millis(10),
    }
}

fn heavy_kernels() -> Vec<KernelSample> {
    vec![
        KernelSample {
            kernel: Kernel::ImuIntegration,
            millis: 2.0,
            size: 20,
        },
        KernelSample {
            kernel: Kernel::KalmanGain,
            millis: 8.0,
            size: 120,
        },
    ]
}

// ---------------------------------------------------------------------
// 1. Hysteresis (property).

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The closed loop over the controller: while the directive is in
    /// force the modeled period is `throttled_period`, otherwise
    /// `raw_period`. For *any* constant load pair and exit margin the
    /// loop enters at most once and never exits — no oscillation.
    #[test]
    fn control_throttle_is_hysteretic_on_constant_load(
        deadline in 1.0f64..50.0,
        overload in 1.01f64..4.0,
        relief in 0.1f64..1.0,
        margin in 0.5f64..0.95,
    ) {
        let raw_period = deadline * overload; // always over the deadline
        let throttled_period = raw_period * relief; // directive helps (or not)
        let mut config = ThrottleConfig::new(deadline);
        config.exit_margin = margin;
        let mut tc = ThrottleController::new(config);
        let mut period = raw_period;
        for _ in 0..300 {
            let directive = tc.observe(period);
            period = if directive.is_some() {
                throttled_period
            } else {
                raw_period
            };
        }
        prop_assert_eq!(tc.stats().entries, 1, "constant overload enters exactly once");
        prop_assert_eq!(tc.stats().exits, 0, "constant load must never exit (oscillation)");
        prop_assert!(tc.is_throttled());
        // The severity ladder must not re-introduce oscillation: with
        // no deadline misses reported, the rung chosen on entry is the
        // rung the loop is still on 300 frames later.
        prop_assert_eq!(tc.stats().escalations, 0, "no misses, no escalation");
        prop_assert_eq!(tc.stats().deescalations, 0, "constant load never steps down");
    }

    /// Ladder half of the no-oscillation contract: under *persistent*
    /// deadline misses the rung climbs monotonically, saturates at the
    /// top, and never counts more escalations than rungs above the
    /// entry point — for any deadline and overshoot.
    #[test]
    fn control_ladder_escalates_monotonically_under_persistent_misses(
        deadline in 1.0f64..50.0,
        overload in 1.01f64..4.0,
    ) {
        let period = deadline * overload;
        let mut tc = ThrottleController::new(ThrottleConfig::new(deadline));
        let mut prev_level = 0u8;
        for _ in 0..300 {
            tc.observe_with_miss(period, true);
            let level = tc.level();
            prop_assert!(level >= prev_level, "rung must never drop while misses persist");
            prev_level = level;
        }
        prop_assert_eq!(tc.level(), 3, "persistent misses saturate the ladder");
        let entry_level = 3 - tc.stats().escalations;
        prop_assert!((1..=3).contains(&entry_level));
        prop_assert_eq!(tc.stats().entries, 1, "escalation is not re-entry");
        prop_assert_eq!(tc.stats().exits, 0);
        prop_assert_eq!(tc.stats().deescalations, 0);
    }
}

// ---------------------------------------------------------------------
// 2. Conservation (property).

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Every image frame offered through `try_enqueue` lands in exactly
    /// one admission counter: `offered == admitted + degraded + shed`,
    /// whatever the deadline makes the gate do.
    #[test]
    fn control_counters_conserve(
        frames in 4usize..10,
        seed in 0u64..1000,
        deadline_sel in 0usize..3,
    ) {
        // Impossible, borderline, and unreachable deadlines: the gate
        // sheds, degrades, or admits — conservation must hold in all.
        let deadline_ms = [1e-4, 5.0, 1e9][deadline_sel];
        let data = dataset(ScenarioKind::OutdoorUnknown, frames, seed);
        let mut manager = SessionManager::new();
        manager.set_admission_control(AdmissionConfig::new(deadline_ms));
        let mut session = SessionBuilder::new(PipelineConfig::anchored()).build();
        session.set_engine(Box::new(drone_engine()));
        manager.add_agent("solo", session);
        let mut offered_images = 0u64;
        for event in data.events() {
            if matches!(event, eudoxus_core::SensorEvent::Image(_)) {
                offered_images += 1;
            }
            let verdict = manager.try_enqueue("solo", event);
            prop_assert!(matches!(verdict, Enqueue::Accepted | Enqueue::Shed));
            // Drain as we go so the gate sees a live modeled period.
            while manager.poll().is_some() {}
        }
        let stats = manager.admission_stats("solo").expect("agent exists");
        prop_assert_eq!(stats.offered, offered_images);
        prop_assert_eq!(stats.offered, stats.admitted + stats.degraded + stats.shed);
        // The snapshot surfaces the same counters.
        let snapshot = &manager.ingest_stats()[0];
        prop_assert_eq!(snapshot.admission, stats);
    }
}

// ---------------------------------------------------------------------
// 3. Opt-in is free.

/// A throttle armed under a deadline that never binds is pure
/// observation: poses, workload counters, and every modeled execution
/// number are bit-identical to the unthrottled session.
#[test]
fn control_no_pressure_is_bit_identical() {
    let data = dataset(ScenarioKind::Mixed, 16, 11);

    let mut plain = SessionBuilder::new(PipelineConfig::anchored()).build();
    plain.set_engine(Box::new(drone_engine()));
    let a = stream(&mut plain, &data);

    let mut armed = SessionBuilder::new(PipelineConfig::anchored())
        .throttle(ThrottleConfig::new(1e9))
        .build();
    armed.set_engine(Box::new(drone_engine()));
    let b = stream(&mut armed, &data);

    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(pose_bits(&x.pose), pose_bits(&y.pose), "pose drifted");
        assert_eq!(
            x.frontend_stats.keypoints_left, y.frontend_stats.keypoints_left,
            "workload drifted"
        );
        assert_eq!(
            x.frontend_stats.tracks_continued, y.frontend_stats.tracks_continued,
            "workload drifted"
        );
        let (ex, ey) = (
            x.execution.as_ref().expect("engine reports"),
            y.execution.as_ref().expect("engine reports"),
        );
        // Only the *deterministic* report fields: backend_ms and energy
        // fold in measured wall-clock kernel times, which no two live
        // runs share.
        assert_eq!(ex.frontend_ms.to_bits(), ey.frontend_ms.to_bits());
        assert_eq!(ex.offloadable, ey.offloadable);
        assert_eq!(ex.offloaded, ey.offloaded);
        assert_eq!(ex.target, ey.target);
        assert!(y.directive.is_none(), "no pressure, no directive");
    }
    assert_eq!(armed.throttle_stats().entries, 0);
    assert!(!armed.is_throttled());
}

// ---------------------------------------------------------------------
// 4. Binding deadlines bind.

/// A deadline the session cannot possibly meet throttles after exactly
/// `enter_frames` frames, never exits, stamps the directive on every
/// throttled record, and *actually* caps the frontend budget — the
/// engine verdict steering the kernels.
#[test]
fn control_binding_deadline_throttles_and_steers() {
    let directive = FrameDirective {
        max_keypoints: 50,
        max_tracks: 30,
        max_pyramid_levels: 2,
    };
    let data = dataset(ScenarioKind::OutdoorUnknown, 24, 5);
    let mut session = SessionBuilder::new(PipelineConfig::anchored())
        .throttle(ThrottleConfig::new(1e-4).with_directive(directive))
        .build();
    session.set_engine(Box::new(drone_engine()));
    let records = stream(&mut session, &data);

    let stats = session.throttle_stats();
    assert_eq!(stats.entries, 1, "permanent overload enters exactly once");
    assert_eq!(stats.exits, 0, "an unmeetable deadline never clears");
    assert!(stats.throttled_frames > 0);
    assert!(session.is_throttled());

    // Entry after `enter_frames` (2) observed frames; the directive
    // steers the frame *after* that.
    let throttled: Vec<_> = records.iter().filter(|r| r.directive.is_some()).collect();
    assert_eq!(throttled.len(), records.len() - 2, "all later frames throttled");
    for r in &throttled {
        assert_eq!(r.directive, Some(directive));
        assert!(
            r.frontend_stats.keypoints_left <= directive.max_keypoints,
            "frame {}: directive did not cap the detector ({} keypoints)",
            r.index,
            r.frontend_stats.keypoints_left
        );
        let live = r.frontend_stats.tracks_continued + r.frontend_stats.tracks_spawned;
        assert!(
            live <= directive.max_tracks,
            "frame {}: directive did not cap the live tracks ({live} live)",
            r.index
        );
    }
}

/// Convergence, on deterministic synthetic load: with a deadline
/// between the throttled and unthrottled operating points, the closed
/// loop (controller steering which workload the engine prices) enters
/// once, holds, and converges the smoothed modeled period under the
/// deadline.
#[test]
fn control_modeled_period_converges_under_deadline() {
    let timing = heavy_timing();
    let kernels = heavy_kernels();
    let full = heavy_stats();
    let lite = FrameStats {
        keypoints_left: 50,
        keypoints_right: 50,
        stereo_matches: 30,
        tracks_continued: 25,
        tracks_spawned: 5,
        tracks_lost: 2,
    };
    let mut engine = drone_engine();
    let full_total = engine
        .execute_frame(&heavy_ctx(&full, &timing, &kernels, None))
        .expect("scheduled engines report")
        .total_ms();
    let lite_total = engine
        .execute_frame(&heavy_ctx(&lite, &timing, &kernels, None))
        .expect("scheduled engines report")
        .total_ms();
    assert!(lite_total < full_total, "the smaller budget must be cheaper");

    let deadline = 0.5 * (full_total + lite_total);
    let mut tc = ThrottleController::new(ThrottleConfig::new(deadline));
    let mut throttled = false;
    for _ in 0..60 {
        let stats = if throttled { &lite } else { &full };
        let report = engine
            .execute_frame(&heavy_ctx(stats, &timing, &kernels, None))
            .expect("scheduled engines report");
        throttled = tc.observe(report.total_ms()).is_some();
    }
    assert_eq!(tc.stats().entries, 1);
    assert_eq!(tc.stats().exits, 0, "constant load must not oscillate");
    assert!(
        tc.modeled_period_ms().expect("frames observed") < deadline,
        "modeled period must converge under the deadline"
    );
}

// ---------------------------------------------------------------------
// 5. Fault-aware pricing.

/// At the engine seam: a dead-reckoned (or unserved) frame is IMU-only
/// work — no modeled frontend, no offloadable kernels, no decisions —
/// and a frame still in the `DeadReckoning` state skips offload even
/// when vision is back.
#[test]
fn control_dead_reckoning_prices_imu_only() {
    let stats = heavy_stats();
    let timing = heavy_timing();
    let kernels = heavy_kernels();
    let mut engine = drone_engine();

    let vitals = FrameVitals {
        tracked: 0,
        inliers: 0,
        frame_gap: 0.1,
        innovation: 0.0,
    };
    let dead_reckoned = HealthReport {
        state: DegradationState::DeadReckoning,
        vitals,
        dead_reckoned: true,
        served: true,
    };
    let report = engine
        .execute_frame(&heavy_ctx(&stats, &timing, &kernels, Some(dead_reckoned)))
        .expect("scheduled engines report");
    assert_eq!(report.offloadable, 0, "IMU-only frames offer no vision kernels");
    assert_eq!(report.offloaded, 0);
    assert!(report.decisions.is_empty());
    assert_eq!(report.frontend_ms, 0.0, "no vision, no frontend");

    // Vision back but the state machine still in DeadReckoning: the
    // frame runs, but accelerator offload is skipped entirely.
    let recovering = HealthReport {
        state: DegradationState::DeadReckoning,
        vitals,
        dead_reckoned: false,
        served: true,
    };
    let report = engine
        .execute_frame(&heavy_ctx(&stats, &timing, &kernels, Some(recovering)))
        .expect("scheduled engines report");
    assert_eq!(report.offloaded, 0, "DeadReckoning state skips offload");
    assert!(report.decisions.iter().all(|d| !d.offloaded));

    // Healthy frames price exactly as without the health seam.
    let nominal = HealthReport {
        state: DegradationState::Nominal,
        vitals,
        dead_reckoned: false,
        served: true,
    };
    let with_health = engine
        .execute_frame(&heavy_ctx(&stats, &timing, &kernels, Some(nominal)))
        .expect("scheduled engines report");
    let without = engine
        .execute_frame(&heavy_ctx(&stats, &timing, &kernels, None))
        .expect("scheduled engines report");
    assert_eq!(with_health.offloaded, without.offloaded);
    assert_eq!(
        with_health.backend_ms.to_bits(),
        without.backend_ms.to_bits()
    );
}

/// Through a real session: a blackout forces dead-reckoning, and every
/// dead-reckoned frame's execution report prices zero vision-kernel
/// offload decisions.
#[test]
fn control_blackout_session_prices_zero_offload() {
    let data = dataset(ScenarioKind::OutdoorUnknown, 24, 7);
    let plan = FaultPlan {
        blackout_start: 8,
        blackout_len: 5,
        blackout_period: 0,
        ..FaultPlan::default()
    };
    let mut session = SessionBuilder::new(PipelineConfig::anchored())
        .faults(plan, 1)
        .build();
    session.set_engine(Box::new(drone_engine()));
    let records = stream(&mut session, &data);

    let dead_reckoned: Vec<_> = records
        .iter()
        .filter(|r| r.health.is_some_and(|h| h.dead_reckoned))
        .collect();
    assert!(
        !dead_reckoned.is_empty(),
        "the blackout must force dead-reckoning"
    );
    for r in &dead_reckoned {
        let report = r.execution.as_ref().expect("engine reports every frame");
        assert_eq!(report.offloadable, 0, "frame {}: vision kernels priced", r.index);
        assert_eq!(report.offloaded, 0);
        assert!(report.decisions.is_empty());
        assert_eq!(report.frontend_ms, 0.0);
    }
}

// ---------------------------------------------------------------------
// 6. Mixed fleets stay parallel.

/// `poll_parallel` over a fleet mixing faulted and clean agents returns
/// exactly the sequential interleave, bit for bit, and surfaces the
/// faulted agents' lost parallelism in `sequential_drains`.
#[test]
fn control_mixed_fleet_poll_parallel_matches_sequential() {
    let kinds = [
        ScenarioKind::OutdoorUnknown,
        ScenarioKind::IndoorKnown,
        ScenarioKind::Mixed,
    ];
    let build_manager = || {
        let mut manager = SessionManager::new();
        for (i, kind) in kinds.into_iter().enumerate() {
            let data = dataset(kind, 10, 20 + i as u64);
            let mut builder = SessionBuilder::new(PipelineConfig::anchored());
            if i == 0 {
                // One agent behind a real fault plan: its record count
                // cannot be predicted from its queue alone.
                builder = builder.faults(FaultProfile::dusty_site().plan, 9);
            }
            manager.add_agent(format!("agent-{i}"), builder.build());
            for event in data.events() {
                assert!(matches!(
                    manager.try_enqueue(&format!("agent-{i}"), event),
                    Enqueue::Accepted
                ));
            }
        }
        manager
    };

    let mut sequential = build_manager();
    let seq = sequential.run_until_idle();
    let mut parallel = build_manager();
    let par = parallel.poll_parallel(2);

    assert_eq!(seq.len(), par.len(), "record counts diverged");
    for ((id_a, rec_a), (id_b, rec_b)) in seq.iter().zip(&par) {
        assert_eq!(id_a, id_b, "interleave diverged");
        assert_eq!(rec_a.index, rec_b.index);
        assert_eq!(pose_bits(&rec_a.pose), pose_bits(&rec_b.pose), "pose bits diverged");
        assert_eq!(rec_a.tracking, rec_b.tracking);
    }

    // The degraded path is surfaced, not silent: the faulted agent
    // drained sequentially, the clean ones did not.
    let stats = parallel.ingest_stats();
    assert!(stats[0].sequential_drains > 0, "faulted agent drains sequentially");
    assert_eq!(stats[1].sequential_drains, 0);
    assert_eq!(stats[2].sequential_drains, 0);
}

// ---------------------------------------------------------------------
// 7. Admission control sheds.

/// An agent whose modeled rate cannot possibly meet its deadline is
/// shed: the first frames are admitted cold (no modeled evidence yet),
/// everything after the first report is refused, and the counters and
/// snapshot agree.
#[test]
fn control_admission_sheds_overloaded_agents() {
    let data = dataset(ScenarioKind::OutdoorUnknown, 10, 3);
    let mut manager = SessionManager::new();
    // Microsecond deadline: any modeled period exceeds shed_factor × it.
    manager.set_admission_control(AdmissionConfig::new(1e-4));
    let mut session = SessionBuilder::new(PipelineConfig::anchored()).build();
    session.set_engine(Box::new(drone_engine()));
    manager.add_agent("hot", session);

    let mut shed = 0u64;
    for event in data.events() {
        match manager.try_enqueue("hot", event) {
            Enqueue::Accepted => {}
            Enqueue::Shed => shed += 1,
            other => panic!("unexpected verdict {other:?}"),
        }
        while manager.poll().is_some() {}
    }
    assert!(shed > 0, "an impossible deadline must shed");
    let stats = manager.admission_stats("hot").expect("agent exists");
    assert_eq!(stats.shed, shed);
    assert!(stats.admitted > 0, "cold frames admitted before evidence");
    assert_eq!(stats.offered, stats.admitted + stats.degraded + stats.shed);
    assert_eq!(manager.ingest_stats()[0].admission, stats);
}

// ---------------------------------------------------------------------
// 8. Deadlines without links are armed.

/// A `ScheduledEngine` with a deadline and *no* link still re-plans
/// overruns to all-local, stamps `deadline_missed` when even the local
/// plan is late, and counts the misses in its `LinkStats`.
#[test]
fn control_deadline_missed_counted_without_link() {
    let stats = heavy_stats();
    let timing = heavy_timing();
    let kernels = heavy_kernels();
    let mut engine = drone_engine();
    engine.set_deadline_ms(1e-4);

    let report = engine
        .execute_frame(&heavy_ctx(&stats, &timing, &kernels, None))
        .expect("scheduled engines report");
    assert_eq!(
        report.fallback,
        Some(FallbackCause::DeadlineExceeded),
        "overrunning offloads re-plan to all-local"
    );
    assert_eq!(report.offloaded, 0);
    assert!(
        report.deadline_missed,
        "the all-local plan is still late and must say so"
    );

    let link_stats = engine.link_stats().expect("deadline arms the stats");
    assert_eq!(link_stats.frames, 1);
    assert_eq!(link_stats.deadline_missed, 1);
    assert_eq!(link_stats.frames_lost, 0, "no link, no channel losses");
}
