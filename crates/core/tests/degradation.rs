//! Graceful-degradation contracts: the guarantees the fault-injection
//! PR must keep, end to end through `LocalizationSession`.
//!
//! 1. **Opt-in is free.** Sessions without an injector — and sessions
//!    with health monitoring armed but a clean stream — are
//!    bit-identical to the plain pipeline across all five
//!    `ScenarioKind`s. The survival reflex costs nothing until a fault
//!    actually fires.
//! 2. **Determinism.** Two live runs behind the same fault profile and
//!    seed produce identical `HealthReport` traces and bit-identical
//!    poses.
//! 3. **Survival.** A forced blackout mid-run completes: the session
//!    dead-reckons on IMU through the blind window, recovers when
//!    vision returns, and the post-recovery error stays bounded.
//! 4. **Fallback.** Dead-reckoning walks the registry chain
//!    (registration → SLAM → VIO) to the first backend that can
//!    propagate blind — indoors, a blackout is served by VIO and
//!    counted as a fallback frame.
//! 5. **No panic on an empty registry.** A session with no backends
//!    holds the pose and counts the frame unserved instead of
//!    panicking.
//! 6. **Blind starts keep the anchor.** An anchored segment whose first
//!    frames are blacked out dead-reckons from the anchor, not from the
//!    identity pose.
//!
//! CI runs this suite by name (`cargo test -p eudoxus-core degradation`).

use eudoxus_core::{
    DegradationState, FaultPlan, FaultProfile, FrameRecord, HealthConfig, LocalizationSession,
    PipelineConfig, RunLog, SessionBuilder,
};
use eudoxus_sim::{Dataset, Platform, ScenarioBuilder, ScenarioKind};

const ALL_KINDS: [ScenarioKind; 5] = [
    ScenarioKind::OutdoorUnknown,
    ScenarioKind::OutdoorKnown,
    ScenarioKind::IndoorUnknown,
    ScenarioKind::IndoorKnown,
    ScenarioKind::Mixed,
];

fn dataset(kind: ScenarioKind, frames: usize) -> Dataset {
    ScenarioBuilder::new(kind).frames(frames).seed(7).build()
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

fn assert_bit_identical(a: &[FrameRecord], b: &[FrameRecord], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: record counts differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.index, y.index, "{label}: frame index drifted");
        assert_eq!(x.mode, y.mode, "{label}: mode drifted at {}", x.index);
        assert_eq!(
            pose_bits(&x.pose),
            pose_bits(&y.pose),
            "{label}: pose bits drifted at frame {}",
            x.index
        );
        assert_eq!(
            x.tracking, y.tracking,
            "{label}: tracking flag drifted at {}",
            x.index
        );
    }
}

/// A blackout window long enough to force dead-reckoning, early enough
/// to leave room for a full recovery, one-shot so the tail stays clean.
fn blackout_plan() -> FaultPlan {
    FaultPlan {
        blackout_start: 8,
        blackout_len: 5,
        blackout_period: 0,
        ..FaultPlan::default()
    }
}

// ---------------------------------------------------------------------
// 1. Opt-in is free.

/// Arming the health monitor on a clean stream must not perturb a
/// single bit of any estimate: monitoring observes, it does not touch.
#[test]
fn health_monitoring_on_clean_stream_is_bit_identical() {
    for kind in ALL_KINDS {
        let data = dataset(kind, 24);
        let mut plain = SessionBuilder::new(PipelineConfig::anchored()).build();
        let mut watched = SessionBuilder::new(PipelineConfig::anchored())
            .health(HealthConfig::default())
            .build();
        let a = stream(&mut plain, &data);
        let b = stream(&mut watched, &data);
        assert_bit_identical(&a, &b, &format!("{kind:?} plain vs health-armed"));
        // The plain session never reports health; the armed one always
        // does, and a clean stream never leaves nominal serving.
        assert!(a.iter().all(|r| r.health.is_none()));
        for r in &b {
            let h = r.health.expect("armed session reports health");
            assert!(h.served && !h.dead_reckoned, "{kind:?}: clean stream degraded");
        }
        assert_eq!(watched.health_stats().dead_reckoned_frames, 0);
        assert_eq!(watched.health_stats().unserved_frames, 0);
    }
}

/// An attached injector with the empty plan is an exact passthrough —
/// the whole fault machinery in the loop, zero effect on the output.
#[test]
fn empty_fault_plan_is_bit_identical_passthrough() {
    for kind in ALL_KINDS {
        let data = dataset(kind, 24);
        let mut plain = SessionBuilder::new(PipelineConfig::anchored()).build();
        let mut faulted = SessionBuilder::new(PipelineConfig::anchored())
            .faults(FaultPlan::default(), 99)
            .build();
        let a = stream(&mut plain, &data);
        let b = stream(&mut faulted, &data);
        assert_bit_identical(&a, &b, &format!("{kind:?} plain vs empty-plan"));
        let counters = faulted.fault_counters().expect("injector attached");
        assert_eq!(counters.images_dropped, 0, "{kind:?}: empty plan dropped frames");
        assert_eq!(faulted.health_stats().faulted_drops, 0);
    }
}

// ---------------------------------------------------------------------
// 2. Determinism.

/// Two live runs behind the same profile and seed replay identically:
/// same poses (bit for bit), same `HealthReport` trace, same counters.
#[test]
fn same_seed_runs_replay_identical_health_traces() {
    let data = dataset(ScenarioKind::OutdoorUnknown, 30);
    let run = |seed: u64| {
        let mut session = SessionBuilder::new(PipelineConfig::anchored())
            .faults(FaultProfile::dusty_site().plan, seed)
            .build();
        let records = stream(&mut session, &data);
        let stats = session.health_stats();
        let counters = session.fault_counters().expect("injector attached");
        (records, stats, counters)
    };
    let (a, stats_a, counters_a) = run(42);
    let (b, stats_b, counters_b) = run(42);
    assert_bit_identical(&a, &b, "same-seed replay");
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.health, y.health, "health trace drifted at frame {}", x.index);
    }
    assert_eq!(stats_a, stats_b, "health stats drifted between replays");
    assert_eq!(counters_a, counters_b, "fault counters drifted between replays");

    // A different seed must actually change the corruption (the plan
    // has stochastic processes), proving the seed is live.
    let (c, _, _) = run(43);
    assert!(
        a.iter().zip(&c).any(|(x, y)| pose_bits(&x.pose) != pose_bits(&y.pose)),
        "different fault seeds produced identical trajectories"
    );
}

// ---------------------------------------------------------------------
// 3. Survival: forced blackout completes, dead-reckons, recovers.

#[test]
fn forced_blackout_dead_reckons_and_recovers_bounded() {
    let data = dataset(ScenarioKind::OutdoorUnknown, 32);
    let mut session = SessionBuilder::new(PipelineConfig::anchored())
        .faults(blackout_plan(), 1)
        .build();
    let records = stream(&mut session, &data);
    assert_eq!(records.len(), 32, "blackout must not lose frames, only vision");

    let states: Vec<DegradationState> = records
        .iter()
        .map(|r| r.health.expect("health armed").state)
        .collect();
    // The blind window dead-reckons...
    assert!(
        states.contains(&DegradationState::DeadReckoning),
        "blackout never forced dead-reckoning: {states:?}"
    );
    // ...recovery probation follows...
    assert!(
        states.contains(&DegradationState::Recovering),
        "no recovery probation after the blackout: {states:?}"
    );
    // ...and the tail settles back to nominal serving.
    assert_eq!(
        *states.last().unwrap(),
        DegradationState::Nominal,
        "session never returned to nominal: {states:?}"
    );
    let stats = session.health_stats();
    // One fewer than the 5-frame window: tracks coast into the first
    // gray frame (KLT still matches against the last real pyramid);
    // starvation registers once the reference pyramid is gray too.
    assert_eq!(stats.dead_reckoned_frames, 4);
    assert_eq!(stats.recoveries, 1);
    assert_eq!(stats.unserved_frames, 0);

    // Dead-reckoned frames are marked; every frame was served by *some*
    // estimator (VIO propagates blind — nothing falls through).
    for r in &records {
        let h = r.health.unwrap();
        assert!(h.served);
        assert_eq!(h.dead_reckoned, h.state == DegradationState::DeadReckoning);
    }

    // Bounded recovery: once nominal again, the error must not run away
    // (the velocity-aware re-anchor keeps the filter from drifting).
    let post_recovery: Vec<&FrameRecord> = records
        .iter()
        .skip(20)
        .filter(|r| r.health.unwrap().state == DegradationState::Nominal)
        .collect();
    assert!(!post_recovery.is_empty());
    let worst = post_recovery
        .iter()
        .map(|r| r.translation_error())
        .fold(0.0_f64, f64::max);
    let clean_rmse = {
        let mut clean = SessionBuilder::new(PipelineConfig::anchored()).build();
        RunLog { records: stream(&mut clean, &data) }.translation_rmse()
    };
    assert!(
        worst < clean_rmse + 2.0,
        "post-recovery error ran away: worst {worst:.3} m vs clean RMSE {clean_rmse:.3} m"
    );
}

// ---------------------------------------------------------------------
// 4. Fallback: indoors, a blackout walks registration → … → VIO.

#[test]
fn indoor_blackout_walks_fallback_chain_to_vio() {
    let data = dataset(ScenarioKind::IndoorKnown, 24);
    // A surveyed map makes registration the genuinely preferred indoor
    // mode — the blind walk below has the whole chain to descend.
    let map = eudoxus_core::build_map(&data, &PipelineConfig::anchored());
    let mut session = SessionBuilder::new(PipelineConfig::anchored())
        .map(map)
        .faults(blackout_plan(), 1)
        .build();
    let records = stream(&mut session, &data);

    let blind: Vec<&FrameRecord> = records
        .iter()
        .filter(|r| r.health.unwrap().dead_reckoned)
        .collect();
    assert!(!blind.is_empty(), "indoor blackout never dead-reckoned");
    for r in &blind {
        // Registration and SLAM cannot propagate blind; the chain ends
        // at VIO, which serves the frame IMU-only.
        assert_eq!(
            r.mode,
            eudoxus_core::Mode::Vio,
            "blind frame {} served by {} instead of walking to vio",
            r.index,
            r.mode
        );
        assert!(!r.tracking, "blind propagation must not claim tracking");
    }
    // Those frames are off the environment's preferred mode — counted.
    assert_eq!(
        session.health_stats().fallback_frames,
        blind.len() as u64,
        "every dead-reckoned indoor frame is a fallback frame"
    );
    // Healthy frames stay on the preferred indoor mode.
    assert!(records
        .iter()
        .filter(|r| r.health.unwrap().state == DegradationState::Nominal)
        .all(|r| r.mode == eudoxus_core::Mode::Registration));
}

// ---------------------------------------------------------------------
// 5. Empty registry: unserved, never a panic.

#[test]
fn empty_registry_holds_pose_instead_of_panicking() {
    let data = dataset(ScenarioKind::OutdoorUnknown, 6);
    let mut session = SessionBuilder::new(PipelineConfig::default())
        .without_default_backends()
        .build();
    // No injector, no health monitor: the graceful path must hold
    // unconditionally, not only when monitoring is armed.
    let records = stream(&mut session, &data);
    assert_eq!(records.len(), 6);
    for r in &records {
        assert!(!r.tracking, "no backend, yet frame {} claims tracking", r.index);
        assert_eq!(
            pose_bits(&r.pose),
            pose_bits(&eudoxus_geometry::Pose::identity()),
            "held pose must stay at the last trusted estimate (identity)"
        );
        assert!(r.health.is_none(), "health off ⇒ no report");
    }

    // With monitoring armed the same situation is visible: served=false
    // on every record, unserved_frames counts them.
    let mut watched = SessionBuilder::new(PipelineConfig::default())
        .without_default_backends()
        .health(HealthConfig::default())
        .build();
    let records = stream(&mut watched, &data);
    assert!(records.iter().all(|r| !r.health.unwrap().served));
    assert_eq!(watched.health_stats().unserved_frames, 6);
}

// ---------------------------------------------------------------------
// 6. Blind starts keep the anchor.

/// A blackout over the first three frames of an anchored segment: the
/// first frame dead-reckons from the segment anchor, and recovery
/// re-anchors the estimators at that dead-reckoned pose — so every
/// record stays near the ground truth.
#[test]
fn anchored_segment_starting_blind_dead_reckons_from_the_anchor() {
    let data = ScenarioBuilder::new(ScenarioKind::OutdoorUnknown)
        .frames(6)
        .seed(7)
        .platform(Platform::Drone)
        .build();
    let plan = FaultPlan {
        blackout_start: 0,
        blackout_len: 3,
        blackout_period: 0,
        ..FaultPlan::default()
    };
    let mut session = SessionBuilder::new(PipelineConfig::anchored())
        .faults(plan, 1)
        .build();
    let records = stream(&mut session, &data);
    assert_eq!(records.len(), 6);
    assert!(
        records[0].health.expect("health armed").dead_reckoned,
        "a blacked-out first frame must dead-reckon"
    );
    for r in &records {
        let error = r.translation_error();
        assert!(
            error < 0.5,
            "frame {} is {error:.3} m off: the blind start lost the anchor",
            r.index
        );
    }
}
