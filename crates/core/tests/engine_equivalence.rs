//! Engine equivalence: the two contracts the in-loop offload seam must
//! keep, across every construction path.
//!
//! 1. **Builder paths agree.** The default (`CpuEngine`-backed)
//!    `SessionBuilder` session is bit-identical to one built from an
//!    explicit VIO + SLAM registry across all five `ScenarioKind`s; the
//!    batch adapter matches a streamed session; `.map(map)` matches an
//!    explicitly registered `Registration` backend. The engine seam
//!    observes without touching the estimate.
//! 2. **In-loop == replay.** A `ScheduledEngine` deciding inside
//!    `push` produces, frame for frame, exactly the `AcceleratedRun`
//!    that `AccelModel::replay` computes post hoc from the same `RunLog`
//!    — same decisions, same modeled latencies, same energy, bit for
//!    bit — because both run one shared `AccelModel::model_frame` code
//!    path.
//!
//! CI runs this suite by name (`cargo test -p eudoxus-core engine_`);
//! a drift between construction paths, or between live and replayed
//! offload decisions, fails the gate.

use eudoxus_accel::Platform as AccelPlatform;
use eudoxus_backend::{Registration, Slam, Vio};
use eudoxus_core::{
    AccelModel, CpuEngine, FrameRecord, LinkProfile, LocalizationSession, ModeledAccelEngine,
    OffloadPolicy, PipelineConfig, RunLog, ScheduledEngine, SessionBuilder, StochasticLink,
};
use eudoxus_sim::{Dataset, Platform, ScenarioBuilder, ScenarioKind};

const ALL_KINDS: [ScenarioKind; 5] = [
    ScenarioKind::OutdoorUnknown,
    ScenarioKind::OutdoorKnown,
    ScenarioKind::IndoorUnknown,
    ScenarioKind::IndoorKnown,
    ScenarioKind::Mixed,
];

fn dataset(kind: ScenarioKind, frames: usize, seed: u64) -> Dataset {
    ScenarioBuilder::new(kind)
        .frames(frames)
        .seed(seed)
        .platform(Platform::Drone)
        .build()
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

/// The deterministic (non-wall-clock) record fields must match bitwise.
fn assert_records_bit_identical(legacy: &[FrameRecord], built: &[FrameRecord], what: &str) {
    assert_eq!(legacy.len(), built.len(), "{what}: record count");
    for (l, b) in legacy.iter().zip(built) {
        assert_eq!(l.index, b.index, "{what}: index");
        assert_eq!(l.mode, b.mode, "{what}: mode");
        assert_eq!(l.environment, b.environment, "{what}: environment");
        assert_eq!(pose_bits(&l.pose), pose_bits(&b.pose), "{what}: pose bits");
        assert_eq!(
            pose_bits(&l.ground_truth),
            pose_bits(&b.ground_truth),
            "{what}: ground-truth bits"
        );
        assert_eq!(l.tracking, b.tracking, "{what}: tracking");
        assert_eq!(
            l.backend_kernels.len(),
            b.backend_kernels.len(),
            "{what}: kernel count"
        );
        for (lk, bk) in l.backend_kernels.iter().zip(&b.backend_kernels) {
            assert_eq!(lk.kernel, bk.kernel, "{what}: kernel kind");
            assert_eq!(lk.size, bk.size, "{what}: kernel size");
        }
    }
}

/// The default builder against its registry and engine spelled out.
#[test]
fn engine_cpu_builder_is_bit_identical_to_legacy_constructor() {
    for (i, kind) in ALL_KINDS.into_iter().enumerate() {
        let data = dataset(kind, 4, 40 + i as u64);

        let config = PipelineConfig::anchored();
        let (vio, slam) = (config.vio, config.slam);
        let mut explicit = SessionBuilder::new(config)
            .without_default_backends()
            .backend(move || Vio::new(vio))
            .backend(move || Slam::new(slam))
            .engine(CpuEngine)
            .build();
        let explicit_records = stream(&mut explicit, &data);

        let mut built = SessionBuilder::new(PipelineConfig::anchored()).build();
        let built_records = stream(&mut built, &data);

        assert_records_bit_identical(&explicit_records, &built_records, &format!("{kind:?}"));
        // The default engine is the passthrough: no reports attached,
        // exactly like the pre-engine records.
        assert!(built_records.iter().all(|r| r.execution.is_none()));
        assert_eq!(built.engine().name(), "cpu");
    }
}

/// The batch adapter against a streamed session of the same blueprint.
#[test]
fn engine_batch_builder_matches_legacy_eudoxus() {
    let data = dataset(ScenarioKind::Mixed, 6, 3);
    let mut streamed = SessionBuilder::new(PipelineConfig::anchored()).build();
    let mut built = SessionBuilder::new(PipelineConfig::anchored()).build_batch();
    assert_records_bit_identical(
        &stream(&mut streamed, &data),
        &built.process_dataset(&data).records,
        "batch",
    );
}

/// `.map(map)` against a registration backend over the same map.
#[cfg(feature = "sim")]
#[test]
fn engine_map_builder_matches_legacy_with_map() {
    let data = dataset(ScenarioKind::IndoorKnown, 4, 7);
    let map = eudoxus_core::build_map(&data, &PipelineConfig::anchored());

    let config = PipelineConfig::anchored();
    let registration = config.registration;
    let registered = map.clone();
    let mut explicit = SessionBuilder::new(config)
        .backend(move || Registration::new(registered.clone(), registration))
        .build();
    let explicit_records = stream(&mut explicit, &data);

    let mut built = SessionBuilder::new(PipelineConfig::anchored())
        .map(map)
        .build();
    let built_records = stream(&mut built, &data);

    assert!(explicit_records
        .iter()
        .all(|r| r.mode == eudoxus_core::Mode::Registration));
    assert_records_bit_identical(&explicit_records, &built_records, "with_map");
}

#[test]
fn engine_attached_session_keeps_poses_bit_identical() {
    // Engines observe, never steer: a modeled-engine session's poses
    // must equal the passthrough session's, with reports attached.
    let data = dataset(ScenarioKind::OutdoorUnknown, 5, 17);
    let mut plain = SessionBuilder::new(PipelineConfig::anchored()).build();
    let plain_records = stream(&mut plain, &data);

    let mut modeled = SessionBuilder::new(PipelineConfig::anchored())
        .engine(ModeledAccelEngine::edx_drone())
        .build();
    let modeled_records = stream(&mut modeled, &data);

    assert_records_bit_identical(&plain_records, &modeled_records, "modeled engine");
    assert!(modeled_records.iter().all(|r| r.execution.is_some()));
}

/// In-loop reports vs `AccelModel::replay` of the very log those reports
/// rode in on: every modeled quantity must agree at the bit level.
fn assert_in_loop_matches_replay(policy: OffloadPolicy) {
    let platform = AccelPlatform::edx_drone();
    let data = dataset(ScenarioKind::OutdoorUnknown, 8, 8);
    let mut session = SessionBuilder::new(PipelineConfig::anchored())
        .engine(ScheduledEngine::with_policy(platform, policy.clone()))
        .build();
    let log = RunLog {
        records: stream(&mut session, &data),
    };

    let replayed = AccelModel::new(platform).replay(&log, &policy);
    assert_eq!(replayed.frames.len(), log.len());
    for (record, frame) in log.records.iter().zip(&replayed.frames) {
        let report = record
            .execution
            .as_ref()
            .expect("scheduled engine reports every frame");
        assert_eq!(
            report.frontend_ms.to_bits(),
            frame.frontend_ms.to_bits(),
            "frontend latency"
        );
        assert_eq!(
            report.backend_ms.to_bits(),
            frame.backend_ms.to_bits(),
            "backend latency"
        );
        assert_eq!(report.offloadable, frame.offloadable, "offloadable count");
        assert_eq!(report.offloaded, frame.offloaded, "offload decisions");
        assert_eq!(
            report.energy.host_j.to_bits(),
            frame.energy.host_j.to_bits(),
            "host energy"
        );
        assert_eq!(
            report.energy.fpga_static_j.to_bits(),
            frame.energy.fpga_static_j.to_bits(),
            "static energy"
        );
        assert_eq!(
            report.energy.fpga_dynamic_j.to_bits(),
            frame.energy.fpga_dynamic_j.to_bits(),
            "dynamic energy"
        );
    }

    // The aggregated views agree too: execution_run() over the live
    // records is the replayed AcceleratedRun.
    let live_run = log.execution_run().expect("reports present");
    assert_eq!(
        live_run.summary().mean.to_bits(),
        replayed.summary().mean.to_bits()
    );
    assert_eq!(
        live_run.fps_pipelined().to_bits(),
        replayed.fps_pipelined().to_bits()
    );
    assert_eq!(
        live_run.mean_energy().to_bits(),
        replayed.mean_energy().to_bits()
    );
    assert_eq!(live_run.offload_rate(), replayed.offload_rate());
}

#[test]
fn engine_scheduled_in_loop_matches_replay_exactly() {
    // Train the scheduler the way the paper does: an offline CPU
    // profiling pass over the head of the stream.
    let data = dataset(ScenarioKind::OutdoorUnknown, 8, 8);
    let mut profiler = SessionBuilder::new(PipelineConfig::anchored()).build();
    let profile_log = RunLog {
        records: stream(&mut profiler, &data),
    };
    let model = AccelModel::new(AccelPlatform::edx_drone());
    let policy = match model.train_scheduler(&profile_log, 0.25) {
        Some(sched) => OffloadPolicy::Scheduled(sched),
        None => OffloadPolicy::Always,
    };
    assert_in_loop_matches_replay(policy);
}

#[test]
fn engine_fixed_policies_in_loop_match_replay_exactly() {
    assert_in_loop_matches_replay(OffloadPolicy::Always);
    assert_in_loop_matches_replay(OffloadPolicy::Never);
}

#[test]
fn engine_decisions_are_reproducible_across_runs() {
    // The offload decision depends only on deterministic inputs (kernel
    // sizes, workload counters) — never on this run's wall-clock — so
    // two independent live passes over the same stream must place every
    // kernel identically.
    let platform = AccelPlatform::edx_drone();
    let data = dataset(ScenarioKind::OutdoorUnknown, 6, 21);
    let mut profiler = SessionBuilder::new(PipelineConfig::anchored()).build();
    let profile_log = RunLog {
        records: stream(&mut profiler, &data),
    };
    let policy = match AccelModel::new(platform).train_scheduler(&profile_log, 0.25) {
        Some(sched) => OffloadPolicy::Scheduled(sched),
        None => OffloadPolicy::Always,
    };

    let run = |policy: &OffloadPolicy| {
        let mut session = SessionBuilder::new(PipelineConfig::anchored())
            .engine(ScheduledEngine::with_policy(platform, policy.clone()))
            .build();
        stream(&mut session, &data)
    };
    let first = run(&policy);
    let second = run(&policy);
    for (a, b) in first.iter().zip(&second) {
        let (ra, rb) = (a.execution.as_ref().unwrap(), b.execution.as_ref().unwrap());
        assert_eq!(ra.offloaded, rb.offloaded);
        assert_eq!(ra.target, rb.target);
        assert_eq!(ra.frontend_ms.to_bits(), rb.frontend_ms.to_bits());
        for (da, db) in ra.decisions.iter().zip(&rb.decisions) {
            assert_eq!(da.kind, db.kind);
            assert_eq!(da.size, db.size);
            assert_eq!(da.offloaded, db.offloaded);
            assert_eq!(da.accel_ms.to_bits(), db.accel_ms.to_bits());
        }
    }
}

#[test]
fn engine_static_link_matches_linkless_engine_bitwise_across_kinds() {
    // PCIe as just another link: putting the platform's own bus behind
    // the link seam must change nothing — poses, reports, decisions and
    // energy stay bit-identical to the linkless PR 5 engine on every
    // scenario kind, and the no-link session itself stays bit-identical
    // to the CpuEngine baseline in poses.
    let platform = AccelPlatform::edx_drone();
    for (i, kind) in ALL_KINDS.into_iter().enumerate() {
        let data = dataset(kind, 4, 60 + i as u64);

        let mut plain = SessionBuilder::new(PipelineConfig::anchored())
            .engine(ScheduledEngine::with_policy(platform, OffloadPolicy::Always))
            .build();
        let plain_records = stream(&mut plain, &data);

        let mut linked = SessionBuilder::new(PipelineConfig::anchored())
            .engine(ScheduledEngine::with_policy(platform, OffloadPolicy::Always))
            .link(platform.bus.as_link())
            .build();
        let linked_records = stream(&mut linked, &data);

        assert_records_bit_identical(&plain_records, &linked_records, &format!("{kind:?} link"));
        // Only the *modeled* quantities are comparable across two live
        // runs (measured kernel millis are wall-clock): frontend
        // latency, placements and the link-priced accel_ms must agree
        // bit for bit.
        for (p, l) in plain_records.iter().zip(&linked_records) {
            let (rp, rl) = (p.execution.as_ref().unwrap(), l.execution.as_ref().unwrap());
            assert_eq!(rp.frontend_ms.to_bits(), rl.frontend_ms.to_bits());
            assert_eq!(rp.offloadable, rl.offloadable);
            assert_eq!(rp.offloaded, rl.offloaded);
            assert_eq!(rl.fallback, None, "a static bus never sheds");
            for (dp, dl) in rp.decisions.iter().zip(&rl.decisions) {
                assert_eq!(dp.offloaded, dl.offloaded);
                assert_eq!(dp.accel_ms.to_bits(), dl.accel_ms.to_bits());
            }
        }
        // The link-backed engine exposes counters; the static bus never
        // drops or sheds anything.
        let stats = linked.engine().link_stats().expect("link attached");
        assert_eq!(stats.frames as usize, linked_records.len());
        assert_eq!(stats.frames_lost, 0);
        assert_eq!(stats.link_fallbacks, 0);

        // And the CpuEngine session of the same stream keeps identical
        // poses (no-link sessions unchanged by the link redesign).
        let mut cpu = SessionBuilder::new(PipelineConfig::anchored()).build();
        let cpu_records = stream(&mut cpu, &data);
        assert_records_bit_identical(&cpu_records, &plain_records, &format!("{kind:?} cpu"));
        assert!(cpu.engine().link_stats().is_none());
    }
}

#[test]
fn engine_seeded_link_replays_identical_decision_trace() {
    // Same (profile, seed) in two fully independent sessions: the whole
    // decision trace — link states, per-kernel placements, fallback
    // causes, link-priced latencies — must replay bit for bit. (No
    // deadline here: deadline shedding keys off *measured* frame
    // latency, which is wall-clock by design.)
    let platform = AccelPlatform::edx_drone();
    let data = dataset(ScenarioKind::Mixed, 8, 33);
    let run = || {
        let mut session = SessionBuilder::new(PipelineConfig::anchored())
            .engine(ScheduledEngine::with_policy(platform, OffloadPolicy::Always))
            .link(StochasticLink::new(LinkProfile::urban_canyon_dropout(), 77))
            .build();
        let records = stream(&mut session, &data);
        let stats = session.engine().link_stats().expect("link attached");
        (records, stats)
    };
    let (first, stats_a) = run();
    let (second, stats_b) = run();
    assert_eq!(stats_a, stats_b, "shedding counters replay");
    for (a, b) in first.iter().zip(&second) {
        let (ra, rb) = (a.execution.as_ref().unwrap(), b.execution.as_ref().unwrap());
        assert_eq!(ra.fallback, rb.fallback);
        assert_eq!(ra.offloaded, rb.offloaded);
        let (la, lb) = (ra.link.unwrap(), rb.link.unwrap());
        assert_eq!(la.bandwidth_bps.to_bits(), lb.bandwidth_bps.to_bits());
        assert_eq!(la.latency_s.to_bits(), lb.latency_s.to_bits());
        assert_eq!(la.lost, lb.lost);
        for (da, db) in ra.decisions.iter().zip(&rb.decisions) {
            assert_eq!(da.offloaded, db.offloaded);
            assert_eq!(da.accel_ms.to_bits(), db.accel_ms.to_bits());
        }
    }
}

#[test]
fn engine_fork_gives_manager_agents_independent_engines() {
    // build_manager forks the blueprint engine per agent; a CpuEngine
    // default manager must keep records report-free, a modeled one must
    // attach reports for every agent.
    let data = dataset(ScenarioKind::OutdoorUnknown, 2, 5);
    let mut manager = SessionBuilder::new(PipelineConfig::anchored())
        .engine(CpuEngine)
        .agent("a")
        .agent("b")
        .build_manager();
    for id in ["a", "b"] {
        for e in data.events() {
            assert!(matches!(
                manager.try_enqueue(id, e),
                eudoxus_core::Enqueue::Accepted
            ));
        }
    }
    let records = manager.run_until_idle();
    assert_eq!(records.len(), 4);
    assert!(records.iter().all(|(_, r)| r.execution.is_none()));

    let mut modeled = SessionBuilder::new(PipelineConfig::anchored())
        .engine(ModeledAccelEngine::edx_drone())
        .agent("a")
        .agent("b")
        .build_manager();
    for id in ["a", "b"] {
        for e in data.events() {
            assert!(matches!(
                modeled.try_enqueue(id, e),
                eudoxus_core::Enqueue::Accepted
            ));
        }
    }
    let records = modeled.run_until_idle();
    assert_eq!(records.len(), 4);
    assert!(records
        .iter()
        .all(|(_, r)| r.execution.as_ref().is_some_and(|x| x.engine == "edx-drone")));
}
