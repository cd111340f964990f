//! Replay-throughput benchmark: seeds the performance trajectory.
//!
//! Replays all five scenario kinds (the `Mixed` 50/25/25 evaluation set
//! included) through the seed-equivalent
//! [`BaselineFrontend`](eudoxus_bench::baseline::BaselineFrontend), the
//! optimized batched-KLT `Frontend`, and a full streaming
//! `LocalizationSession`, then drives a multi-agent `SessionManager`
//! sequentially and with `poll_parallel`. Writes `BENCH_throughput.json`
//! with frames/sec, per-kernel microseconds, per-frame latency
//! percentiles (p50/p90/p99) and per-kernel p50/p99 — both sourced from
//! the telemetry span rings, not ad-hoc timers — and (when built with
//! `--features count-alloc`) allocations-per-frame.
//!
//! `--min-speedup X` turns the run into a regression gate: the process
//! exits non-zero when the mean frontend speedup vs the in-run seed
//! baseline falls below `X` (CI smokes with `--min-speedup 2.0`).
//!
//! `--engine {cpu,edx-car,edx-drone,scheduled}` selects the in-loop
//! `ExecutionEngine` for an additional live pass per scenario: `cpu`
//! skips it, `edx-car`/`edx-drone` attach a `ModeledAccelEngine`
//! (always-offload estimate on that platform), and `scheduled` (the
//! default) trains the paper's offload scheduler on the measured CPU
//! pass and runs it inside `push` on EDX-DRONE (the rig the datasets
//! simulate). The modeled accelerated fps (pipelined/unpipelined),
//! energy and offload rate land in the per-scenario `accel` block of
//! `BENCH_throughput.json`.
//!
//! `--link {stable,congested,canyon}` puts the engine pass behind a
//! seeded `StochasticLink` (`lan_stable` / `congested_uplink` /
//! `urban_canyon_dropout`): the scheduler then re-prices every kernel
//! against the live channel, and the per-scenario `accel` block gains a
//! `link` sub-block with the shedding counters. Independently of the
//! flag, every non-`cpu` engine run appends a top-level `link_sweep`
//! block: each scenario's measured CPU records replayed through a
//! trained scheduler behind each canned profile, showing the offload
//! rate decaying (and fallbacks rising) as the channel degrades from
//! `lan_stable` to `urban_canyon_dropout`.
//!
//! `--deadline-ms D` adds a closed-loop pass: per scenario a session
//! with the frame-deadline throttle armed (engine verdicts steering the
//! next frame's feature budget) next to an unthrottled twin, plus an
//! admission-controlled `SessionManager` shedding agents whose modeled
//! rate cannot meet `D`. The throttle rate, shed counters, and the
//! modeled-vs-unthrottled frame period land in the top-level
//! `control_loop` block of `BENCH_throughput.json`.
//!
//! ```text
//! cargo run --release -p eudoxus-bench --bin throughput -- \
//!     [--frames N] [--workers W] [--out PATH] [--min-speedup X] [--engine E] [--link L] \
//!     [--deadline-ms D]
//! ```

use eudoxus_accel::Platform as AccelPlatform;
use eudoxus_bench::baseline::BaselineFrontend;
use eudoxus_bench::{alloc_track, dataset, row, section};
use eudoxus_core::{
    AccelModel, AcceleratedRun, AdmissionConfig, AdmissionStats, Enqueue, ExecutionEngine,
    FrameContext, FrameRecord, LinkProfile, LinkStats, ModeledAccelEngine, OffloadPolicy,
    PipelineConfig, RunLog, ScheduledEngine, SessionBuilder, SessionManager, StochasticLink,
    ThrottleConfig, ThrottleStats,
};
use eudoxus_frontend::{Frontend, FrontendConfig};
use eudoxus_sim::{Dataset, Platform, ScenarioKind};
use eudoxus_telemetry::{SpanScope, TelemetryConfig, TelemetryHub};
use std::time::Instant;

const KINDS: [(ScenarioKind, &str); 5] = [
    (ScenarioKind::OutdoorUnknown, "outdoor_unknown"),
    (ScenarioKind::OutdoorKnown, "outdoor_known"),
    (ScenarioKind::IndoorUnknown, "indoor_unknown"),
    (ScenarioKind::IndoorKnown, "indoor_known"),
    (ScenarioKind::Mixed, "mixed"),
];

/// Which in-loop engine the engine pass attaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EngineChoice {
    Cpu,
    EdxCar,
    EdxDrone,
    Scheduled,
}

impl EngineChoice {
    fn name(self) -> &'static str {
        match self {
            EngineChoice::Cpu => "cpu",
            EngineChoice::EdxCar => "edx-car",
            EngineChoice::EdxDrone => "edx-drone",
            EngineChoice::Scheduled => "scheduled",
        }
    }
}

/// Seed for every stochastic link the bench instantiates: the traces
/// (and therefore the decisions and counters) replay bit-identically
/// from run to run.
const LINK_SEED: u64 = 9;

struct Args {
    frames: usize,
    workers: usize,
    out: String,
    min_speedup: Option<f64>,
    engine: EngineChoice,
    link: Option<LinkProfile>,
    deadline_ms: Option<f64>,
}

fn parse_args() -> Args {
    let mut args = Args {
        frames: 40,
        workers: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .min(KINDS.len()),
        out: "BENCH_throughput.json".to_string(),
        min_speedup: None,
        engine: EngineChoice::Scheduled,
        link: None,
        deadline_ms: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match flag.as_str() {
            "--frames" => args.frames = value("--frames").parse().expect("--frames: integer"),
            "--workers" => args.workers = value("--workers").parse().expect("--workers: integer"),
            "--out" => args.out = value("--out"),
            "--min-speedup" => {
                args.min_speedup =
                    Some(value("--min-speedup").parse().expect("--min-speedup: float"))
            }
            "--engine" => {
                args.engine = match value("--engine").as_str() {
                    "cpu" => EngineChoice::Cpu,
                    "edx-car" => EngineChoice::EdxCar,
                    "edx-drone" => EngineChoice::EdxDrone,
                    "scheduled" => EngineChoice::Scheduled,
                    other => panic!(
                        "--engine {other}: expected cpu, edx-car, edx-drone or scheduled"
                    ),
                }
            }
            "--link" => {
                args.link = Some(match value("--link").as_str() {
                    "stable" => LinkProfile::lan_stable(),
                    "congested" => LinkProfile::congested_uplink(),
                    "canyon" => LinkProfile::urban_canyon_dropout(),
                    other => panic!("--link {other}: expected stable, congested or canyon"),
                })
            }
            "--deadline-ms" => {
                args.deadline_ms = Some(
                    value("--deadline-ms")
                        .parse()
                        .expect("--deadline-ms: float"),
                )
            }
            other => panic!(
                "unknown flag {other} (supported: --frames --workers --out --min-speedup \
                 --engine --link --deadline-ms)"
            ),
        }
    }
    args.frames = args.frames.max(2);
    args.workers = args.workers.max(1);
    args
}

/// Mean of per-record kernel time in microseconds, by accessor.
fn mean_us(records: &[FrameRecord], f: impl Fn(&FrameRecord) -> std::time::Duration) -> f64 {
    if records.is_empty() {
        return 0.0;
    }
    records.iter().map(|r| f(r).as_secs_f64() * 1e6).sum::<f64>() / records.len() as f64
}

/// Modeled accelerated numbers from the in-loop engine pass.
struct AccelResult {
    engine: &'static str,
    mean_latency_ms: f64,
    fps_unpipelined: f64,
    fps_pipelined: f64,
    mean_energy_j: f64,
    baseline_energy_j: f64,
    offload_rate: f64,
    /// Present when `--link` put the engine pass behind a channel (and
    /// the engine accepted it — the modeled always-offload engines
    /// price transfers on their fixed bus and decline links).
    link: Option<LinkResult>,
}

/// Shedding counters from a link-backed pass.
struct LinkResult {
    profile: &'static str,
    stats: LinkStats,
    fallback_rate: f64,
    frames_lost: usize,
}

struct ScenarioResult {
    name: &'static str,
    baseline_frontend_fps: f64,
    frontend_fps: f64,
    frontend_speedup: f64,
    session_fps: f64,
    session_fps_baseline_est: f64,
    session_speedup_est: f64,
    kernel_us: [(&'static str, f64); 5],
    /// Per-frame session latency percentiles (ms), from the armed
    /// session's frame spans.
    frame_latency_ms: (f64, f64, f64),
    /// Per-kernel (p50 µs, p99 µs) from the armed session's kernel
    /// spans, in first-seen order.
    kernel_percentiles_us: Vec<(&'static str, f64, f64)>,
    /// Spans the session pass recorded / dropped (ring overflow).
    spans_recorded: u64,
    spans_dropped: u64,
    allocations_per_frame: Option<f64>,
    accel: Option<AccelResult>,
}

/// Builds the selected in-loop engine; `Scheduled` trains the offload
/// scheduler on the measured CPU records first (the paper's 25 %
/// profiling fraction) and falls back to always-offload when the run is
/// too short to fit the regressions.
fn build_engine(choice: EngineChoice, cpu_log: &RunLog) -> Option<Box<dyn ExecutionEngine>> {
    match choice {
        EngineChoice::Cpu => None,
        EngineChoice::EdxCar => Some(Box::new(ModeledAccelEngine::edx_car())),
        EngineChoice::EdxDrone => Some(Box::new(ModeledAccelEngine::edx_drone())),
        EngineChoice::Scheduled => {
            let platform = AccelPlatform::edx_drone();
            let policy = match AccelModel::new(platform).train_scheduler(cpu_log, 0.25) {
                Some(sched) => OffloadPolicy::Scheduled(sched),
                None => OffloadPolicy::Always,
            };
            Some(Box::new(ScheduledEngine::with_policy(platform, policy)))
        }
    }
}

/// Drives a second live session with the engine attached and summarizes
/// its per-frame `ExecutionReport`s.
fn run_engine_pass(
    data: &Dataset,
    cpu_log: &RunLog,
    choice: EngineChoice,
    link: Option<LinkProfile>,
) -> Option<AccelResult> {
    let mut engine = build_engine(choice, cpu_log)?;
    let engine_name = engine.name();
    let attached_profile = link.and_then(|profile| {
        engine
            .attach_link(Box::new(StochasticLink::new(profile, LINK_SEED)), None)
            .then_some(profile.name)
    });
    let mut session = SessionBuilder::new(PipelineConfig::anchored()).build();
    session.set_engine(engine);
    let log = RunLog {
        records: data.events().filter_map(|e| session.push(e)).collect(),
    };
    let run: AcceleratedRun = log
        .execution_run()
        .expect("an attached accel engine reports every frame");
    let link_result = attached_profile.map(|profile| LinkResult {
        profile,
        stats: session.engine().link_stats().expect("link attached"),
        fallback_rate: run.fallback_rate(),
        frames_lost: run.frames_lost(),
    });
    // Baseline energy on the platform the engine models, from the same
    // live pass the reports came from.
    let platform = match choice {
        EngineChoice::EdxCar => AccelPlatform::edx_car(),
        _ => AccelPlatform::edx_drone(),
    };
    Some(AccelResult {
        engine: engine_name,
        mean_latency_ms: run.summary().mean,
        fps_unpipelined: run.fps_unpipelined(),
        fps_pipelined: run.fps_pipelined(),
        mean_energy_j: run.mean_energy(),
        baseline_energy_j: AccelModel::new(platform).baseline_energy(&log),
        offload_rate: run.offload_rate(),
        link: link_result,
    })
}

/// One row of the link sweep: a trained scheduler replaying a measured
/// CPU log behind one canned profile.
struct LinkSweepRow {
    profile: &'static str,
    offload_rate: f64,
    fallback_rate: f64,
    stats: LinkStats,
}

/// Replays every scenario's measured CPU records through a
/// link-backed trained scheduler, once per canned profile (best channel
/// first). Replay (not a second live pass): the scheduler prices the
/// *measured* kernels against each link state, so the three rows differ
/// only in the channel — which is exactly the comparison the sweep is
/// after.
fn run_link_sweep(cpu_logs: &[RunLog], choice: EngineChoice) -> Option<Vec<LinkSweepRow>> {
    if choice == EngineChoice::Cpu {
        return None;
    }
    let rows = LinkProfile::canned()
        .into_iter()
        .map(|profile| {
            let mut frames = Vec::new();
            let mut stats = LinkStats::default();
            for cpu_log in cpu_logs {
                // A fresh engine (and link) per scenario: every scenario
                // sees the same seeded channel trace.
                let mut engine = build_engine(EngineChoice::Scheduled, cpu_log)
                    .expect("scheduled choice always builds");
                assert!(engine
                    .attach_link(Box::new(StochasticLink::new(profile, LINK_SEED)), None));
                for r in &cpu_log.records {
                    let report = engine
                        .execute_frame(&FrameContext {
                            stats: &r.frontend_stats,
                            timing: &r.frontend_timing,
                            backend_kernels: &r.backend_kernels,
                            health: None,
                        })
                        .expect("a scheduled engine reports every frame");
                    frames.push(report.accelerated_frame());
                }
                let s = engine.link_stats().expect("link attached");
                stats.frames += s.frames;
                stats.frames_lost += s.frames_lost;
                stats.link_fallbacks += s.link_fallbacks;
                stats.deadline_missed += s.deadline_missed;
            }
            let run = AcceleratedRun { frames };
            LinkSweepRow {
                profile: profile.name,
                offload_rate: run.offload_rate(),
                fallback_rate: run.fallback_rate(),
                stats,
            }
        })
        .collect();
    Some(rows)
}

/// Closed-loop numbers from the `--deadline-ms` pass: throttle-armed
/// sessions (one per scenario) plus an admission-controlled fleet.
struct ControlLoopResult {
    deadline_ms: f64,
    frames: u64,
    throttled_frames: u64,
    throttle_entries: u64,
    /// Severity-ladder steps up (repeated deadline misses) across the
    /// throttled sessions.
    throttle_escalations: u64,
    throttle_rate: f64,
    /// Mean converged modeled frame period across throttled sessions.
    modeled_period_ms: f64,
    /// Same sessions without the throttle, for the modeled-vs-achieved
    /// comparison.
    unthrottled_period_ms: f64,
    offered: u64,
    admitted: u64,
    degraded: u64,
    shed: u64,
    shed_rate: f64,
}

/// Drives the control loop closed: per scenario, one scheduled session
/// with the frame-deadline throttle armed (the engine verdict steering
/// the next frame's feature budget) next to an unthrottled twin; then an
/// admission-controlled manager over the same fleet, enqueueing and
/// draining in lockstep so the modeled rate the gate consults stays
/// current.
fn run_control_loop(
    datasets: &[Dataset],
    cpu_logs: &[RunLog],
    choice: EngineChoice,
    deadline_ms: f64,
) -> Option<ControlLoopResult> {
    if choice == EngineChoice::Cpu {
        return None;
    }
    let mut throttle = ThrottleStats::default();
    let mut modeled = 0.0;
    let mut unthrottled = 0.0;
    for (data, cpu_log) in datasets.iter().zip(cpu_logs) {
        let mut baseline = SessionBuilder::new(PipelineConfig::anchored()).build();
        baseline.set_engine(build_engine(choice, cpu_log).expect("non-cpu choice"));
        for event in data.events() {
            std::hint::black_box(baseline.push(event));
        }
        let mut throttled = SessionBuilder::new(PipelineConfig::anchored())
            .throttle(ThrottleConfig::new(deadline_ms))
            .build();
        throttled.set_engine(build_engine(choice, cpu_log).expect("non-cpu choice"));
        for event in data.events() {
            std::hint::black_box(throttled.push(event));
        }
        let stats = throttled.throttle_stats();
        throttle.frames += stats.frames;
        throttle.throttled_frames += stats.throttled_frames;
        throttle.entries += stats.entries;
        throttle.exits += stats.exits;
        throttle.escalations += stats.escalations;
        throttle.deescalations += stats.deescalations;
        modeled += throttled.modeled_period_ms().unwrap_or(0.0);
        unthrottled += baseline.modeled_period_ms().unwrap_or(0.0);
    }
    let passes = datasets.len().max(1) as f64;

    let mut manager = SessionManager::new();
    manager.set_admission_control(AdmissionConfig::new(deadline_ms));
    for (i, cpu_log) in cpu_logs.iter().enumerate() {
        let mut session = SessionBuilder::new(PipelineConfig::anchored()).build();
        session.set_engine(build_engine(choice, cpu_log).expect("non-cpu choice"));
        manager.add_agent(format!("agent-{i}"), session);
    }
    let mut streams: Vec<_> = datasets.iter().map(|d| d.events()).collect();
    loop {
        let mut any = false;
        for (i, stream) in streams.iter_mut().enumerate() {
            if let Some(event) = stream.next() {
                any = true;
                let id = format!("agent-{i}");
                std::hint::black_box(manager.try_enqueue(&id, event));
            }
        }
        if !any {
            break;
        }
        while manager.poll().is_some() {}
    }
    let mut admission = AdmissionStats::default();
    for i in 0..cpu_logs.len() {
        let a = manager
            .admission_stats(&format!("agent-{i}"))
            .expect("agent exists");
        admission.offered += a.offered;
        admission.admitted += a.admitted;
        admission.degraded += a.degraded;
        admission.shed += a.shed;
    }
    Some(ControlLoopResult {
        deadline_ms,
        frames: throttle.frames,
        throttled_frames: throttle.throttled_frames,
        throttle_entries: throttle.entries,
        throttle_escalations: throttle.escalations,
        throttle_rate: throttle.throttle_rate(),
        modeled_period_ms: modeled / passes,
        unthrottled_period_ms: unthrottled / passes,
        offered: admission.offered,
        admitted: admission.admitted,
        degraded: admission.degraded,
        shed: admission.shed,
        shed_rate: admission.shed_rate(),
    })
}

fn run_scenario(
    data: &Dataset,
    name: &'static str,
    engine: EngineChoice,
    link: Option<LinkProfile>,
) -> (ScenarioResult, RunLog) {
    // All three passes are timed by draining telemetry spans instead of
    // ad-hoc `Instant` arithmetic: each frame is bracketed by a
    // wall-clock frame span, per-pass totals are the exact span sums,
    // and the histograms double as the percentile source.

    // Pre-PR baseline: the seed frontend, allocating per frame.
    let baseline_hub = TelemetryHub::new(TelemetryConfig::new());
    let mut baseline = BaselineFrontend::new(FrontendConfig::default());
    for (i, frame) in data.frames.iter().enumerate() {
        let t0 = baseline_hub.start();
        std::hint::black_box(baseline.process(&frame.left, &frame.right));
        baseline_hub.record(SpanScope::Frame, "frame", i as u64, t0);
    }
    let baseline_frontend_s = baseline_hub.frame_histogram().sum_ns() as f64 * 1e-9;

    // Optimized frontend: scratch reuse + cached pyramid.
    let fe_hub = TelemetryHub::new(TelemetryConfig::new());
    let mut frontend = Frontend::new(FrontendConfig::default());
    frontend.set_telemetry(Some(fe_hub.clone()));
    for (i, frame) in data.frames.iter().enumerate() {
        frontend.set_telemetry_frame(i as u64);
        let t0 = fe_hub.start();
        std::hint::black_box(frontend.process(&frame.left, &frame.right));
        fe_hub.record(SpanScope::Frame, "frame", i as u64, t0);
    }
    let frontend_s = fe_hub.frame_histogram().sum_ns() as f64 * 1e-9;

    // Full streaming session (frontend + backend + event plumbing),
    // timed with the default passthrough engine so session_fps stays
    // comparable across engine choices. Telemetry armed: the session
    // stamps its own frame and kernel spans, and the percentiles below
    // come straight off its histograms.
    let mut session = SessionBuilder::new(PipelineConfig::anchored())
        .telemetry(TelemetryConfig::new())
        .build();
    let alloc_before = alloc_track::allocations();
    let records: Vec<FrameRecord> = data.events().filter_map(|e| session.push(e)).collect();
    let alloc_after = alloc_track::allocations();
    assert_eq!(records.len(), data.frames.len(), "every frame yields a record");
    let hub = session.telemetry().expect("session telemetry armed").clone();
    let frame_hist = hub.frame_histogram();
    let session_s = frame_hist.sum_ns() as f64 * 1e-9;
    let cpu_log = RunLog { records };

    let n = data.frames.len() as f64;
    let frontend_share = frontend_s / n;
    let baseline_share = baseline_frontend_s / n;
    // Estimated seed-era session time: swap the measured optimized
    // frontend share for the measured baseline share.
    let session_baseline_s_est = session_s - frontend_s + baseline_frontend_s;

    // In-loop engine pass: the same stream through a session with the
    // selected accelerator engine deciding per frame.
    let accel = run_engine_pass(data, &cpu_log, engine, link);

    let result = ScenarioResult {
        name,
        baseline_frontend_fps: n / baseline_frontend_s,
        frontend_fps: n / frontend_s,
        frontend_speedup: baseline_share / frontend_share,
        session_fps: n / session_s,
        session_fps_baseline_est: n / session_baseline_s_est,
        session_speedup_est: session_baseline_s_est / session_s,
        kernel_us: [
            ("filtering", mean_us(&cpu_log.records, |r| r.frontend_timing.filtering)),
            ("detection", mean_us(&cpu_log.records, |r| r.frontend_timing.detection)),
            ("description", mean_us(&cpu_log.records, |r| r.frontend_timing.description)),
            ("stereo", mean_us(&cpu_log.records, |r| r.frontend_timing.stereo)),
            ("temporal", mean_us(&cpu_log.records, |r| r.frontend_timing.temporal)),
        ],
        frame_latency_ms: (
            frame_hist.p50_ms(),
            frame_hist.p90_ms(),
            frame_hist.p99_ms(),
        ),
        kernel_percentiles_us: hub
            .kernel_histograms()
            .iter()
            .map(|(kernel, h)| {
                (*kernel, h.quantile(0.50) * 1e-3, h.quantile(0.99) * 1e-3)
            })
            .collect(),
        spans_recorded: hub.spans_recorded(),
        spans_dropped: hub.spans_dropped(),
        allocations_per_frame: alloc_track::counting_enabled()
            .then(|| (alloc_after - alloc_before) as f64 / n),
        accel,
    };
    // Every span-sourced percentile lands in the committed JSON: a NaN
    // or infinity there means a histogram went unfed — fail here, not in
    // whatever consumes the artifact.
    let (p50, p90, p99) = result.frame_latency_ms;
    assert!(
        p50.is_finite() && p90.is_finite() && p99.is_finite(),
        "{name}: non-finite frame percentiles ({p50}/{p90}/{p99})"
    );
    for (kernel, p50, p99) in &result.kernel_percentiles_us {
        assert!(
            p50.is_finite() && p99.is_finite(),
            "{name}: non-finite percentiles for kernel {kernel}"
        );
    }
    (result, cpu_log)
}

struct ManagerResult {
    agents: usize,
    workers: usize,
    sequential_fps: f64,
    parallel_fps: f64,
    parallel_speedup: f64,
}

fn run_manager(datasets: &[Dataset], workers: usize) -> ManagerResult {
    let fill = |manager: &mut SessionManager| {
        for (i, data) in datasets.iter().enumerate() {
            let id = format!("agent-{i}");
            manager.add_agent(&id, SessionBuilder::new(PipelineConfig::anchored()).build());
            for event in data.events() {
                assert!(matches!(
                    manager.try_enqueue(&id, event),
                    Enqueue::Accepted
                ));
            }
        }
    };
    let total_frames: usize = datasets.iter().map(|d| d.frames.len()).sum();

    let mut sequential = SessionManager::new();
    fill(&mut sequential);
    let t = Instant::now();
    let seq_records = sequential.run_until_idle();
    let sequential_s = t.elapsed().as_secs_f64();
    assert_eq!(seq_records.len(), total_frames);

    let mut parallel = SessionManager::new();
    fill(&mut parallel);
    let t = Instant::now();
    let par_records = parallel.poll_parallel(workers);
    let parallel_s = t.elapsed().as_secs_f64();
    assert_eq!(par_records.len(), total_frames);

    ManagerResult {
        agents: datasets.len(),
        workers,
        sequential_fps: total_frames as f64 / sequential_s,
        parallel_fps: total_frames as f64 / parallel_s,
        parallel_speedup: sequential_s / parallel_s,
    }
}

fn json_f(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

fn write_json(
    path: &str,
    frames: usize,
    engine: EngineChoice,
    scenarios: &[ScenarioResult],
    manager: &ManagerResult,
    link_sweep: Option<&[LinkSweepRow]>,
    control_loop: Option<&ControlLoopResult>,
) {
    let mean_speedup =
        scenarios.iter().map(|s| s.frontend_speedup).sum::<f64>() / scenarios.len().max(1) as f64;
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"frames_per_scenario\": {frames},\n"));
    s.push_str(&format!("  \"engine\": \"{}\",\n", engine.name()));
    s.push_str(&format!(
        "  \"mean_frontend_speedup_vs_seed_baseline\": {},\n",
        json_f(mean_speedup)
    ));
    s.push_str(&format!(
        "  \"count_alloc_enabled\": {},\n",
        alloc_track::counting_enabled()
    ));
    s.push_str("  \"scenarios\": [\n");
    for (i, sc) in scenarios.iter().enumerate() {
        s.push_str("    {\n");
        s.push_str(&format!("      \"kind\": \"{}\",\n", sc.name));
        s.push_str(&format!(
            "      \"baseline_frontend_fps\": {},\n",
            json_f(sc.baseline_frontend_fps)
        ));
        s.push_str(&format!("      \"frontend_fps\": {},\n", json_f(sc.frontend_fps)));
        s.push_str(&format!(
            "      \"frontend_speedup\": {},\n",
            json_f(sc.frontend_speedup)
        ));
        s.push_str(&format!("      \"session_fps\": {},\n", json_f(sc.session_fps)));
        s.push_str(&format!(
            "      \"session_fps_baseline_est\": {},\n",
            json_f(sc.session_fps_baseline_est)
        ));
        s.push_str(&format!(
            "      \"session_speedup_est\": {},\n",
            json_f(sc.session_speedup_est)
        ));
        s.push_str("      \"kernel_us\": {");
        for (j, (k, v)) in sc.kernel_us.iter().enumerate() {
            s.push_str(&format!("\"{k}\": {}", json_f(*v)));
            if j + 1 < sc.kernel_us.len() {
                s.push_str(", ");
            }
        }
        s.push_str("},\n");
        s.push_str(&format!(
            "      \"frame_latency_ms\": {{\"p50\": {}, \"p90\": {}, \"p99\": {}}},\n",
            json_f(sc.frame_latency_ms.0),
            json_f(sc.frame_latency_ms.1),
            json_f(sc.frame_latency_ms.2),
        ));
        s.push_str("      \"kernel_percentiles_us\": {");
        for (j, (k, p50, p99)) in sc.kernel_percentiles_us.iter().enumerate() {
            s.push_str(&format!(
                "\"{k}\": {{\"p50\": {}, \"p99\": {}}}",
                json_f(*p50),
                json_f(*p99)
            ));
            if j + 1 < sc.kernel_percentiles_us.len() {
                s.push_str(", ");
            }
        }
        s.push_str("},\n");
        s.push_str(&format!(
            "      \"spans_recorded\": {},\n",
            sc.spans_recorded
        ));
        s.push_str(&format!("      \"spans_dropped\": {},\n", sc.spans_dropped));
        s.push_str(&format!(
            "      \"allocations_per_frame\": {},\n",
            sc.allocations_per_frame.map_or("null".to_string(), json_f)
        ));
        match &sc.accel {
            Some(a) => {
                s.push_str("      \"accel\": {\n");
                s.push_str(&format!("        \"engine\": \"{}\",\n", a.engine));
                s.push_str(&format!(
                    "        \"mean_latency_ms\": {},\n",
                    json_f(a.mean_latency_ms)
                ));
                s.push_str(&format!(
                    "        \"fps_unpipelined\": {},\n",
                    json_f(a.fps_unpipelined)
                ));
                s.push_str(&format!(
                    "        \"fps_pipelined\": {},\n",
                    json_f(a.fps_pipelined)
                ));
                s.push_str(&format!(
                    "        \"mean_energy_j\": {},\n",
                    json_f(a.mean_energy_j)
                ));
                s.push_str(&format!(
                    "        \"baseline_energy_j\": {},\n",
                    json_f(a.baseline_energy_j)
                ));
                s.push_str(&format!(
                    "        \"offload_rate\": {},\n",
                    json_f(a.offload_rate)
                ));
                match &a.link {
                    Some(l) => {
                        s.push_str("        \"link\": {\n");
                        s.push_str(&format!("          \"profile\": \"{}\",\n", l.profile));
                        s.push_str(&format!("          \"frames\": {},\n", l.stats.frames));
                        s.push_str(&format!(
                            "          \"frames_lost\": {},\n",
                            l.stats.frames_lost
                        ));
                        s.push_str(&format!(
                            "          \"link_fallbacks\": {},\n",
                            l.stats.link_fallbacks
                        ));
                        s.push_str(&format!(
                            "          \"deadline_missed\": {},\n",
                            l.stats.deadline_missed
                        ));
                        s.push_str(&format!(
                            "          \"fallback_rate\": {},\n",
                            json_f(l.fallback_rate)
                        ));
                        s.push_str(&format!(
                            "          \"frames_lost_with_work\": {}\n",
                            l.frames_lost
                        ));
                        s.push_str("        }\n");
                    }
                    None => s.push_str("        \"link\": null\n"),
                }
                s.push_str("      }\n");
            }
            None => s.push_str("      \"accel\": null\n"),
        }
        s.push_str(if i + 1 < scenarios.len() { "    },\n" } else { "    }\n" });
    }
    s.push_str("  ],\n");
    match link_sweep {
        Some(rows) => {
            s.push_str("  \"link_sweep\": [\n");
            for (i, r) in rows.iter().enumerate() {
                s.push_str("    {\n");
                s.push_str(&format!("      \"profile\": \"{}\",\n", r.profile));
                s.push_str(&format!(
                    "      \"offload_rate\": {},\n",
                    json_f(r.offload_rate)
                ));
                s.push_str(&format!(
                    "      \"fallback_rate\": {},\n",
                    json_f(r.fallback_rate)
                ));
                s.push_str(&format!("      \"frames\": {},\n", r.stats.frames));
                s.push_str(&format!("      \"frames_lost\": {},\n", r.stats.frames_lost));
                s.push_str(&format!(
                    "      \"link_fallbacks\": {},\n",
                    r.stats.link_fallbacks
                ));
                s.push_str(&format!(
                    "      \"deadline_missed\": {}\n",
                    r.stats.deadline_missed
                ));
                s.push_str(if i + 1 < rows.len() { "    },\n" } else { "    }\n" });
            }
            s.push_str("  ],\n");
        }
        None => s.push_str("  \"link_sweep\": null,\n"),
    }
    match control_loop {
        Some(c) => {
            s.push_str("  \"control_loop\": {\n");
            s.push_str(&format!("    \"deadline_ms\": {},\n", json_f(c.deadline_ms)));
            s.push_str(&format!("    \"frames\": {},\n", c.frames));
            s.push_str(&format!(
                "    \"throttled_frames\": {},\n",
                c.throttled_frames
            ));
            s.push_str(&format!(
                "    \"throttle_entries\": {},\n",
                c.throttle_entries
            ));
            s.push_str(&format!(
                "    \"throttle_escalations\": {},\n",
                c.throttle_escalations
            ));
            s.push_str(&format!(
                "    \"throttle_rate\": {},\n",
                json_f(c.throttle_rate)
            ));
            s.push_str(&format!(
                "    \"modeled_period_ms\": {},\n",
                json_f(c.modeled_period_ms)
            ));
            s.push_str(&format!(
                "    \"unthrottled_period_ms\": {},\n",
                json_f(c.unthrottled_period_ms)
            ));
            s.push_str(&format!("    \"offered\": {},\n", c.offered));
            s.push_str(&format!("    \"admitted\": {},\n", c.admitted));
            s.push_str(&format!("    \"degraded\": {},\n", c.degraded));
            s.push_str(&format!("    \"shed\": {},\n", c.shed));
            s.push_str(&format!("    \"shed_rate\": {}\n", json_f(c.shed_rate)));
            s.push_str("  },\n");
        }
        None => s.push_str("  \"control_loop\": null,\n"),
    }
    s.push_str("  \"manager\": {\n");
    s.push_str(&format!("    \"agents\": {},\n", manager.agents));
    s.push_str(&format!("    \"workers\": {},\n", manager.workers));
    s.push_str(&format!(
        "    \"sequential_fps\": {},\n",
        json_f(manager.sequential_fps)
    ));
    s.push_str(&format!("    \"parallel_fps\": {},\n", json_f(manager.parallel_fps)));
    s.push_str(&format!(
        "    \"parallel_speedup\": {}\n",
        json_f(manager.parallel_speedup)
    ));
    s.push_str("  }\n");
    s.push_str("}\n");
    std::fs::write(path, s).expect("write BENCH json");
}

fn main() {
    let args = parse_args();

    section(&format!(
        "Replay throughput: {} frames/scenario, drone rig",
        args.frames
    ));
    let mut scenarios = Vec::new();
    let mut datasets = Vec::new();
    let mut cpu_logs = Vec::new();
    row(&[
        "scenario".into(),
        "seed fps".into(),
        "opt fps".into(),
        "speedup".into(),
        "session fps".into(),
        "p50/p99 ms".into(),
        "accel fps(p)".into(),
        "alloc/frame".into(),
    ]);
    for (kind, name) in KINDS {
        let data = dataset(kind, Platform::Drone, args.frames, 7);
        let (result, cpu_log) = run_scenario(&data, name, args.engine, args.link);
        row(&[
            name.into(),
            format!("{:.2}", result.baseline_frontend_fps),
            format!("{:.2}", result.frontend_fps),
            format!("{:.2}x", result.frontend_speedup),
            format!("{:.2}", result.session_fps),
            format!(
                "{:.2}/{:.2}",
                result.frame_latency_ms.0, result.frame_latency_ms.2
            ),
            result
                .accel
                .as_ref()
                .map_or("n/a".into(), |a| format!("{:.1}", a.fps_pipelined)),
            result
                .allocations_per_frame
                .map_or("n/a".into(), |a| format!("{a:.0}")),
        ]);
        scenarios.push(result);
        datasets.push(data);
        cpu_logs.push(cpu_log);
    }

    let link_sweep = run_link_sweep(&cpu_logs, args.engine);
    if let Some(rows) = &link_sweep {
        section("Link sweep: trained scheduler behind each canned profile");
        row(&[
            "profile".into(),
            "offload".into(),
            "fallback".into(),
            "lost".into(),
            "frames".into(),
        ]);
        for r in rows {
            row(&[
                r.profile.into(),
                format!("{:.0}%", r.offload_rate * 100.0),
                format!("{:.0}%", r.fallback_rate * 100.0),
                format!("{}", r.stats.frames_lost),
                format!("{}", r.stats.frames),
            ]);
        }
    }

    let control_loop = args
        .deadline_ms
        .and_then(|deadline| run_control_loop(&datasets, &cpu_logs, args.engine, deadline));
    if let Some(c) = &control_loop {
        section(&format!(
            "Control loop: deadline {:.2} ms (throttle + admission)",
            c.deadline_ms
        ));
        row(&[
            "throttle rate".into(),
            format!("{:.0}%", c.throttle_rate * 100.0),
            "period".into(),
            format!("{:.2} ms (was {:.2})", c.modeled_period_ms, c.unthrottled_period_ms),
            "shed".into(),
            format!("{}/{} ({:.0}%)", c.shed, c.offered, c.shed_rate * 100.0),
        ]);
    }

    section(&format!(
        "SessionManager: {} agents, {} workers",
        datasets.len(),
        args.workers
    ));
    let manager = run_manager(&datasets, args.workers);
    row(&[
        "sequential fps".into(),
        format!("{:.2}", manager.sequential_fps),
        "parallel fps".into(),
        format!("{:.2}", manager.parallel_fps),
        "speedup".into(),
        format!("{:.2}x", manager.parallel_speedup),
    ]);

    write_json(
        &args.out,
        args.frames,
        args.engine,
        &scenarios,
        &manager,
        link_sweep.as_deref(),
        control_loop.as_ref(),
    );
    println!("\nwrote {}", args.out);

    let mean_speedup: f64 =
        scenarios.iter().map(|s| s.frontend_speedup).sum::<f64>() / scenarios.len() as f64;
    println!(
        "mean single-session frontend speedup vs seed baseline: {mean_speedup:.2}x"
    );

    if let Some(min) = args.min_speedup {
        if mean_speedup < min {
            eprintln!(
                "FAIL: mean frontend speedup {mean_speedup:.2}x is below the \
                 --min-speedup gate of {min:.2}x"
            );
            std::process::exit(1);
        }
        println!("speedup gate passed (>= {min:.2}x)");
    }
}
