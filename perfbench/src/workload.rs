//! The three workloads: input synthesis, session construction and the
//! closed-loop clients. The program is driven only through its public
//! API: `SessionBuilder`, `LocalizationSession::push`,
//! `SessionManager::try_enqueue` / `poll_parallel` and `build_map`.

use crate::calib::{self, Kernel};
use crate::heap;
use crate::probe::{CpuStamp, Probe, TimedBackend, TimedEngine};
use crate::stats::thread_cpu_ns;
use eudoxus::backend::{Registration, Slam, Vio, WorldMap};
use eudoxus::core::{
    build_map, Enqueue, FaultProfile, FrameRecord, LocalizationSession, ModeledAccelEngine,
    PipelineConfig, SensorEvent, SessionBuilder, SessionManager,
};
use eudoxus::sim::{Dataset, Platform, ScenarioBuilder, ScenarioKind};
use eudoxus::telemetry::SpanScope;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    CarVio,
    DroneMixed,
    Fleet,
}

/// One workload's fixed shape. Every run sets up `scenes` independent
/// scenes (seeds derived from the run seed), each with its own session
/// or manager, and replays them in turn, so one run averages over several
/// worlds and set-up is measured several times.
#[derive(Debug, Clone)]
pub struct Spec {
    pub kind: Kind,
    pub name: &'static str,
    pub scenes: usize,
    /// Image frames per stream of a scene.
    pub frames: usize,
    /// Streams per scene: one session each.
    pub agents: usize,
    /// `ate_rmse_m` above this means an estimator diverged.
    pub ate_ceiling_m: f64,
}

pub const WORKLOADS: [&str; 3] = ["car_vio", "drone_mixed", "fleet"];

/// The agent of each `fleet` scene that runs the `dusty_site` faults.
const FAULTED_AGENT: usize = 3;

impl Spec {
    pub fn named(name: &str) -> Option<Spec> {
        // Ceilings sit an order of magnitude above every seed's error, far
        // below a diverged estimator's.
        let (kind, scenes, frames, agents, ate_ceiling_m) = match name {
            "car_vio" => (Kind::CarVio, 8, 25, 1, 3.0),
            "drone_mixed" => (Kind::DroneMixed, 10, 34, 1, 2.0),
            "fleet" => (Kind::Fleet, 4, 40, 4, 2.0),
            _ => return None,
        };
        Some(Spec {
            kind,
            name: WORKLOADS.iter().find(|w| **w == name)?,
            scenes,
            frames,
            agents,
            ate_ceiling_m,
        })
    }

    pub fn is_fleet(&self) -> bool {
        self.kind == Kind::Fleet
    }

    /// Whether agent `agent` of a scene runs the fault profile.
    pub fn faulted(&self, agent: usize) -> bool {
        self.is_fleet() && agent == FAULTED_AGENT
    }
}

/// SplitMix64: independent child seeds from one run seed.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The synthesized inputs of one scene.
pub struct Scene {
    /// One event stream per agent, materialized once so replay costs
    /// reference counts, not synthesis.
    pub streams: Vec<Vec<SensorEvent>>,
    /// The surveyed map (`drone_mixed` only).
    pub map: Option<WorldMap>,
    /// Seed of the faulted agent's fault process (`fleet` only).
    pub fault_seed: u64,
}

impl Scene {
    pub fn images(&self, agent: usize) -> usize {
        self.streams[agent]
            .iter()
            .filter(|e| matches!(e, SensorEvent::Image(_)))
            .count()
    }
}

/// CPU time of one scene's set-up, by part (set-up runs on one thread).
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub synth_s: f64,
    pub survey_s: f64,
    pub build_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.synth_s + self.survey_s + self.build_s
    }

    /// Every part times a host-speed scale (see `calib`).
    pub fn scaled(self, scale: f64) -> Self {
        SetupTimes {
            synth_s: self.synth_s * scale,
            survey_s: self.survey_s * scale,
            build_s: self.build_s * scale,
        }
    }
}

/// Seconds of this thread's CPU time since `start_ns`.
pub fn cpu_s_since(start_ns: u64) -> f64 {
    (thread_cpu_ns() - start_ns) as f64 / 1e9
}

fn drone(kind: ScenarioKind, frames: usize, seed: u64) -> Dataset {
    ScenarioBuilder::new(kind)
        .platform(Platform::Drone)
        .fps(20.0)
        .frames(frames)
        .seed(seed)
        .build()
}

/// Synthesizes scene `scene` of a run (and, for `drone_mixed`, surveys
/// its map), timing each part.
pub fn synthesize(spec: &Spec, seed: u64, scene: usize) -> (Scene, SetupTimes) {
    let scene_seed = derive_seed(seed, scene as u64);
    let mut times = SetupTimes::default();
    let start = thread_cpu_ns();
    let mut map = None;
    let datasets = match spec.kind {
        Kind::CarVio => vec![ScenarioBuilder::new(ScenarioKind::OutdoorUnknown)
            .platform(Platform::Car)
            .fps(10.0)
            .frames(spec.frames)
            .seed(scene_seed)
            .build()],
        Kind::DroneMixed => {
            // The paper's 50/25/25 mix as anchored, concatenated
            // segments: outdoor VIO+GPS, indoor SLAM, then indoor
            // registration against a survey of that last room.
            let half = (spec.frames / 2).max(1);
            let quarter = (spec.frames / 4).max(1);
            let rest = spec.frames.saturating_sub(half + quarter).max(1);
            let outdoor = drone(
                ScenarioKind::OutdoorUnknown,
                half,
                derive_seed(scene_seed, 1),
            );
            let indoor = drone(
                ScenarioKind::IndoorUnknown,
                quarter,
                derive_seed(scene_seed, 2),
            );
            let known = drone(ScenarioKind::IndoorKnown, rest, derive_seed(scene_seed, 3));
            let survey = thread_cpu_ns();
            map = Some(build_map(&known, &PipelineConfig::anchored()));
            times.survey_s = cpu_s_since(survey);
            vec![Dataset::concat("drone_mixed", vec![outdoor, indoor, known])]
        }
        Kind::Fleet => (0..spec.agents)
            .map(|agent| {
                drone(
                    ScenarioKind::Mixed,
                    spec.frames,
                    derive_seed(scene_seed, 10 + agent as u64),
                )
            })
            .collect(),
    };
    let streams = datasets.iter().map(|d| d.events().collect()).collect();
    times.synth_s = cpu_s_since(start) - times.survey_s;
    let scene = Scene {
        streams,
        map,
        fault_seed: derive_seed(scene_seed, 99),
    };
    (scene, times)
}

/// One agent's session: the stock engine and estimators, or (traced) the
/// same ones inside the timing wrappers. A `fleet` agent's engine also
/// stamps its serving thread's CPU time.
fn session(
    spec: &Spec,
    scene: &Scene,
    agent: usize,
    probe: Option<&Probe>,
    stamp: Option<&CpuStamp>,
) -> LocalizationSession {
    let config = PipelineConfig::anchored();
    let engine = match spec.kind {
        Kind::CarVio => ModeledAccelEngine::edx_car(),
        Kind::DroneMixed | Kind::Fleet => ModeledAccelEngine::edx_drone(),
    };
    let mut builder = SessionBuilder::new(config.clone());
    if spec.faulted(agent) {
        builder = builder.faults(FaultProfile::dusty_site().plan, scene.fault_seed);
    }
    match probe {
        None => {
            builder = match stamp {
                Some(stamp) => builder.engine(TimedEngine::new(engine, None, Some(stamp.clone()))),
                None => builder.engine(engine),
            };
            if let Some(map) = &scene.map {
                builder = builder.map(map.clone());
            }
        }
        Some(probe) => {
            let (vio, slam, registration) = (config.vio, config.slam, config.registration);
            let (p_vio, p_slam) = (probe.clone(), probe.clone());
            builder = builder
                .engine(TimedEngine::new(
                    engine,
                    Some(probe.clone()),
                    stamp.cloned(),
                ))
                .without_default_backends()
                .backend(move || TimedBackend::new(Vio::new(vio), p_vio.clone()))
                .backend(move || TimedBackend::new(Slam::new(slam), p_slam.clone()));
            if let Some(map) = &scene.map {
                let (map, p_reg) = (map.clone(), probe.clone());
                builder = builder.backend(move || {
                    TimedBackend::new(Registration::new(map.clone(), registration), p_reg.clone())
                });
            }
        }
    }
    builder.build()
}

/// What serves one scene: a session, or a manager with one session per
/// agent and each agent's CPU stamp.
pub enum Target {
    Single(Box<LocalizationSession>),
    Fleet(SessionManager, Vec<CpuStamp>),
}

pub fn agent_id(agent: usize) -> String {
    format!("agent-{agent}")
}

/// Builds the scene's target; `probes` (traced runs) holds one probe per
/// agent.
pub fn build(spec: &Spec, scene: &Scene, probes: Option<&[Probe]>) -> Target {
    let probe = |agent: usize| probes.map(|p| &p[agent]);
    if !spec.is_fleet() {
        return Target::Single(Box::new(session(spec, scene, 0, probe(0), None)));
    }
    let mut manager = SessionManager::new();
    let stamps = vec![CpuStamp::default(); spec.agents];
    for (agent, stamp) in stamps.iter().enumerate() {
        let session = session(spec, scene, agent, probe(agent), Some(stamp));
        manager.add_agent(agent_id(agent), session);
    }
    Target::Fleet(manager, stamps)
}

/// One image event's outcome.
pub struct Frame {
    pub scene: usize,
    pub agent: usize,
    /// Which replay of the scene: 0 is the untimed reference pass, the
    /// timed cycles are 1 and up.
    pub replay: usize,
    /// Critical-path CPU time of the frame, unscaled.
    pub latency_ms: f64,
    /// Index of the step that served it in `PhaseOutput::steps`.
    pub step: usize,
    /// The probe's frame index (traced runs).
    pub span_frame: Option<u64>,
    /// The returned pose's bits; `None`: the image produced no record.
    pub pose: Option<[u64; 7]>,
    /// No record, a non-finite pose, or a record the health monitor
    /// reports as unserved.
    pub failed: bool,
    /// Squared translation error, where the frame has a reference pose.
    pub error_sq: Option<f64>,
    /// The whole record, kept by traced phases only.
    pub record: Option<FrameRecord>,
}

pub fn pose_bits(p: &eudoxus::geometry::Pose) -> [u64; 7] {
    let (q, t) = (p.rotation, p.translation);
    [q.w, q.x, q.y, q.z, t.x, t.y, t.z].map(f64::to_bits)
}

/// One step of the closed loop: a single session's image `push`, with
/// the sensor events pushed since the previous one, or a `fleet` round.
pub struct Step {
    pub replay: usize,
    /// Critical-path CPU time, unscaled: the client thread's, plus a
    /// `fleet` round's busiest worker's.
    pub cpu_ms: f64,
    /// The calibration kernel's time on the client thread right after the
    /// step.
    pub calib_ms: f64,
}

/// One phase over every scene: an untimed reference pass, then whole
/// timed cycles.
pub struct PhaseOutput {
    pub frames: Vec<Frame>,
    pub steps: Vec<Step>,
    /// Host-speed scale of each step (`calib::scales`).
    pub scales: Vec<f64>,
    /// Timed cycles; each replays every scene once.
    pub cycles: usize,
    /// Wall time of the timed cycles.
    pub timed_s: f64,
    /// Image events that reached a session (fault-dropped ones excluded).
    pub received: u64,
    /// The fleet's counters after the reference pass (deterministic,
    /// unlike totals that grow with the number of cycles).
    pub first_cycle: FleetSnapshot,
    /// Peak live heap over the first timed cycle, less the frame log
    /// itself, in bytes.
    pub heap_peak: usize,
    pub workers: usize,
    keep_records: bool,
}

impl PhaseOutput {
    /// Frames of the timed cycles.
    pub fn timed(&self) -> impl Iterator<Item = &Frame> {
        self.frames.iter().filter(|f| f.replay > 0)
    }

    /// A frame's latency, scaled to the reference host.
    pub fn latency_ms(&self, frame: &Frame) -> f64 {
        frame.latency_ms * self.scales[frame.step]
    }

    /// Critical-path CPU time of the timed cycles (`timed`) or of the
    /// reference pass, in s: unscaled, and scaled step by step to the
    /// reference host.
    pub fn cpu_s(&self, timed: bool) -> (f64, f64) {
        let steps = self
            .steps
            .iter()
            .zip(&self.scales)
            .filter(|(s, _)| (s.replay > 0) == timed);
        steps.fold((0.0, 0.0), |(raw, scaled), (step, scale)| {
            (raw + step.cpu_ms / 1e3, scaled + step.cpu_ms * scale / 1e3)
        })
    }

    /// Image frames of the reference pass over its scaled critical-path
    /// CPU time.
    pub fn reference_fps(&self) -> f64 {
        let frames = self.frames.iter().filter(|f| f.replay == 0).count();
        frames as f64 / self.cpu_s(false).1
    }

    fn push_frame(&mut self, frame: FrameSlot, record: Option<FrameRecord>) {
        self.received += 1;
        self.frames.push(Frame {
            scene: frame.scene,
            agent: frame.agent,
            replay: frame.replay,
            latency_ms: frame.latency_ms,
            step: self.steps.len() - 1,
            span_frame: frame.span_frame,
            pose: record.as_ref().map(|r| pose_bits(&r.pose)),
            failed: record.as_ref().is_none_or(|r| {
                !pose_bits(&r.pose)
                    .iter()
                    .all(|b| f64::from_bits(*b).is_finite())
                    || r.health.is_some_and(|h| !h.served)
            }),
            error_sq: record
                .as_ref()
                .filter(|r| r.has_ground_truth)
                .map(|r| r.translation_error().powi(2)),
            record: record.filter(|_| self.keep_records),
        });
    }
}

/// Where and how fast one image was served.
struct FrameSlot {
    scene: usize,
    agent: usize,
    replay: usize,
    latency_ms: f64,
    span_frame: Option<u64>,
}

/// Serving-layer counters after the reference pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetSnapshot {
    pub events: u64,
    pub sequential_drains: u64,
    pub degraded_frames: u64,
    pub dead_reckoned_frames: u64,
    pub recoveries: u64,
    pub blackout_frames: u64,
}

/// Replays every scene through its target: first once, untimed, as the
/// reference pass that warms each session (its first frame allocates the
/// frontend's buffers) and fixes the outputs the checks compare against;
/// then in whole timed cycles, as many as fill about `seconds` at the
/// reference pass's pace, so every frame is timed equally often (none when
/// `seconds` is `None`). Each
/// replay is a fresh anchored segment through the scene's long-lived
/// target. The loop is closed: the next event goes in when the previous
/// call returns. Each step is followed by a calibration sample, outside
/// its timing.
#[allow(clippy::too_many_arguments)]
pub fn run_phase(
    spec: &Spec,
    scenes: &[Scene],
    targets: &mut [Target],
    probes: Option<&[Vec<Probe>]>,
    client: Option<&Probe>,
    calibrator: &mut Kernel,
    workers: usize,
    seconds: Option<f64>,
) -> Result<PhaseOutput, String> {
    let mut out = PhaseOutput {
        frames: Vec::new(),
        steps: Vec::new(),
        scales: Vec::new(),
        cycles: 0,
        timed_s: 0.0,
        received: 0,
        first_cycle: FleetSnapshot::default(),
        heap_peak: 0,
        workers,
        keep_records: probes.is_some(),
    };
    let start = Instant::now();
    cycle(
        spec, scenes, targets, probes, client, calibrator, 0, &mut out,
    )?;
    let reference_s = start.elapsed().as_secs_f64();
    snapshot_fleet(targets, &mut out.first_cycle);
    // Spans of the reference pass would mix cold frames into the timings.
    for probe in probes.into_iter().flatten().flatten().chain(client) {
        probe.hub.drain();
    }

    out.cycles = seconds.map_or(0, |s| ((s / reference_s).round() as usize).max(1));
    let images: usize = scenes
        .iter()
        .map(|s| (0..spec.agents).map(|a| s.images(a)).sum::<usize>())
        .sum();
    // Reserved up front, so the logs do not grow while the heap is
    // counted, and their exact size can be taken off. A cycle has at most
    // one step per image.
    out.frames.reserve(out.cycles * images);
    out.steps.reserve(out.cycles * images);
    heap::reset_peak();
    let start = Instant::now();
    for replay in 1..=out.cycles {
        cycle(
            spec, scenes, targets, probes, client, calibrator, replay, &mut out,
        )?;
        if replay == 1 {
            let log = out.frames.capacity() * std::mem::size_of::<Frame>()
                + out.steps.capacity() * std::mem::size_of::<Step>();
            out.heap_peak = heap::peak().saturating_sub(log);
        }
    }
    out.timed_s = start.elapsed().as_secs_f64();
    let calib_ms: Vec<f64> = out.steps.iter().map(|s| s.calib_ms).collect();
    out.scales = calib::scales(&calib_ms);
    Ok(out)
}

/// One replay of every scene, in order.
#[allow(clippy::too_many_arguments)]
fn cycle(
    spec: &Spec,
    scenes: &[Scene],
    targets: &mut [Target],
    probes: Option<&[Vec<Probe>]>,
    client: Option<&Probe>,
    calibrator: &mut Kernel,
    replay: usize,
    out: &mut PhaseOutput,
) -> Result<(), String> {
    for (s, (scene, target)) in scenes.iter().zip(targets.iter_mut()).enumerate() {
        match target {
            Target::Single(session) => {
                let probe = probes.map(|p| &p[s][0]);
                replay_single(session, scene, s, replay, probe, calibrator, out);
            }
            Target::Fleet(manager, stamps) => {
                replay_fleet(
                    spec, manager, stamps, scene, s, replay, client, calibrator, out,
                )?;
            }
        }
    }
    Ok(())
}

fn snapshot_fleet(targets: &[Target], snap: &mut FleetSnapshot) {
    for target in targets {
        let Target::Fleet(manager, _) = target else {
            continue;
        };
        for stats in manager.ingest_stats() {
            snap.sequential_drains += stats.sequential_drains;
            snap.degraded_frames += stats.health.degraded_frames;
            snap.dead_reckoned_frames += stats.health.dead_reckoned_frames;
            snap.recoveries += stats.health.recoveries;
            if let Some(c) = manager
                .session(&stats.agent)
                .and_then(|s| s.fault_counters())
            {
                snap.blackout_frames += c.images_blacked_out;
            }
        }
    }
}

/// Pushes one replay of a scene into its session. An image's step runs
/// from the end of the previous calibration sample to the return of its
/// `push`, so it holds the sensor events pushed before it.
fn replay_single(
    session: &mut LocalizationSession,
    scene: &Scene,
    s: usize,
    replay: usize,
    probe: Option<&Probe>,
    calibrator: &mut Kernel,
    out: &mut PhaseOutput,
) {
    let mut step_start = thread_cpu_ns();
    for event in &scene.streams[0] {
        let event = event.clone();
        if !matches!(event, SensorEvent::Image(_)) {
            std::hint::black_box(session.push(event));
            continue;
        }
        let span = probe.map(|p| (p.frame(), p.hub.start()));
        let cpu = thread_cpu_ns();
        let record = session.push(event);
        let end = thread_cpu_ns();
        if let (Some(p), Some((frame, start))) = (probe, span) {
            p.hub.record(SpanScope::Frame, "push", frame, start);
        }
        let latency_ms = (end - cpu) as f64 / 1e6;
        out.steps.push(Step {
            replay,
            cpu_ms: (end - step_start) as f64 / 1e6,
            calib_ms: calibrator.sample_ms(),
        });
        step_start = thread_cpu_ns();
        let slot = FrameSlot {
            scene: s,
            agent: 0,
            replay,
            latency_ms,
            span_frame: span.map(|(frame, _)| frame),
        };
        out.push_frame(slot, record);
    }
}

/// One replay of a fleet scene in rounds: each round enqueues every
/// agent's next frame (with its sensor window), then drains the fleet
/// with `poll_parallel`. A round's frames take the round's critical-path
/// CPU time: this thread's (enqueues, the faulted agents' drains on this
/// thread, spawning and joining the workers) plus the busiest worker's.
/// Each round is followed by a calibration sample on this thread.
#[allow(clippy::too_many_arguments)]
fn replay_fleet(
    spec: &Spec,
    manager: &mut SessionManager,
    stamps: &[CpuStamp],
    scene: &Scene,
    s: usize,
    replay: usize,
    client: Option<&Probe>,
    calibrator: &mut Kernel,
    out: &mut PhaseOutput,
) -> Result<(), String> {
    let ids: Vec<String> = (0..spec.agents).map(agent_id).collect();
    let mut cursor = vec![0usize; spec.agents];
    let mut round = 0u64;
    loop {
        let round_cpu = thread_cpu_ns();
        // Per agent: whether its image went in.
        let mut sent = vec![false; spec.agents];
        for (agent, id) in ids.iter().enumerate() {
            let stream = &scene.streams[agent];
            while cursor[agent] < stream.len() {
                let event = stream[cursor[agent]].clone();
                cursor[agent] += 1;
                let is_image = matches!(event, SensorEvent::Image(_));
                let span = client.map(|c| c.hub.start());
                let verdict = manager.try_enqueue(id, event);
                if let (Some(c), Some(start)) = (client, span) {
                    c.hub.record(SpanScope::Worker, "try_enqueue", round, start);
                }
                if !matches!(verdict, Enqueue::Accepted) {
                    return Err(format!(
                        "{id}: event refused by the ingest queue: {verdict:?}"
                    ));
                }
                if replay == 0 {
                    out.first_cycle.events += 1;
                }
                if is_image {
                    sent[agent] = true;
                    break;
                }
            }
        }
        if !sent.contains(&true) {
            break;
        }
        // Fault processes act at push time, inside the drain.
        let dropped_before: Vec<u64> = ids.iter().map(|id| dropped_images(manager, id)).collect();
        let span = client.map(|c| c.hub.start());
        let records = manager.poll_parallel(out.workers);
        // A faulted agent's stamp reads this thread's clock; its drain is
        // already in this thread's share.
        let worker_ns = stamps
            .iter()
            .enumerate()
            .map(|(agent, stamp)| (agent, stamp.take_ns()))
            .filter(|(agent, _)| !spec.faulted(*agent))
            .map(|(_, ns)| ns)
            .max()
            .unwrap_or(0);
        let round_ms = (thread_cpu_ns() - round_cpu + worker_ns) as f64 / 1e6;
        if let (Some(c), Some(start)) = (client, span) {
            c.hub
                .record(SpanScope::Worker, "poll_parallel", round, start);
        }
        out.steps.push(Step {
            replay,
            cpu_ms: round_ms,
            calib_ms: calibrator.sample_ms(),
        });
        let mut by_agent: Vec<Vec<FrameRecord>> = (0..spec.agents).map(|_| Vec::new()).collect();
        for (id, record) in records {
            let agent = ids
                .iter()
                .position(|a| *a == id)
                .ok_or_else(|| format!("record for unknown agent {id}"))?;
            by_agent[agent].push(record);
        }
        for (agent, sent) in sent.iter().enumerate() {
            if !sent {
                if !by_agent[agent].is_empty() {
                    return Err(format!("{}: record without an image", ids[agent]));
                }
                continue;
            }
            // An image the fault process swallowed was never received.
            if dropped_images(manager, &ids[agent]) > dropped_before[agent] {
                if !by_agent[agent].is_empty() {
                    return Err(format!("{}: record for a dropped image", ids[agent]));
                }
                continue;
            }
            let mut records = std::mem::take(&mut by_agent[agent]).into_iter();
            let slot = FrameSlot {
                scene: s,
                agent,
                replay,
                latency_ms: round_ms,
                span_frame: None,
            };
            out.push_frame(slot, records.next());
            if records.next().is_some() {
                return Err(format!("{}: several records for one image", ids[agent]));
            }
        }
        round += 1;
    }
    Ok(())
}

fn dropped_images(manager: &SessionManager, id: &str) -> u64 {
    manager
        .session(id)
        .and_then(|s| s.fault_counters())
        .map_or(0, |c| c.images_dropped)
}
