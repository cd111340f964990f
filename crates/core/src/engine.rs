//! In-loop execution engines: the accelerator model as a live per-frame
//! decision.
//!
//! The paper's runtime (Sec. VI-B) decides *per frame* whether the
//! localization kernels run on the host CPU or the Eudoxus accelerator.
//! This module makes that decision part of the streaming session itself:
//! an [`ExecutionEngine`] is consulted by
//! [`LocalizationSession::push`](crate::session::LocalizationSession::push)
//! after every processed frame — it sees the frame's workload counters,
//! measured stage timings and backend kernel samples, and returns an
//! [`ExecutionReport`] (chosen target, modeled latency, energy) that
//! rides on the [`FrameRecord`](crate::instrument::FrameRecord). The
//! accelerated fps/energy numbers thereby become part of the live
//! instrumentation stream instead of a separate replay artifact.
//!
//! Three engines ship:
//!
//! * [`CpuEngine`] — the default: a pure passthrough that attaches no
//!   report. Sessions built with it are bit-identical to sessions that
//!   predate the engine seam.
//! * [`ModeledAccelEngine`] — wraps `eudoxus_accel`'s
//!   `FrontendEngine`/`BackendEngine`/`Platform` so every pushed frame
//!   gets a live EDX-CAR / EDX-DRONE latency + energy estimate with all
//!   offloadable kernels on the fabric ([`OffloadPolicy::Always`]).
//! * [`ScheduledEngine`] — wraps a trained
//!   [`RuntimeScheduler`] behind an [`OffloadPolicy`], making the
//!   regression-based offload decision *inside* `push`, not in replay.
//!
//! [`AccelModel::replay`] re-scores a measured [`RunLog`] by feeding its
//! records through a [`ScheduledEngine`], the same
//! [`AccelModel::model_frame`] code path a live session runs. An in-loop
//! report and a post-hoc replay of the same log are therefore exactly
//! equal: decisions, latencies and energy, bit for bit (proven by
//! `tests/engine_equivalence.rs`). Replay re-scores recorded logs under
//! other policies or platforms, and [`AccelModel::train_scheduler`]
//! fits the scheduler on a log's head; together they produce the data
//! behind Figs. 17–21 and the scheduler study of Sec. VII-F.
//!
//! # Communication-adaptive offload
//!
//! The accelerator does not have to sit on the host bus: attaching a
//! [`LinkModel`](eudoxus_link::LinkModel) (via
//! [`ExecutionEngine::attach_link`] or
//! [`SessionBuilder::link`](crate::builder::SessionBuilder::link)) makes
//! the engine treat it as a *remote* resource behind a modeled channel.
//! Each pushed frame advances the link one step and re-prices every
//! offloadable kernel against the current [`LinkState`] — same
//! three-round-trip protocol, but the DMA term is the link's
//! `transfer_time(bytes)` instead of the bus's. Two fallbacks force the
//! frame's kernels back onto the host CPU:
//!
//! * [`FallbackCause::FrameLost`] — the link dropped the frame (a
//!   dropout burst); nothing can be offloaded.
//! * [`FallbackCause::DeadlineExceeded`] — the kernels *could* offload,
//!   but the modeled frame latency would blow the agent's deadline, so
//!   the engine refuses to depend on the remote side.
//!
//! The [`ExecutionReport`] records the link state and fallback cause,
//! [`LinkStats`] counts shed frames
//! ([`ExecutionEngine::link_stats`]), and a `StaticLink` mirroring the
//! platform bus reproduces the linkless engine bit for bit (PCIe is
//! just another link).

use crate::health::{DegradationState, HealthReport};
use crate::instrument::RunLog;
use crate::stats::Summary;
use eudoxus_accel::{
    BackendEngine, BackendKernelKind, EnergyModel, FrameEnergy, FrameWorkload, FrontendEngine,
    KernelDims, Platform, PlatformKind, RuntimeScheduler, TrainingSample,
};
use eudoxus_backend::{Kernel, KernelSample};
use eudoxus_frontend::{FrameDirective, FrameStats, FrontendTiming};
use eudoxus_link::{LinkModel, LinkState};

/// Offload policy for the backend kernels.
#[derive(Debug, Clone)]
pub enum OffloadPolicy {
    /// Never offload (backend stays on the host CPU).
    Never,
    /// Always offload the three accelerator kernels.
    Always,
    /// Use the trained runtime scheduler (paper Sec. VI-B).
    Scheduled(RuntimeScheduler),
}

impl OffloadPolicy {
    /// Short policy name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            OffloadPolicy::Never => "never",
            OffloadPolicy::Always => "always",
            OffloadPolicy::Scheduled(_) => "scheduled",
        }
    }
}

/// Why a frame's offloadable kernels were forced back onto the host CPU
/// despite the engine wanting (or being allowed) to offload them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackCause {
    /// The link dropped the frame (dropout burst / timeout): transfers
    /// were impossible, every kernel ran locally.
    FrameLost,
    /// Offloading was possible but the modeled frame latency over the
    /// current link would exceed the agent's deadline, so the engine
    /// kept the frame local rather than gamble on the remote side.
    DeadlineExceeded,
}

impl FallbackCause {
    /// Short cause name for reports.
    pub fn name(self) -> &'static str {
        match self {
            FallbackCause::FrameLost => "frame-lost",
            FallbackCause::DeadlineExceeded => "deadline",
        }
    }
}

impl std::fmt::Display for FallbackCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Link-shedding counters for an engine with a channel attached — the
/// engine-side analogue of the ingest
/// [`IngestSnapshot`](crate::instrument::IngestSnapshot): how often the
/// modeled channel degraded the frame placement.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Frames the link was advanced for (every executed frame).
    pub frames: u64,
    /// Frames the link dropped outright (state was `lost`).
    pub frames_lost: u64,
    /// Frames forced to pure-CPU by the link — lost frames with
    /// offloadable work pending, plus deadline fallbacks.
    pub link_fallbacks: u64,
    /// Frames whose modeled total still exceeded the deadline *after*
    /// the offload decision (including the all-local fallback plan):
    /// "shed and still late", as opposed to "shed and safe".
    pub deadline_missed: u64,
}

impl eudoxus_telemetry::Telemetry for LinkStats {
    fn publish(&self, reg: &mut eudoxus_telemetry::CounterRegistry) {
        reg.counter("frames", self.frames);
        reg.counter("frames_lost", self.frames_lost);
        reg.counter("link_fallbacks", self.link_fallbacks);
        reg.counter("deadline_missed", self.deadline_missed);
        reg.gauge("loss_rate", self.loss_rate());
    }
}

impl LinkStats {
    /// Fraction of frames the link dropped.
    pub fn loss_rate(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.frames_lost as f64 / self.frames as f64
        }
    }

    /// Fraction of frames shed to pure-CPU because of the link.
    pub fn fallback_rate(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.link_fallbacks as f64 / self.frames as f64
        }
    }

    /// Fraction of frames still over the deadline after the final plan.
    pub fn deadline_miss_rate(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.deadline_missed as f64 / self.frames as f64
        }
    }
}

impl std::fmt::Display for LinkStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "link: {} frames, {} lost ({:.1}%), {} cpu fallbacks ({:.1}%), {} deadline misses",
            self.frames,
            self.frames_lost,
            100.0 * self.loss_rate(),
            self.link_fallbacks,
            100.0 * self.fallback_rate(),
            self.deadline_missed,
        )
    }
}

/// Maps a measured backend kernel onto the accelerator's offloadable kind.
pub fn offloadable_kind(kernel: Kernel) -> Option<BackendKernelKind> {
    match kernel {
        Kernel::KalmanGain => Some(BackendKernelKind::KalmanGain),
        Kernel::Projection => Some(BackendKernelKind::Projection),
        Kernel::Marginalization => Some(BackendKernelKind::Marginalization),
        _ => None,
    }
}

/// One frame's measured inputs, as the session hands them to an
/// [`ExecutionEngine`]: the frontend workload counters (from which the
/// engine derives its [`FrameWorkload`]), the measured per-stage CPU
/// timings, and the backend kernel samples with their workload sizes.
#[derive(Debug, Clone, Copy)]
pub struct FrameContext<'a> {
    /// Frontend workload counters of the frame.
    pub stats: &'a FrameStats,
    /// Measured per-stage frontend wall-clock times.
    pub timing: &'a FrontendTiming,
    /// Measured backend kernel samples (kernel, ms, workload size).
    pub backend_kernels: &'a [KernelSample],
    /// The frame's health verdict, when the session has a
    /// [`HealthMonitor`](crate::health::HealthMonitor) armed. Feeds
    /// fault-aware pricing: dead-reckoned / unserved frames are priced
    /// as IMU-only work and frames in the `DeadReckoning` state skip
    /// accelerator offload entirely. `None` (health off) prices the
    /// frame exactly as before the health seam existed.
    pub health: Option<HealthReport>,
}

/// Where a frame's offloadable backend kernels ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionTarget {
    /// Every offloadable kernel stayed on the host CPU (or the frame had
    /// none).
    Cpu,
    /// Every offloadable kernel ran on the accelerator.
    Accelerator,
    /// Some kernels offloaded, some stayed — the per-kernel decision the
    /// runtime scheduler makes.
    Mixed,
}

impl std::fmt::Display for ExecutionTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ExecutionTarget::Cpu => "cpu",
            ExecutionTarget::Accelerator => "accel",
            ExecutionTarget::Mixed => "mixed",
        })
    }
}

/// One offloadable kernel invocation's in-loop decision.
#[derive(Debug, Clone, Copy)]
pub struct KernelDecision {
    /// Which accelerator kernel.
    pub kind: BackendKernelKind,
    /// Workload size (the scheduler's regressor).
    pub size: usize,
    /// Whether the engine chose to offload it.
    pub offloaded: bool,
    /// Measured CPU milliseconds of the invocation.
    pub cpu_ms: f64,
    /// Modeled accelerator milliseconds (compute + DMA).
    pub accel_ms: f64,
}

/// An [`ExecutionEngine`]'s verdict for one frame: where the work ran
/// (or would run) and what the accelerator model predicts it costs.
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    /// Name of the engine (or policy) that produced the report.
    pub engine: &'static str,
    /// Where the offloadable backend kernels were placed.
    pub target: ExecutionTarget,
    /// Modeled accelerated frontend latency (ms).
    pub frontend_ms: f64,
    /// Backend latency after the offload decisions (ms): modeled time
    /// for offloaded kernels, measured CPU time for the rest.
    pub backend_ms: f64,
    /// Offloadable kernel invocations this frame.
    pub offloadable: usize,
    /// How many were actually offloaded.
    pub offloaded: usize,
    /// The per-kernel decisions behind the counts.
    pub decisions: Vec<KernelDecision>,
    /// Modeled per-frame energy.
    pub energy: FrameEnergy,
    /// Channel state the frame's transfers were priced against; `None`
    /// for linkless engines (the on-board bus).
    pub link: Option<LinkState>,
    /// Why the frame was forced to pure CPU, when it was.
    pub fallback: Option<FallbackCause>,
    /// Whether the final plan (offloads *or* the all-local fallback)
    /// still exceeds the deadline — distinguishes "shed and safe" from
    /// "shed and still late". Always `false` without a deadline.
    pub deadline_missed: bool,
    /// The throttle directive the session's control loop issued for the
    /// *next* frame in response to this report (`None` when the loop is
    /// unarmed or unthrottled). Stamped by the session, not the model.
    pub directive: Option<FrameDirective>,
}

impl ExecutionReport {
    /// End-to-end (non-pipelined) modeled frame latency (ms).
    pub fn total_ms(&self) -> f64 {
        self.frontend_ms + self.backend_ms
    }

    /// The replay-vocabulary view of this report (drops the per-kernel
    /// decisions). [`AccelModel::replay`] produces exactly this for every
    /// frame.
    pub fn accelerated_frame(&self) -> AcceleratedFrame {
        AcceleratedFrame {
            frontend_ms: self.frontend_ms,
            backend_ms: self.backend_ms,
            offloadable: self.offloadable,
            offloaded: self.offloaded,
            energy: self.energy,
            fallback: self.fallback,
        }
    }
}

/// One frame through the accelerator model.
#[derive(Debug, Clone, Copy)]
pub struct AcceleratedFrame {
    /// Modeled frontend latency (ms).
    pub frontend_ms: f64,
    /// Backend latency after offload decisions (ms).
    pub backend_ms: f64,
    /// Offloadable kernel invocations this frame.
    pub offloadable: usize,
    /// How many were actually offloaded.
    pub offloaded: usize,
    /// Per-frame energy.
    pub energy: FrameEnergy,
    /// Why the frame was forced to pure CPU, when it was (link-backed
    /// engines only; always `None` on the bus).
    pub fallback: Option<FallbackCause>,
}

impl AcceleratedFrame {
    /// End-to-end (non-pipelined) frame latency (ms).
    pub fn total_ms(&self) -> f64 {
        self.frontend_ms + self.backend_ms
    }
}

/// A run through the accelerator model — collected from an in-loop
/// engine's reports
/// ([`RunLog::execution_run`](crate::instrument::RunLog::execution_run))
/// or produced by [`AccelModel::replay`].
#[derive(Debug, Clone)]
pub struct AcceleratedRun {
    /// Per-frame results, in order.
    pub frames: Vec<AcceleratedFrame>,
}

impl AcceleratedRun {
    /// Total latencies (ms).
    pub fn total_ms(&self) -> Vec<f64> {
        self.frames.iter().map(|f| f.total_ms()).collect()
    }

    /// Latency summary.
    pub fn summary(&self) -> Summary {
        Summary::of(&self.total_ms())
    }

    /// Throughput without frontend↔backend pipelining.
    pub fn fps_unpipelined(&self) -> f64 {
        let s = self.summary();
        if s.mean <= 0.0 {
            0.0
        } else {
            1000.0 / s.mean
        }
    }

    /// Throughput with the frontend of frame `i+1` overlapping the backend
    /// of frame `i` (paper Fig. 18 "w/ Pipelining"): the frame period is
    /// the slower of the two stages.
    pub fn fps_pipelined(&self) -> f64 {
        let periods: Vec<f64> = self
            .frames
            .iter()
            .map(|f| f.frontend_ms.max(f.backend_ms))
            .collect();
        let s = Summary::of(&periods);
        if s.mean <= 0.0 {
            0.0
        } else {
            1000.0 / s.mean
        }
    }

    /// Mean energy per frame (joules).
    pub fn mean_energy(&self) -> f64 {
        if self.frames.is_empty() {
            return 0.0;
        }
        self.frames.iter().map(|f| f.energy.total()).sum::<f64>() / self.frames.len() as f64
    }

    /// Fraction of offloadable kernels actually offloaded.
    pub fn offload_rate(&self) -> f64 {
        let total: usize = self.frames.iter().map(|f| f.offloadable).sum();
        let off: usize = self.frames.iter().map(|f| f.offloaded).sum();
        if total == 0 {
            0.0
        } else {
            off as f64 / total as f64
        }
    }

    /// Fraction of frames forced to pure CPU by the link (lost frames
    /// with pending work, or deadline fallbacks).
    pub fn fallback_rate(&self) -> f64 {
        if self.frames.is_empty() {
            return 0.0;
        }
        let fb = self.frames.iter().filter(|f| f.fallback.is_some()).count();
        fb as f64 / self.frames.len() as f64
    }

    /// Frames the link dropped outright.
    pub fn frames_lost(&self) -> usize {
        self.frames
            .iter()
            .filter(|f| f.fallback == Some(FallbackCause::FrameLost))
            .count()
    }
}

/// The per-frame decision hook a [`LocalizationSession`] consults.
///
/// `execute_frame` runs inside
/// [`push`](crate::session::LocalizationSession::push) for every image
/// frame, *after* the CPU pipeline has produced its estimate — engines
/// model and decide, they never change the numerical result, so any
/// engine-built session stays bit-identical in poses to the default
/// [`CpuEngine`] one. Returning `None` attaches no report (the CPU
/// passthrough); returning `Some` puts the report on the frame's
/// [`FrameRecord`](crate::instrument::FrameRecord).
///
/// `fork` produces an independent engine for another session —
/// [`SessionBuilder::build_manager`](crate::builder::SessionBuilder::build_manager)
/// uses it to stamp one engine per agent.
///
/// [`LocalizationSession`]: crate::session::LocalizationSession
pub trait ExecutionEngine: Send {
    /// Short engine name for reports and diagnostics.
    fn name(&self) -> &'static str;

    /// Models (and, for deciding engines, places) one processed frame.
    fn execute_frame(&mut self, ctx: &FrameContext<'_>) -> Option<ExecutionReport>;

    /// A fresh, independent engine with the same configuration (for
    /// another agent's session).
    fn fork(&self) -> Box<dyn ExecutionEngine>;

    /// Attaches a communication channel (and an optional per-frame
    /// deadline in milliseconds) between the host and the accelerator:
    /// the engine advances the link every frame and re-prices offloads
    /// against its state. Returns `false` when the engine does not
    /// price transfers and ignored the link ([`CpuEngine`] models
    /// nothing; [`ModeledAccelEngine`] is the fixed on-board-bus
    /// instrument — use
    /// [`ScheduledEngine::with_policy`]`(platform, OffloadPolicy::Always)`
    /// for an always-offload engine behind a link).
    fn attach_link(&mut self, link: Box<dyn LinkModel>, deadline_ms: Option<f64>) -> bool {
        let _ = (link, deadline_ms);
        false
    }

    /// Sets the agent's per-frame latency budget (ms) without touching
    /// the link: frames whose modeled total with offloads would exceed
    /// it are kept fully local, and misses are counted in
    /// [`LinkStats::deadline_missed`]. Returns `false` when the engine
    /// does not model latency and ignored the deadline.
    fn set_deadline_ms(&mut self, deadline_ms: f64) -> bool {
        let _ = deadline_ms;
        false
    }

    /// Link-shedding counters, for engines with a channel attached
    /// (`None` otherwise). Engines with a deadline but no link also
    /// report: deadline shedding is accounted the same way.
    fn link_stats(&self) -> Option<LinkStats> {
        None
    }
}

/// The shared analytical core every accelerator-backed engine (and
/// [`replay`](Self::replay)) evaluates: workload construction from the
/// frontend counters, the frontend task-pipeline latency, per-kernel
/// offload arithmetic, and the energy model. One implementation — so an
/// in-loop report and a replay of the same log cannot drift apart.
#[derive(Debug, Clone)]
pub struct AccelModel {
    platform: Platform,
    frontend: FrontendEngine,
    backend: BackendEngine,
    energy: EnergyModel,
    /// MSCKF error-state dimension used to size Kalman-gain offloads.
    msckf_state_dim: usize,
}

impl AccelModel {
    /// Creates the model for a platform.
    pub fn new(platform: Platform) -> Self {
        AccelModel {
            platform,
            frontend: FrontendEngine::new(platform),
            backend: BackendEngine::new(platform),
            energy: EnergyModel::new(platform),
            msckf_state_dim: 15 + 6 * 30,
        }
    }

    /// The platform being modeled.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The backend engine (scheduler experiments need direct access).
    pub fn backend_engine(&self) -> &BackendEngine {
        &self.backend
    }

    /// The accelerator workload implied by one frame's counters, at this
    /// platform's resolution.
    pub fn workload(&self, stats: &FrameStats) -> FrameWorkload {
        FrameWorkload {
            pixels: self.platform.pixels(),
            keypoints_left: stats.keypoints_left,
            keypoints_right: stats.keypoints_right,
            stereo_matches: stats.stereo_matches,
            tracks: stats.tracks_continued + stats.tracks_lost,
            disparity_range: if self.platform.resolution.0 >= 1280 {
                200
            } else {
                100
            },
        }
    }

    /// Accelerator dimensions for one measured kernel sample.
    pub fn dims_for(&self, kind: BackendKernelKind, size: usize) -> KernelDims {
        match kind {
            BackendKernelKind::Projection => KernelDims::Projection { map_points: size },
            BackendKernelKind::KalmanGain => KernelDims::KalmanGain {
                rows: size,
                state: self.msckf_state_dim,
            },
            BackendKernelKind::Marginalization => KernelDims::Marginalization {
                // The recorded size is the marginalized block dimension
                // 3k + 6.
                landmarks: size.saturating_sub(6) / 3,
                remaining: 6 * 5,
            },
        }
    }

    /// Energy of a CPU-only (baseline) frame of the given latency.
    pub fn baseline_frame_energy(&self, frame_seconds: f64) -> FrameEnergy {
        self.energy.baseline_frame(frame_seconds)
    }

    /// Baseline (all-CPU) energy per frame for the measured log (joules).
    pub fn baseline_energy(&self, log: &RunLog) -> f64 {
        if log.is_empty() {
            return 0.0;
        }
        log.records
            .iter()
            .map(|r| self.baseline_frame_energy(r.total_ms() * 1e-3).total())
            .sum::<f64>()
            / log.len() as f64
    }

    /// Builds scheduler training samples from the first
    /// `train_fraction` of the log (the paper trains on 25 % of frames,
    /// Sec. VII-A).
    pub fn training_samples(&self, log: &RunLog, train_fraction: f64) -> Vec<TrainingSample> {
        let n_train = ((log.len() as f64) * train_fraction).ceil() as usize;
        let mut samples = Vec::new();
        for r in log.records.iter().take(n_train) {
            for k in &r.backend_kernels {
                if let Some(kind) = offloadable_kind(k.kernel) {
                    samples.push(TrainingSample {
                        kind,
                        size: k.size,
                        cpu_millis: k.millis,
                    });
                }
            }
        }
        samples
    }

    /// Trains the runtime scheduler on the head of the log.
    pub fn train_scheduler(&self, log: &RunLog, train_fraction: f64) -> Option<RuntimeScheduler> {
        RuntimeScheduler::train(&self.training_samples(log, train_fraction))
    }

    /// Replays a measured run under an offload policy, by feeding each
    /// record through the same [`ScheduledEngine`] code path a live
    /// session runs.
    pub fn replay(&self, log: &RunLog, policy: &OffloadPolicy) -> AcceleratedRun {
        let mut engine = ScheduledEngine::from_model(self.clone(), policy.clone());
        let frames = log
            .records
            .iter()
            .map(|r| {
                engine
                    .execute_frame(&FrameContext {
                        stats: &r.frontend_stats,
                        timing: &r.frontend_timing,
                        backend_kernels: &r.backend_kernels,
                        // Health-armed logs replay with the same fault-
                        // aware pricing the live session applied.
                        health: r.health,
                    })
                    .expect("a scheduled engine reports every frame")
                    .accelerated_frame()
            })
            .collect();
        AcceleratedRun { frames }
    }

    /// Evaluates one frame under an offload policy — the single code
    /// path behind every engine report and every replayed frame.
    /// Equivalent to [`model_frame_linked`](Self::model_frame_linked)
    /// with no link and no deadline (the on-board bus).
    pub fn model_frame(&self, ctx: &FrameContext<'_>, policy: &OffloadPolicy) -> ExecutionReport {
        self.model_frame_linked(ctx, policy, None, None)
    }

    /// Evaluates one frame with the accelerator behind a communication
    /// channel. `link` is the channel state in force for this frame
    /// (`None` = the platform bus, reproducing [`model_frame`] bit for
    /// bit); `deadline_ms` is the agent's per-frame latency budget.
    ///
    /// The link governs only the backend kernels' DMA round trips — the
    /// frontend pipeline streams from the on-board sensors and keeps its
    /// accelerator latency in all cases. A lost frame prices every
    /// kernel at `accel_ms = ∞` (forced local,
    /// [`FallbackCause::FrameLost`]); a frame whose modeled total,
    /// offloads included, would exceed the deadline is re-evaluated
    /// all-local ([`FallbackCause::DeadlineExceeded`]).
    ///
    /// [`model_frame`]: Self::model_frame
    pub fn model_frame_linked(
        &self,
        ctx: &FrameContext<'_>,
        policy: &OffloadPolicy,
        link: Option<&LinkState>,
        deadline_ms: Option<f64>,
    ) -> ExecutionReport {
        // Fault-aware pricing: the health verdict reshapes what the
        // frame *is* before any offload arithmetic runs.
        let mut report = match ctx.health {
            // A dead-reckoned or unserved frame runs no vision kernels
            // at all — it is IMU-only work, with no offload decisions
            // to make.
            Some(h) if h.dead_reckoned || !h.served => self.imu_only_frame(ctx, policy, link),
            // A starved frame (DeadReckoning state) that still produced
            // vision output skips accelerator offload entirely: the
            // pipeline is about to lose vision, don't gamble on it.
            Some(h) if h.state == DegradationState::DeadReckoning => {
                let mut r = self.model_frame_over(ctx, &OffloadPolicy::Never, link);
                r.engine = policy.name();
                r
            }
            _ => self.model_frame_over(ctx, policy, link),
        };
        if let Some(deadline) = deadline_ms {
            if report.offloaded > 0 && report.total_ms() > deadline {
                // The offloaded plan blows the budget: refuse to depend
                // on the remote side and keep the whole frame local.
                report = self.model_frame_over(ctx, &OffloadPolicy::Never, link);
                report.engine = policy.name();
                report.fallback = Some(FallbackCause::DeadlineExceeded);
            }
            // The all-local plan can *also* blow the deadline — record
            // it so consumers can tell "shed and safe" from "shed and
            // still late".
            report.deadline_missed = report.total_ms() > deadline;
        }
        report
    }

    /// Prices a frame that ran no vision kernels (dead reckoning or an
    /// unserved starve): the measured backend samples — IMU integration
    /// and friends — at their CPU cost, zero modeled frontend, zero
    /// offload decisions, baseline (host-only) energy.
    fn imu_only_frame(
        &self,
        ctx: &FrameContext<'_>,
        policy: &OffloadPolicy,
        link: Option<&LinkState>,
    ) -> ExecutionReport {
        let backend_ms: f64 = ctx.backend_kernels.iter().map(|k| k.millis).sum();
        ExecutionReport {
            engine: policy.name(),
            target: ExecutionTarget::Cpu,
            frontend_ms: 0.0,
            backend_ms,
            offloadable: 0,
            offloaded: 0,
            decisions: Vec::new(),
            energy: self.baseline_frame_energy(backend_ms * 1e-3),
            link: link.copied(),
            fallback: None,
            deadline_missed: false,
            directive: None,
        }
    }

    /// The shared frame loop: prices every offloadable kernel over the
    /// given channel state (or the platform bus) and applies the policy.
    fn model_frame_over(
        &self,
        ctx: &FrameContext<'_>,
        policy: &OffloadPolicy,
        link: Option<&LinkState>,
    ) -> ExecutionReport {
        // Frontend through the accelerator.
        let workload = self.workload(ctx.stats);
        let fe = self.frontend.latency(&workload);
        let frontend_ms = fe.total() * 1e3;

        // Backend: offload decisions per kernel sample.
        let mut backend_ms = 0.0;
        let mut fpga_backend_s = 0.0;
        let mut host_backend_s = 0.0;
        let mut offloadable = 0usize;
        let mut offloaded = 0usize;
        let mut decisions = Vec::new();
        for k in ctx.backend_kernels {
            match offloadable_kind(k.kernel) {
                Some(kind) => {
                    offloadable += 1;
                    let dims = self.dims_for(kind, k.size);
                    let accel_ms = match link {
                        // No link: the platform bus, summed in the exact
                        // order the pre-link engine used.
                        None => self.backend.offload_time(&dims) * 1e3,
                        Some(state) => match state.transfer_time(dims.transfer_bytes()) {
                            Some(t) => self.backend.offload_time_via(&dims, t) * 1e3,
                            // Frame lost: offloading is impossible.
                            None => f64::INFINITY,
                        },
                    };
                    let do_offload = match policy {
                        OffloadPolicy::Never => false,
                        OffloadPolicy::Always => accel_ms.is_finite(),
                        OffloadPolicy::Scheduled(s) => {
                            s.decide_with_accel_ms(kind, k.size, accel_ms).is_offload()
                        }
                    };
                    if do_offload {
                        offloaded += 1;
                        backend_ms += accel_ms;
                        fpga_backend_s += accel_ms * 1e-3;
                    } else {
                        backend_ms += k.millis;
                        host_backend_s += k.millis * 1e-3;
                    }
                    decisions.push(KernelDecision {
                        kind,
                        size: k.size,
                        offloaded: do_offload,
                        cpu_ms: k.millis,
                        accel_ms,
                    });
                }
                None => {
                    backend_ms += k.millis;
                    host_backend_s += k.millis * 1e-3;
                }
            }
        }

        let frame_s = (frontend_ms + backend_ms) * 1e-3;
        let fpga_s = fe.total() + fpga_backend_s;
        let energy = self
            .energy
            .accelerated_frame(frame_s, fpga_s, host_backend_s);
        let target = if offloaded == 0 {
            ExecutionTarget::Cpu
        } else if offloaded == offloadable {
            ExecutionTarget::Accelerator
        } else {
            ExecutionTarget::Mixed
        };
        let lost = link.is_some_and(|s| s.lost);
        ExecutionReport {
            engine: policy.name(),
            target,
            frontend_ms,
            backend_ms,
            offloadable,
            offloaded,
            decisions,
            energy,
            link: link.copied(),
            fallback: if lost && offloadable > 0 {
                Some(FallbackCause::FrameLost)
            } else {
                None
            },
            deadline_missed: false,
            directive: None,
        }
    }
}

/// The default engine: a pure passthrough. No modeling, no report —
/// sessions built with it are bit-identical to pre-engine sessions.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuEngine;

impl ExecutionEngine for CpuEngine {
    fn name(&self) -> &'static str {
        "cpu"
    }

    fn execute_frame(&mut self, _ctx: &FrameContext<'_>) -> Option<ExecutionReport> {
        None
    }

    fn fork(&self) -> Box<dyn ExecutionEngine> {
        Box::new(CpuEngine)
    }
}

/// Live EDX-CAR / EDX-DRONE estimate for every pushed frame, with all
/// offloadable backend kernels placed on the fabric
/// ([`OffloadPolicy::Always`]) — the "what would the accelerator do with
/// this exact frame" instrument.
#[derive(Debug, Clone)]
pub struct ModeledAccelEngine {
    model: AccelModel,
}

impl ModeledAccelEngine {
    /// Creates the engine for a platform.
    pub fn new(platform: Platform) -> Self {
        ModeledAccelEngine {
            model: AccelModel::new(platform),
        }
    }

    /// The self-driving-car instance.
    pub fn edx_car() -> Self {
        ModeledAccelEngine::new(Platform::edx_car())
    }

    /// The drone instance.
    pub fn edx_drone() -> Self {
        ModeledAccelEngine::new(Platform::edx_drone())
    }

    /// The underlying model.
    pub fn model(&self) -> &AccelModel {
        &self.model
    }
}

impl ExecutionEngine for ModeledAccelEngine {
    fn name(&self) -> &'static str {
        match self.model.platform().kind {
            PlatformKind::EdxCar => "edx-car",
            PlatformKind::EdxDrone => "edx-drone",
        }
    }

    fn execute_frame(&mut self, ctx: &FrameContext<'_>) -> Option<ExecutionReport> {
        let mut report = self.model.model_frame(ctx, &OffloadPolicy::Always);
        report.engine = self.name();
        Some(report)
    }

    fn fork(&self) -> Box<dyn ExecutionEngine> {
        Box::new(self.clone())
    }
}

/// The paper's runtime offload scheduler, in the loop: every pushed
/// frame's offloadable kernels are individually placed by the trained
/// regression models (or a fixed [`OffloadPolicy`]), and the resulting
/// report rides on the frame record — [`AccelModel::replay`] of the same
/// log reproduces it exactly.
///
/// With a channel attached
/// ([`attach_link`](ExecutionEngine::attach_link)), the engine advances
/// the link once per frame, re-prices every kernel against its state,
/// and sheds the frame to pure CPU on loss or deadline risk (see the
/// [module docs](self)). [`Clone`] and
/// [`fork`](ExecutionEngine::fork) restart the link at frame 0 and
/// zero the [`LinkStats`] — a clone is a fresh engine with the same
/// configuration, not a snapshot of channel position.
pub struct ScheduledEngine {
    model: AccelModel,
    policy: OffloadPolicy,
    link: Option<Box<dyn LinkModel>>,
    deadline_ms: Option<f64>,
    stats: LinkStats,
}

impl std::fmt::Debug for ScheduledEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ScheduledEngine(policy: {}, link: {}, deadline_ms: {:?})",
            self.policy.name(),
            self.link.as_ref().map_or("none", |l| l.name()),
            self.deadline_ms,
        )
    }
}

impl Clone for ScheduledEngine {
    fn clone(&self) -> Self {
        ScheduledEngine {
            model: self.model.clone(),
            policy: self.policy.clone(),
            link: self.link.as_ref().map(|l| l.fork()),
            deadline_ms: self.deadline_ms,
            stats: LinkStats::default(),
        }
    }
}

impl ScheduledEngine {
    /// An engine driving a trained scheduler on a platform.
    pub fn new(platform: Platform, scheduler: RuntimeScheduler) -> Self {
        ScheduledEngine::with_policy(platform, OffloadPolicy::Scheduled(scheduler))
    }

    /// An engine with an explicit policy (e.g. [`OffloadPolicy::Always`]
    /// as the untrained fallback).
    pub fn with_policy(platform: Platform, policy: OffloadPolicy) -> Self {
        ScheduledEngine {
            model: AccelModel::new(platform),
            policy,
            link: None,
            deadline_ms: None,
            stats: LinkStats::default(),
        }
    }

    /// Shares an existing model ([`AccelModel::replay`]'s delegation
    /// path).
    pub(crate) fn from_model(model: AccelModel, policy: OffloadPolicy) -> Self {
        ScheduledEngine {
            model,
            policy,
            link: None,
            deadline_ms: None,
            stats: LinkStats::default(),
        }
    }

    /// The offload policy in force.
    pub fn policy(&self) -> &OffloadPolicy {
        &self.policy
    }

    /// The underlying model.
    pub fn model(&self) -> &AccelModel {
        &self.model
    }

    /// The attached channel, if any.
    pub fn link(&self) -> Option<&dyn LinkModel> {
        self.link.as_deref()
    }
}

impl ExecutionEngine for ScheduledEngine {
    fn name(&self) -> &'static str {
        self.policy.name()
    }

    fn execute_frame(&mut self, ctx: &FrameContext<'_>) -> Option<ExecutionReport> {
        let state = self.link.as_mut().map(|link| link.advance_frame());
        let report =
            self.model
                .model_frame_linked(ctx, &self.policy, state.as_ref(), self.deadline_ms);
        // Shedding is accounted whenever something can shed: a link, a
        // deadline, or both.
        if state.is_some() || self.deadline_ms.is_some() {
            self.stats.frames += 1;
            if state.as_ref().is_some_and(|s| s.lost) {
                self.stats.frames_lost += 1;
            }
            if report.fallback.is_some() {
                self.stats.link_fallbacks += 1;
            }
            if report.deadline_missed {
                self.stats.deadline_missed += 1;
            }
        }
        Some(report)
    }

    fn fork(&self) -> Box<dyn ExecutionEngine> {
        Box::new(self.clone())
    }

    fn attach_link(&mut self, link: Box<dyn LinkModel>, deadline_ms: Option<f64>) -> bool {
        self.link = Some(link);
        if deadline_ms.is_some() {
            self.deadline_ms = deadline_ms;
        }
        self.stats = LinkStats::default();
        true
    }

    fn set_deadline_ms(&mut self, deadline_ms: f64) -> bool {
        self.deadline_ms = Some(deadline_ms);
        true
    }

    fn link_stats(&self) -> Option<LinkStats> {
        (self.link.is_some() || self.deadline_ms.is_some()).then_some(self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instrument::FrameRecord;
    use eudoxus_backend::BackendMode;
    use eudoxus_geometry::Pose;
    use eudoxus_stream::Environment;
    use std::time::Duration;

    fn ctx_inputs() -> (FrameStats, FrontendTiming, Vec<KernelSample>) {
        let stats = FrameStats {
            keypoints_left: 350,
            keypoints_right: 350,
            stereo_matches: 260,
            tracks_continued: 280,
            tracks_spawned: 40,
            tracks_lost: 30,
        };
        let kernels = vec![
            KernelSample {
                kernel: Kernel::ImuIntegration,
                millis: 2.0,
                size: 20,
            },
            KernelSample {
                kernel: Kernel::KalmanGain,
                millis: 25.0,
                size: 200,
            },
        ];
        (stats, FrontendTiming::default(), kernels)
    }

    #[test]
    fn cpu_engine_is_a_passthrough() {
        let (stats, timing, kernels) = ctx_inputs();
        let mut engine = CpuEngine;
        assert_eq!(engine.name(), "cpu");
        assert!(engine
            .execute_frame(&FrameContext {
                stats: &stats,
                timing: &timing,
                backend_kernels: &kernels,
                health: None,
            })
            .is_none());
    }

    #[test]
    fn modeled_engine_reports_always_offload() {
        let (stats, timing, kernels) = ctx_inputs();
        let mut engine = ModeledAccelEngine::edx_car();
        assert_eq!(engine.name(), "edx-car");
        let report = engine
            .execute_frame(&FrameContext {
                stats: &stats,
                timing: &timing,
                backend_kernels: &kernels,
                health: None,
            })
            .expect("modeled engine always reports");
        assert_eq!(report.offloadable, 1);
        assert_eq!(report.offloaded, 1);
        assert_eq!(report.target, ExecutionTarget::Accelerator);
        assert_eq!(report.decisions.len(), 1);
        assert!(report.decisions[0].offloaded);
        assert!(report.frontend_ms > 0.0);
        assert!(report.energy.total() > 0.0);
        // The non-offloadable IMU integration stays at its measured cost.
        assert!(report.backend_ms >= 2.0);
    }

    #[test]
    fn never_policy_keeps_measured_backend_cost() {
        let (stats, timing, kernels) = ctx_inputs();
        let mut engine =
            ScheduledEngine::with_policy(Platform::edx_drone(), OffloadPolicy::Never);
        assert_eq!(engine.name(), "never");
        let report = engine
            .execute_frame(&FrameContext {
                stats: &stats,
                timing: &timing,
                backend_kernels: &kernels,
                health: None,
            })
            .unwrap();
        assert_eq!(report.offloaded, 0);
        assert_eq!(report.target, ExecutionTarget::Cpu);
        assert!((report.backend_ms - 27.0).abs() < 1e-9);
    }

    #[test]
    fn forked_engines_report_identically() {
        let (stats, timing, kernels) = ctx_inputs();
        let ctx = FrameContext {
            stats: &stats,
            timing: &timing,
            backend_kernels: &kernels,
            health: None,
        };
        let mut original = ModeledAccelEngine::edx_drone();
        let mut fork = original.fork();
        let a = original.execute_frame(&ctx).unwrap();
        let b = fork.execute_frame(&ctx).unwrap();
        assert_eq!(a.frontend_ms.to_bits(), b.frontend_ms.to_bits());
        assert_eq!(a.backend_ms.to_bits(), b.backend_ms.to_bits());
        assert_eq!(a.energy.total().to_bits(), b.energy.total().to_bits());
    }

    #[test]
    fn static_link_matches_bus_bitwise() {
        // PCIe as "just another link": a StaticLink mirroring the
        // platform bus must reproduce the linkless report bit for bit.
        let (stats, timing, kernels) = ctx_inputs();
        let ctx = FrameContext {
            stats: &stats,
            timing: &timing,
            backend_kernels: &kernels,
            health: None,
        };
        for platform in [Platform::edx_car(), Platform::edx_drone()] {
            let mut plain = ScheduledEngine::with_policy(platform, OffloadPolicy::Always);
            let mut linked = ScheduledEngine::with_policy(platform, OffloadPolicy::Always);
            linked.attach_link(Box::new(platform.bus.as_link()), None);
            let a = plain.execute_frame(&ctx).unwrap();
            let b = linked.execute_frame(&ctx).unwrap();
            assert_eq!(a.frontend_ms.to_bits(), b.frontend_ms.to_bits());
            assert_eq!(a.backend_ms.to_bits(), b.backend_ms.to_bits());
            assert_eq!(a.energy.total().to_bits(), b.energy.total().to_bits());
            assert_eq!(a.offloaded, b.offloaded);
            assert_eq!(b.fallback, None);
            assert!(b.link.is_some() && a.link.is_none());
            for (da, db) in a.decisions.iter().zip(&b.decisions) {
                assert_eq!(da.accel_ms.to_bits(), db.accel_ms.to_bits());
                assert_eq!(da.offloaded, db.offloaded);
            }
        }
    }

    #[test]
    fn forced_loss_profile_counts_fallbacks_and_losses() {
        // A link that is down every frame: every frame with offloadable
        // work must shed to CPU and the counters must say so.
        let (stats, timing, kernels) = ctx_inputs();
        let ctx = FrameContext {
            stats: &stats,
            timing: &timing,
            backend_kernels: &kernels,
            health: None,
        };
        let dead = eudoxus_link::TraceLink::new(vec![LinkState::down()]);
        let mut engine = ScheduledEngine::with_policy(Platform::edx_drone(), OffloadPolicy::Always);
        engine.attach_link(Box::new(dead), None);
        for _ in 0..8 {
            let report = engine.execute_frame(&ctx).unwrap();
            assert_eq!(report.offloaded, 0);
            assert_eq!(report.target, ExecutionTarget::Cpu);
            assert_eq!(report.fallback, Some(FallbackCause::FrameLost));
            assert!(report.link.unwrap().lost);
            // Lost frames price offload at infinity.
            assert!(report.decisions[0].accel_ms.is_infinite());
        }
        let stats = engine.link_stats().expect("link attached");
        assert_eq!(stats.frames, 8);
        assert_eq!(stats.frames_lost, 8);
        assert_eq!(stats.link_fallbacks, 8);
        assert_eq!(stats.loss_rate(), 1.0);
        assert_eq!(stats.fallback_rate(), 1.0);
        // Fork restarts the channel and zeroes the counters.
        assert_eq!(engine.fork().link_stats(), Some(LinkStats::default()));
    }

    #[test]
    fn deadline_blows_fall_back_to_local() {
        let (stats, timing, kernels) = ctx_inputs();
        let ctx = FrameContext {
            stats: &stats,
            timing: &timing,
            backend_kernels: &kernels,
            health: None,
        };
        // A painfully slow (but up) link: offloading the Kalman gain
        // would add hundreds of ms, blowing a 50 ms budget.
        let slow = eudoxus_link::StaticLink::new(1e5, 0.2);
        let mut engine = ScheduledEngine::with_policy(Platform::edx_drone(), OffloadPolicy::Always);
        engine.attach_link(Box::new(slow), Some(50.0));
        let report = engine.execute_frame(&ctx).unwrap();
        assert_eq!(report.fallback, Some(FallbackCause::DeadlineExceeded));
        assert_eq!(report.offloaded, 0);
        // The local plan keeps the measured backend cost.
        assert!((report.backend_ms - 27.0).abs() < 1e-9);
        assert_eq!(engine.link_stats().unwrap().link_fallbacks, 1);
        assert_eq!(engine.link_stats().unwrap().frames_lost, 0);
    }

    #[test]
    fn passthrough_engines_ignore_links() {
        let mut cpu = CpuEngine;
        assert!(!cpu.attach_link(Box::new(eudoxus_link::StaticLink::new(1e9, 1e-3)), None));
        assert!(cpu.link_stats().is_none());
        let mut modeled = ModeledAccelEngine::edx_car();
        assert!(!modeled.attach_link(Box::new(eudoxus_link::StaticLink::new(1e9, 1e-3)), None));
        assert!(modeled.link_stats().is_none());
    }

    #[test]
    fn report_converts_to_accelerated_frame() {
        let (stats, timing, kernels) = ctx_inputs();
        let report = AccelModel::new(Platform::edx_car()).model_frame(
            &FrameContext {
                stats: &stats,
                timing: &timing,
                backend_kernels: &kernels,
                health: None,
            },
            &OffloadPolicy::Always,
        );
        let frame = report.accelerated_frame();
        assert_eq!(frame.frontend_ms.to_bits(), report.frontend_ms.to_bits());
        assert_eq!(frame.backend_ms.to_bits(), report.backend_ms.to_bits());
        assert_eq!(frame.offloaded, report.offloaded);
        assert_eq!(frame.total_ms().to_bits(), report.total_ms().to_bits());
    }

    /// A synthetic measured log: heavy frontend, sizable Kalman gains.
    fn synthetic_log(frames: usize) -> RunLog {
        let mut log = RunLog::new();
        for i in 0..frames {
            let rows = 40 + (i % 50) * 4;
            log.records.push(FrameRecord {
                index: i,
                t: i as f64 * 0.1,
                environment: Environment::OutdoorUnknown,
                mode: BackendMode::Vio,
                frontend_timing: FrontendTiming {
                    detection: Duration::from_millis(30),
                    filtering: Duration::from_millis(20),
                    description: Duration::from_millis(15),
                    stereo: Duration::from_millis(25),
                    temporal: Duration::from_millis(10),
                },
                frontend_stats: FrameStats {
                    keypoints_left: 350,
                    keypoints_right: 350,
                    stereo_matches: 260,
                    tracks_continued: 280,
                    tracks_spawned: 40,
                    tracks_lost: 30,
                },
                backend_kernels: vec![
                    KernelSample {
                        kernel: Kernel::ImuIntegration,
                        millis: 2.0,
                        size: 20,
                    },
                    KernelSample {
                        kernel: Kernel::KalmanGain,
                        // Quadratic CPU cost in rows.
                        millis: 0.5 + 1.2e-3 * (rows * rows) as f64,
                        size: rows,
                    },
                ],
                pose: Pose::identity(),
                ground_truth: Pose::identity(),
                has_ground_truth: true,
                tracking: true,
                execution: None,
                directive: None,
                health: None,
            });
        }
        log
    }

    #[test]
    fn acceleration_beats_measured_baseline() {
        let log = synthetic_log(40);
        let model = AccelModel::new(Platform::edx_car());
        let sched = model.train_scheduler(&log, 0.25).expect("trainable");
        let run = model.replay(&log, &OffloadPolicy::Scheduled(sched));
        let baseline_mean = log.latency_summary(None).mean;
        let accel_mean = run.summary().mean;
        assert!(
            accel_mean < baseline_mean,
            "accel {accel_mean} ms vs baseline {baseline_mean} ms"
        );
    }

    #[test]
    fn pipelining_improves_throughput() {
        let log = synthetic_log(20);
        let model = AccelModel::new(Platform::edx_car());
        let run = model.replay(&log, &OffloadPolicy::Always);
        assert!(run.fps_pipelined() > run.fps_unpipelined());
    }

    #[test]
    fn scheduler_offloads_large_kernels_only() {
        let log = synthetic_log(60);
        let model = AccelModel::new(Platform::edx_car());
        let sched = model.train_scheduler(&log, 0.25).expect("trainable");
        let run = model.replay(&log, &OffloadPolicy::Scheduled(sched));
        let rate = run.offload_rate();
        assert!(rate > 0.3, "offload rate {rate}");
        // Scheduled must be at least as fast as both extremes.
        let always = model.replay(&log, &OffloadPolicy::Always);
        let never = model.replay(&log, &OffloadPolicy::Never);
        let s = run.summary().mean;
        assert!(s <= always.summary().mean + 1e-9);
        assert!(s <= never.summary().mean + 1e-9);
    }

    #[test]
    fn energy_drops_with_acceleration() {
        let log = synthetic_log(30);
        let model = AccelModel::new(Platform::edx_car());
        let run = model.replay(&log, &OffloadPolicy::Always);
        let baseline_j = model.baseline_energy(&log);
        assert!(
            run.mean_energy() < baseline_j,
            "accel {} J vs baseline {} J",
            run.mean_energy(),
            baseline_j
        );
    }

    #[test]
    fn never_policy_keeps_cpu_times() {
        let log = synthetic_log(10);
        let model = AccelModel::new(Platform::edx_drone());
        let run = model.replay(&log, &OffloadPolicy::Never);
        assert_eq!(run.offload_rate(), 0.0);
        // Backend times must equal the measured CPU times.
        for (f, r) in run.frames.iter().zip(&log.records) {
            assert!((f.backend_ms - r.backend_ms()).abs() < 1e-9);
        }
    }

    #[test]
    fn replay_equals_in_loop_engine_on_the_same_log() {
        // The delegation contract: replay(log) is literally the engine
        // run over the log's records — every modeled number matches at
        // the bit level.
        let log = synthetic_log(25);
        let model = AccelModel::new(Platform::edx_drone());
        let sched = model.train_scheduler(&log, 0.25).expect("trainable");
        let policy = OffloadPolicy::Scheduled(sched);
        let replayed = model.replay(&log, &policy);
        let mut engine = ScheduledEngine::from_model(model.clone(), policy);
        for (frame, record) in replayed.frames.iter().zip(&log.records) {
            let report = engine
                .execute_frame(&FrameContext {
                    stats: &record.frontend_stats,
                    timing: &record.frontend_timing,
                    backend_kernels: &record.backend_kernels,
                    health: record.health,
                })
                .unwrap();
            assert_eq!(report.frontend_ms.to_bits(), frame.frontend_ms.to_bits());
            assert_eq!(report.backend_ms.to_bits(), frame.backend_ms.to_bits());
            assert_eq!(report.offloaded, frame.offloaded);
            assert_eq!(report.offloadable, frame.offloadable);
            assert_eq!(
                report.energy.total().to_bits(),
                frame.energy.total().to_bits()
            );
        }
    }
}
