//! Per-frame instrumentation records — the raw material of every
//! characterization figure.

use crate::control::{AdmissionStats, ThrottleStats};
use crate::engine::{AcceleratedRun, ExecutionReport};
use crate::health::{HealthReport, SessionHealthStats};
use crate::metrics;
use crate::stats::Summary;
use eudoxus_backend::{BackendMode, Kernel, KernelSample};
use eudoxus_frontend::{FrameDirective, FrameStats, FrontendTiming};
use eudoxus_geometry::Pose;
use eudoxus_stream::{Environment, IngestCounters};

/// Ingestion health of one agent at a point in time: queue depth against
/// its bound, plus the cumulative backpressure counters. Produced by
/// `SessionManager::ingest_stats`; a serving layer alarms on growing
/// depth (consumer too slow) or growing drop/defer counts (producer too
/// fast for the configured bound).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestSnapshot {
    /// Agent id the queue belongs to.
    pub agent: String,
    /// Events currently queued.
    pub queued: usize,
    /// Queue bound (`usize::MAX` when unbounded).
    pub capacity: usize,
    /// Cumulative admission accounting (accepted, frames/events dropped,
    /// deferred, high watermark).
    pub counters: IngestCounters,
    /// The session's degradation accounting (all zeros when health
    /// monitoring is not enabled for the agent).
    pub health: SessionHealthStats,
    /// Admission-control accounting: image frames offered, admitted,
    /// dropped by degrade-mode decimation, and shed outright (all
    /// zeros while admission control is unarmed). The counters
    /// conserve: `offered == admitted + degraded + shed`.
    pub admission: AdmissionStats,
    /// The session's throttle-loop accounting (all zeros while the
    /// loop is unarmed).
    pub throttle: ThrottleStats,
    /// Times the agent's queue was drained on the polling thread
    /// instead of a parallel worker (`poll_parallel` keeps faulted
    /// agents sequential) — nonzero means this agent cost the fleet
    /// parallelism.
    pub sequential_drains: u64,
}

impl eudoxus_telemetry::Telemetry for IngestSnapshot {
    fn publish(&self, reg: &mut eudoxus_telemetry::CounterRegistry) {
        reg.counter("queued", self.queued as u64);
        if self.capacity != usize::MAX {
            reg.counter("capacity", self.capacity as u64);
        }
        reg.counter("sequential_drains", self.sequential_drains);
        reg.scoped("ingest", |r| self.counters.publish(r));
        reg.scoped("health", |r| self.health.publish(r));
        reg.scoped("admission", |r| self.admission.publish(r));
        reg.scoped("throttle", |r| self.throttle.publish(r));
    }
}

impl std::fmt::Display for IngestSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {}/{} queued (peak {}), {} accepted, {} dropped ({} frames), {} deferred",
            self.agent,
            self.queued,
            if self.capacity == usize::MAX {
                "∞".to_string()
            } else {
                self.capacity.to_string()
            },
            self.counters.high_watermark,
            self.counters.accepted,
            self.counters.dropped(),
            self.counters.frames_dropped,
            self.counters.deferred,
        )
    }
}

/// Everything recorded for one processed frame.
#[derive(Debug, Clone)]
pub struct FrameRecord {
    /// Frame index within the dataset.
    pub index: usize,
    /// Capture timestamp (seconds).
    pub t: f64,
    /// Environment label.
    pub environment: Environment,
    /// Backend mode that ran.
    pub mode: BackendMode,
    /// Frontend per-task wall-clock times.
    pub frontend_timing: FrontendTiming,
    /// Frontend workload counters (feeds the accelerator model).
    pub frontend_stats: FrameStats,
    /// Backend kernel samples (kernel, ms, workload size).
    pub backend_kernels: Vec<KernelSample>,
    /// The in-loop execution engine's verdict for this frame (chosen
    /// target, modeled accelerated latency, energy). `None` under the
    /// default passthrough [`CpuEngine`](crate::engine::CpuEngine);
    /// attach a modeled engine via
    /// [`SessionBuilder::engine`](crate::builder::SessionBuilder::engine)
    /// to populate it.
    pub execution: Option<ExecutionReport>,
    /// The throttle directive in force for *this* frame's frontend
    /// work (issued by the control loop off the previous frame's
    /// report). `None` when the loop is unarmed or unthrottled — the
    /// frontend then ran at its configured budgets.
    pub directive: Option<FrameDirective>,
    /// Estimated pose.
    pub pose: Pose,
    /// Ground-truth pose. Only meaningful when
    /// [`has_ground_truth`](Self::has_ground_truth) is set; live streams
    /// without a reference store the estimate here.
    pub ground_truth: Pose,
    /// Whether the stream supplied a reference pose for this frame.
    /// Error metrics skip frames without one.
    pub has_ground_truth: bool,
    /// Whether the backend reported itself tracking.
    pub tracking: bool,
    /// The health monitor's verdict for this frame (degradation state,
    /// vitals, whether the pose was dead-reckoned). `None` when health
    /// monitoring is not enabled — the default.
    pub health: Option<HealthReport>,
}

impl FrameRecord {
    /// Frontend milliseconds.
    pub fn frontend_ms(&self) -> f64 {
        self.frontend_timing.total().as_secs_f64() * 1e3
    }

    /// Backend milliseconds (sum of kernel samples).
    pub fn backend_ms(&self) -> f64 {
        self.backend_kernels.iter().map(|k| k.millis).sum()
    }

    /// End-to-end frame milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.frontend_ms() + self.backend_ms()
    }

    /// Milliseconds attributed to one kernel this frame.
    pub fn kernel_ms(&self, kernel: Kernel) -> f64 {
        self.backend_kernels
            .iter()
            .filter(|k| k.kernel == kernel)
            .map(|k| k.millis)
            .sum()
    }

    /// Translational error against ground truth (meters); `NaN` when the
    /// frame carries no reference pose, matching the [`RunLog`] metrics.
    pub fn translation_error(&self) -> f64 {
        if !self.has_ground_truth {
            return f64::NAN;
        }
        self.pose.translation_distance(self.ground_truth)
    }
}

/// A complete instrumented run.
#[derive(Debug, Clone, Default)]
pub struct RunLog {
    /// Per-frame records in order.
    pub records: Vec<FrameRecord>,
}

impl RunLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        RunLog::default()
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records for one mode only.
    pub fn frames_in_mode(&self, mode: BackendMode) -> Vec<&FrameRecord> {
        self.records.iter().filter(|r| r.mode == mode).collect()
    }

    /// Frontend latencies (ms) for all frames, or one mode.
    pub fn frontend_ms(&self, mode: Option<BackendMode>) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| mode.is_none_or(|m| r.mode == m))
            .map(|r| r.frontend_ms())
            .collect()
    }

    /// Backend latencies (ms).
    pub fn backend_ms(&self, mode: Option<BackendMode>) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| mode.is_none_or(|m| r.mode == m))
            .map(|r| r.backend_ms())
            .collect()
    }

    /// Total latencies (ms).
    pub fn total_ms(&self, mode: Option<BackendMode>) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| mode.is_none_or(|m| r.mode == m))
            .map(|r| r.total_ms())
            .collect()
    }

    /// Total milliseconds per kernel across the run, restricted to a mode.
    pub fn kernel_totals(&self, mode: BackendMode) -> Vec<(Kernel, f64)> {
        let mut totals: std::collections::HashMap<Kernel, f64> = std::collections::HashMap::new();
        for r in self.records.iter().filter(|r| r.mode == mode) {
            for k in &r.backend_kernels {
                *totals.entry(k.kernel).or_insert(0.0) += k.millis;
            }
        }
        let mut v: Vec<(Kernel, f64)> = totals.into_iter().collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1));
        v
    }

    /// All `(size, ms)` samples of one kernel — the scatter behind
    /// Fig. 16 and the scheduler's training set.
    pub fn kernel_samples(&self, kernel: Kernel) -> Vec<(usize, f64)> {
        self.records
            .iter()
            .flat_map(|r| r.backend_kernels.iter())
            .filter(|k| k.kernel == kernel)
            .map(|k| (k.size, k.millis))
            .collect()
    }

    /// Records that carry a reference pose (error metrics use only
    /// these; a live stream without ground truth has none).
    fn referenced(&self) -> (Vec<Pose>, Vec<Pose>) {
        self.records
            .iter()
            .filter(|r| r.has_ground_truth)
            .map(|r| (r.pose, r.ground_truth))
            .unzip()
    }

    /// Translation RMSE over the frames with a reference pose (meters).
    /// `NaN` when no frame carries one — "no reference" must not read
    /// as "zero error".
    pub fn translation_rmse(&self) -> f64 {
        let (est, gt) = self.referenced();
        if est.is_empty() {
            return f64::NAN;
        }
        metrics::translation_rmse(&est, &gt)
    }

    /// Relative trajectory error (%) over the frames with a reference
    /// pose; `NaN` when no frame carries one.
    pub fn relative_error_percent(&self) -> f64 {
        let (est, gt) = self.referenced();
        if est.is_empty() {
            return f64::NAN;
        }
        metrics::relative_error_percent(&est, &gt)
    }

    /// Collects the in-loop [`ExecutionReport`]s carried by this log's
    /// records into an [`AcceleratedRun`] — the live counterpart of
    /// [`AccelModel::replay`](crate::engine::AccelModel::replay), giving
    /// modeled accelerated fps (pipelined/unpipelined), energy and
    /// offload rate straight from the instrumentation stream. For
    /// link-backed engines the run also carries the link-quality view:
    /// [`AcceleratedRun::fallback_rate`] and
    /// [`AcceleratedRun::frames_lost`] report how the channel degraded
    /// placement (offload rate vs link quality). `None`
    /// when no record carries a report (the default [`CpuEngine`]
    /// passthrough); frames without a report are skipped otherwise.
    ///
    /// [`CpuEngine`]: crate::engine::CpuEngine
    pub fn execution_run(&self) -> Option<AcceleratedRun> {
        let frames: Vec<_> = self
            .records
            .iter()
            .filter_map(|r| r.execution.as_ref().map(ExecutionReport::accelerated_frame))
            .collect();
        if frames.is_empty() {
            None
        } else {
            Some(AcceleratedRun { frames })
        }
    }

    /// Latency summary (total ms) over all frames or one mode.
    pub fn latency_summary(&self, mode: Option<BackendMode>) -> Summary {
        Summary::of(&self.total_ms(mode))
    }

    /// Effective frames per second of the measured run.
    pub fn fps(&self) -> f64 {
        let s = self.latency_summary(None);
        if s.mean <= 0.0 {
            0.0
        } else {
            1000.0 / s.mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eudoxus_frontend::FrontendTiming;
    use std::time::Duration;

    fn record(mode: BackendMode, fe_ms: u64, kernels: Vec<KernelSample>) -> FrameRecord {
        FrameRecord {
            index: 0,
            t: 0.0,
            environment: Environment::OutdoorUnknown,
            mode,
            frontend_timing: FrontendTiming {
                detection: Duration::from_millis(fe_ms),
                ..Default::default()
            },
            frontend_stats: FrameStats::default(),
            backend_kernels: kernels,
            execution: None,
            directive: None,
            pose: Pose::identity(),
            ground_truth: Pose::identity(),
            has_ground_truth: true,
            tracking: true,
            health: None,
        }
    }

    #[test]
    fn latency_accounting() {
        let r = record(
            BackendMode::Vio,
            10,
            vec![
                KernelSample {
                    kernel: Kernel::KalmanGain,
                    millis: 5.0,
                    size: 60,
                },
                KernelSample {
                    kernel: Kernel::ImuIntegration,
                    millis: 2.0,
                    size: 20,
                },
            ],
        );
        assert!((r.frontend_ms() - 10.0).abs() < 1e-9);
        assert!((r.backend_ms() - 7.0).abs() < 1e-9);
        assert!((r.total_ms() - 17.0).abs() < 1e-9);
        assert_eq!(r.kernel_ms(Kernel::KalmanGain), 5.0);
    }

    #[test]
    fn log_filters_by_mode() {
        let mut log = RunLog::new();
        log.records.push(record(BackendMode::Vio, 10, vec![]));
        log.records.push(record(BackendMode::Slam, 20, vec![]));
        assert_eq!(log.frames_in_mode(BackendMode::Vio).len(), 1);
        assert_eq!(log.frontend_ms(Some(BackendMode::Slam)), vec![20.0]);
        assert_eq!(log.frontend_ms(None).len(), 2);
    }

    #[test]
    fn kernel_totals_sorted_descending() {
        let mut log = RunLog::new();
        log.records.push(record(
            BackendMode::Vio,
            0,
            vec![
                KernelSample {
                    kernel: Kernel::KalmanGain,
                    millis: 1.0,
                    size: 1,
                },
                KernelSample {
                    kernel: Kernel::ImuIntegration,
                    millis: 9.0,
                    size: 1,
                },
            ],
        ));
        let totals = log.kernel_totals(BackendMode::Vio);
        assert_eq!(totals[0].0, Kernel::ImuIntegration);
        assert_eq!(totals.len(), 2);
    }

    #[test]
    fn kernel_samples_collects_sizes() {
        let mut log = RunLog::new();
        log.records.push(record(
            BackendMode::Vio,
            0,
            vec![KernelSample {
                kernel: Kernel::KalmanGain,
                millis: 3.0,
                size: 44,
            }],
        ));
        assert_eq!(log.kernel_samples(Kernel::KalmanGain), vec![(44, 3.0)]);
        assert!(log.kernel_samples(Kernel::Solver).is_empty());
    }
}
