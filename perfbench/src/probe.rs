//! Benchmark-side layer timing, plugged in through the program's public
//! seams: a [`Backend`] wrapper (registered with `SessionBuilder::backend`)
//! and an [`ExecutionEngine`] wrapper (registered with
//! `SessionBuilder::engine`). Both delegate every trait method and only
//! record spans into a [`TelemetryHub`] the benchmark owns, or read a
//! clock, so a wrapped session must return the same poses as a plain one
//! (the traced run checks this bit for bit).

use crate::stats::thread_cpu_ns;
use eudoxus::backend::{Backend, BackendEstimate, BackendInput, BackendMode, PoseAnchor, WorldMap};
use eudoxus::core::{ExecutionEngine, ExecutionReport, FrameContext, LinkModel, LinkStats};
use eudoxus::telemetry::{SpanScope, TelemetryConfig, TelemetryHub};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The CPU time of the thread that served an agent's latest frame, read
/// when that frame's engine call returns. `poll_parallel` drains each
/// worker's sessions one after another on a thread it has just spawned,
/// so the stamp of a worker's last frame is that worker's whole share of
/// the round.
#[derive(Clone, Default)]
pub struct CpuStamp(Arc<AtomicU64>);

impl CpuStamp {
    // Each stamp is written by one worker and read after the workers are
    // joined, which orders the accesses, so relaxed ordering suffices.
    pub fn take_ns(&self) -> u64 {
        self.0.swap(0, Ordering::Relaxed)
    }

    fn set_now(&self) {
        self.0.store(thread_cpu_ns(), Ordering::Relaxed);
    }
}

/// One session's recorder: its own hub (one trace track per session)
/// and the index of the frame being processed. The engine wrapper runs
/// exactly once per image frame, last, so it advances the index; the
/// backend wrapper and the client read it.
#[derive(Clone)]
pub struct Probe {
    pub hub: TelemetryHub,
    frame: Arc<AtomicU64>,
}

impl Probe {
    pub fn new(track: u32, span_capacity: usize) -> Self {
        let hub = TelemetryHub::new(TelemetryConfig::new().with_capacity(span_capacity));
        hub.set_track(track);
        Probe {
            hub,
            // The index is a statistic read only by this benchmark's own
            // spans, so relaxed ordering suffices.
            frame: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Index of the frame currently (or next) being processed.
    pub fn frame(&self) -> u64 {
        self.frame.load(Ordering::Relaxed)
    }
}

/// Times `step` and `dead_reckon` of any stock estimator.
pub struct TimedBackend<B> {
    inner: B,
    probe: Probe,
    step_name: &'static str,
    dead_reckon_name: &'static str,
}

impl<B: Backend> TimedBackend<B> {
    pub fn new(inner: B, probe: Probe) -> Self {
        let (step_name, dead_reckon_name) = match inner.mode() {
            BackendMode::Vio => ("vio.step", "vio.dead_reckon"),
            BackendMode::Slam => ("slam.step", "slam.dead_reckon"),
            BackendMode::Registration => ("registration.step", "registration.dead_reckon"),
        };
        TimedBackend {
            inner,
            probe,
            step_name,
            dead_reckon_name,
        }
    }
}

impl<B: Backend> Backend for TimedBackend<B> {
    fn mode(&self) -> BackendMode {
        self.inner.mode()
    }

    fn begin_segment(&mut self, anchor: Option<PoseAnchor>) {
        self.inner.begin_segment(anchor);
    }

    fn step(&mut self, input: &BackendInput<'_>) -> BackendEstimate {
        let start = self.probe.hub.start();
        let estimate = self.inner.step(input);
        self.probe.hub.record(
            SpanScope::Backend,
            self.step_name,
            self.probe.frame(),
            start,
        );
        estimate
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn persist_map(&self) -> Option<WorldMap> {
        self.inner.persist_map()
    }

    fn dead_reckon(
        &mut self,
        input: &BackendInput<'_>,
        from: PoseAnchor,
    ) -> Option<BackendEstimate> {
        let start = self.probe.hub.start();
        let estimate = self.inner.dead_reckon(input, from);
        self.probe.hub.record(
            SpanScope::Backend,
            self.dead_reckon_name,
            self.probe.frame(),
            start,
        );
        estimate
    }
}

/// Around the stock engine: times `execute_frame` into a probe (traced
/// runs) and stamps the serving thread's CPU time (`fleet` agents).
pub struct TimedEngine {
    inner: Box<dyn ExecutionEngine>,
    probe: Option<Probe>,
    stamp: Option<CpuStamp>,
}

impl TimedEngine {
    pub fn new(
        inner: impl ExecutionEngine + 'static,
        probe: Option<Probe>,
        stamp: Option<CpuStamp>,
    ) -> Self {
        TimedEngine {
            inner: Box::new(inner),
            probe,
            stamp,
        }
    }
}

impl ExecutionEngine for TimedEngine {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn execute_frame(&mut self, ctx: &FrameContext<'_>) -> Option<ExecutionReport> {
        let start = self.probe.as_ref().map(|p| p.hub.start());
        let report = self.inner.execute_frame(ctx);
        if let Some(stamp) = &self.stamp {
            stamp.set_now();
        }
        if let (Some(probe), Some(start)) = (&self.probe, start) {
            let frame = probe.frame.fetch_add(1, Ordering::Relaxed);
            probe
                .hub
                .record(SpanScope::Engine, "execute_frame", frame, start);
        }
        report
    }

    fn fork(&self) -> Box<dyn ExecutionEngine> {
        Box::new(TimedEngine {
            inner: self.inner.fork(),
            probe: self.probe.clone(),
            stamp: self.stamp.clone(),
        })
    }

    fn attach_link(&mut self, link: Box<dyn LinkModel>, deadline_ms: Option<f64>) -> bool {
        self.inner.attach_link(link, deadline_ms)
    }

    fn set_deadline_ms(&mut self, deadline_ms: f64) -> bool {
        self.inner.set_deadline_ms(deadline_ms)
    }

    fn link_stats(&self) -> Option<LinkStats> {
        self.inner.link_stats()
    }
}
