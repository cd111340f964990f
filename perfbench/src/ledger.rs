//! Per-layer metrics of a traced phase: the spans the probes recorded,
//! joined with the per-frame records the program returned.
//!
//! Times are percentiles of raw samples over the timed cycles. Counts,
//! ratios and modeled values come from the reference pass only, so they
//! repeat exactly for the same seed and code.

use crate::probe::Probe;
use crate::stats::{mean, median, percentile, ratio};
use crate::workload::{PhaseOutput, SetupTimes, Spec};
use eudoxus::backend::Kernel;
use eudoxus::core::Mode;
use eudoxus::telemetry::{Span, SpanScope};
use std::collections::BTreeMap;

/// One printed metric. `value: None` means the workload does not
/// exercise the layer. Only `json` metrics go into the result line; they
/// are measured on every workload.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: Option<f64>,
    /// Samples behind the value, where that is not obvious.
    pub n: Option<usize>,
    pub json: bool,
}

#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(
        &mut self,
        name: impl Into<String>,
        unit: &'static str,
        value: Option<f64>,
        n: Option<usize>,
        json: bool,
    ) {
        self.0.push(Metric {
            name: name.into(),
            unit,
            value,
            n,
            json,
        });
    }

    /// Median and 95th percentile of `samples` as `<name>.p50` /
    /// `<name>.p95`.
    fn p50_p95(&mut self, name: &str, unit: &'static str, samples: &[f64], json: bool) {
        let n = Some(samples.len());
        self.push(format!("{name}.p50"), unit, median(samples), n, json);
        self.push(
            format!("{name}.p95"),
            unit,
            percentile(samples, 0.95),
            n,
            json,
        );
    }
}

const KERNELS: [(Kernel, &str, bool); 13] = [
    // (kernel, name, run by VIO: measured on every workload)
    (Kernel::ImuIntegration, "imu_integration", true),
    (Kernel::Jacobian, "jacobian", true),
    (Kernel::Covariance, "covariance", true),
    (Kernel::KalmanGain, "kalman_gain", true),
    (Kernel::QrCompression, "qr_compression", true),
    (Kernel::GpsFusion, "gps_fusion", true),
    (Kernel::Projection, "projection", false),
    (Kernel::MapMatch, "map_match", false),
    (Kernel::PoseOptimization, "pose_optimization", false),
    (Kernel::MapUpdate, "map_update", false),
    (Kernel::Solver, "solver", false),
    (Kernel::Marginalization, "marginalization", false),
    (Kernel::SlamInit, "slam_init", false),
];

const MODES: [(Mode, &str); 3] = [
    (Mode::Vio, "vio"),
    (Mode::Slam, "slam"),
    (Mode::Registration, "registration"),
];

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn span_ms(s: &Span) -> f64 {
    s.dur_ns as f64 / 1e6
}

/// Spans of one probe, by frame.
#[derive(Default, Clone, Copy)]
struct FrameSpans {
    push_ms: Option<f64>,
    backend_ms: f64,
    engine_ms: f64,
}

/// Everything the traced phase recorded.
pub struct Traced<'a> {
    pub spec: &'a Spec,
    pub phase: &'a PhaseOutput,
    /// Spans of each target's probes, per agent.
    pub spans: &'a [Vec<Vec<Span>>],
    /// Spans of the fleet client (enqueues, rounds).
    pub client_spans: &'a [Span],
    pub setups: &'a [SetupTimes],
    /// Scaled throughput of the untraced and the traced reference pass.
    pub untraced_fps: f64,
    pub traced_fps: f64,
}

/// Drains a probe's hub, refusing a ring that overflowed (a lost span
/// would silently bias every percentile).
pub fn drain(probe: &Probe) -> Result<Vec<Span>, String> {
    if probe.hub.spans_dropped() > 0 {
        return Err(format!(
            "span ring overflowed: {} spans dropped",
            probe.hub.spans_dropped()
        ));
    }
    Ok(probe.hub.drain())
}

pub fn per_layer(t: &Traced<'_>) -> Metrics {
    let mut m = Metrics::default();
    // `true`: the reference pass; `false`: the timed cycles.
    let records = |reference: bool| {
        t.phase
            .frames
            .iter()
            .filter(move |f| (f.replay == 0) == reference)
            .filter_map(|f| f.record.as_ref())
    };
    let all_spans = || t.spans.iter().flatten().flatten();

    // --- setup: totals over every scene's set-up ---
    let setup = |f: fn(&SetupTimes) -> f64| t.setups.iter().map(f).sum::<f64>();
    let survey_s = setup(|s| s.survey_s);
    let n_setups = Some(t.setups.len());
    m.push(
        "setup.synth_s",
        "s",
        Some(setup(|s| s.synth_s)),
        n_setups,
        true,
    );
    m.push("setup.survey_s", "s", Some(survey_s), n_setups, false);
    m.push(
        "setup.survey_share",
        "ratio",
        ratio(survey_s, setup(SetupTimes::total_s)),
        n_setups,
        true,
    );
    m.push(
        "setup.build_s",
        "s",
        Some(setup(|s| s.build_s)),
        n_setups,
        true,
    );

    // --- frontend ---
    type Field = fn(&eudoxus::frontend::FrontendTiming) -> std::time::Duration;
    let fields: [(&str, Field); 5] = [
        ("filtering", |x| x.filtering),
        ("detection", |x| x.detection),
        ("description", |x| x.description),
        ("stereo", |x| x.stereo),
        ("temporal", |x| x.temporal),
    ];
    for (name, field) in fields {
        let samples: Vec<f64> = records(false)
            .map(|r| ms(field(&r.frontend_timing)))
            .collect();
        m.p50_p95(&format!("frontend.{name}_ms"), "ms", &samples, true);
    }
    let sum = |f: fn(&eudoxus::frontend::FrameStats) -> usize| {
        records(true)
            .map(|r| f(&r.frontend_stats) as f64)
            .sum::<f64>()
    };
    let first_frames = Some(records(true).count());
    let keypoints_left = sum(|s| s.keypoints_left);
    let stereo = sum(|s| s.stereo_matches);
    let continued = sum(|s| s.tracks_continued);
    let lost = sum(|s| s.tracks_lost);
    m.push(
        "frontend.keypoints",
        "count",
        Some(keypoints_left + sum(|s| s.keypoints_right)),
        first_frames,
        true,
    );
    m.push(
        "frontend.stereo_matches",
        "count",
        Some(stereo),
        first_frames,
        true,
    );
    m.push(
        "frontend.tracks_continued",
        "count",
        Some(continued),
        first_frames,
        true,
    );
    m.push(
        "frontend.tracks_lost",
        "count",
        Some(lost),
        first_frames,
        true,
    );
    m.push(
        "frontend.stereo_match_ratio",
        "ratio",
        ratio(stereo, keypoints_left),
        first_frames,
        true,
    );
    m.push(
        "frontend.track_survival",
        "ratio",
        ratio(continued, continued + lost),
        first_frames,
        true,
    );

    // --- backend ---
    let backend_spans = |suffix: &str, mode: Option<&str>| -> Vec<f64> {
        all_spans()
            .filter(|s| s.scope == SpanScope::Backend && s.kernel.ends_with(suffix))
            .filter(|s| mode.is_none_or(|m| s.kernel.starts_with(m)))
            .map(span_ms)
            .collect()
    };
    m.p50_p95("backend.step_ms", "ms", &backend_spans(".step", None), true);
    for (mode, name) in MODES {
        let json = mode == Mode::Vio;
        m.p50_p95(
            &format!("backend.{name}.step_ms"),
            "ms",
            &backend_spans(".step", Some(name)),
            json,
        );
        let served: Vec<bool> = records(true)
            .filter(|r| r.mode == mode)
            .map(|r| r.tracking)
            .collect();
        let tracking = served.iter().filter(|t| **t).count();
        m.push(
            format!("backend.{name}.frames"),
            "count",
            Some(served.len() as f64),
            None,
            false,
        );
        m.push(
            format!("backend.{name}.tracking_ratio"),
            "ratio",
            ratio(tracking as f64, served.len() as f64),
            Some(served.len()),
            json,
        );
    }
    let dead_reckon = backend_spans(".dead_reckon", None);
    m.push(
        "backend.dead_reckon_ms.p50",
        "ms",
        median(&dead_reckon),
        Some(dead_reckon.len()),
        false,
    );
    for (kernel, name, vio) in KERNELS {
        let millis: Vec<f64> = records(false)
            .flat_map(|r| r.backend_kernels.iter())
            .filter(|k| k.kernel == kernel)
            .map(|k| k.millis)
            .collect();
        let sizes: Vec<f64> = records(true)
            .flat_map(|r| r.backend_kernels.iter())
            .filter(|k| k.kernel == kernel)
            .map(|k| k.size as f64)
            .collect();
        m.push(
            format!("backend.kernel.{name}.ms"),
            "ms",
            median(&millis),
            Some(millis.len()),
            vio,
        );
        m.push(
            format!("backend.kernel.{name}.calls"),
            "count",
            Some(sizes.len() as f64),
            None,
            true,
        );
        m.push(
            format!("backend.kernel.{name}.size"),
            "count",
            mean(&sizes),
            None,
            false,
        );
    }

    // --- engine ---
    let execute_us: Vec<f64> = all_spans()
        .filter(|s| s.scope == SpanScope::Engine)
        .map(|s| s.dur_ns as f64 / 1e3)
        .collect();
    m.push(
        "engine.execute_us.p50",
        "us",
        median(&execute_us),
        Some(execute_us.len()),
        true,
    );
    let reports: Vec<_> = records(true).filter_map(|r| r.execution.as_ref()).collect();
    let modeled = |f: fn(&eudoxus::core::ExecutionReport) -> f64| {
        reports.iter().map(|r| f(r)).collect::<Vec<f64>>()
    };
    let n_reports = Some(reports.len());
    m.push(
        "engine.modeled_frame_ms",
        "ms",
        median(&modeled(|r| r.total_ms())),
        n_reports,
        false,
    );
    m.push(
        "engine.modeled_frontend_ms",
        "ms",
        median(&modeled(|r| r.frontend_ms)),
        n_reports,
        false,
    );
    let offloaded: usize = reports.iter().map(|r| r.offloaded).sum();
    let offloadable: usize = reports.iter().map(|r| r.offloadable).sum();
    m.push(
        "engine.offload_rate",
        "ratio",
        ratio(offloaded as f64, offloadable as f64),
        Some(offloadable),
        true,
    );
    m.push(
        "engine.modeled_energy_mj",
        "mJ",
        mean(&modeled(|r| r.energy.total() * 1e3)),
        n_reports,
        true,
    );

    // --- session: close the ledger per frame ---
    let ledger = close_ledger(t);
    let unattributed: Vec<f64> = ledger.iter().map(|l| l.unattributed_ms).collect();
    m.push(
        "session.unattributed_ms.p50",
        "ms",
        median(&unattributed),
        Some(unattributed.len()),
        false,
    );
    let total = |f: fn(&LedgerRow) -> f64| ledger.iter().map(f).sum::<f64>();
    m.push(
        "session.unattributed_share",
        "ratio",
        ratio(total(|l| l.unattributed_ms), total(|l| l.frame_ms)),
        Some(ledger.len()),
        false,
    );
    for (name, f) in [
        (
            "frame",
            (|l: &LedgerRow| l.frame_ms) as fn(&LedgerRow) -> f64,
        ),
        ("frontend", |l| l.frontend_ms),
        ("backend", |l| l.backend_ms),
        ("engine", |l| l.engine_ms),
        ("unattributed", |l| l.unattributed_ms),
    ] {
        let values: Vec<f64> = ledger.iter().map(f).collect();
        m.push(
            format!("ledger.{name}_ms.mean"),
            "ms",
            mean(&values),
            Some(values.len()),
            false,
        );
    }

    // --- ingest / serving (fleet) ---
    let fleet = t.spec.is_fleet();
    let client = |name: &str, scale: f64| -> Vec<f64> {
        t.client_spans
            .iter()
            .filter(|s| s.kernel == name)
            .map(|s| s.dur_ns as f64 / scale)
            .collect()
    };
    let enqueue_us = client("try_enqueue", 1e3);
    let rounds_ms = client("poll_parallel", 1e6);
    let snap = |f: fn(&crate::workload::FleetSnapshot) -> u64| Some(f(&t.phase.first_cycle) as f64);
    m.push(
        "ingest.enqueue_us.p50",
        "us",
        median(&enqueue_us),
        Some(enqueue_us.len()),
        false,
    );
    m.push("ingest.events", "count", snap(|s| s.events), None, false);
    m.push(
        "serving.round_ms.p50",
        "ms",
        median(&rounds_ms),
        Some(rounds_ms.len()),
        false,
    );
    // Busy = the attributed work of every agent's frames (frontend
    // kernels + backend + engine); the untimed rest of `push` is not
    // observable from outside a worker.
    let busy_ms = records(false)
        .map(|r| ms(r.frontend_timing.total()))
        .sum::<f64>()
        + all_spans()
            .filter(|s| matches!(s.scope, SpanScope::Backend | SpanScope::Engine))
            .map(span_ms)
            .sum::<f64>();
    let efficiency = if fleet {
        ratio(
            busy_ms,
            t.phase.workers as f64 * rounds_ms.iter().sum::<f64>(),
        )
    } else {
        None
    };
    m.push(
        "serving.parallel_efficiency",
        "ratio",
        efficiency,
        Some(rounds_ms.len()),
        false,
    );
    m.push(
        "serving.sequential_drains",
        "count",
        snap(|s| s.sequential_drains),
        None,
        true,
    );
    m.push(
        "health.degraded_frames",
        "count",
        snap(|s| s.degraded_frames),
        None,
        true,
    );
    m.push(
        "health.dead_reckoned_frames",
        "count",
        snap(|s| s.dead_reckoned_frames),
        None,
        true,
    );
    m.push(
        "health.recoveries",
        "count",
        snap(|s| s.recoveries),
        None,
        true,
    );
    m.push(
        "faults.blackout_frames",
        "count",
        snap(|s| s.blackout_frames),
        None,
        false,
    );

    m.push(
        "trace.overhead_share",
        "ratio",
        Some(1.0 - t.traced_fps / t.untraced_fps),
        None,
        true,
    );
    m
}

/// One frame's wall time split into layers.
struct LedgerRow {
    frame_ms: f64,
    frontend_ms: f64,
    backend_ms: f64,
    engine_ms: f64,
    unattributed_ms: f64,
}

/// frame = frontend kernels (`FrontendTiming`) + backend + engine +
/// unattributed, for every traced single-session frame whose `push` the
/// client spanned. The fleet has no such span: its pushes run inside
/// `poll_parallel`.
fn close_ledger(t: &Traced<'_>) -> Vec<LedgerRow> {
    let mut by_probe: Vec<Vec<BTreeMap<u64, FrameSpans>>> = t
        .spans
        .iter()
        .map(|agents| {
            agents
                .iter()
                .map(|spans| {
                    let mut frames: BTreeMap<u64, FrameSpans> = BTreeMap::new();
                    for s in spans {
                        let f = frames.entry(s.frame_idx).or_default();
                        match s.scope {
                            SpanScope::Frame => f.push_ms = Some(span_ms(s)),
                            SpanScope::Backend => f.backend_ms += span_ms(s),
                            SpanScope::Engine => f.engine_ms += span_ms(s),
                            _ => {}
                        }
                    }
                    frames
                })
                .collect()
        })
        .collect();
    t.phase
        .timed()
        .filter_map(|f| {
            let record = f.record.as_ref()?;
            let spans = by_probe[f.scene][f.agent].remove(&f.span_frame?)?;
            let frame_ms = spans.push_ms?;
            let frontend_ms = ms(record.frontend_timing.total());
            Some(LedgerRow {
                frame_ms,
                frontend_ms,
                backend_ms: spans.backend_ms,
                engine_ms: spans.engine_ms,
                unattributed_ms: frame_ms - frontend_ms - spans.backend_ms - spans.engine_ms,
            })
        })
        .collect()
}
