//! Quickstart: localize a vehicle on a synthetic outdoor traversal.
//!
//! Generates a KITTI-like street scenario, runs the unified Eudoxus
//! pipeline (the environment selects VIO+GPS) with telemetry armed, and
//! prints accuracy, per-stage latency, span-sourced frame percentiles —
//! and writes `chrome_trace.json`, loadable in Perfetto or
//! `chrome://tracing`.
//!
//! Run with: `cargo run --release --example quickstart`

use eudoxus::prelude::*;

fn main() {
    println!("=== Eudoxus quickstart ===");
    println!("generating synthetic outdoor dataset (1280x720 stereo)…");
    let dataset = ScenarioBuilder::new(ScenarioKind::OutdoorUnknown)
        .frames(30)
        .fps(10.0)
        .seed(42)
        .build();
    println!(
        "  {} frames, {} IMU samples, {} GPS fixes",
        dataset.frames.len(),
        dataset.imu.len(),
        dataset.gps.len()
    );

    println!("running the unified localization pipeline…");
    let mut system = SessionBuilder::new(PipelineConfig::anchored())
        .telemetry(TelemetryConfig::new())
        .build_batch();
    let log = system.process_dataset(&dataset);

    let summary = log.latency_summary(None);
    println!("\nresults:");
    println!("  mode:              {}", log.records[0].mode);
    println!("  translation RMSE:  {:.3} m", log.translation_rmse());
    println!("  relative error:    {:.3} %", log.relative_error_percent());
    println!(
        "  frame latency:     {:.1} ms mean, {:.1} ms max ({:.1} FPS)",
        summary.mean, summary.max, log.fps()
    );
    println!(
        "  frontend/backend:  {:.1} / {:.1} ms mean",
        Summary::of(&log.frontend_ms(None)).mean,
        Summary::of(&log.backend_ms(None)).mean,
    );

    // The telemetry hub recorded a span per frame (and per frontend
    // kernel): percentiles come from the streaming histogram, and the
    // span ring exports a chrome://tracing file Perfetto loads directly.
    let hub = system.session().telemetry().expect("telemetry armed").clone();
    let frame_hist = hub.frame_histogram();
    println!(
        "  frame percentiles: p50 {:.1} / p90 {:.1} / p99 {:.1} ms",
        frame_hist.p50_ms(),
        frame_hist.p90_ms(),
        frame_hist.p99_ms()
    );
    let trace = chrome_trace_json(&hub.drain());
    let report = validate_chrome_trace(&trace).expect("exported trace must validate");
    assert!(
        report.frame_spans >= 1,
        "trace must contain at least one complete frame span"
    );
    std::fs::write("chrome_trace.json", &trace).expect("write chrome_trace.json");
    println!(
        "  trace:             chrome_trace.json ({} events, {} frame spans)",
        report.events, report.frame_spans
    );

    // Replay the measured run through the EDX-CAR accelerator model.
    // (To get the same numbers live, per pushed frame, attach the model
    // at construction time instead — see examples/offload_decision.rs:
    // `SessionBuilder::new(cfg).engine(ScheduledEngine::new(..))`.)
    println!("\nreplaying through the EDX-CAR accelerator model…");
    let model = AccelModel::new(Platform::edx_car());
    let policy = match model.train_scheduler(&log, 0.25) {
        Some(s) => OffloadPolicy::Scheduled(s),
        None => OffloadPolicy::Always,
    };
    let accel = model.replay(&log, &policy);
    println!(
        "  accelerated:       {:.1} ms mean ({:.1} FPS unpipelined, {:.1} FPS pipelined)",
        accel.summary().mean,
        accel.fps_unpipelined(),
        accel.fps_pipelined()
    );
    println!(
        "  speedup:           {:.2}x   energy: {:.2} J -> {:.2} J per frame",
        summary.mean / accel.summary().mean,
        model.baseline_energy(&log),
        accel.mean_energy()
    );
}
