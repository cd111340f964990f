//! In-loop offload: the paper's runtime scheduler (Sec. VI-B) deciding
//! CPU-vs-accelerator *inside* `LocalizationSession::push`, frame by
//! frame — not as a post-hoc replay.
//!
//! The flow mirrors the paper's deployment: an offline profiling pass
//! measures the backend kernels on the CPU and fits the per-kernel
//! regressions (linear for projection, quadratic for Kalman gain and
//! marginalization); the trained scheduler is then installed into a
//! live session via `SessionBuilder::engine(ScheduledEngine::new(..))`,
//! where every pushed frame's offloadable kernels are individually
//! placed and the frame record carries the resulting `ExecutionReport`
//! (target, modeled latency, energy).
//!
//! Run with: `cargo run --release --example offload_decision`

use eudoxus::prelude::*;
use eudoxus_sim::Platform as SimPlatform;

fn main() {
    println!("=== in-loop offload on EDX-DRONE ===");
    let dataset = ScenarioBuilder::new(ScenarioKind::IndoorUnknown)
        .frames(24)
        .fps(10.0)
        .seed(11)
        .platform(SimPlatform::Drone)
        .build();
    println!("indoor SLAM flight, {} frames at 640x480", dataset.frames.len());

    // --- Offline profiling pass (all-CPU): a dedicated profiling
    // traversal whose measured kernels fit the per-kernel regressions
    // (the paper profiles offline, then deploys the trained scheduler).
    let mut profiler = SessionBuilder::new(PipelineConfig::anchored()).build_batch();
    let profile_log = profiler.process_dataset(&dataset);
    let model = AccelModel::new(Platform::edx_drone());
    let policy = match model.train_scheduler(&profile_log, 1.0) {
        Some(sched) => {
            println!(
                "scheduler trained on {} kernel samples from the profiling pass",
                model.training_samples(&profile_log, 1.0).len()
            );
            OffloadPolicy::Scheduled(sched)
        }
        None => {
            println!("too few offloadable kernels to train; falling back to always-offload");
            OffloadPolicy::Always
        }
    };

    // --- Live pass: the scheduler decides inside push(). ---
    let mut session = SessionBuilder::new(PipelineConfig::anchored())
        .engine(ScheduledEngine::with_policy(Platform::edx_drone(), policy))
        .build();
    println!("\nlive per-frame decisions (engine: {}):", session.engine().name());
    println!(
        "{:>5} {:>6} {:>10} {:>12} {:>12} {:>10}  largest offloadable kernel",
        "frame", "mode", "offloaded", "measured ms", "modeled ms", "energy J"
    );
    let mut log = RunLog::new();
    for event in dataset.events() {
        if let Some(record) = session.push(event) {
            let report = record
                .execution
                .as_ref()
                .expect("a scheduled engine reports every frame");
            // The regression-vs-DMA arithmetic behind the biggest
            // decision of the frame.
            let verdict = report
                .decisions
                .iter()
                .max_by(|a, b| a.cpu_ms.total_cmp(&b.cpu_ms))
                .map(|d| {
                    format!(
                        "{:?}(n={}): cpu {:.1} ms vs accel {:.1} ms -> {}",
                        d.kind,
                        d.size,
                        d.cpu_ms,
                        d.accel_ms,
                        if d.offloaded { "offload" } else { "stay" },
                    )
                })
                .unwrap_or_else(|| "-".to_string());
            println!(
                "{:>5} {:>6} {:>6}/{:<3} {:>12.1} {:>12.1} {:>10.2}  {}",
                record.index,
                record.mode.to_string(),
                report.offloaded,
                report.offloadable,
                record.total_ms(),
                report.total_ms(),
                report.energy.total(),
                verdict,
            );
            log.records.push(record);
        }
    }

    // --- Summary: the modeled accelerated run straight from the live
    // instrumentation stream, against the measured CPU baseline. ---
    let accel = log
        .execution_run()
        .expect("every record carries an execution report");
    let baseline = log.latency_summary(None);
    println!("\nmeasured CPU baseline:   {:>6.1} ms mean ({:.1} FPS)", baseline.mean, log.fps());
    println!(
        "modeled in-loop offload: {:>6.1} ms mean ({:.1} FPS unpipelined, {:.1} FPS pipelined)",
        accel.summary().mean,
        accel.fps_unpipelined(),
        accel.fps_pipelined()
    );
    println!(
        "offload rate {:.0}% | modeled energy {:.2} J vs {:.2} J CPU-baseline per frame",
        accel.offload_rate() * 100.0,
        accel.mean_energy(),
        model.baseline_energy(&log),
    );
    // What ignoring the scheduler would cost: force every offloadable
    // kernel onto the fabric over the same log.
    let forced = model.replay(&log, &OffloadPolicy::Always);
    println!(
        "forced always-offload:   {:>6.1} ms mean — the in-loop decision is never slower",
        forced.summary().mean
    );
    println!(
        "\nnote: on this host's fast batched kernels the scheduler keeps most\n\
         invocations on the CPU — exactly the paper's Sec. VI-B motivation\n\
         (small matrices lose to the offload's transfer overhead); slower\n\
         hosts or bigger maps tip the same per-kernel arithmetic the other way."
    );
}
