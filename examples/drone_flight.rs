//! EDX-DRONE: an indoor drone flight (EuRoC-like substitution) through
//! SLAM, then replayed through the drone accelerator model.
//!
//! Demonstrates the paper's flexibility claim (Sec. VII): the same design,
//! instantiated with smaller units for the embedded platform, still
//! delivers speedup and energy reduction.
//!
//! Run with: `cargo run --release --example drone_flight`

use eudoxus::prelude::*;

fn main() {
    println!("=== drone indoor flight (EDX-DRONE) ===");
    let dataset = ScenarioBuilder::new(ScenarioKind::IndoorUnknown)
        .frames(24)
        .fps(10.0)
        .seed(99)
        .build();
    println!("figure-8 flight, {} frames at 640x480", dataset.frames.len());

    let mut system = SessionBuilder::new(PipelineConfig::anchored()).build_batch();
    let log = system.process_dataset(&dataset);
    let baseline = log.latency_summary(None);

    println!("\nsoftware baseline (measured):");
    println!(
        "  SLAM RMSE {:.3} m | latency {:.1} ms mean / {:.1} ms SD | {:.1} FPS",
        log.translation_rmse(),
        baseline.mean,
        baseline.std_dev,
        log.fps()
    );

    // Backend kernel profile (what Fig. 8 breaks down).
    println!("\nSLAM backend kernel profile:");
    for (kernel, total) in log.kernel_totals(Mode::Slam) {
        println!("  {:<16} {:>8.1} ms total", kernel.to_string(), total);
    }

    // Accelerated replay on the drone platform.
    let model = AccelModel::new(Platform::edx_drone());
    let policy = match model.train_scheduler(&log, 0.25) {
        Some(s) => OffloadPolicy::Scheduled(s),
        None => OffloadPolicy::Never,
    };
    let accel = model.replay(&log, &policy);
    let acc_summary = accel.summary();
    println!("\nEDX-DRONE accelerated (modeled):");
    println!(
        "  latency {:.1} ms mean / {:.1} ms SD | {:.1} FPS pipelined",
        acc_summary.mean,
        acc_summary.std_dev,
        accel.fps_pipelined()
    );
    println!(
        "  speedup {:.2}x | SD reduction {:.0}% | offload rate {:.0}%",
        baseline.mean / acc_summary.mean,
        (1.0 - acc_summary.std_dev / baseline.std_dev) * 100.0,
        accel.offload_rate() * 100.0
    );
    println!(
        "  energy {:.2} J -> {:.2} J per frame ({:.0}% reduction)",
        model.baseline_energy(&log),
        accel.mean_energy(),
        (1.0 - accel.mean_energy() / model.baseline_energy(&log)) * 100.0
    );
}
