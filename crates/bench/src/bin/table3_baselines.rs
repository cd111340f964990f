//! Table III: EDX-CAR speedup over CPU/GPU/DSP software baselines.
//!
//! The multi-core reference is our measured pipeline; the other baselines
//! apply the documented latency transforms (ROS IPC overhead, single-core
//! factor, GPU launch/setup costs — see `eudoxus_accel::baselines`).

use eudoxus_accel::baselines::table3_speedups;
use eudoxus_bench::{dataset, row, run_pipeline, section};
use eudoxus_core::{AccelModel, OffloadPolicy};
use eudoxus_sim::{Platform as SimPlatform, ScenarioKind};

fn main() {
    // Measured multi-core-equivalent frame time on the car resolution.
    let log = run_pipeline(&dataset(ScenarioKind::OutdoorUnknown, SimPlatform::Car, 15, 90));
    let model = AccelModel::new(eudoxus_accel::Platform::edx_car());
    let policy = match model.train_scheduler(&log, 0.25) {
        Some(s) => OffloadPolicy::Scheduled(s),
        None => OffloadPolicy::Always,
    };
    let run = model.replay(&log, &policy);
    // Our Rust pipeline is single-threaded without SIMD, so the honest
    // mapping is measured time = single-core baseline; the multi-core
    // reference derives from the paper's parallelization factor.
    let single_core_s = log.latency_summary(None).mean * 1e-3;
    let multicore_s = single_core_s / 1.57;
    let eudoxus_s = run.summary().mean * 1e-3;

    section("Table III: EDX-CAR speedup over software baselines");
    println!(
        "(measured single-core frame {:.1} ms -> derived multi-core {:.1} ms; accelerated {:.1} ms)\n",
        single_core_s * 1e3,
        multicore_s * 1e3,
        eudoxus_s * 1e3
    );
    row(&["baseline".into(), "speedup (x)".into(), "paper".into()]);
    let paper = [3.5, 3.3, 2.2, 2.1, 4.4, 2.5, 2.5];
    for ((baseline, speedup), paper_x) in table3_speedups(multicore_s, eudoxus_s).iter().zip(paper)
    {
        row(&[
            baseline.paper_name().into(),
            format!("{speedup:.1}"),
            format!("{paper_x:.1}"),
        ]);
    }
    println!("\nshape: GPU worst (launch overhead), ROS adds IPC cost, ours lowest speedup");
}
