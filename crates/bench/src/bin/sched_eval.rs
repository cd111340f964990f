//! Sec. VII-F: effectiveness of the runtime offload scheduler.
//!
//! Paper results to mirror: regression R² of 0.83/0.82/0.98
//! (registration/VIO/SLAM kernels), near-oracle scheduling (<0.001 %
//! difference), most registration/VIO frames offloaded, ~76 % of SLAM
//! marginalizations offloaded, and always-offloading SLAM *increasing*
//! latency (+8.3 %).

use eudoxus_accel::{BackendKernelKind, KernelDims, RuntimeScheduler};
use eudoxus_bench::{dataset, row, run_pipeline, run_pipeline_with_map, section};
use eudoxus_core::{AccelModel, Mode, OffloadPolicy};
use eudoxus_sim::{Platform as SimPlatform, ScenarioKind};

fn main() {
    let frames = 45;
    let logs = vec![
        (
            Mode::Registration,
            run_pipeline_with_map(&dataset(ScenarioKind::IndoorKnown, SimPlatform::Drone, frames, 80)),
        ),
        (
            Mode::Vio,
            run_pipeline(&dataset(ScenarioKind::OutdoorUnknown, SimPlatform::Drone, 2 * frames, 81)),
        ),
        (
            Mode::Slam,
            run_pipeline(&dataset(ScenarioKind::IndoorUnknown, SimPlatform::Drone, frames, 82)),
        ),
    ];
    let model = AccelModel::new(eudoxus_accel::Platform::edx_drone());

    // The paper trains one regression per kernel offline on 25% of frames;
    // pool the three mode traces the same way (a single registration map
    // has a constant size, so per-mode projection fits would be singular).
    section("regression quality (pooled, interleaved 50/50 split)");
    row(&["kernel".into(), "R^2".into(), "samples".into()]);
    let mut train: Vec<_> = Vec::new();
    let mut eval_pool: Vec<_> = Vec::new();
    for (_, log) in &logs {
        // Interleave so every kernel appears in both halves (Kalman gain
        // only fires once the MSCKF window fills).
        for (i, s) in model.training_samples(log, 1.0).into_iter().enumerate() {
            if i % 2 == 0 {
                train.push(s);
            } else {
                eval_pool.push(s);
            }
        }
    }
    let trained = RuntimeScheduler::train(&train);
    if let Some(sched) = &trained {
        for kind in BackendKernelKind::ALL {
            let n = train.iter().filter(|s| s.kind == kind).count();
            match sched.r_squared(kind) {
                Some(r2) => row(&[kind.paper_name().into(), format!("{r2:.3}"), format!("{n}")]),
                None => row(&[
                    kind.paper_name().into(),
                    "const model".into(),
                    format!("{n}"),
                ]),
            }
        }
    }
    println!("paper: R^2 = 0.83 (registration), 0.82 (VIO), 0.98 (SLAM)");

    section("scheduler vs oracle on the held-out half");
    row(&[
        "kernel".into(),
        "agree %".into(),
        "offload %".into(),
        "sched ms".into(),
        "oracle ms".into(),
        "always ms".into(),
    ]);
    for kind_filter in BackendKernelKind::ALL {
        let Some(sched) = trained.clone() else { continue };
        let eval: Vec<_> = eval_pool
            .iter()
            .copied()
            .filter(|s| s.kind == kind_filter)
            .collect();
        if eval.is_empty() {
            continue;
        }
        let eval = &eval[..];
        let mut agree = 0usize;
        let mut offloads = 0usize;
        let mut sched_ms = 0.0;
        let mut oracle_ms = 0.0;
        let mut always_ms = 0.0;
        for s in eval {
            let dims = match s.kind {
                BackendKernelKind::Projection => KernelDims::Projection { map_points: s.size },
                BackendKernelKind::KalmanGain => KernelDims::KalmanGain {
                    rows: s.size,
                    state: 195,
                },
                BackendKernelKind::Marginalization => KernelDims::Marginalization {
                    landmarks: s.size.saturating_sub(6) / 3,
                    remaining: 30,
                },
            };
            let accel_ms = model.backend_engine().offload_time(&dims) * 1e3;
            let sd = sched.decide(model.backend_engine(), &dims).is_offload();
            let od = RuntimeScheduler::oracle_decide(model.backend_engine(), &dims, s.cpu_millis)
                .is_offload();
            if sd == od {
                agree += 1;
            }
            if sd {
                offloads += 1;
            }
            sched_ms += if sd { accel_ms } else { s.cpu_millis };
            oracle_ms += if od { accel_ms } else { s.cpu_millis };
            always_ms += accel_ms;
        }
        let n = eval.len().max(1);
        row(&[
            kind_filter.paper_name().into(),
            format!("{:.1}", agree as f64 / n as f64 * 100.0),
            format!("{:.1}", offloads as f64 / n as f64 * 100.0),
            format!("{sched_ms:.1}"),
            format!("{oracle_ms:.1}"),
            format!("{always_ms:.1}"),
        ]);
    }
    println!("paper: scheduler within 0.001% of oracle; 76.4% of SLAM frames offloaded;");
    println!("always-offloading SLAM increases latency by 8.3%");

    section("end-to-end latency per policy (drone, all modes pooled)");
    row(&["policy".into(), "mean ms".into()]);
    for (name, policy_of) in [
        ("never", 0usize),
        ("scheduled", 1),
        ("always", 2),
    ] {
        let mut total = 0.0;
        let mut count = 0usize;
        for (_, log) in &logs {
            let policy = match policy_of {
                0 => OffloadPolicy::Never,
                1 => match model.train_scheduler(log, 0.25) {
                    Some(s) => OffloadPolicy::Scheduled(s),
                    None => OffloadPolicy::Never,
                },
                _ => OffloadPolicy::Always,
            };
            let run = model.replay(log, &policy);
            total += run.summary().mean * log.len() as f64;
            count += log.len();
        }
        row(&[name.into(), format!("{:.1}", total / count as f64)]);
    }
}
