//! Integration tests of accelerated replay: measured CPU run →
//! scheduler training → accelerated replay, checking the paper's headline
//! relationships (speedup, variance reduction, energy reduction, scheduler
//! vs oracle).

use eudoxus::accel::{BackendKernelKind, RuntimeScheduler};
use eudoxus::prelude::*;
use eudoxus_sim::Platform as SimPlatform;

fn measured_log(frames: usize) -> RunLog {
    let data = ScenarioBuilder::new(ScenarioKind::OutdoorUnknown)
        .frames(frames)
        .seed(8)
        .platform(SimPlatform::Drone)
        .build();
    let mut system = SessionBuilder::new(PipelineConfig::anchored()).build_batch();
    system.process_dataset(&data)
}

#[test]
fn accelerated_run_beats_baseline_latency_and_energy() {
    let log = measured_log(10);
    let model = AccelModel::new(Platform::edx_drone());
    let policy = match model.train_scheduler(&log, 0.25) {
        Some(s) => OffloadPolicy::Scheduled(s),
        None => OffloadPolicy::Always,
    };
    let run = model.replay(&log, &policy);
    let baseline = log.latency_summary(None);
    let accel = run.summary();
    assert!(
        accel.mean < baseline.mean,
        "accel {} ms vs baseline {} ms",
        accel.mean,
        baseline.mean
    );
    assert!(run.mean_energy() < model.baseline_energy(&log));
    // Pipelining must help throughput (paper Fig. 18).
    assert!(run.fps_pipelined() >= run.fps_unpipelined());
}

#[test]
fn kalman_gain_latency_correlates_with_size() {
    // The basis of Fig. 16b and the scheduler: kernel latency grows with
    // workload size.
    let log = measured_log(12);
    let samples = log.kernel_samples(eudoxus::backend::Kernel::KalmanGain);
    if samples.len() < 6 {
        return; // not enough updates fired in this short run
    }
    let xs: Vec<f64> = samples.iter().map(|&(s, _)| s as f64).collect();
    let ys: Vec<f64> = samples.iter().map(|&(_, ms)| ms).collect();
    // Positive correlation between rows and milliseconds.
    let mx = xs.iter().sum::<f64>() / xs.len() as f64;
    let my = ys.iter().sum::<f64>() / ys.len() as f64;
    let cov: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    assert!(cov > 0.0, "latency does not grow with size");
}

#[test]
fn scheduler_matches_oracle_on_real_measurements() {
    // Paper Sec. VII-F: the runtime scheduler achieves almost the same
    // speedup as an oracle. Verify decision agreement on the held-out 75%.
    let log = measured_log(14);
    let model = AccelModel::new(Platform::edx_drone());
    let samples = model.training_samples(&log, 0.25);
    let Some(sched) = RuntimeScheduler::train(&samples) else {
        return; // too few offloadable kernels in a short run
    };
    let eval = model.training_samples(&log, 1.0);
    let mut agree = 0usize;
    let mut total = 0usize;
    for s in &eval {
        let dims = match s.kind {
            BackendKernelKind::Projection => {
                eudoxus::accel::KernelDims::Projection { map_points: s.size }
            }
            BackendKernelKind::KalmanGain => eudoxus::accel::KernelDims::KalmanGain {
                rows: s.size,
                state: 195,
            },
            BackendKernelKind::Marginalization => {
                eudoxus::accel::KernelDims::Marginalization {
                    landmarks: s.size.saturating_sub(6) / 3,
                    remaining: 30,
                }
            }
        };
        let scheduled = sched.decide(model.backend_engine(), &dims).is_offload();
        let oracle =
            RuntimeScheduler::oracle_decide(model.backend_engine(), &dims, s.cpu_millis)
                .is_offload();
        total += 1;
        if scheduled == oracle {
            agree += 1;
        }
    }
    if total > 0 {
        let rate = agree as f64 / total as f64;
        assert!(rate >= 0.7, "scheduler agrees with oracle on only {rate:.2}");
    }
}

#[test]
fn variance_reduction_from_backend_offload() {
    // Accelerating the variation-heavy kernels must not increase the
    // latency SD (paper: 43–58 % SD reduction).
    let log = measured_log(12);
    let model = AccelModel::new(Platform::edx_drone());
    let never = model.replay(&log, &OffloadPolicy::Never);
    let always = model.replay(&log, &OffloadPolicy::Always);
    // With all variation kernels on the deterministic engine, the backend
    // part of the variance shrinks.
    let sd_never = Summary::of(
        &never
            .frames
            .iter()
            .map(|f| f.backend_ms)
            .collect::<Vec<_>>(),
    )
    .std_dev;
    let sd_always = Summary::of(
        &always
            .frames
            .iter()
            .map(|f| f.backend_ms)
            .collect::<Vec<_>>(),
    )
    .std_dev;
    // Generous margin: the measured log is wall-clock and this test runs
    // under parallel-suite load.
    assert!(
        sd_always <= sd_never * 1.25 + 0.2,
        "offload raised backend SD: {sd_never} → {sd_always}"
    );
}
