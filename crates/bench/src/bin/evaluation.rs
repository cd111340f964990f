//! Figs. 17–21: the overall evaluation — baseline (measured software) vs
//! the accelerated system (modeled), on both platforms.
//!
//! * Fig. 17 — end-to-end latency + SD, per mode and overall;
//! * Fig. 18 — FPS with/without frontend↔backend pipelining;
//! * Fig. 19 — energy per frame;
//! * Fig. 20 — frontend latency and throughput;
//! * Fig. 21 — backend latency + SD per mode.
//!
//! Paper shape: ~2× end-to-end speedup, 43–58 % SD reduction, pipelining
//! lifting FPS well past real-time, 47–74 % energy reduction, frontend
//! SM-bound.

use eudoxus_accel::{FrameWorkload, FrontendEngine, Platform};
use eudoxus_bench::{dataset, row, run_pipeline, run_pipeline_with_map, section};
use eudoxus_core::{AccelModel, Mode, OffloadPolicy, RunLog, Summary};
use eudoxus_sim::{Platform as SimPlatform, ScenarioKind};

struct PlatformEval {
    name: &'static str,
    platform: Platform,
    logs: Vec<(Mode, RunLog)>,
}

fn build_eval(name: &'static str, accel: Platform, sim: SimPlatform, frames: usize) -> PlatformEval {
    let reg = run_pipeline_with_map(&dataset(ScenarioKind::IndoorKnown, sim, frames, 70));
    let vio = run_pipeline(&dataset(ScenarioKind::OutdoorUnknown, sim, frames / 2, 71));
    let slam = run_pipeline(&dataset(ScenarioKind::IndoorUnknown, sim, frames / 2, 72));
    PlatformEval {
        name,
        platform: accel,
        logs: vec![(Mode::Registration, reg), (Mode::Vio, vio), (Mode::Slam, slam)],
    }
}

fn main() {
    // Drone gets the full treatment; the car runs fewer frames (1280×720
    // software frontend is ~6× the pixels).
    let evals = [
        build_eval("EDX-DRONE", Platform::edx_drone(), SimPlatform::Drone, 40),
        build_eval("EDX-CAR", Platform::edx_car(), SimPlatform::Car, 20),
    ];

    for eval in &evals {
        let model = AccelModel::new(eval.platform);

        section(&format!("Fig. 17 ({}): latency + SD, baseline vs accelerated", eval.name));
        row(&[
            "mode".into(),
            "base ms".into(),
            "accel ms".into(),
            "speedup".into(),
            "base SD".into(),
            "accel SD".into(),
            "SD red.".into(),
        ]);
        let mut all_base: Vec<f64> = Vec::new();
        let mut all_accel: Vec<f64> = Vec::new();
        for (mode, log) in &eval.logs {
            let policy = match model.train_scheduler(log, 0.25) {
                Some(s) => OffloadPolicy::Scheduled(s),
                None => OffloadPolicy::Always,
            };
            let run = model.replay(log, &policy);
            let base = log.latency_summary(None);
            let accel = run.summary();
            all_base.extend(log.total_ms(None));
            all_accel.extend(run.total_ms());
            row(&[
                mode.to_string(),
                format!("{:.1}", base.mean),
                format!("{:.1}", accel.mean),
                format!("{:.2}x", base.mean / accel.mean),
                format!("{:.1}", base.std_dev),
                format!("{:.1}", accel.std_dev),
                format!("{:.0}%", (1.0 - accel.std_dev / base.std_dev.max(1e-9)) * 100.0),
            ]);
        }
        let base = Summary::of(&all_base);
        let accel = Summary::of(&all_accel);
        row(&[
            "overall".into(),
            format!("{:.1}", base.mean),
            format!("{:.1}", accel.mean),
            format!("{:.2}x", base.mean / accel.mean),
            format!("{:.1}", base.std_dev),
            format!("{:.1}", accel.std_dev),
            format!("{:.0}%", (1.0 - accel.std_dev / base.std_dev.max(1e-9)) * 100.0),
        ]);

        section(&format!("Fig. 18 ({}): FPS with and without pipelining", eval.name));
        let mut rows3: Vec<(f64, f64, f64)> = Vec::new();
        for (_, log) in &eval.logs {
            let policy = match model.train_scheduler(log, 0.25) {
                Some(s) => OffloadPolicy::Scheduled(s),
                None => OffloadPolicy::Always,
            };
            let run = model.replay(log, &policy);
            rows3.push((log.fps(), run.fps_unpipelined(), run.fps_pipelined()));
        }
        let n = rows3.len() as f64;
        let base_fps = rows3.iter().map(|r| r.0).sum::<f64>() / n;
        let unpiped = rows3.iter().map(|r| r.1).sum::<f64>() / n;
        let piped = rows3.iter().map(|r| r.2).sum::<f64>() / n;
        row(&["baseline".into(), "w/o pipelining".into(), "w/ pipelining".into()]);
        row(&[
            format!("{base_fps:.1}"),
            format!("{unpiped:.1}"),
            format!("{piped:.1}"),
        ]);

        section(&format!("Fig. 19 ({}): energy per frame", eval.name));
        let mut base_j = 0.0;
        let mut accel_j = 0.0;
        for (_, log) in &eval.logs {
            let policy = match model.train_scheduler(log, 0.25) {
                Some(s) => OffloadPolicy::Scheduled(s),
                None => OffloadPolicy::Always,
            };
            let run = model.replay(log, &policy);
            base_j += model.baseline_energy(log) / eval.logs.len() as f64;
            accel_j += run.mean_energy() / eval.logs.len() as f64;
        }
        println!(
            "baseline {base_j:.2} J -> accelerated {accel_j:.2} J ({:.0}% reduction)",
            (1.0 - accel_j / base_j) * 100.0
        );

        section(&format!("Fig. 20 ({}): frontend latency/throughput", eval.name));
        let engine = FrontendEngine::new(eval.platform);
        let (w, h) = eval.platform.resolution;
        let l = engine.latency(&FrameWorkload::typical(w, h));
        let base_fe: f64 = eval
            .logs
            .iter()
            .flat_map(|(_, log)| log.frontend_ms(None))
            .sum::<f64>()
            / eval.logs.iter().map(|(_, l)| l.len()).sum::<usize>() as f64;
        println!(
            "baseline FE {base_fe:.1} ms -> accel FE {:.1} ms (FE {:.1} + SM {:.1}); \
             FPS {:.1} unpipelined / {:.1} pipelined",
            l.total() * 1e3,
            l.feature_extraction * 1e3,
            l.stereo_matching * 1e3,
            l.unpipelined_fps(),
            l.pipelined_fps()
        );

        section(&format!("Fig. 21 ({}): backend latency + SD per mode", eval.name));
        row(&[
            "mode".into(),
            "base be ms".into(),
            "accel be ms".into(),
            "base SD".into(),
            "accel SD".into(),
        ]);
        for (mode, log) in &eval.logs {
            let policy = match model.train_scheduler(log, 0.25) {
                Some(s) => OffloadPolicy::Scheduled(s),
                None => OffloadPolicy::Always,
            };
            let run = model.replay(log, &policy);
            let base = Summary::of(&log.backend_ms(None));
            let accel = Summary::of(&run.frames.iter().map(|f| f.backend_ms).collect::<Vec<_>>());
            row(&[
                mode.to_string(),
                format!("{:.1}", base.mean),
                format!("{:.1}", accel.mean),
                format!("{:.2}", base.std_dev),
                format!("{:.2}", accel.std_dev),
            ]);
        }
    }
    println!("\npaper: car 2.1x overall speedup, SD -58%, 8.6->17.2 FPS (31.9 piped),");
    println!("energy 1.9->0.5 J; drone 1.9x, SD -43%, 7.0->22.4 FPS, 0.8->0.4 J");
}
