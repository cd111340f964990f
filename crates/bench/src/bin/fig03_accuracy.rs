//! Fig. 3a–d: localization error vs frame rate for the three primitive
//! algorithms in the four operating environments.
//!
//! Paper shape to reproduce: SLAM best indoors without a map (3a),
//! registration best indoors with one (3b), VIO (+GPS) best outdoors
//! (3c/3d), with registration clearly worse than VIO outdoors.

use eudoxus_bench::{row, section};
use eudoxus_core::{build_map, PipelineConfig, SessionBuilder};
use eudoxus_sim::{Dataset, Platform, ScenarioBuilder, ScenarioKind};
use eudoxus_stream::Environment;

/// Relabels every frame/segment so the mode selector runs one algorithm.
fn relabeled(dataset: &Dataset, env: Environment, keep_gps: bool) -> Dataset {
    let mut d = dataset.clone();
    for f in &mut d.frames {
        f.environment = env;
    }
    for s in &mut d.segments {
        s.environment = env;
    }
    if !keep_gps {
        d.gps.clear();
    }
    d
}

fn rmse_of(data: &Dataset) -> (f64, f64) {
    let mut system = SessionBuilder::new(PipelineConfig::anchored()).build_batch();
    let log = system.process_dataset(data);
    (log.translation_rmse(), log.fps())
}

fn rmse_registration(data: &Dataset) -> (f64, f64) {
    let map = build_map(data, &PipelineConfig::anchored());
    let mut system = SessionBuilder::new(PipelineConfig::anchored()).map(map).build_batch();
    let log = system.process_dataset(data);
    (log.translation_rmse(), log.fps())
}

fn main() {
    println!("Fig. 3: error vs performance per algorithm in each environment");
    println!("(long runs let VIO drift accumulate indoors, as in the paper)");
    let frames = 90;
    for (fig, kind, has_gps_truly) in [
        ("3a indoor-unknown", ScenarioKind::IndoorUnknown, false),
        ("3b indoor-known", ScenarioKind::IndoorKnown, false),
        ("3c outdoor-unknown", ScenarioKind::OutdoorUnknown, true),
        ("3d outdoor-known", ScenarioKind::OutdoorKnown, true),
    ] {
        section(&format!("Fig. {fig}"));
        row(&["algorithm".into(), "error (m)".into(), "proc FPS".into()]);
        // Every algorithm sees the same sensor stream; only the backend
        // differs. Platform follows the paper: drone indoors, car outdoors.
        let platform = if has_gps_truly { Platform::Car } else { Platform::Drone };
        let data = ScenarioBuilder::new(kind)
            .frames(frames)
            .fps(10.0)
            .seed(33)
            .platform(platform)
            .build();

        // VIO: GPS available only when the environment truly has it.
        let vio_data = relabeled(&data, Environment::OutdoorUnknown, has_gps_truly);
        let (vio_err, vio_fps) = rmse_of(&vio_data);
        row(&["VIO".into(), format!("{vio_err:.3}"), format!("{vio_fps:.1}")]);

        // SLAM.
        let slam_data = relabeled(&data, Environment::IndoorUnknown, false);
        let (slam_err, slam_fps) = rmse_of(&slam_data);
        row(&["SLAM".into(), format!("{slam_err:.3}"), format!("{slam_fps:.1}")]);

        // Registration (only where a map exists).
        if data.frames[0].environment.has_map() {
            let reg_data = relabeled(&data, Environment::IndoorKnown, false);
            let (reg_err, reg_fps) = rmse_registration(&reg_data);
            row(&["Registration".into(), format!("{reg_err:.3}"), format!("{reg_fps:.1}")]);
        } else {
            row(&["Registration".into(), "n/a (no map)".into(), "-".into()]);
        }
    }
    println!("\npaper reference: 3a SLAM 0.19 < VIO 0.27; 3b Reg 0.15 best;");
    println!("3c/3d VIO+GPS ~0.10 best, Reg 1.42, SLAM ~12 outdoors");
}
