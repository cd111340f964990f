//! The paper's motivating deployment: a logistics robot that spends half
//! its time outdoors between warehouses and half inside them — some
//! pre-mapped, some new (paper Sec. III).
//!
//! The example builds the 50/25/25 mixed dataset, surveys the known
//! warehouse first (SLAM mapping pass persisted to disk), then runs the
//! full mission with mode switching: VIO+GPS outdoors, SLAM in the unknown
//! warehouse, registration in the mapped one.
//!
//! Run with: `cargo run --release --example warehouse_robot`

use eudoxus::prelude::*;
use eudoxus_sim::Platform as SimPlatform;

fn main() {
    println!("=== warehouse logistics mission ===");
    let dataset = ScenarioBuilder::new(ScenarioKind::Mixed)
        .frames(24)
        .fps(10.0)
        .seed(7)
        .platform(SimPlatform::Drone) // 640x480 keeps the example snappy
        .build();
    println!(
        "mission: {} frames across {} segments",
        dataset.frames.len(),
        dataset.segments.len()
    );

    // --- Survey pass: map the "known" warehouse segment. ---
    // In deployment the map comes from an earlier survey; here we survey
    // the indoor-known segment itself and persist the map to disk.
    let known_start = dataset
        .segments
        .iter()
        .find(|s| s.environment == Environment::IndoorKnown)
        .expect("mixed dataset has an indoor-known segment")
        .start_frame;
    let survey = slice_dataset(&dataset, known_start, dataset.frames.len());
    println!("\nsurvey pass over the mapped warehouse ({} frames)…", survey.frames.len());
    let map = build_map(&survey, &PipelineConfig::anchored());
    let map_path = std::env::temp_dir().join("warehouse.eudoxmap");
    map.save(&map_path).expect("map persists");
    println!(
        "  persisted {} map points / {} keyframes to {}",
        map.points.len(),
        map.keyframes.len(),
        map_path.display()
    );

    // --- Mission pass with the map installed. ---
    let map = WorldMap::load(&map_path).expect("map loads");
    let mut system = SessionBuilder::new(PipelineConfig::anchored()).map(map).build_batch();
    let log = system.process_dataset(&dataset);

    println!("\nper-mode breakdown:");
    for mode in Mode::ALL {
        let frames = log.frames_in_mode(mode);
        if frames.is_empty() {
            continue;
        }
        let errs: Vec<f64> = frames.iter().map(|r| r.translation_error()).collect();
        let lats: Vec<f64> = frames.iter().map(|r| r.total_ms()).collect();
        println!(
            "  {:<13} {:>3} frames | err {:.3} m mean | latency {:.1} ms (RSD {:.0}%)",
            mode.to_string(),
            frames.len(),
            errs.iter().sum::<f64>() / errs.len() as f64,
            Summary::of(&lats).mean,
            Summary::of(&lats).rsd() * 100.0
        );
    }
    println!(
        "\nmission RMSE {:.3} m over {} mode switches",
        log.translation_rmse(),
        dataset.segments.len() - 1
    );
    std::fs::remove_file(&map_path).ok();
}

/// Copies a frame range into a standalone dataset (sensor windows
/// included).
fn slice_dataset(d: &Dataset, from: usize, to: usize) -> Dataset {
    let t0 = d.frames[from].t;
    let t1 = d.frames[to - 1].t;
    let mut out = d.clone();
    out.frames = d.frames[from..to]
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, mut f)| {
            f.index = i;
            f.t -= t0;
            f
        })
        .collect();
    out.ground_truth = d.ground_truth[from..to].to_vec();
    out.imu = d
        .imu
        .iter()
        .filter(|s| s.t >= t0 - 0.2 && s.t <= t1)
        .map(|s| {
            let mut s = *s;
            s.t -= t0;
            s
        })
        .collect();
    out.gps = d
        .gps
        .iter()
        .filter(|s| s.t >= t0 && s.t <= t1)
        .map(|s| {
            let mut s = *s;
            s.t -= t0;
            s
        })
        .collect();
    out.segments = vec![eudoxus_stream::Segment {
        start_frame: 0,
        environment: d.frames[from].environment,
    }];
    out
}
