//! Lane occupancy and vector coverage of the batched KLT solve on
//! rendered drone frames.
//!
//! The bit-identity gates compare outcomes and per-track iteration
//! counts, which a solve that stopped refilling freed lanes, or that sent
//! lanes back to its scalar code, would still reproduce: it would only
//! run slower. These tests pin both down on the frontend's own track
//! sets.
//!
//! * Occupancy: the solve's LSS lane slots must be at least 90 % busy,
//!   where occupancy is the sum of the per-track iteration counts over
//!   `KLT_LANES ×` the batch iterations run. Fixed batches of eight,
//!   whose converged lanes idle until the slowest lane of the batch
//!   finishes, measured 40 % over 99 frame pairs of these scenes; lane
//!   refill measured 97 %.
//! * Coverage: on AVX2 hosts no lane may run the scalar DC and no lane
//!   row the scalar LSS row, since every coordinate here is finite.
//!   Kernels that sent border and inexact-tap lanes to scalar code ran
//!   692 of these frames' 8367 DC lanes (8.3 %) and 15 854 of their
//!   610 455 LSS lane rows (2.6 %) there.
//! * Row loads: on AVX2 hosts at least three quarters of the DC grid rows
//!   and of the LSS window rows must take the row-load sampler, not the
//!   clamped one. A kernel that gathered every row (as the tap-pair
//!   sampler did) would give the same bits, only slower.

use eudoxus_frontend::{track_pyramidal_into, Frontend, FrontendConfig, KltScratch, KLT_LANES};
use eudoxus_image::isa::Isa;
use eudoxus_image::Pyramid;
use eudoxus_sim::{Platform, ScenarioBuilder, ScenarioKind};

/// Tracks the frontend's live track set of every drone frame pair of
/// three scenes (outdoor, indoor, mixed; seed 7) into the next frame,
/// calling `visit` with the scratch after each call.
fn each_drone_frame_pair(mut visit: impl FnMut(&KltScratch)) {
    let cfg = FrontendConfig::default();
    let mut scratch = KltScratch::default();
    let mut outcomes = Vec::new();
    for kind in [
        ScenarioKind::OutdoorUnknown,
        ScenarioKind::IndoorUnknown,
        ScenarioKind::Mixed,
    ] {
        let data = ScenarioBuilder::new(kind)
            .frames(4)
            .seed(7)
            .platform(Platform::Drone)
            .build();
        let mut frontend = Frontend::new(cfg);
        for pair in data.frames.windows(2) {
            // The observations are the live tracks, in the order the
            // frontend hands them to the KLT on the next frame.
            let frame = frontend.process(&pair[0].left, &pair[0].right);
            let points: Vec<(f32, f32)> = frame.observations.iter().map(|o| (o.x, o.y)).collect();
            assert!(
                points.len() > 4 * KLT_LANES,
                "{kind:?}: only {} tracks",
                points.len()
            );
            let prev = Pyramid::build((*pair[0].left).clone(), cfg.klt.levels);
            let next = Pyramid::build((*pair[1].left).clone(), cfg.klt.levels);
            track_pyramidal_into(&prev, &next, &points, &cfg.klt, &mut scratch, &mut outcomes);
            visit(&scratch);
        }
    }
}

#[test]
fn klt_lane_occupancy_on_drone_frames() {
    let (mut lane_iterations, mut vector_iterations) = (0u64, 0u64);
    each_drone_frame_pair(|scratch| {
        lane_iterations += scratch
            .iteration_counts()
            .iter()
            .map(|&n| u64::from(n))
            .sum::<u64>();
        vector_iterations += scratch.lss_vector_iterations();
    });
    let occupancy = lane_iterations as f64 / (KLT_LANES as u64 * vector_iterations) as f64;
    eprintln!(
        "LSS lane occupancy {:.1} % ({lane_iterations} lane iterations in {vector_iterations} batch iterations)",
        100.0 * occupancy
    );
    assert!(
        occupancy >= 0.90,
        "LSS lane occupancy {:.1} % is below 90 %: freed lanes are not refilled",
        100.0 * occupancy
    );
}

#[test]
fn klt_vector_coverage_on_drone_frames() {
    if Isa::detect() == Isa::Portable {
        eprintln!("no AVX2 kernels on this host: every lane runs the portable batch, coverage not checked");
        return;
    }
    let (mut dc_lanes, mut lss_rows) = (0u64, 0u64);
    each_drone_frame_pair(|scratch| {
        dc_lanes += scratch.scalar_dc_lanes();
        lss_rows += scratch.scalar_lss_rows();
    });
    assert_eq!(
        (dc_lanes, lss_rows),
        (0, 0),
        "lanes with finite coordinates fell back to the scalar DC or LSS rows"
    );
}

#[test]
fn klt_row_load_coverage_on_drone_frames() {
    if Isa::detect() == Isa::Portable {
        eprintln!("no AVX2 kernels on this host: every lane runs the portable batch, row loads not checked");
        return;
    }
    let w = 2 * FrontendConfig::default().klt.window_radius as u64 + 1;
    let (mut dc_rows, mut dc_clamped) = (0u64, 0u64);
    let (mut lss_rows, mut lss_clamped) = (0u64, 0u64);
    each_drone_frame_pair(|scratch| {
        dc_rows += (w + 2) * scratch.dc_vector_batches();
        dc_clamped += scratch.clamped_dc_rows();
        lss_rows += w * scratch.lss_vector_iterations();
        lss_clamped += scratch.clamped_lss_rows();
    });
    let share = |clamped: u64, rows: u64| 100.0 * (rows - clamped) as f64 / rows as f64;
    eprintln!(
        "row loads: {:.1} % of {dc_rows} DC grid rows, {:.1} % of {lss_rows} LSS window rows",
        share(dc_clamped, dc_rows),
        share(lss_clamped, lss_rows)
    );
    assert!(
        4 * dc_clamped <= dc_rows,
        "{dc_clamped} of {dc_rows} DC grid rows ran on the clamped sampler"
    );
    assert!(
        4 * lss_clamped <= lss_rows,
        "{lss_clamped} of {lss_rows} LSS window rows ran on the clamped sampler"
    );
}
