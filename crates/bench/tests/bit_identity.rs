//! Golden bit-identity: the optimized scratch/pyramid-cached frontend
//! must reproduce the seed implementation byte for byte.
//!
//! `eudoxus_bench::baseline` preserves the seed kernels and the seed
//! frontend verbatim; these tests drive both paths over rendered frames
//! of every scenario kind and compare outputs at the bit level. Together
//! with `tests/streaming_session.rs` at the workspace root (batch vs
//! stream vs `poll_parallel` RunLog equivalence), this pins the whole
//! optimization down: same poses, faster clock.

use eudoxus_bench::assert_outcomes_bit_identical;
use eudoxus_bench::baseline::{
    compute_orb_baseline, detect_fast_baseline, gaussian_blur_baseline, track_pyramidal_baseline,
    BaselineFrontend,
};
use eudoxus_frontend::{
    compute_orb, detect_fast_into, track_pyramidal_into, FastConfig, FastScratch, Frontend,
    FrontendConfig, KeyPoint, KltConfig, KltScratch, OrbConfig, KLT_LANES,
};
use eudoxus_image::{gaussian_blur_into, FilterScratch, GrayImage, Pyramid};
use eudoxus_sim::{Dataset, Platform, ScenarioBuilder, ScenarioKind};

/// Every scenario kind, the `Mixed` 50/25/25 evaluation set included.
const KINDS: [ScenarioKind; 5] = [
    ScenarioKind::OutdoorUnknown,
    ScenarioKind::OutdoorKnown,
    ScenarioKind::IndoorUnknown,
    ScenarioKind::IndoorKnown,
    ScenarioKind::Mixed,
];

fn dataset(kind: ScenarioKind, frames: usize) -> Dataset {
    ScenarioBuilder::new(kind)
        .frames(frames)
        .seed(17)
        .platform(Platform::Drone)
        .build()
}

#[test]
fn blur_kernel_matches_seed_bitwise() {
    let data = dataset(ScenarioKind::IndoorUnknown, 2);
    let mut scratch = FilterScratch::default();
    let mut out = GrayImage::default();
    for frame in &data.frames {
        for img in [&frame.left, &frame.right] {
            let seed = gaussian_blur_baseline(img, 1.2);
            gaussian_blur_into(img, 1.2, &mut scratch, &mut out);
            assert_eq!(seed, out, "blur differs from seed");
        }
    }
}

#[test]
fn fast_kernel_matches_seed_bitwise() {
    let data = dataset(ScenarioKind::OutdoorUnknown, 2);
    let cfg = FastConfig::default();
    let mut scratch = FastScratch::default();
    let mut out = Vec::new();
    for frame in &data.frames {
        for img in [&frame.left, &frame.right] {
            let seed = detect_fast_baseline(img, &cfg);
            detect_fast_into(img, &cfg, &mut scratch, &mut out);
            assert_eq!(seed.len(), out.len(), "keypoint count differs");
            for (a, b) in seed.iter().zip(&out) {
                assert_eq!(a.x.to_bits(), b.x.to_bits());
                assert_eq!(a.y.to_bits(), b.y.to_bits());
                assert_eq!(a.response.to_bits(), b.response.to_bits());
            }
        }
    }
}

#[test]
fn orb_kernel_matches_seed_bitwise() {
    // Descriptors on the blurred frames of every scenario kind, oriented
    // and plain, at the detector's integer corners and at sub-pixel
    // positions like the LK-tracked points the association loop
    // describes — including ones whose rounded centre sits on the
    // border margin.
    for kind in KINDS {
        let data = dataset(kind, 2);
        let frame = &data.frames[1];
        let blurred = gaussian_blur_baseline(&frame.left, 1.2);
        let corners = detect_fast_baseline(&frame.left, &FastConfig::default());
        assert!(corners.len() > 50, "{kind:?}: too few corners");
        let mut points: Vec<KeyPoint> = corners.iter().take(150).copied().collect();
        points.extend(corners.iter().take(150).enumerate().map(|(i, k)| {
            let fi = i as f32;
            KeyPoint::new(
                k.x + (fi * 0.618).fract() - 0.5,
                k.y - (fi * 0.414).fract() + 0.3,
                0.0,
            )
        }));
        let (w, h) = (blurred.width() as f32, blurred.height() as f32);
        for (x, y) in [
            (9.5, 40.25),
            (10.49, 11.7),
            (w - 10.51, h - 10.6),
            (w * 0.5, h - 10.5),
        ] {
            points.push(KeyPoint::new(x, y, 0.0));
        }
        let mut described = 0;
        for oriented in [true, false] {
            let cfg = OrbConfig { oriented };
            for kp in &points {
                let seed = compute_orb_baseline(&blurred, kp, &cfg);
                let live = compute_orb(&blurred, kp, &cfg);
                assert_eq!(
                    seed.map(|d| *d.words()),
                    live.map(|d| *d.words()),
                    "{kind:?} oriented={oriented} at ({}, {})",
                    kp.x,
                    kp.y
                );
                described += usize::from(seed.is_some());
            }
        }
        assert!(
            described > points.len(),
            "{kind:?}: most points must be described"
        );
    }
}

#[test]
fn klt_kernel_matches_seed_bitwise_across_all_scenario_kinds() {
    // The batched lane-parallel solve must reproduce the seed scalar
    // solve bit for bit on real rendered frames of every scenario kind,
    // and for track counts exercising the lane remainders: a lone lane,
    // a partial batch, exactly one full batch, and full-batches-plus-tail.
    for kind in KINDS {
        let data = dataset(kind, 3);
        let klt_cfg = KltConfig::default();
        let prev = &data.frames[0].left;
        let next = &data.frames[1].left;
        let kps = detect_fast_baseline(prev, &FastConfig::default());
        let points: Vec<(f32, f32)> = kps.iter().take(150).map(|k| (k.x, k.y)).collect();
        assert!(points.len() > 2 * KLT_LANES, "{kind:?}: too few corners");

        // Optimized path: cached/rebuilt pyramids + reused scratch.
        let mut prev_pyr = Pyramid::empty();
        prev_pyr.rebuild_from(prev, klt_cfg.levels);
        let mut next_pyr = Pyramid::empty();
        next_pyr.rebuild_from(next, klt_cfg.levels);
        let mut scratch = KltScratch::default();
        let mut out = Vec::new();

        for count in [1, KLT_LANES - 1, KLT_LANES, KLT_LANES + 1, points.len()] {
            let pts = &points[..count];
            let seed = track_pyramidal_baseline(prev, next, pts, &klt_cfg);
            track_pyramidal_into(&prev_pyr, &next_pyr, pts, &klt_cfg, &mut scratch, &mut out);
            assert_eq!(scratch.iteration_counts().len(), out.len());
            assert_outcomes_bit_identical(&out, &seed, &format!("{kind:?} n={count}"));
        }
    }
}

#[test]
fn full_frontend_matches_seed_across_all_scenario_kinds() {
    // The strongest frontend-level guarantee: observation streams —
    // track ids, positions, disparities, descriptors — are bit-identical
    // between the seed frontend (prev_left clone, two pyramid builds,
    // fresh buffers every frame) and the optimized one (scratch reuse,
    // one pyramid rebuild, cached template pyramid), across multiple
    // frames and a mid-stream reset of every scenario kind.
    for kind in KINDS {
        let data = dataset(kind, 4);
        let mut seed_fe = BaselineFrontend::new(FrontendConfig::default());
        let mut opt_fe = Frontend::new(FrontendConfig::default());
        for (i, frame) in data.frames.iter().enumerate() {
            if i == 2 {
                // Segment boundary behavior must match too.
                seed_fe.reset();
                opt_fe.reset();
            }
            let seed = seed_fe.process(&frame.left, &frame.right);
            let opt = opt_fe.process(&frame.left, &frame.right);
            assert_eq!(
                seed.observations.len(),
                opt.observations.len(),
                "{kind:?} frame {i}: observation count"
            );
            for (a, b) in seed.observations.iter().zip(&opt.observations) {
                assert_eq!(a.track_id, b.track_id, "{kind:?} frame {i}: track id");
                assert_eq!(a.x.to_bits(), b.x.to_bits(), "{kind:?} frame {i}: x");
                assert_eq!(a.y.to_bits(), b.y.to_bits(), "{kind:?} frame {i}: y");
                assert_eq!(
                    a.disparity.map(f32::to_bits),
                    b.disparity.map(f32::to_bits),
                    "{kind:?} frame {i}: disparity"
                );
                assert_eq!(
                    a.descriptor.words(),
                    b.descriptor.words(),
                    "{kind:?} frame {i}: descriptor"
                );
            }
            assert_eq!(seed.stats.keypoints_left, opt.stats.keypoints_left);
            assert_eq!(seed.stats.stereo_matches, opt.stats.stereo_matches);
            assert_eq!(seed.stats.tracks_continued, opt.stats.tracks_continued);
            assert_eq!(seed.stats.tracks_spawned, opt.stats.tracks_spawned);
            assert_eq!(seed.stats.tracks_lost, opt.stats.tracks_lost);
        }
    }
}
