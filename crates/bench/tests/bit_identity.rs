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

/// The `w × h` window of `img` whose top-left pixel is `(x0, y0)`.
fn crop(img: &GrayImage, x0: u32, y0: u32, w: u32, h: u32) -> GrayImage {
    GrayImage::from_fn(w, h, |x, y| img.get(x0 + x, y0 + y))
}

/// Odd windows `(x0, y0, w, h)`: widths around the AVX2 blur's minimum
/// `2r + 8` (10, 16 and 24 for the blur radii 1, 4 and 8 below), heights
/// around its minimum `2r + 1`, and sizes that leave a remainder of
/// every vector width.
const CROPS: [(u32, u32, u32, u32); 5] = [
    (1, 2, 13, 9),
    (37, 11, 17, 40),
    (5, 7, 41, 23),
    (100, 50, 333, 101),
    (211, 3, 429, 477),
];

#[test]
fn blur_kernel_matches_seed_bitwise() {
    // Both eyes of every scenario kind at the frontend's sigma, the left
    // eye also at a radius-1 and a radius-8 kernel, and odd crops at all
    // three.
    let mut scratch = FilterScratch::default();
    let mut out = GrayImage::default();
    for kind in KINDS {
        let data = dataset(kind, 1);
        let frame = &data.frames[0];
        let mut cases = vec![
            (frame.left.as_ref().clone(), 1.2),
            (frame.right.as_ref().clone(), 1.2),
        ];
        for sigma in [0.3, 1.2, 2.6] {
            if sigma != 1.2 {
                cases.push((frame.left.as_ref().clone(), sigma));
            }
            for (x0, y0, w, h) in CROPS {
                cases.push((crop(&frame.right, x0, y0, w, h), sigma));
            }
        }
        for (img, sigma) in &cases {
            let seed = gaussian_blur_baseline(img, *sigma);
            gaussian_blur_into(img, *sigma, &mut scratch, &mut out);
            assert_eq!(seed, out, "blur differs from seed");
        }
    }
}

#[test]
fn fast_kernel_matches_seed_bitwise() {
    // Both eyes of every scenario kind at the default threshold, the
    // left eye also at 0 (every compass pixel that differs counts) and
    // 255 (nothing passes), and odd crops at all three. A budget of 60
    // forces the bucketing path on the full frames.
    let mut scratch = FastScratch::default();
    let mut out = Vec::new();
    for kind in KINDS {
        let data = dataset(kind, 1);
        let frame = &data.frames[0];
        let mut cases = Vec::new();
        for threshold in [0, 22, 255] {
            let cfg = FastConfig {
                threshold,
                ..FastConfig::default()
            };
            cases.push((frame.left.as_ref().clone(), cfg));
            if threshold == 22 {
                cases.push((frame.right.as_ref().clone(), cfg));
                let tight = FastConfig {
                    max_keypoints: 60,
                    ..cfg
                };
                cases.push((frame.right.as_ref().clone(), tight));
            }
            for (x0, y0, w, h) in CROPS {
                cases.push((crop(&frame.left, x0, y0, w, h), cfg));
            }
        }
        for (img, cfg) in &cases {
            let seed = detect_fast_baseline(img, cfg);
            detect_fast_into(img, cfg, &mut scratch, &mut out);
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
fn fast_kernel_matches_seed_at_minimum_size_and_odd_widths() {
    // The smallest image the detector scans (8×8, a 2×2 interior) and
    // every width up to 45, so the interior width `w − 6` takes every
    // remainder of the 8-byte mask walk and of any vector width, cut
    // from a textured frame at several offsets.
    let data = dataset(ScenarioKind::IndoorUnknown, 1);
    let frame = &data.frames[0].left;
    let mut scratch = FastScratch::default();
    let mut out = Vec::new();
    let mut found = 0;
    for threshold in [0, 22] {
        let cfg = FastConfig {
            threshold,
            ..FastConfig::default()
        };
        for w in 8..=45 {
            for h in [8, 9, 14] {
                for (x0, y0) in [(0, 0), (301, 207), (577, 460)] {
                    let img = crop(frame, x0.min(640 - w), y0.min(480 - h), w, h);
                    let seed = detect_fast_baseline(&img, &cfg);
                    detect_fast_into(&img, &cfg, &mut scratch, &mut out);
                    let bits = |k: &KeyPoint| (k.x.to_bits(), k.y.to_bits(), k.response.to_bits());
                    assert!(
                        seed.iter().map(bits).eq(out.iter().map(bits)),
                        "{w}x{h} at ({x0}, {y0}), threshold {threshold}"
                    );
                    found += seed.len();
                }
            }
        }
    }
    assert!(found > 100, "the windows must hold corners ({found})");
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
    // and for track counts from a lone lane through partial and whole
    // batches to enough tracks that lanes are refilled mid-level.
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

        for count in [
            1,
            KLT_LANES - 1,
            KLT_LANES,
            KLT_LANES + 1,
            2 * KLT_LANES + 1,
            3 * KLT_LANES,
            points.len(),
        ] {
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
