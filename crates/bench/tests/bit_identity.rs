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
    compute_orb_baseline, detect_fast_baseline, downsample_2x_baseline, gaussian_blur_baseline,
    match_stereo_baseline, track_pyramidal_baseline, BaselineFrontend,
};
use eudoxus_frontend::{
    compute_orb, detect_fast_into, match_stereo, track_pyramidal_into, FastConfig, FastScratch,
    Feature, Frontend, FrontendConfig, KeyPoint, KltConfig, KltScratch, OrbConfig, OrbDescriptor,
    StereoMatch, TrackOutcome, KLT_LANES,
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
fn downsample_kernel_matches_seed_bitwise() {
    // The pyramid step against the seed's clamped per-pixel loop: every
    // size from 1×1 to 39×19 (odd, even and one-pixel sides) cut from a
    // rendered frame, saturated content, and both full frames of every
    // scenario kind. The `_into` form reuses one buffer throughout, as a
    // pyramid level is reused, holding the previous check's pixels.
    let mut warm = GrayImage::filled(320, 240, 3);
    let mut check = |img: &GrayImage, what: &str| {
        let seed = downsample_2x_baseline(img);
        assert!(img.downsample_2x() == seed, "{what}: downsample_2x");
        img.downsample_2x_into(&mut warm);
        assert!(warm == seed, "{what}: downsample_2x_into");
    };
    let data = dataset(ScenarioKind::Mixed, 1);
    let frame = &data.frames[0].left;
    for w in 1..=39 {
        for h in 1..=19 {
            check(&crop(frame, 301, 207, w, h), &format!("{w}x{h} crop"));
        }
    }
    for (w, h) in [(1, 1), (1, 6), (7, 1), (8, 8), (9, 5)] {
        check(&GrayImage::filled(w, h, 255), &format!("{w}x{h} saturated"));
    }
    for kind in KINDS {
        let data = dataset(kind, 1);
        check(&data.frames[0].left, &format!("{kind:?} left"));
        check(&data.frames[0].right, &format!("{kind:?} right"));
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
fn zero_budget_stages_every_batch_like_the_seed() {
    // With `max_iterations: 0` no track ever takes an LSS lane, yet the
    // solve must still stage every track of every level: the DC phase is
    // what flags a degenerate track. Four batches and a tail, with tracks
    // on a flat patch (degenerate at the coarsest level) in lanes past
    // the first eight; a level that stopped staging after its first
    // batch would report those tracks lost instead.
    let data = dataset(ScenarioKind::Mixed, 2);
    let flat = |img: &GrayImage| {
        let mut img = img.clone();
        for y in 140..340 {
            for x in 200..440 {
                img.put(x, y, 120);
            }
        }
        img
    };
    let prev = flat(&data.frames[0].left);
    let next = flat(&data.frames[1].left);
    let corners = detect_fast_baseline(&prev, &FastConfig::default());
    let count = 4 * KLT_LANES + 3;
    assert!(corners.len() >= count, "too few corners");
    let points: Vec<(f32, f32)> = (0..count)
        .map(|i| {
            let fi = i as f32;
            if i >= KLT_LANES && i % 3 == 0 {
                (300.0 + 1.5 * fi, 220.0 + 0.75 * fi)
            } else {
                (corners[i].x, corners[i].y)
            }
        })
        .collect();
    let cfg = KltConfig {
        max_iterations: 0,
        ..KltConfig::default()
    };
    let seed = track_pyramidal_baseline(&prev, &next, &points, &cfg);
    assert!(
        seed[KLT_LANES..].contains(&TrackOutcome::Degenerate),
        "fixture must put degenerate tracks past the first batch: {seed:?}"
    );

    let (mut prev_pyr, mut next_pyr) = (Pyramid::empty(), Pyramid::empty());
    prev_pyr.rebuild_from(&prev, cfg.levels);
    next_pyr.rebuild_from(&next, cfg.levels);
    let mut scratch = KltScratch::default();
    let mut out = Vec::new();
    track_pyramidal_into(&prev_pyr, &next_pyr, &points, &cfg, &mut scratch, &mut out);
    assert_outcomes_bit_identical(&out, &seed, "zero budget");
    // The seed solve runs no LSS iteration on a zero budget.
    assert_eq!(scratch.iteration_counts(), &vec![0; count][..]);
}

/// The seed FAST corners of `img`, described by the seed ORB on its
/// blurred copy, as `BaselineFrontend` computes its features.
fn seed_features(img: &GrayImage, cfg: &FrontendConfig) -> Vec<Feature> {
    let blurred = gaussian_blur_baseline(img, cfg.tuning.blur_sigma);
    detect_fast_baseline(img, &cfg.fast)
        .iter()
        .filter_map(|kp| {
            compute_orb_baseline(&blurred, kp, &cfg.orb).map(|descriptor| Feature {
                keypoint: *kp,
                descriptor,
            })
        })
        .collect()
}

#[test]
fn stereo_kernel_matches_seed_bitwise() {
    // The seed matcher (bilinear SADs for every refinement) against the
    // live one on every scenario kind: the seed FAST + ORB features of
    // both eyes (integer key points: the integer SADs), the left ones
    // shifted by 0.25 px (sub-pixel: the bilinear SADs), and matched
    // pairs within `block_radius` of every border and corner, whose
    // blocks are clamped. The border pairs also run on a noisy copy of
    // the left eye and that copy moved 3 px left: rendered frames can be
    // smooth at the border, where a wrong clamp would read equal pixels,
    // and the true disparity keeps the parabola's offset off its ±0.5
    // clamp, so any change to a SAD shows. Every `StereoMatch` field must
    // agree, the disparity bit for bit.
    let cfg = FrontendConfig::default();
    let fields = |m: &StereoMatch| {
        (
            m.left_index,
            m.right_index,
            m.disparity.to_bits(),
            m.distance,
        )
    };
    for kind in KINDS {
        let data = dataset(kind, 1);
        let frame = &data.frames[0];
        let (left_img, right_img) = (frame.left.as_ref(), frame.right.as_ref());
        let left = seed_features(left_img, &cfg);
        let right = seed_features(right_img, &cfg);
        let shifted: Vec<Feature> = left
            .iter()
            .map(|f| {
                let mut f = *f;
                f.keypoint.x += 0.25;
                f
            })
            .collect();

        // Each border pair shares a descriptor no other feature has, at
        // disparity 3.
        let (w, h) = (left_img.width() as f32, left_img.height() as f32);
        let (mut border_left, mut border_right) = (Vec::new(), Vec::new());
        for k in 0..=cfg.stereo.block_radius {
            let k = k as f32;
            for (x, y) in [
                (k, h * 0.5),
                (w - 1.0 - k, h * 0.3),
                (w * 0.5, k),
                (w * 0.3, h - 1.0 - k),
                (k, k),
                (w - 1.0 - k, h - 1.0 - k),
            ] {
                let descriptor = OrbDescriptor::from_words([border_left.len() as u64; 4]);
                border_left.push(Feature {
                    keypoint: KeyPoint::new(x, y, 0.0),
                    descriptor,
                });
                border_right.push(Feature {
                    keypoint: KeyPoint::new(x - 3.0, y, 0.0),
                    descriptor,
                });
            }
        }

        let noisy = GrayImage::from_fn(left_img.width(), left_img.height(), |x, y| {
            let hash = (x.wrapping_mul(7919) ^ y.wrapping_mul(104_729)).wrapping_mul(2_654_435_761);
            left_img.get(x, y).wrapping_add((hash >> 26) as u8)
        });
        let moved = GrayImage::from_fn(noisy.width(), noisy.height(), |x, y| {
            noisy.get((x + 3).min(noisy.width() - 1), y)
        });

        let eyes = (left_img, right_img);
        for (what, l, r, (li, ri)) in [
            ("seed features", &left, &right, eyes),
            ("shifted 0.25 px", &shifted, &right, eyes),
            ("border pairs", &border_left, &border_right, eyes),
            (
                "noisy border pairs",
                &border_left,
                &border_right,
                (&noisy, &moved),
            ),
        ] {
            let seed = match_stereo_baseline(l, r, li, ri, &cfg.stereo);
            let live = match_stereo(l, r, li, ri, &cfg.stereo);
            assert!(
                seed.len() > 10,
                "{kind:?} {what}: only {} matches",
                seed.len()
            );
            assert_eq!(seed.len(), live.len(), "{kind:?} {what}: match count");
            for (i, (a, b)) in seed.iter().zip(&live).enumerate() {
                assert_eq!(fields(a), fields(b), "{kind:?} {what}: match {i}");
            }
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
