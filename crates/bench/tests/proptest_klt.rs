//! Property-based bit-identity of the batched KLT solve.
//!
//! The golden tests (`bit_identity.rs`) pin the batched lane-parallel
//! solve to the seed scalar solve on rendered frames; these properties
//! sweep the input space the renderer never reaches: random window radii,
//! pyramid depths, iteration budgets (zero included), image sizes, and
//! track positions hugging (or beyond) the image border, with track
//! counts up to five batches, so lanes are refilled and the staging
//! batch restaged in the middle of a level. For every draw, the batched
//! [`track_pyramidal_into`] must reproduce the seed
//! [`track_pyramidal_baseline`] **bit for bit** — positions, residuals
//! and `TrackOutcome` variants — and must execute exactly the same LSS
//! iteration count per track as the scalar in-crate solve
//! ([`track_one_with`]).

use eudoxus_bench::assert_outcomes_bit_identical;
use eudoxus_bench::baseline::track_pyramidal_baseline;
use eudoxus_frontend::{
    track_one_with, track_pyramidal_into, KltConfig, KltScratch, KLT_LANES,
};
use eudoxus_image::{GrayImage, Pyramid};
use proptest::prelude::*;

/// A synthetic multi-frequency texture (same family as the renderer's
/// surfaces) shifted by `(sx, sy)` — enough gradient everywhere that
/// healthy windows solve, while `flat` carves a textureless patch to
/// exercise the degenerate mask.
fn textured(w: u32, h: u32, sx: f32, sy: f32, phase: f32, flat: bool) -> GrayImage {
    GrayImage::from_fn(w, h, |x, y| {
        if flat && x >= w / 3 && x < 2 * w / 3 && y >= h / 3 && y < 2 * h / 3 {
            return 127;
        }
        let u = x as f32 - sx;
        let v = y as f32 - sy;
        let val = 128.0
            + 52.0 * ((u * 0.33 + phase).sin() * (v * 0.27).cos())
            + 28.0 * ((u * 0.12 + v * 0.19 + phase).sin());
        val.clamp(0.0, 255.0) as u8
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random windows, depths, budgets and border-hugging positions:
    /// batched == seed scalar, bitwise, for every track count up to five
    /// batches and a zero budget (which still runs every track's DC at
    /// every level).
    #[test]
    fn batched_solve_is_bit_identical_to_seed(
        dims in (40u32..97, 40u32..97),
        shift in (-3.0f32..3.0, -3.0f32..3.0),
        phase in 0.0f32..6.4,
        radius in 2i64..8,
        levels in 1usize..4,
        max_iterations in 0usize..16,
        count in 1usize..(5 * KLT_LANES + 4),
        spread in (0.31f32..0.93, 0.17f32..0.81),
        flat in any::<bool>(),
    ) {
        let (w, h) = dims;
        let prev = textured(w, h, 0.0, 0.0, phase, flat);
        let next = textured(w, h, shift.0, shift.1, phase, flat);
        let cfg = KltConfig {
            window_radius: radius,
            levels,
            max_iterations,
            ..KltConfig::default()
        };
        // Deterministic position scatter that walks the whole frame,
        // including the border band and a margin beyond it (the solve
        // must clamp, never read out of bounds, and call them
        // OutOfBounds exactly like the seed).
        let points: Vec<(f32, f32)> = (0..count)
            .map(|i| {
                let fi = i as f32;
                let x = -4.0 + (fi * spread.0).fract() * (w as f32 + 8.0)
                    + (fi * 0.618).fract();
                let y = -4.0 + (fi * spread.1).fract() * (h as f32 + 8.0)
                    + (fi * 0.414).fract();
                (x, y)
            })
            .collect();

        let seed = track_pyramidal_baseline(&prev, &next, &points, &cfg);

        let prev_pyr = Pyramid::build(prev.clone(), cfg.levels);
        let next_pyr = Pyramid::build(next.clone(), cfg.levels);
        let mut scratch = KltScratch::default();
        let mut out = Vec::new();
        track_pyramidal_into(&prev_pyr, &next_pyr, &points, &cfg, &mut scratch, &mut out);
        assert_outcomes_bit_identical(&out, &seed, "batched vs seed");
        prop_assert_eq!(scratch.iteration_counts().len(), points.len());

        // Iteration counts: the batch must run exactly the scalar
        // solve's LSS iteration schedule for every track.
        let batch_iters: Vec<u32> = scratch.iteration_counts().to_vec();
        let mut scalar_scratch = KltScratch::default();
        for (i, &(x, y)) in points.iter().enumerate() {
            let scalar =
                track_one_with(&prev_pyr, &next_pyr, x, y, &cfg, &mut scalar_scratch);
            assert_outcomes_bit_identical(&[scalar], &[out[i]], "scalar vs batched");
            prop_assert_eq!(
                scalar_scratch.iteration_counts()[0],
                batch_iters[i],
                "iteration count of point {}",
                i
            );
        }
    }

    /// Warm-scratch determinism: re-running the same batch through a
    /// reused scratch (the frontend steady state) never drifts.
    #[test]
    fn warm_scratch_rerun_is_stable(
        dims in (48u32..80, 48u32..80),
        shift in (-2.0f32..2.0, -2.0f32..2.0),
        count in 1usize..(KLT_LANES + 3),
    ) {
        let (w, h) = dims;
        let prev = textured(w, h, 0.0, 0.0, 1.3, false);
        let next = textured(w, h, shift.0, shift.1, 1.3, false);
        let cfg = KltConfig::default();
        let prev_pyr = Pyramid::build(prev.clone(), cfg.levels);
        let next_pyr = Pyramid::build(next.clone(), cfg.levels);
        let points: Vec<(f32, f32)> = (0..count)
            .map(|i| (10.0 + 7.3 * i as f32, h as f32 - 12.0 - 5.1 * i as f32))
            .collect();
        let mut scratch = KltScratch::default();
        let mut out = Vec::new();
        track_pyramidal_into(&prev_pyr, &next_pyr, &points, &cfg, &mut scratch, &mut out);
        let first = out.clone();
        let first_iters = scratch.iteration_counts().to_vec();
        track_pyramidal_into(&prev_pyr, &next_pyr, &points, &cfg, &mut scratch, &mut out);
        assert_outcomes_bit_identical(&out, &first, "warm rerun");
        prop_assert_eq!(scratch.iteration_counts(), &first_iters[..]);
    }
}
