//! AVX2 kernels of the batched KLT solve.
//!
//! One `__m256` holds the eight lanes of a [`TrackBatch`]: lane `l` of
//! every vector is track `l`, so each vector operation advances all
//! eight tracks by the same step of the scalar solve. Every lane runs
//! exactly the scalar operation sequence: `mul` and `add` stay separate
//! (no FMA), sums keep the scalar left-to-right order, and the truncating
//! cast appears only where the interior proof gives `x ≥ 0`. Each lane is
//! therefore bit-identical to [`dc_window`](super::dc_window) and to the
//! per-lane LSS rows. A lane these kernels cannot prove interior, or
//! whose `±1` exactness proof fails, runs the scalar code instead.
//!
//! Masked lanes (converged, degenerate, padding) still occupy their slot
//! of every vector: the gathers skip them, the arithmetic does not.

use super::{lss_lane_row, TrackBatch, KLT_LANES};
use eudoxus_image::isa::Avx2;
use eudoxus_image::FloatImage;
use std::arch::x86_64::*;

const _: () = assert!(KLT_LANES == 8, "one __m256 holds the lanes of a batch");

/// A plane the kernels can gather from: every flat index fits `i32` and
/// both coordinate bounds are exact in `f32`.
#[derive(Clone, Copy)]
struct Plane<'a> {
    raw: &'a [f32],
    width: i32,
    /// `width - 1`: a coordinate `x ≥ 0` has `floor(x) ≤ width - 2` (an
    /// interior tap pair) iff `x < x_end`.
    x_end: f32,
    /// `height - 1`, the same bound for rows.
    y_end: f32,
}

impl<'a> Plane<'a> {
    fn new(img: &'a FloatImage) -> Option<Self> {
        let (w, h) = (u64::from(img.width()), u64::from(img.height()));
        let exact = 2..1 << 24;
        (exact.contains(&w) && exact.contains(&h) && w * h <= i32::MAX as u64).then(|| Plane {
            raw: img.as_raw(),
            width: w as i32,
            x_end: (w - 1) as f32,
            y_end: (h - 1) as f32,
        })
    }
}

/// DC phase of every live lane whose extended `(w+2)²` grid is interior
/// on `prev` and whose `±1` gradient taps provably equal grid positions.
/// Returns the bit mask of those lanes (bit `l` is lane `l`; zero when
/// no lane qualifies, and then `b` is untouched). Otherwise writes the
/// template, gradients, column positions and structure tensor (`a11`,
/// `a12`, `a22`) into all eight lane slots of `b`; the slots of live
/// lanes outside the mask hold garbage until the caller runs
/// `dc_window` for them.
pub(super) fn dc_lanes(_: Avx2, prev: &FloatImage, r: i64, b: &mut TrackBatch) -> u32 {
    match Plane::new(prev) {
        // SAFETY: the `Avx2` token proves the CPU supports AVX2.
        Some(plane) => unsafe { dc_lanes_avx2(plane, r, b) },
        None => 0,
    }
}

/// One LSS iteration of the batch: `(b1, b2, res)` per lane, as
/// `lss_batch_iteration` computes them.
pub(super) fn lss_iteration(
    _: Avx2,
    next: &FloatImage,
    b: &TrackBatch,
    w: usize,
    r: i64,
) -> ([f32; KLT_LANES], [f32; KLT_LANES], [f32; KLT_LANES]) {
    match Plane::new(next) {
        // SAFETY: the `Avx2` token proves the CPU supports AVX2.
        Some(plane) => unsafe { lss_iteration_avx2(plane, next, b, w, r) },
        None => super::lss_batch_iteration(next, b, w, r),
    }
}

#[target_feature(enable = "avx2")]
fn dc_lanes_avx2(p: Plane, r: i64, b: &mut TrackBatch) -> u32 {
    let w = (2 * r + 1) as usize;
    let we = w + 2;
    let px = load(&b.px, 0);
    let py = load(&b.py, 0);
    let zero = _mm256_setzero_ps();
    let one = _mm256_set1_ps(1.0);

    // Interior proof for the whole grid: `p + d` and `floor` are
    // monotone in `d`, so the corner samples bound every row and column.
    let (lo, hi) = (-(r + 1), r + 1);
    let mut ok = lane_mask(&b.live);
    ok = _mm256_and_ps(ok, _mm256_cmp_ps::<_CMP_GE_OQ>(offset(px, lo), zero));
    ok = _mm256_and_ps(
        ok,
        _mm256_cmp_ps::<_CMP_LT_OQ>(offset(px, hi), _mm256_set1_ps(p.x_end)),
    );
    ok = _mm256_and_ps(ok, _mm256_cmp_ps::<_CMP_GE_OQ>(offset(py, lo), zero));
    ok = _mm256_and_ps(
        ok,
        _mm256_cmp_ps::<_CMP_LT_OQ>(offset(py, hi), _mm256_set1_ps(p.y_end)),
    );
    // Exactness: the scalar DC takes a `±1` tap from the grid only where
    // `t ± 1.0 == p + (d ± 1)`; a lane qualifies when every column and
    // every row passes, so it never consults a fallback sampler.
    for d in -r..=r {
        for v in [px, py] {
            let t = offset(v, d);
            ok = _mm256_and_ps(
                ok,
                _mm256_cmp_ps::<_CMP_EQ_OQ>(_mm256_add_ps(t, one), offset(v, d + 1)),
            );
            ok = _mm256_and_ps(
                ok,
                _mm256_cmp_ps::<_CMP_EQ_OQ>(_mm256_sub_ps(t, one), offset(v, d - 1)),
            );
        }
    }
    let bits = _mm256_movemask_ps(ok) as u32;
    if bits == 0 {
        return 0;
    }

    b.grid.resize(we * we * KLT_LANES, 0.0);
    let width = _mm256_set1_epi32(p.width);
    for (erow, edy) in (lo..=hi).enumerate() {
        let (row0, fy) = row_state(offset(py, edy), width);
        for (ecol, edx) in (lo..=hi).enumerate() {
            // SAFETY: every lane in `ok` passed the corner proof, which
            // bounds `py + edy` and `px + edx` inside the plane.
            let v = unsafe { sample(p, row0, fy, offset(px, edx), ok) };
            store(&mut b.grid, erow * we + ecol, v);
        }
    }

    let half = _mm256_set1_ps(0.5);
    let (mut a11, mut a12, mut a22) = (zero, zero, zero);
    for row in 0..w {
        for col in 0..w {
            let e = (row + 1) * we + col + 1;
            let t = load(&b.grid, e);
            let ix = _mm256_mul_ps(
                _mm256_sub_ps(load(&b.grid, e + 1), load(&b.grid, e - 1)),
                half,
            );
            let iy = _mm256_mul_ps(
                _mm256_sub_ps(load(&b.grid, e + we), load(&b.grid, e - we)),
                half,
            );
            let slot = row * w + col;
            store(&mut b.template, slot, t);
            store(&mut b.grad_x, slot, ix);
            store(&mut b.grad_y, slot, iy);
            a11 = _mm256_add_ps(a11, _mm256_mul_ps(ix, ix));
            a12 = _mm256_add_ps(a12, _mm256_mul_ps(ix, iy));
            a22 = _mm256_add_ps(a22, _mm256_mul_ps(iy, iy));
        }
    }
    for (col, dx) in (-r..=r).enumerate() {
        store(&mut b.txs, col, offset(px, dx));
    }

    store(&mut b.a11, 0, a11);
    store(&mut b.a12, 0, a12);
    store(&mut b.a22, 0, a22);
    bits
}

#[target_feature(enable = "avx2")]
fn lss_iteration_avx2(
    p: Plane,
    next: &FloatImage,
    b: &TrackBatch,
    w: usize,
    r: i64,
) -> ([f32; KLT_LANES], [f32; KLT_LANES], [f32; KLT_LANES]) {
    let active = lane_mask(&b.iterating);
    let active_bits = _mm256_movemask_ps(active);
    let gx = load(&b.gx, 0);
    let gy = load(&b.gy, 0);
    let py = load(&b.py, 0);
    let zero = _mm256_setzero_ps();
    let abs = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFF_FFFF));
    let width = _mm256_set1_epi32(p.width);
    let y_end = _mm256_set1_ps(p.y_end);
    // Every row samples the same column run, whose endpoints bound it.
    let first = _mm256_add_ps(load(&b.txs, 0), gx);
    let last = _mm256_add_ps(load(&b.txs, w - 1), gx);
    let run = _mm256_and_ps(
        active,
        _mm256_and_ps(
            _mm256_cmp_ps::<_CMP_GE_OQ>(first, zero),
            _mm256_cmp_ps::<_CMP_LT_OQ>(last, _mm256_set1_ps(p.x_end)),
        ),
    );

    let mut sums = [[0.0f32; KLT_LANES]; 3];
    let (mut b1, mut b2, mut res) = (zero, zero, zero);
    for (row, dy) in (-r..=r).enumerate() {
        // Same association as the scalar path: `(py + dy) + gy`.
        let y = _mm256_add_ps(offset(py, dy), gy);
        let interior = _mm256_and_ps(
            run,
            _mm256_and_ps(
                _mm256_cmp_ps::<_CMP_GE_OQ>(y, zero),
                _mm256_cmp_ps::<_CMP_LT_OQ>(y, y_end),
            ),
        );
        let bits = _mm256_movemask_ps(interior);
        let fallback = active_bits & !bits;
        if fallback != 0 {
            // Keep the pre-row sums of the lanes the scalar row serves.
            store(&mut sums[0], 0, b1);
            store(&mut sums[1], 0, b2);
            store(&mut sums[2], 0, res);
        }
        if bits != 0 {
            let (row0, fy) = row_state(y, width);
            for col in 0..w {
                let x = _mm256_add_ps(load(&b.txs, col), gx);
                // SAFETY: lanes in `interior` have `0 ≤ y < height - 1`
                // and their column run (which contains `x`) inside
                // `[0, width - 1)`.
                let s = unsafe { sample(p, row0, fy, x, interior) };
                let pix = row * w + col;
                let it = _mm256_sub_ps(s, load(&b.template, pix));
                b1 = _mm256_add_ps(b1, _mm256_mul_ps(it, load(&b.grad_x, pix)));
                b2 = _mm256_add_ps(b2, _mm256_mul_ps(it, load(&b.grad_y, pix)));
                res = _mm256_add_ps(res, _mm256_and_ps(it, abs));
            }
        }
        if fallback != 0 {
            let mut ys = [0.0f32; KLT_LANES];
            store(&mut ys, 0, y);
            let saved = sums;
            store(&mut sums[0], 0, b1);
            store(&mut sums[1], 0, b2);
            store(&mut sums[2], 0, res);
            for l in (0..KLT_LANES).filter(|l| fallback & (1 << l) != 0) {
                let acc = (saved[0][l], saved[1][l], saved[2][l]);
                (sums[0][l], sums[1][l], sums[2][l]) = lss_lane_row(next, b, l, row, ys[l], w, acc);
            }
            b1 = load(&sums[0], 0);
            b2 = load(&sums[1], 0);
            res = load(&sums[2], 0);
        }
    }
    store(&mut sums[0], 0, b1);
    store(&mut sums[1], 0, b2);
    store(&mut sums[2], 0, res);
    (sums[0], sums[1], sums[2])
}

/// All-ones lanes where `flags` is set.
#[inline]
#[target_feature(enable = "avx2")]
fn lane_mask(flags: &[bool; KLT_LANES]) -> __m256 {
    let m: [i32; KLT_LANES] = flags.map(|f| -i32::from(f));
    // SAFETY: `m` holds eight `i32`s, one unaligned 256-bit load.
    _mm256_castsi256_ps(unsafe { _mm256_loadu_si256(m.as_ptr().cast()) })
}

/// `v + d` on every lane, `d` converted as the scalar code converts it.
#[inline]
#[target_feature(enable = "avx2")]
fn offset(v: __m256, d: i64) -> __m256 {
    _mm256_add_ps(v, _mm256_set1_ps(d as f32))
}

/// Lane vector `k` of a lane-interleaved buffer.
#[inline]
#[target_feature(enable = "avx2")]
fn load(buf: &[f32], k: usize) -> __m256 {
    let lanes = &buf[k * KLT_LANES..][..KLT_LANES];
    // SAFETY: `lanes` is a bounds-checked slice of eight `f32`s.
    unsafe { _mm256_loadu_ps(lanes.as_ptr()) }
}

/// Stores lane vector `k` of a lane-interleaved buffer.
#[inline]
#[target_feature(enable = "avx2")]
fn store(buf: &mut [f32], k: usize, v: __m256) {
    let lanes = &mut buf[k * KLT_LANES..][..KLT_LANES];
    // SAFETY: `lanes` is a bounds-checked slice of eight `f32`s.
    unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), v) }
}

/// Row state at heights `y`, as `RowSampler::new` computes it: the flat
/// index of `(0, floor(y))` and `fy = y - floor(y)`. Meaningful only on
/// lanes with `0 ≤ y < height - 1`.
#[inline]
#[target_feature(enable = "avx2")]
fn row_state(y: __m256, width: __m256i) -> (__m256i, __m256) {
    let y0 = _mm256_floor_ps(y);
    let row0 = _mm256_mullo_epi32(_mm256_cvttps_epi32(y0), width);
    (row0, _mm256_sub_ps(y, y0))
}

/// Bilinear samples at `x` on the rows of `row_state`, gathered only for
/// lanes in `mask` (the others read nothing and hold garbage). Identical
/// arithmetic to `RowSampler::sample_interior`: the truncating cast is
/// `floor` for the proven `x ≥ 0`, and the taps combine as
/// `p00·(1−fx)·(1−fy) + p10·fx·(1−fy) + p01·(1−fx)·fy + p11·fx·fy`,
/// left to right.
///
/// Each gather element is a 64-bit tap pair (`p00, p10` on the row,
/// `p01, p11` below it), so four 4-element gathers fetch the 32 taps.
/// Lanes (0, 1, 4, 5) and (2, 3, 6, 7) are gathered together, which lets
/// the in-lane even/odd shuffles return every tap in lane order.
///
/// # Safety
///
/// Every lane in `mask` must have `0 ≤ x < width - 1`, and its row must
/// come from a height `0 ≤ y < height - 1`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn sample(p: Plane, row0: __m256i, fy: __m256, x: __m256, mask: __m256) -> __m256 {
    let x0 = _mm256_cvttps_epi32(x);
    let fx = _mm256_sub_ps(x, _mm256_cvtepi32_ps(x0));
    let one = _mm256_set1_ps(1.0);
    let (cx, cy) = (_mm256_sub_ps(one, fx), _mm256_sub_ps(one, fy));

    let order = _mm256_setr_epi32(0, 1, 4, 5, 2, 3, 6, 7);
    let idx = _mm256_permutevar8x32_epi32(_mm256_add_epi32(row0, x0), order);
    let mask = _mm256_permutevar8x32_epi32(_mm256_castps_si256(mask), order);
    let (idx_a, idx_b) = (
        _mm256_castsi256_si128(idx),
        _mm256_extracti128_si256::<1>(idx),
    );
    let mask_a = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(mask));
    let mask_b = _mm256_cvtepi32_epi64(_mm256_extracti128_si256::<1>(mask));
    let zero = _mm256_setzero_si256();
    let row = p.raw.as_ptr();
    // SAFETY (caller): `idx = floor(y)·width + floor(x)` with
    // `floor(x) ≤ width - 2` and `floor(y) ≤ height - 2`, so the pairs at
    // `idx` and `idx + width` lie in the plane; `row + width` stays inside
    // it because `height ≥ 2`.
    let (top_a, top_b, bot_a, bot_b) = unsafe {
        let below = row.add(p.width as usize);
        (
            _mm256_mask_i32gather_epi64::<4>(zero, row.cast(), idx_a, mask_a),
            _mm256_mask_i32gather_epi64::<4>(zero, row.cast(), idx_b, mask_b),
            _mm256_mask_i32gather_epi64::<4>(zero, below.cast(), idx_a, mask_a),
            _mm256_mask_i32gather_epi64::<4>(zero, below.cast(), idx_b, mask_b),
        )
    };
    let (top_a, top_b) = (_mm256_castsi256_ps(top_a), _mm256_castsi256_ps(top_b));
    let (bot_a, bot_b) = (_mm256_castsi256_ps(bot_a), _mm256_castsi256_ps(bot_b));
    let p00 = _mm256_shuffle_ps::<0b10_00_10_00>(top_a, top_b);
    let p10 = _mm256_shuffle_ps::<0b11_01_11_01>(top_a, top_b);
    let p01 = _mm256_shuffle_ps::<0b10_00_10_00>(bot_a, bot_b);
    let p11 = _mm256_shuffle_ps::<0b11_01_11_01>(bot_a, bot_b);

    let s = _mm256_mul_ps(_mm256_mul_ps(p00, cx), cy);
    let s = _mm256_add_ps(s, _mm256_mul_ps(_mm256_mul_ps(p10, fx), cy));
    let s = _mm256_add_ps(s, _mm256_mul_ps(_mm256_mul_ps(p01, cx), fy));
    _mm256_add_ps(s, _mm256_mul_ps(_mm256_mul_ps(p11, fx), fy))
}
