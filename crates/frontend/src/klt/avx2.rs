//! AVX2 kernels of the batched KLT solve.
//!
//! One `__m256` holds the eight lanes of a [`TrackBatch`]: lane `l` of
//! every vector is the track in lane `l`, so each vector operation
//! advances all eight tracks by the same step of the scalar solve. Every
//! lane runs exactly the scalar operation sequence: `mul` and `add` stay
//! separate (no FMA), sums keep the scalar left-to-right order, and each
//! bilinear sample takes the taps `FloatImage::sample_bilinear` takes.
//! Each lane is therefore bit-identical to [`dc_window`](super::dc_window)
//! and to the per-lane LSS rows.
//!
//! Two samplers serve the lanes, row by row. A DC grid row or LSS window
//! row takes row loads ([`sample_row`]) when every live lane is interior
//! on it (`0 ≤ y < height − 1`, its column run inside
//! `[0, width − 1)`) and its column run is regular
//! (`trunc(x_c) == trunc(x_0) + c` for every column `c`). `x` does not
//! depend on the row, so the run's regularity and its fractional offsets
//! are worked out once per DC batch and once per LSS iteration
//! ([`row_runs`]). On such a row column `c`'s taps are the `c`-th
//! elements of the lane's two tap rows and their `+1` shifts, so each
//! lane loads them with contiguous 8-wide loads, forms eight samples at
//! once, and one 8 × 8 transpose per eight columns returns the samples to
//! the lane-interleaved layout the unchanged accumulation reads. The last
//! block of a run whose width is no multiple of eight loads with only its
//! columns masked in, so no lane reads past its last tap, at any window
//! radius. Every other row runs the clamped sampler
//! ([`sample_clamped`]): `floor`, then every tap index clamped to the
//! plane in `f32` before the truncating cast, so each index stays in
//! bounds at any coordinate, NaN included, and the taps are the ones the
//! scalar clamp picks. The clamped sampler alone would give the same bits
//! everywhere, but on interior lanes the row loads are faster (see "The
//! row-load sampler" in the frontend README). The DC kernel also gathers
//! the direct `t ± 1` gradient taps of the lanes whose `±1` exactness
//! proof fails, column by column and row by row, and blends them in. Only
//! a lane with a non-finite coordinate runs the scalar DC or LSS rows, so
//! NaN and infinity payloads never meet a vector instruction. A plane one
//! pixel wide or high is no [`Plane`]: its lanes run the scalar DC and
//! the portable LSS batch.
//!
//! A free lane still occupies its slot of every vector: the loads and
//! gathers skip it, the arithmetic does not. The solve refills a lane as
//! soon as its track leaves, so free LSS lanes occur only in a level's
//! tail.

use super::{lss_lane_row, TrackBatch, KLT_LANES};
use eudoxus_image::isa::Avx2;
use eudoxus_image::FloatImage;
use std::arch::x86_64::*;

const _: () = assert!(KLT_LANES == 8, "one __m256 holds the lanes of a batch");

/// A plane the kernels can sample: at least two pixels each way (so an
/// interior tap's row below exists), every flat index fits `i32` and both
/// coordinate bounds are exact in `f32`. Lanes on any other plane run
/// the scalar DC and the portable LSS batch.
#[derive(Clone, Copy)]
struct Plane<'a> {
    raw: &'a [f32],
    width: i32,
    /// `width - 1`: the last column, and for `x ≥ 0`, `floor(x) ≤
    /// width - 2` (an interior tap) iff `x < x_end`.
    x_end: f32,
    /// `height - 1`, the same for rows.
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

/// DC phase of every live lane whose position is finite. Returns the bit
/// mask of those lanes (bit `l` is lane `l`; zero when no lane
/// qualifies or `prev` is no [`Plane`], and then `b` is untouched). Otherwise writes the template,
/// gradients, column positions and structure tensor (`a11`, `a12`,
/// `a22`) into all eight lane slots of `b`; the slots of live lanes
/// outside the mask hold garbage until the caller runs `dc_window` for
/// them.
pub(super) fn dc_lanes(
    _: Avx2,
    prev: &FloatImage,
    r: i64,
    b: &mut TrackBatch,
    clamped_rows: &mut u64,
) -> u32 {
    match Plane::new(prev) {
        // SAFETY: the `Avx2` token proves the CPU supports AVX2.
        Some(plane) => unsafe { dc_lanes_avx2(plane, r, b, clamped_rows) },
        None => 0,
    }
}

/// One LSS iteration of the batch: `(b1, b2, res)` per lane, as
/// `lss_batch_iteration` computes them. Adds the lane rows it hands to
/// `lss_lane_row` to `scalar_rows` and the window rows it runs on the
/// clamped sampler to `clamped_rows`.
pub(super) fn lss_iteration(
    _: Avx2,
    next: &FloatImage,
    b: &mut TrackBatch,
    w: usize,
    r: i64,
    scalar_rows: &mut u64,
    clamped_rows: &mut u64,
) -> ([f32; KLT_LANES], [f32; KLT_LANES], [f32; KLT_LANES]) {
    match Plane::new(next) {
        // SAFETY: the `Avx2` token proves the CPU supports AVX2.
        Some(plane) => unsafe {
            lss_iteration_avx2(plane, next, b, w, r, scalar_rows, clamped_rows)
        },
        None => super::lss_batch_iteration(next, b, w, r, scalar_rows),
    }
}

#[target_feature(enable = "avx2")]
fn dc_lanes_avx2(p: Plane, r: i64, b: &mut TrackBatch, clamped_rows: &mut u64) -> u32 {
    let w = (2 * r + 1) as usize;
    let we = w + 2;
    let px = load(&b.px, 0);
    let py = load(&b.py, 0);
    let zero = _mm256_setzero_ps();
    let one = _mm256_set1_ps(1.0);

    let ok = _mm256_and_ps(lane_mask(&b.live), _mm256_and_ps(finite(px), finite(py)));
    let bits = _mm256_movemask_ps(ok);
    if bits == 0 {
        return 0;
    }

    // Every grid row samples the same column run `px + edx`: lanes whose
    // run is regular and inside the plane's columns take row loads on
    // each row that is inside its rows too. `p + d` is monotone in `d`,
    // so the end columns bound the run.
    let (lo, hi) = (-(r + 1), r + 1);
    let (first, regular) = row_runs(|c| offset(px, lo + c as i64), we, &mut b.fx);
    let mut run = _mm256_and_ps(ok, regular);
    run = _mm256_and_ps(run, _mm256_cmp_ps::<_CMP_GE_OQ>(offset(px, lo), zero));
    run = _mm256_and_ps(
        run,
        _mm256_cmp_ps::<_CMP_LT_OQ>(offset(px, hi), _mm256_set1_ps(p.x_end)),
    );

    b.grid.resize(we * we * KLT_LANES, 0.0);
    let y_end = _mm256_set1_ps(p.y_end);
    for (erow, edy) in (lo..=hi).enumerate() {
        let y = offset(py, edy);
        let inside = _mm256_and_ps(
            run,
            _mm256_and_ps(
                _mm256_cmp_ps::<_CMP_GE_OQ>(y, zero),
                _mm256_cmp_ps::<_CMP_LT_OQ>(y, y_end),
            ),
        );
        let grid = &mut b.grid[erow * we * KLT_LANES..][..we * KLT_LANES];
        if _mm256_movemask_ps(inside) == bits {
            // SAFETY: every lane in `bits` is in `inside`: its row has
            // `0 ≤ y < height - 1` and its regular run lies in
            // `[0, width - 1)`.
            let emit = |ecol, v| store(grid, ecol, v);
            unsafe { sample_row(p, first, &b.fx, we, y, bits, emit) };
        } else {
            // Some lane's grid row leaves the plane or its run is
            // irregular: the clamped sampler serves every lane of the row.
            *clamped_rows += 1;
            let row = clamped_row(p, y);
            for (ecol, edx) in (lo..=hi).enumerate() {
                store(grid, ecol, sample_clamped(p, row, offset(px, edx), ok));
            }
        }
    }

    // Exactness: the scalar DC takes a `±1` tap from the grid only where
    // `t ± 1.0 == p + (d ± 1)`. Each column keeps the lanes that fail for
    // its right and left tap; `inexact_cols` says whether any does.
    b.inexact.resize(2 * w * KLT_LANES, 0.0);
    let mut inexact_cols = 0;
    for (col, dx) in (-r..=r).enumerate() {
        let t = offset(px, dx);
        store(&mut b.txs, col, t);
        let right = _mm256_and_ps(
            ok,
            _mm256_cmp_ps::<_CMP_NEQ_OQ>(_mm256_add_ps(t, one), offset(px, dx + 1)),
        );
        let left = _mm256_and_ps(
            ok,
            _mm256_cmp_ps::<_CMP_NEQ_OQ>(_mm256_sub_ps(t, one), offset(px, dx - 1)),
        );
        store(&mut b.inexact, 2 * col, right);
        store(&mut b.inexact, 2 * col + 1, left);
        inexact_cols |= _mm256_movemask_ps(_mm256_or_ps(right, left));
    }

    let half = _mm256_set1_ps(0.5);
    let (mut a11, mut a12, mut a22) = (zero, zero, zero);
    for (row, dy) in (-r..=r).enumerate() {
        let ty = offset(py, dy);
        let down = _mm256_and_ps(
            ok,
            _mm256_cmp_ps::<_CMP_NEQ_OQ>(_mm256_add_ps(ty, one), offset(py, dy + 1)),
        );
        let up = _mm256_and_ps(
            ok,
            _mm256_cmp_ps::<_CMP_NEQ_OQ>(_mm256_sub_ps(ty, one), offset(py, dy - 1)),
        );
        // The rows the direct taps sample (as the scalar DC's `s_mid`,
        // `s_dn` and `s_up`), set up only when some lane needs them.
        let mid = (inexact_cols != 0).then(|| clamped_row(p, ty));
        let below = (_mm256_movemask_ps(down) != 0).then(|| clamped_row(p, _mm256_add_ps(ty, one)));
        let above = (_mm256_movemask_ps(up) != 0).then(|| clamped_row(p, _mm256_sub_ps(ty, one)));
        for col in 0..w {
            let e = (row + 1) * we + col + 1;
            let t = load(&b.grid, e);
            let (mut right, mut left) = (load(&b.grid, e + 1), load(&b.grid, e - 1));
            let (mut down_v, mut up_v) = (load(&b.grid, e + we), load(&b.grid, e - we));
            if let Some(mid) = mid {
                let tx = load(&b.txs, col);
                let (need_r, need_l) = (load(&b.inexact, 2 * col), load(&b.inexact, 2 * col + 1));
                right = direct_tap(p, mid, _mm256_add_ps(tx, one), need_r, right);
                left = direct_tap(p, mid, _mm256_sub_ps(tx, one), need_l, left);
            }
            if let Some(below) = below {
                down_v = direct_tap(p, below, load(&b.txs, col), down, down_v);
            }
            if let Some(above) = above {
                up_v = direct_tap(p, above, load(&b.txs, col), up, up_v);
            }
            let ix = _mm256_mul_ps(_mm256_sub_ps(right, left), half);
            let iy = _mm256_mul_ps(_mm256_sub_ps(down_v, up_v), half);
            let slot = row * w + col;
            store(&mut b.template, slot, t);
            store(&mut b.grad_x, slot, ix);
            store(&mut b.grad_y, slot, iy);
            a11 = _mm256_add_ps(a11, _mm256_mul_ps(ix, ix));
            a12 = _mm256_add_ps(a12, _mm256_mul_ps(ix, iy));
            a22 = _mm256_add_ps(a22, _mm256_mul_ps(iy, iy));
        }
    }

    store(&mut b.a11, 0, a11);
    store(&mut b.a12, 0, a12);
    store(&mut b.a22, 0, a22);
    bits as u32
}

/// `grid` with the lanes in `need` replaced by the clamped sample at `x`
/// on `row`: the direct tap the scalar DC samples where its `±1` proof
/// fails. No gather runs when no lane needs one.
#[inline]
#[target_feature(enable = "avx2")]
fn direct_tap(p: Plane, row: ClampedRow, x: __m256, need: __m256, grid: __m256) -> __m256 {
    if _mm256_movemask_ps(need) == 0 {
        return grid;
    }
    _mm256_blendv_ps(grid, sample_clamped(p, row, x, need), need)
}

#[target_feature(enable = "avx2")]
fn lss_iteration_avx2(
    p: Plane,
    next: &FloatImage,
    b: &mut TrackBatch,
    w: usize,
    r: i64,
    scalar_rows: &mut u64,
    clamped_rows: &mut u64,
) -> ([f32; KLT_LANES], [f32; KLT_LANES], [f32; KLT_LANES]) {
    let active = lane_mask(&b.live);
    let active_bits = _mm256_movemask_ps(active);
    let gx = load(&b.gx, 0);
    let gy = load(&b.gy, 0);
    let py = load(&b.py, 0);
    let zero = _mm256_setzero_ps();
    let abs = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFF_FFFF));
    let y_end = _mm256_set1_ps(p.y_end);
    // Every row samples the same column run, whose endpoints bound it:
    // finite endpoints make every column finite, and interior ones every
    // column interior. Lanes whose run is also regular take row loads on
    // each row inside the plane's rows.
    let x = |c| _mm256_add_ps(load(&b.txs, c), gx);
    let (first_col, regular) = row_runs(x, w, &mut b.fx);
    let b = &*b;
    let first = _mm256_add_ps(load(&b.txs, 0), gx);
    let last = _mm256_add_ps(load(&b.txs, w - 1), gx);
    let finite_run = _mm256_and_ps(active, _mm256_and_ps(finite(first), finite(last)));
    let run = _mm256_and_ps(
        _mm256_and_ps(finite_run, regular),
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
        let served = _mm256_and_ps(finite_run, finite(y));
        let interior = _mm256_and_ps(
            run,
            _mm256_and_ps(
                _mm256_cmp_ps::<_CMP_GE_OQ>(y, zero),
                _mm256_cmp_ps::<_CMP_LT_OQ>(y, y_end),
            ),
        );
        let bits = _mm256_movemask_ps(served);
        let fallback = active_bits & !bits;
        if fallback != 0 {
            // Keep the pre-row sums of the lanes the scalar row serves.
            store(&mut sums[0], 0, b1);
            store(&mut sums[1], 0, b2);
            store(&mut sums[2], 0, res);
        }
        if bits != 0 {
            let base = row * w;
            let mut accumulate = |col: usize, s: __m256| {
                let pix = base + col;
                let it = _mm256_sub_ps(s, load(&b.template, pix));
                b1 = _mm256_add_ps(b1, _mm256_mul_ps(it, load(&b.grad_x, pix)));
                b2 = _mm256_add_ps(b2, _mm256_mul_ps(it, load(&b.grad_y, pix)));
                res = _mm256_add_ps(res, _mm256_and_ps(it, abs));
            };
            if _mm256_movemask_ps(interior) == bits {
                // SAFETY: lanes in `interior` have `0 ≤ y < height - 1`
                // and a regular column run inside `[0, width - 1)`.
                unsafe { sample_row(p, first_col, &b.fx, w, y, bits, accumulate) };
            } else {
                // Some lane's row leaves the plane or its run is
                // irregular: the clamped sampler serves every lane of the
                // row.
                *clamped_rows += 1;
                let clamped = clamped_row(p, y);
                for col in 0..w {
                    let x = _mm256_add_ps(load(&b.txs, col), gx);
                    accumulate(col, sample_clamped(p, clamped, x, served));
                }
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
            *scalar_rows += u64::from(fallback.count_ones());
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

/// All-ones lanes where `v` is finite: `|v| < ∞` fails for NaN and ±∞.
#[inline]
#[target_feature(enable = "avx2")]
fn finite(v: __m256) -> __m256 {
    let abs = _mm256_and_ps(v, _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFF_FFFF)));
    _mm256_cmp_ps::<_CMP_LT_OQ>(abs, _mm256_set1_ps(f32::INFINITY))
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

/// `p00·(1−fx)·(1−fy) + p10·fx·(1−fy) + p01·(1−fx)·fy + p11·fx·fy`,
/// left to right: `FloatImage::sample_bilinear`'s formula.
#[inline]
#[target_feature(enable = "avx2")]
fn bilinear(p00: __m256, p10: __m256, p01: __m256, p11: __m256, fx: __m256, fy: __m256) -> __m256 {
    let one = _mm256_set1_ps(1.0);
    let (cx, cy) = (_mm256_sub_ps(one, fx), _mm256_sub_ps(one, fy));
    let s = _mm256_mul_ps(_mm256_mul_ps(p00, cx), cy);
    let s = _mm256_add_ps(s, _mm256_mul_ps(_mm256_mul_ps(p10, fx), cy));
    let s = _mm256_add_ps(s, _mm256_mul_ps(_mm256_mul_ps(p01, cx), fy));
    _mm256_add_ps(s, _mm256_mul_ps(_mm256_mul_ps(p11, fx), fy))
}

/// Prepares the row-load sampler for a column run of `n` columns whose
/// lane-interleaved positions `x(c)` do not depend on the row: writes
/// every column's `fx = x - trunc(x)` into `fx`, lane-major in blocks of
/// eight columns (lane `l`'s columns `8k .. 8k + 8` at vector
/// `k · KLT_LANES + l`), and returns `trunc(x_0)` and the all-ones lanes
/// whose run is regular: `trunc(x_c) == trunc(x_0) + c` for every column
/// `c`. `fx` is computed lane-interleaved, as
/// `RowSampler::sample_interior` computes it, and then transposed; a
/// column past `n` in the last block holds 0.
#[inline]
#[target_feature(enable = "avx2")]
fn row_runs(x: impl Fn(usize) -> __m256, n: usize, fx: &mut Vec<f32>) -> (__m256i, __m256) {
    let blocks = n.div_ceil(KLT_LANES);
    fx.resize(blocks * KLT_LANES * KLT_LANES, 0.0);
    let first = _mm256_cvttps_epi32(x(0));
    let mut regular = _mm256_set1_epi32(-1);
    for k in 0..blocks {
        let mut cols = [_mm256_setzero_ps(); KLT_LANES];
        for (i, col) in cols.iter_mut().enumerate().take(n - k * KLT_LANES) {
            let c = k * KLT_LANES + i;
            let xc = x(c);
            let x0 = _mm256_cvttps_epi32(xc);
            let expected = _mm256_add_epi32(first, _mm256_set1_epi32(c as i32));
            regular = _mm256_and_si256(regular, _mm256_cmpeq_epi32(x0, expected));
            *col = _mm256_sub_ps(xc, _mm256_cvtepi32_ps(x0));
        }
        transpose(&mut cols);
        for (l, v) in cols.into_iter().enumerate() {
            store(fx, k * KLT_LANES + l, v);
        }
    }
    (first, _mm256_castsi256_ps(regular))
}

/// Bilinear samples of row `y` at the `n` columns of the runs that start
/// at `first` (`trunc(x_0)` per lane) with the lane-major offsets `fx`
/// of [`row_runs`], for the lanes set in `lanes` (the others hold 0),
/// handed to `emit(c, v)` column by column in order, lane-interleaved.
/// Identical arithmetic to `RowSampler::sample_interior` on each lane:
/// `floor(y)` and `fy` as `RowSampler::new` computes them, the column's
/// `fx`, and `bilinear`'s formula.
///
/// Each lane loads its two tap rows and their `+1` shifts as contiguous
/// 8-wide loads from its first tap, which a regular run makes column
/// `c`'s taps (`trunc(x_c) = trunc(x_0) + c`), and forms eight samples of
/// its own; one 8 × 8 transpose per eight columns returns them to the
/// lane-interleaved layout. A last block of `m < 8` columns loads with
/// the first `m` elements masked in, so no load reaches past the run's
/// last tap.
///
/// # Safety
///
/// Every lane in `lanes` must have `0 ≤ y < height - 1` and a regular
/// run (see [`row_runs`]) inside `[0, width - 1)`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn sample_row(
    p: Plane,
    first: __m256i,
    fx: &[f32],
    n: usize,
    y: __m256,
    lanes: i32,
    mut emit: impl FnMut(usize, __m256),
) {
    let y0 = _mm256_floor_ps(y);
    let mut fy = [0.0f32; KLT_LANES];
    store(&mut fy, 0, _mm256_sub_ps(y, y0));
    let row0 = _mm256_mullo_epi32(_mm256_cvttps_epi32(y0), _mm256_set1_epi32(p.width));
    let mut start = [0i32; KLT_LANES];
    // SAFETY: `start` holds eight `i32`s, one unaligned 256-bit store.
    unsafe { _mm256_storeu_si256(start.as_mut_ptr().cast(), _mm256_add_epi32(row0, first)) };
    let below = p.width as usize;
    let raw = p.raw.as_ptr();
    for k in 0..n.div_ceil(KLT_LANES) {
        let m = (n - k * KLT_LANES).min(KLT_LANES);
        let tail = _mm256_cmpgt_epi32(
            _mm256_set1_epi32(m as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        );
        let mut v = [_mm256_setzero_ps(); KLT_LANES];
        for (l, v) in v.iter_mut().enumerate() {
            if lanes & (1 << l) == 0 {
                continue;
            }
            // SAFETY (caller): the lane's taps of columns `8k .. 8k + m`
            // are `raw[start + 8k ..= start + 8k + m]` on its row and the
            // same `width` further on the row below, all inside the plane;
            // the masked loads read no others.
            let (p00, p10, p01, p11) = unsafe {
                let top = raw.add(start[l] as usize + k * KLT_LANES);
                let bottom = top.add(below);
                if m == KLT_LANES {
                    (
                        _mm256_loadu_ps(top),
                        _mm256_loadu_ps(top.add(1)),
                        _mm256_loadu_ps(bottom),
                        _mm256_loadu_ps(bottom.add(1)),
                    )
                } else {
                    (
                        _mm256_maskload_ps(top, tail),
                        _mm256_maskload_ps(top.add(1), tail),
                        _mm256_maskload_ps(bottom, tail),
                        _mm256_maskload_ps(bottom.add(1), tail),
                    )
                }
            };
            let lane_fx = load(fx, k * KLT_LANES + l);
            *v = bilinear(p00, p10, p01, p11, lane_fx, _mm256_set1_ps(fy[l]));
        }
        transpose(&mut v);
        for (i, v) in v.into_iter().enumerate().take(m) {
            emit(k * KLT_LANES + i, v);
        }
    }
}

/// Transposes the 8 × 8 matrix whose rows are `v`.
#[inline]
#[target_feature(enable = "avx2")]
fn transpose(v: &mut [__m256; KLT_LANES]) {
    let t0 = _mm256_unpacklo_ps(v[0], v[1]);
    let t1 = _mm256_unpackhi_ps(v[0], v[1]);
    let t2 = _mm256_unpacklo_ps(v[2], v[3]);
    let t3 = _mm256_unpackhi_ps(v[2], v[3]);
    let t4 = _mm256_unpacklo_ps(v[4], v[5]);
    let t5 = _mm256_unpackhi_ps(v[4], v[5]);
    let t6 = _mm256_unpacklo_ps(v[6], v[7]);
    let t7 = _mm256_unpackhi_ps(v[6], v[7]);
    let s0 = _mm256_shuffle_ps::<0x44>(t0, t2);
    let s1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
    let s2 = _mm256_shuffle_ps::<0x44>(t1, t3);
    let s3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
    let s4 = _mm256_shuffle_ps::<0x44>(t4, t6);
    let s5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
    let s6 = _mm256_shuffle_ps::<0x44>(t5, t7);
    let s7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
    v[0] = _mm256_permute2f128_ps::<0x20>(s0, s4);
    v[1] = _mm256_permute2f128_ps::<0x20>(s1, s5);
    v[2] = _mm256_permute2f128_ps::<0x20>(s2, s6);
    v[3] = _mm256_permute2f128_ps::<0x20>(s3, s7);
    v[4] = _mm256_permute2f128_ps::<0x31>(s0, s4);
    v[5] = _mm256_permute2f128_ps::<0x31>(s1, s5);
    v[6] = _mm256_permute2f128_ps::<0x31>(s2, s6);
    v[7] = _mm256_permute2f128_ps::<0x31>(s3, s7);
}

/// Row state of the clamped sampler: the flat indices of rows `floor(y)`
/// and `floor(y) + 1`, each clamped to the plane, and `fy = y - floor(y)`.
#[derive(Clone, Copy)]
struct ClampedRow {
    top: __m256i,
    bottom: __m256i,
    fy: __m256,
}

/// [`ClampedRow`] at heights `y`, valid on every lane.
#[inline]
#[target_feature(enable = "avx2")]
fn clamped_row(p: Plane, y: __m256) -> ClampedRow {
    let y0 = _mm256_floor_ps(y);
    let width = _mm256_set1_epi32(p.width);
    let end = _mm256_set1_ps(p.y_end);
    ClampedRow {
        top: _mm256_mullo_epi32(clamp_index(y0, end), width),
        bottom: _mm256_mullo_epi32(
            clamp_index(_mm256_add_ps(y0, _mm256_set1_ps(1.0)), end),
            width,
        ),
        fy: _mm256_sub_ps(y, y0),
    }
}

/// `v` clamped to `[0, end]` in `f32`, then truncated. `max_ps` returns
/// its second operand when the first is NaN, so NaN clamps to 0, and
/// every result is an index in `[0, end]`. On integer-valued `v` (a
/// `floor`) this is the scalar `i64` clamp: beyond `2^24`, where `v + 1`
/// rounds back to `v`, both clamp to the same end.
#[inline]
#[target_feature(enable = "avx2")]
fn clamp_index(v: __m256, end: __m256) -> __m256i {
    _mm256_cvttps_epi32(_mm256_min_ps(_mm256_max_ps(v, _mm256_setzero_ps()), end))
}

/// Bilinear samples at `x` on `row` with every tap clamped to the plane,
/// gathered for the lanes in `mask` (the others hold garbage): what
/// `RowSampler::sample` and `FloatImage::sample_bilinear` compute at
/// every finite coordinate, border and interior alike.
#[inline]
#[target_feature(enable = "avx2")]
fn sample_clamped(p: Plane, row: ClampedRow, x: __m256, mask: __m256) -> __m256 {
    let x0 = _mm256_floor_ps(x);
    let fx = _mm256_sub_ps(x, x0);
    let end = _mm256_set1_ps(p.x_end);
    let c0 = clamp_index(x0, end);
    let c1 = clamp_index(_mm256_add_ps(x0, _mm256_set1_ps(1.0)), end);
    let zero = _mm256_setzero_ps();
    let raw = p.raw.as_ptr();
    // SAFETY: every index is a clamped row's offset, at most
    // `(height - 1)·width`, plus a clamped column, at most `width - 1`:
    // inside the plane, whose size fits `i32`.
    let (p00, p10, p01, p11) = unsafe {
        (
            _mm256_mask_i32gather_ps::<4>(zero, raw, _mm256_add_epi32(row.top, c0), mask),
            _mm256_mask_i32gather_ps::<4>(zero, raw, _mm256_add_epi32(row.top, c1), mask),
            _mm256_mask_i32gather_ps::<4>(zero, raw, _mm256_add_epi32(row.bottom, c0), mask),
            _mm256_mask_i32gather_ps::<4>(zero, raw, _mm256_add_epi32(row.bottom, c1), mask),
        )
    };
    bilinear(p00, p10, p01, p11, fx, row.fy)
}
