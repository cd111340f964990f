//! Row-hoisted bilinear gather helpers for window-sampling kernels.
//!
//! The KLT solve (and any other window-correlation kernel) samples
//! hundreds of bilinear taps per row-pair of a float plane. [`RowSampler`]
//! hoists every y-dependent term of the interpolation — `y.floor()`, the
//! fractional weight, the row offset — out of the per-sample path, and
//! proves once per run of samples that the whole run is interior so the
//! per-tap bounds branches disappear. [`RowGather`] is the lane-batched
//! (SoA) companion: one sampler row per SIMD-style lane, sharing a single
//! raw plane, with an all-lanes interiority proof that gates the
//! branch-free gather loop of a batched solve.
//!
//! Every path is **bit-identical** to [`FloatImage::sample_bilinear`] at
//! the same coordinates: the hoisted values come from the same inputs
//! through the same operations, and border samples fall back to the
//! clamped path verbatim.

use crate::gray::FloatImage;

/// Bilinear sampling along one image row: the y-dependent terms
/// (`y.floor()`, the fractional weight, the row offset) are computed once
/// per row instead of per sample. `sample(x)` is bit-identical to
/// `img.sample_bilinear(x, y)` — the hoisted values come from the same
/// inputs through the same operations, and border samples fall back to
/// the clamped path verbatim. The LK window loops sample hundreds of
/// points per row-pair, which makes this the solve's hottest code.
#[derive(Debug, Clone, Copy)]
pub struct RowSampler<'a> {
    img: &'a FloatImage,
    raw: &'a [f32],
    w: i64,
    /// Flat index of `(0, y0)`; only valid when `y_interior`.
    row0: usize,
    fy: f32,
    y: f32,
    y_interior: bool,
}

impl<'a> RowSampler<'a> {
    /// Hoists the row state for sampling at vertical position `y`.
    #[inline]
    pub fn new(img: &'a FloatImage, y: f32) -> Self {
        let y0f = y.floor();
        let fy = y - y0f;
        let y0 = y0f as i64;
        let w = img.width() as i64;
        // `y0 < h - 1`, not `y0 + 1 < h`: the saturated cast of a huge
        // finite y (i64::MAX) must not overflow into a false positive.
        // `y0f >= 0.0`, not `y0 >= 0`: a NaN y casts to 0 but fails it.
        let y_interior = y0f >= 0.0 && y0 < img.height() as i64 - 1;
        RowSampler {
            img,
            raw: img.as_raw(),
            w,
            row0: if y_interior { (y0 * w) as usize } else { 0 },
            fy,
            y,
            y_interior,
        }
    }

    /// Bilinear sample at `(x, self.y)`; safe at any finite coordinate.
    #[inline]
    pub fn sample(&self, x: f32) -> f32 {
        if self.y_interior {
            let x0f = x.floor();
            let fx = x - x0f;
            let x0 = x0f as i64;
            // `x0 < w - 1`, not `x0 + 1 < w` (saturated-cast overflow).
            if x0 >= 0 && x0 < self.w - 1 {
                // SAFETY: x0 and y0 (plus one) are inside the image.
                return unsafe { self.tap(x0 as usize, fx) };
            }
        }
        self.img.sample_bilinear(x, self.y)
    }

    /// Whether every sample in `[x_first, x_last]` (both on this row)
    /// takes the interior path — `floor` is monotonic, so checking the
    /// endpoints covers the run. A NaN endpoint is never interior.
    #[inline]
    pub fn run_interior(&self, x_first: f32, x_last: f32) -> bool {
        self.y_interior && run_in_row(x_first, x_last, self.w)
    }

    /// Interior sample without the bounds branch (callers prove the run
    /// is interior via [`run_interior`](Self::run_interior)). Identical
    /// arithmetic to [`sample`](Self::sample)'s interior path: `x ≥ 0`
    /// here (the run proof includes `floor(x) ≥ 0`), so the truncating
    /// cast equals `x.floor()` bit for bit — without the `floorf`
    /// libcall that baseline x86-64 pays per sample.
    ///
    /// # Safety
    ///
    /// `x.floor()` must be in `[0, width - 2]` and the sampler's row
    /// must be interior.
    #[inline]
    pub unsafe fn sample_interior(&self, x: f32) -> f32 {
        let x0 = x as usize;
        let x0f = x0 as f32;
        let fx = x - x0f;
        debug_assert!(x >= 0.0 && (x0 as i64) < self.w - 1 && self.y_interior);
        debug_assert_eq!(x0f.to_bits(), x.floor().to_bits());
        self.tap(x0, fx)
    }

    /// # Safety
    ///
    /// `x0 + 1 < width` and the row must be interior.
    #[inline]
    unsafe fn tap(&self, x0: usize, fx: f32) -> f32 {
        let idx = self.row0 + x0;
        let (p00, p10, p01, p11) = (
            *self.raw.get_unchecked(idx),
            *self.raw.get_unchecked(idx + 1),
            *self.raw.get_unchecked(idx + self.w as usize),
            *self.raw.get_unchecked(idx + self.w as usize + 1),
        );
        let fy = self.fy;
        p00 * (1.0 - fx) * (1.0 - fy)
            + p10 * fx * (1.0 - fy)
            + p01 * (1.0 - fx) * fy
            + p11 * fx * fy
    }
}

/// The column half of the run proof: `floor(x_first) ≥ 0` and
/// `floor(x_last) < w - 1`. Float `>=` rejects a NaN `x_first`; a NaN
/// `x_last` casts to 0 and is rejected explicitly.
#[inline]
fn run_in_row(x_first: f32, x_last: f32, w: i64) -> bool {
    // `< w - 1`, not `+ 1 < w` (saturated-cast overflow).
    x_first >= 0.0 && !x_last.is_nan() && (x_last.floor() as i64) < w - 1
}

/// Lane-batched row gather: the SoA form of [`RowSampler`] for `L`
/// SIMD-style lanes sampling the **same** float plane on (generally)
/// different rows. Built once per window row of a batched solve; the
/// per-lane [`lane_run_interior`](Self::lane_run_interior) proof then
/// licenses the branch-free
/// [`gather_unchecked`](Self::gather_unchecked) in the inner loop. The
/// plane is captured at construction (like [`RowSampler`]), so the
/// hoisted row offsets can never be applied to a different image.
#[derive(Debug, Clone, Copy)]
pub struct RowGather<'a, const L: usize> {
    raw: &'a [f32],
    w: usize,
    row0: [usize; L],
    fy: [f32; L],
    y_interior: [bool; L],
}

impl<'a, const L: usize> RowGather<'a, L> {
    /// Hoists per-lane row state for vertical positions `ys` on `img`.
    #[inline]
    pub fn new(img: &'a FloatImage, ys: &[f32; L]) -> Self {
        Self::new_masked(img, ys, &[true; L])
    }

    /// [`new`](Self::new) computing row state only for lanes where
    /// `mask` is set — skipped lanes get a non-interior row (so every
    /// query about them answers "take the fallback") without paying
    /// their `floor`. A batched solve with convergence masking calls
    /// this once per window row; late iterations often have one live
    /// lane, and eight unconditional `floor`s per row would dominate it.
    #[inline]
    pub fn new_masked(img: &'a FloatImage, ys: &[f32; L], mask: &[bool; L]) -> Self {
        let w = img.width() as i64;
        let h = img.height() as i64;
        let mut row0 = [0usize; L];
        let mut fy = [0.0f32; L];
        let mut y_interior = [false; L];
        for l in 0..L {
            if !mask[l] {
                continue;
            }
            // Identical arithmetic to `RowSampler::new`.
            let y0f = ys[l].floor();
            fy[l] = ys[l] - y0f;
            let y0 = y0f as i64;
            let interior = y0f >= 0.0 && y0 < h - 1;
            y_interior[l] = interior;
            row0[l] = if interior { (y0 * w) as usize } else { 0 };
        }
        RowGather {
            raw: img.as_raw(),
            w: img.width() as usize,
            row0,
            fy,
            y_interior,
        }
    }

    /// Whether lane `l`'s whole run `[x_first, x_last]` is interior
    /// (same endpoint proof as [`RowSampler::run_interior`]).
    #[inline]
    pub fn lane_run_interior(&self, l: usize, x_first: f32, x_last: f32) -> bool {
        self.y_interior[l] && run_in_row(x_first, x_last, self.w as i64)
    }

    /// Bilinear sample for lane `l` at horizontal position `x` without
    /// bounds branches. Identical arithmetic to [`RowSampler::sample`]'s
    /// interior path (and hence to `FloatImage::sample_bilinear`): with
    /// `x ≥ 0` guaranteed by the run proof, the truncating cast equals
    /// `x.floor()` bit for bit and keeps the `floorf` libcall (and the
    /// register spills it forces around the lane accumulators) out of
    /// the inner loop.
    ///
    /// # Safety
    ///
    /// Lane `l`'s row must be interior and `x.floor()` must be in
    /// `[0, width - 2]` — prove both with
    /// [`lane_run_interior`](Self::lane_run_interior) over the run
    /// containing `x`.
    #[inline]
    pub unsafe fn gather_unchecked(&self, l: usize, x: f32) -> f32 {
        let x0 = x as usize;
        let x0f = x0 as f32;
        let fx = x - x0f;
        let idx = self.row0[l] + x0;
        debug_assert!(x >= 0.0 && self.y_interior[l] && idx + self.w + 1 < self.raw.len());
        debug_assert_eq!(x0f.to_bits(), x.floor().to_bits());
        let (p00, p10, p01, p11) = (
            *self.raw.get_unchecked(idx),
            *self.raw.get_unchecked(idx + 1),
            *self.raw.get_unchecked(idx + self.w),
            *self.raw.get_unchecked(idx + self.w + 1),
        );
        let fy = self.fy[l];
        p00 * (1.0 - fx) * (1.0 - fy)
            + p10 * fx * (1.0 - fy)
            + p01 * (1.0 - fx) * fy
            + p11 * fx * fy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gray::GrayImage;

    fn plane() -> FloatImage {
        let img = GrayImage::from_fn(32, 24, |x, y| ((x * 7 + y * 13) % 251) as u8);
        FloatImage::from_gray(&img)
    }

    #[test]
    fn row_sampler_matches_sample_bilinear_bitwise() {
        let p = plane();
        for &y in &[-2.5f32, 0.0, 0.4, 11.75, 22.9, 23.0, 30.0, 1e19] {
            let s = RowSampler::new(&p, y);
            for &x in &[-3.0f32, 0.0, 0.5, 7.25, 30.99, 31.0, 40.0, -1e19] {
                assert_eq!(
                    s.sample(x).to_bits(),
                    p.sample_bilinear(x, y).to_bits(),
                    "at ({x}, {y})"
                );
            }
        }
    }

    #[test]
    fn interior_fast_path_matches_clamped_path_bitwise() {
        let p = plane();
        let s = RowSampler::new(&p, 10.3);
        assert!(s.run_interior(1.2, 29.8));
        for i in 0..=50 {
            let x = 1.2 + i as f32 * 0.57;
            if x > 29.8 {
                break;
            }
            // SAFETY: run_interior proved the run above.
            let fast = unsafe { s.sample_interior(x) };
            assert_eq!(fast.to_bits(), p.sample_bilinear(x, 10.3).to_bits());
        }
    }

    #[test]
    fn row_gather_matches_row_sampler_bitwise() {
        let p = plane();
        let ys = [0.5f32, 3.25, 10.0, 22.5];
        let g = RowGather::<4>::new(&p, &ys);
        for l in 0..4 {
            let s = RowSampler::new(&p, ys[l]);
            assert!(g.lane_run_interior(l, 2.0, 29.0));
            for i in 0..=27 {
                let x = 2.0 + i as f32;
                // SAFETY: lane_run_interior proved the run above.
                let got = unsafe { g.gather_unchecked(l, x) };
                assert_eq!(got.to_bits(), s.sample(x).to_bits(), "lane {l} x {x}");
            }
        }
    }

    #[test]
    fn nan_rows_and_runs_are_never_interior() {
        // A NaN coordinate casts to 0, which once passed the integer
        // bounds test; it must take the clamped path instead.
        let p = plane();
        let s = RowSampler::new(&p, f32::NAN);
        assert!(!s.run_interior(2.0, 10.0));
        assert!(s.sample(5.0).is_nan());
        let s = RowSampler::new(&p, 4.5);
        assert!(!s.run_interior(f32::NAN, 10.0));
        assert!(!s.run_interior(2.0, f32::NAN));
        assert_eq!(
            s.sample(f32::NAN).to_bits(),
            p.sample_bilinear(f32::NAN, 4.5).to_bits()
        );
        let g = RowGather::<2>::new(&p, &[f32::NAN, 4.5]);
        assert!(!g.lane_run_interior(0, 2.0, 10.0));
        assert!(!g.lane_run_interior(1, f32::NAN, 10.0));
        assert!(g.lane_run_interior(1, 2.0, 10.0));
    }

    #[test]
    fn row_gather_flags_border_rows() {
        let p = plane();
        let g = RowGather::<2>::new(&p, &[-0.5f32, 23.5]);
        assert!(!g.lane_run_interior(0, 5.0, 10.0));
        assert!(!g.lane_run_interior(1, 5.0, 10.0));
    }
}
