//! AVX2 Gaussian blur: the separable pass with eight outputs per register.
//!
//! The paper's image-filtering block reads the pixel stream through line
//! buffers that hold the `2r + 1` rows a column of taps needs (Figs.
//! 13–14, modeled in `eudoxus_accel::stencil`). This kernel keeps that
//! shape: each horizontal-pass row is computed once into a ring of
//! `2r + 1` float lines, and each output row reads its taps from the
//! ring, so the intermediate stays in the core's caches and no
//! full-image float plane exists.
//!
//! Every output runs the scalar operation sequence of
//! [`separable_filter_into`](super::separable_filter_into): its
//! accumulator starts at `0.0` and adds `k·p` tap by tap in kernel order,
//! with `mul` and `add` as separate instructions (no FMA). Each source
//! row is widened to `f32` once, into a line of its own, and the
//! horizontal taps load those floats: the values `u8 as f32` gives, so
//! the sums are unchanged. Border columns take the clamped scalar taps.
//! Border rows read lines computed from the clamped row. The vertical sum is rounded to `u8` by
//! the rule of `FloatImage::to_gray_into` (clamp to `[0, 255]`, truncate,
//! add one at a fraction `≥ 0.5`). The output is therefore bit-identical
//! to the portable blur.

use super::{portable_blur, FilterScratch};
use crate::gray::GrayImage;
use crate::isa::Avx2;
use std::arch::x86_64::*;

/// Gaussian blur of `img` by `scratch.kernel` into `out`. Images
/// narrower than `2r + 8` (no full vector of interior columns) or not
/// taller than `2r` take the portable blur.
pub(super) fn gaussian_blur(
    _: Avx2,
    img: &GrayImage,
    scratch: &mut FilterScratch,
    out: &mut GrayImage,
) {
    let (w, h) = (img.width() as usize, img.height() as usize);
    let n = scratch.kernel.len();
    let r = n / 2;
    if w < 2 * r + 8 || h <= 2 * r {
        return portable_blur(img, scratch, out);
    }
    // The ring of `n` lines, then the widened source row.
    scratch.lines.resize((n + 1) * w, 0.0);
    out.reshape(img.width(), img.height());
    // SAFETY: the `Avx2` token proves the CPU supports AVX2.
    unsafe {
        blur_avx2(
            img.as_raw(),
            w,
            &scratch.kernel,
            &mut scratch.lines,
            out.as_raw_mut(),
        )
    }
}

/// The blur of the `w`-wide image `src` into `dst`, with `lines` as the
/// ring of `kernel.len()` lines followed by one line for the widened
/// source row. Requires `w ≥ 2r + 8`.
#[target_feature(enable = "avx2")]
fn blur_avx2(src: &[u8], w: usize, kernel: &[f32], lines: &mut [f32], dst: &mut [u8]) {
    let n = kernel.len();
    let r = n / 2;
    let h = src.len() / w;
    let (lines, wide) = lines.split_at_mut(n * w);
    let wide = &mut wide[..w];
    // Line `v` counts rows from `r` above the image: it holds the
    // horizontal pass of row `clamp(v − r, 0, h − 1)`, so the rows a
    // clamped vertical tap reads are plain lines, and output row `y`
    // reads lines `y ..= y + 2r` in kernel order. Line `v` lives in ring
    // slot `v % n`; it overwrites line `v − n`, which every output row
    // that reads it has already used.
    for v in 0..h + 2 * r {
        let row = v.saturating_sub(r).min(h - 1);
        for (f, &p) in wide.iter_mut().zip(&src[row * w..][..w]) {
            *f = f32::from(p);
        }
        horizontal_row(wide, kernel, &mut lines[v % n * w..][..w]);
        if v >= 2 * r {
            let y = v - 2 * r;
            vertical_row(lines, w, y % n, kernel, &mut dst[y * w..][..w]);
        }
    }
}

/// The horizontal pass of one widened row: `dst[x] = 0 + Σ k_j ·
/// src[x − r + j]` with clamped columns.
#[inline]
#[target_feature(enable = "avx2")]
fn horizontal_row(src: &[f32], kernel: &[f32], dst: &mut [f32]) {
    let w = src.len();
    let r = kernel.len() / 2;
    // The unchecked blocks below rely on this.
    assert!(w >= 2 * r + 8 && dst.len() == w);
    for x in (0..r).chain(w - r..w) {
        let mut acc = 0.0;
        for (k, &kv) in kernel.iter().enumerate() {
            acc += kv * src[(x + k).saturating_sub(r).min(w - 1)];
        }
        dst[x] = acc;
    }
    // Interior columns `r .. w − r` read unclamped taps: output `x` reads
    // `src[x − r ..= x + r]`. Four registers at a time, then one; the
    // last register overlaps its predecessor instead of running a
    // scalar tail (it rewrites the same values).
    let end = w - r;
    let (s, d) = (src.as_ptr(), dst.as_mut_ptr());
    let mut x = r;
    // SAFETY (all three calls): a block of `V` registers at `x` with
    // `x + 8V ≤ end` reads `src[x − r .. x + r + 8V]` and writes
    // `dst[x .. x + 8V]`, both inside the row because `end + r = w`.
    while x + 32 <= end {
        unsafe { horizontal_block::<4>(s.add(x - r), kernel, d.add(x)) };
        x += 32;
    }
    while x + 8 <= end {
        unsafe { horizontal_block::<1>(s.add(x - r), kernel, d.add(x)) };
        x += 8;
    }
    if x < end {
        unsafe { horizontal_block::<1>(s.add(end - 8 - r), kernel, d.add(end - 8)) };
    }
}

/// `V` registers of horizontal outputs: `dst[i] = 0 + Σ k_j · src[i + j]`
/// for `i < 8V`.
///
/// # Safety
///
/// `src[.. 8V + kernel.len() − 1]` must be readable and `dst[.. 8V]`
/// writable.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn horizontal_block<const V: usize>(src: *const f32, kernel: &[f32], dst: *mut f32) {
    let mut acc = [_mm256_setzero_ps(); V];
    for (k, &kv) in kernel.iter().enumerate() {
        let kv = _mm256_set1_ps(kv);
        for (j, a) in acc.iter_mut().enumerate() {
            let p = _mm256_loadu_ps(src.add(k + 8 * j));
            *a = _mm256_add_ps(*a, _mm256_mul_ps(kv, p));
        }
    }
    for (j, a) in acc.iter().enumerate() {
        _mm256_storeu_ps(dst.add(8 * j), *a);
    }
}

/// The vertical pass of one output row, rounded to `u8`: tap `k` reads
/// ring slot `(first + k) % n`.
#[inline]
#[target_feature(enable = "avx2")]
fn vertical_row(lines: &[f32], w: usize, first: usize, kernel: &[f32], dst: &mut [u8]) {
    // The unchecked blocks below rely on this.
    assert!(w >= 8 && dst.len() == w && lines.len() >= kernel.len() * w && first < kernel.len());
    let (l, d) = (lines.as_ptr(), dst.as_mut_ptr());
    let mut x = 0;
    // SAFETY (all three calls): a block of `V` registers at `x` with
    // `x + 8V ≤ w` reads columns `x .. x + 8V` of `kernel.len()` lines
    // and writes `dst[x .. x + 8V]`.
    while x + 32 <= w {
        unsafe { vertical_block::<4>(l.add(x), w, first, kernel, d.add(x)) };
        x += 32;
    }
    while x + 8 <= w {
        unsafe { vertical_block::<1>(l.add(x), w, first, kernel, d.add(x)) };
        x += 8;
    }
    if x < w {
        unsafe { vertical_block::<1>(l.add(w - 8), w, first, kernel, d.add(w - 8)) };
    }
}

/// `V` registers of vertical outputs: column `i < 8V` of
/// `0 + Σ k_j · line[(first + j) % n]`, rounded to `u8`.
///
/// # Safety
///
/// `first < kernel.len()`, each of the `n = kernel.len()` lines (stride
/// `w` from `lines`) must have `8V` readable columns, and `dst[.. 8V]`
/// must be writable.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn vertical_block<const V: usize>(
    lines: *const f32,
    w: usize,
    first: usize,
    kernel: &[f32],
    dst: *mut u8,
) {
    let wrap = kernel.len() - first;
    let mut acc = [_mm256_setzero_ps(); V];
    for (k, &kv) in kernel.iter().enumerate() {
        let slot = if k < wrap { first + k } else { k - wrap };
        let line = lines.add(slot * w);
        let kv = _mm256_set1_ps(kv);
        for (j, a) in acc.iter_mut().enumerate() {
            *a = _mm256_add_ps(*a, _mm256_mul_ps(kv, _mm256_loadu_ps(line.add(8 * j))));
        }
    }
    for (j, a) in acc.iter().enumerate() {
        store_rounded(dst.add(8 * j), *a);
    }
}

/// Rounds eight sums to `u8` as `FloatImage::to_gray_into` does and
/// stores them at `dst[..8]`.
///
/// # Safety
///
/// `dst[..8]` must be writable.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn store_rounded(dst: *mut u8, v: __m256) {
    // `max` returns its second operand when the first is NaN, so NaN
    // becomes 0, as the scalar saturating cast makes it.
    let c = _mm256_min_ps(_mm256_max_ps(v, _mm256_setzero_ps()), _mm256_set1_ps(255.0));
    let t = _mm256_cvttps_epi32(c);
    let frac = _mm256_sub_ps(c, _mm256_cvtepi32_ps(t));
    let up = _mm256_cmp_ps::<_CMP_GE_OQ>(frac, _mm256_set1_ps(0.5));
    // `up` lanes are all ones (−1): subtracting adds one.
    let q = _mm256_sub_epi32(t, _mm256_castps_si256(up));
    // Byte 0 of each 32-bit lane into the low dword of its 128-bit half,
    // then the two halves' dwords side by side.
    let low_bytes = _mm256_setr_epi8(
        0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, //
        0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    );
    let bytes = _mm256_shuffle_epi8(q, low_bytes);
    let packed = _mm256_permutevar8x32_epi32(bytes, _mm256_setr_epi32(0, 4, 0, 0, 0, 0, 0, 0));
    _mm_storel_epi64(dst as *mut __m128i, _mm256_castsi256_si128(packed));
}
