//! AVX2 rotated-BRIEF tests: eight pattern pairs per vector.
//!
//! Each group of eight pairs rotates both sample points, takes four
//! bilinear taps per point with two byte gathers, compares the two
//! samples and `movemask`s the eight results into the descriptor word.
//! Every lane runs exactly the scalar operation sequence of
//! [`brief_test`]: `mul` and `add` stay separate (no FMA), the rotation
//! and the tap sum keep the scalar order, and `floor` is the vector
//! `round` toward −∞. A group with a sample outside the proven interior
//! runs the scalar tests instead, so descriptors are bit-identical to
//! the portable path.

use super::{brief_test, sampling_pattern, sampling_pattern_soa};
use crate::feature::{KeyPoint, OrbDescriptor};
use eudoxus_image::isa::Avx2;
use eudoxus_image::GrayImage;
use std::arch::x86_64::*;

/// The 256 rotated-BRIEF tests around `kp`, rotated by `(sin θ, cos θ)`.
pub(super) fn rotated_brief(
    _: Avx2,
    img: &GrayImage,
    kp: &KeyPoint,
    rot: (f32, f32),
) -> OrbDescriptor {
    let (w, h) = (u64::from(img.width()), u64::from(img.height()));
    let exact = 4..1 << 24;
    if !(exact.contains(&w) && exact.contains(&h) && w * h <= i32::MAX as u64) {
        return super::rotated_brief(img, kp, rot);
    }
    // SAFETY: the `Avx2` token proves the CPU supports AVX2.
    unsafe { rotated_brief_avx2(img, kp, rot) }
}

/// [`rotated_brief`] on an image whose flat indices fit `i32`, whose
/// bounds are exact in `f32`, and which is at least 4 pixels on a side.
#[target_feature(enable = "avx2")]
fn rotated_brief_avx2(img: &GrayImage, kp: &KeyPoint, rot: (f32, f32)) -> OrbDescriptor {
    let [ax, ay, bx, by] = sampling_pattern_soa();
    let (sin_t, cos_t) = (_mm256_set1_ps(rot.0), _mm256_set1_ps(rot.1));
    let (kx, ky) = (_mm256_set1_ps(kp.x), _mm256_set1_ps(kp.y));
    let zero = _mm256_setzero_ps();
    // A 4-byte gather at `floor(x)` reads up to `floor(x) + 3`, so the
    // byte gathers need `floor(x) ≤ width - 4`; rows need
    // `floor(y) ≤ height - 2` for the tap pair below.
    let x_lim = _mm256_set1_ps((img.width() - 3) as f32);
    let y_lim = _mm256_set1_ps((img.height() - 1) as f32);
    let inside = |x0: __m256, y0: __m256| {
        let x_ok = _mm256_and_ps(
            _mm256_cmp_ps::<_CMP_GE_OQ>(x0, zero),
            _mm256_cmp_ps::<_CMP_LT_OQ>(x0, x_lim),
        );
        let y_ok = _mm256_and_ps(
            _mm256_cmp_ps::<_CMP_GE_OQ>(y0, zero),
            _mm256_cmp_ps::<_CMP_LT_OQ>(y0, y_lim),
        );
        _mm256_and_ps(x_ok, y_ok)
    };

    let mut words = [0u64; 4];
    for g in 0..256 / 8 {
        let lanes = g * 8..g * 8 + 8;
        let (ax, ay) = (load(&ax[lanes.clone()]), load(&ay[lanes.clone()]));
        let (bx, by) = (load(&bx[lanes.clone()]), load(&by[lanes.clone()]));
        // `(cos·ax − sin·ay) + x` and `(sin·ax + cos·ay) + y`.
        let xa = _mm256_add_ps(
            _mm256_sub_ps(_mm256_mul_ps(cos_t, ax), _mm256_mul_ps(sin_t, ay)),
            kx,
        );
        let ya = _mm256_add_ps(
            _mm256_add_ps(_mm256_mul_ps(sin_t, ax), _mm256_mul_ps(cos_t, ay)),
            ky,
        );
        let xb = _mm256_add_ps(
            _mm256_sub_ps(_mm256_mul_ps(cos_t, bx), _mm256_mul_ps(sin_t, by)),
            kx,
        );
        let yb = _mm256_add_ps(
            _mm256_add_ps(_mm256_mul_ps(sin_t, bx), _mm256_mul_ps(cos_t, by)),
            ky,
        );
        let (xa0, ya0) = (_mm256_floor_ps(xa), _mm256_floor_ps(ya));
        let (xb0, yb0) = (_mm256_floor_ps(xb), _mm256_floor_ps(yb));
        let ok = _mm256_and_ps(inside(xa0, ya0), inside(xb0, yb0));
        let bits = if _mm256_movemask_ps(ok) == 0xFF {
            // SAFETY: `ok` proved `0 ≤ floor(x) ≤ width - 4` and
            // `0 ≤ floor(y) ≤ height - 2` for both points of every lane.
            let (va, vb) =
                unsafe { (sample(img, xa, ya, xa0, ya0), sample(img, xb, yb, xb0, yb0)) };
            _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_LT_OQ>(va, vb)) as u64
        } else {
            let pairs = &sampling_pattern()[lanes];
            (0..8)
                .filter(|&j| brief_test(img, &pairs[j], kp, rot))
                .fold(0, |m, j| m | 1 << j)
        };
        words[g / 8] |= bits << (8 * (g % 8));
    }
    OrbDescriptor::from_words(words)
}

/// Eight consecutive pattern coordinates.
#[inline]
#[target_feature(enable = "avx2")]
fn load(v: &[f32]) -> __m256 {
    let lanes = &v[..8];
    // SAFETY: `lanes` is a bounds-checked slice of eight `f32`s.
    unsafe { _mm256_loadu_ps(lanes.as_ptr()) }
}

/// Bilinear samples at `(x, y)` with floors `(x0, y0)`: the interior
/// path of `GrayImage::sample_bilinear` on every lane, taps summed as
/// `p00·(1−fx)·(1−fy) + p10·fx·(1−fy) + p01·(1−fx)·fy + p11·fx·fy`, left
/// to right.
///
/// # Safety
///
/// Every lane must have `0 ≤ x0 ≤ width - 4` and `0 ≤ y0 ≤ height - 2`,
/// both integral.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn sample(img: &GrayImage, x: __m256, y: __m256, x0: __m256, y0: __m256) -> __m256 {
    let width = img.width() as i32;
    let idx = _mm256_add_epi32(
        _mm256_mullo_epi32(_mm256_cvttps_epi32(y0), _mm256_set1_epi32(width)),
        _mm256_cvttps_epi32(x0),
    );
    let raw = img.as_raw().as_ptr();
    // SAFETY (caller): each gather reads bytes `idx..idx + 4` of row
    // `y0` and of row `y0 + 1 ≤ height - 1`, and `x0 + 3 ≤ width - 1`
    // keeps both reads inside their rows.
    let (top, bottom) = unsafe {
        (
            _mm256_i32gather_epi32::<1>(raw.cast(), idx),
            _mm256_i32gather_epi32::<1>(raw.add(width as usize).cast(), idx),
        )
    };
    let byte = _mm256_set1_epi32(0xFF);
    let p00 = _mm256_cvtepi32_ps(_mm256_and_si256(top, byte));
    let p10 = _mm256_cvtepi32_ps(_mm256_and_si256(_mm256_srli_epi32::<8>(top), byte));
    let p01 = _mm256_cvtepi32_ps(_mm256_and_si256(bottom, byte));
    let p11 = _mm256_cvtepi32_ps(_mm256_and_si256(_mm256_srli_epi32::<8>(bottom), byte));
    let (fx, fy) = (_mm256_sub_ps(x, x0), _mm256_sub_ps(y, y0));
    let one = _mm256_set1_ps(1.0);
    let (cx, cy) = (_mm256_sub_ps(one, fx), _mm256_sub_ps(one, fy));
    let s = _mm256_mul_ps(_mm256_mul_ps(p00, cx), cy);
    let s = _mm256_add_ps(s, _mm256_mul_ps(_mm256_mul_ps(p10, fx), cy));
    let s = _mm256_add_ps(s, _mm256_mul_ps(_mm256_mul_ps(p01, cx), fy));
    _mm256_add_ps(s, _mm256_mul_ps(_mm256_mul_ps(p11, fx), fy))
}
