//! Separable convolution filters.
//!
//! The feature-extraction block runs an image-filtering (IF) task before
//! descriptor computation (paper Fig. 12); ORB uses a Gaussian-smoothed
//! image so the BRIEF comparisons are noise-robust. Filters here use
//! clamped borders and separable passes — the same dataflow the
//! accelerator's stencil buffers capture.
//!
//! On x86-64 hosts that report AVX2, [`gaussian_blur_into`] runs a
//! `std::arch` kernel: eight outputs per register, the horizontal pass
//! streamed through a ring of `2r + 1` lines as the stencil buffers
//! stream it, and the vertical pass rounded straight to `u8`. It is
//! bit-identical to [`separable_filter_into`] followed by
//! [`FloatImage::to_gray_into`], which stay the portable path and the
//! fallback for images narrower than `2r + 8` or not taller than `2r`.

use crate::gray::{FloatImage, GrayImage};
use crate::isa::Isa;

#[cfg(target_arch = "x86_64")]
mod avx2;

/// Builds a normalized 1-D Gaussian kernel for the given `sigma`. The
/// radius is `ceil(3σ)`, covering > 99.7 % of the mass.
///
/// # Panics
///
/// Panics if `sigma` is not positive.
pub fn gaussian_kernel(sigma: f32) -> Vec<f32> {
    let mut k = Vec::new();
    gaussian_kernel_into(sigma, &mut k);
    k
}

/// [`gaussian_kernel`] into a reusable buffer (allocation-free once warm).
///
/// # Panics
///
/// Panics if `sigma` is not positive.
pub fn gaussian_kernel_into(sigma: f32, k: &mut Vec<f32>) {
    assert!(sigma > 0.0, "sigma must be positive");
    let radius = (3.0 * sigma).ceil() as i32;
    k.clear();
    k.extend((-radius..=radius).map(|i| (-(i * i) as f32 / (2.0 * sigma * sigma)).exp()));
    let sum: f32 = k.iter().sum();
    for v in k.iter_mut() {
        *v /= sum;
    }
}

/// Applies a separable filter: `kernel_x` along rows then `kernel_y` along
/// columns, with clamped borders.
///
/// # Panics
///
/// Panics if either kernel has even length (no center tap).
pub fn separable_filter(img: &GrayImage, kernel_x: &[f32], kernel_y: &[f32]) -> FloatImage {
    let mut tmp = FloatImage::default();
    let mut out = FloatImage::default();
    separable_filter_into(img, kernel_x, kernel_y, &mut tmp, &mut out);
    out
}

/// [`separable_filter`] into reusable buffers: `tmp` holds the horizontal
/// pass, `out` the result. Allocation-free once both are warm, and
/// bit-identical to [`separable_filter`] (taps accumulate in the same
/// order; interior pixels skip the clamp, not the arithmetic).
///
/// # Panics
///
/// Panics if either kernel has even length (no center tap).
pub fn separable_filter_into(
    img: &GrayImage,
    kernel_x: &[f32],
    kernel_y: &[f32],
    tmp: &mut FloatImage,
    out: &mut FloatImage,
) {
    assert!(kernel_x.len() % 2 == 1, "kernel_x needs a center tap");
    assert!(kernel_y.len() % 2 == 1, "kernel_y needs a center tap");
    let (w, h) = img.dimensions();
    let rx = kernel_x.len() / 2;
    let ry = kernel_y.len() / 2;
    tmp.reshape(w, h);
    out.reshape(w, h);
    let (wu, hu) = (w as usize, h as usize);

    // Both passes run tap-outer / pixel-inner over zero-initialized
    // accumulators: each output element still accumulates its taps in
    // kernel order (`0.0 + k₀·p₀ + k₁·p₁ + …`), so results are
    // bit-identical to the naive pixel-outer form — but consecutive
    // outputs are independent, which lets the compiler vectorize across
    // pixels. Border pixels (clamped taps) take the scalar path.

    // The horizontal pass reads the image as f32 once (via `out` as the
    // conversion buffer — it is overwritten by the vertical pass last)
    // instead of converting every tap.
    let src = img.as_raw();
    {
        let srcf = out.as_raw_mut();
        for (d, &p) in srcf.iter_mut().zip(src) {
            *d = p as f32;
        }
    }
    let srcf = out.as_raw();
    let dst = tmp.as_raw_mut();
    dst.fill(0.0);
    if wu > 2 * rx {
        for y in 0..hu {
            let row = &srcf[y * wu..][..wu];
            let drow = &mut dst[y * wu..][..wu];
            for (k, &kv) in kernel_x.iter().enumerate() {
                // Output x in rx..wu-rx reads tap k at x + k - rx.
                let taps = &row[k..][..wu - 2 * rx];
                for (d, &p) in drow[rx..wu - rx].iter_mut().zip(taps) {
                    *d += kv * p;
                }
            }
        }
    }
    for y in 0..hu {
        let drow = &mut dst[y * wu..][..wu];
        let edge_x = (0..wu.min(rx)).chain(wu.saturating_sub(rx).max(rx)..wu);
        for x in edge_x {
            let mut acc = 0.0;
            for (k, &kv) in kernel_x.iter().enumerate() {
                acc += kv * img.get_clamped(x as i64 + k as i64 - rx as i64, y as i64) as f32;
            }
            drow[x] = acc;
        }
    }

    // Vertical pass over the horizontal intermediate.
    let srcf = tmp.as_raw();
    let dstf = out.as_raw_mut();
    dstf.fill(0.0);
    for y in 0..hu {
        let interior = y >= ry && y + ry < hu;
        if interior {
            for (k, &kv) in kernel_y.iter().enumerate() {
                let taps = &srcf[(y - ry + k) * wu..][..wu];
                let drow = &mut dstf[y * wu..][..wu];
                for (d, &p) in drow.iter_mut().zip(taps) {
                    *d += kv * p;
                }
            }
        } else {
            let drow = &mut dstf[y * wu..][..wu];
            for (x, d) in drow.iter_mut().enumerate() {
                let mut acc = 0.0;
                for (k, &kv) in kernel_y.iter().enumerate() {
                    acc += kv * tmp.get_clamped(x as i64, y as i64 + k as i64 - ry as i64);
                }
                *d = acc;
            }
        }
    }
}

/// Reusable workspaces for [`gaussian_blur_into`]: the kernel (cached per
/// `sigma`), the AVX2 kernel's line buffer, and the two float planes of
/// the portable separable pass (left empty where the AVX2 kernel runs).
#[derive(Debug, Clone, Default)]
pub struct FilterScratch {
    kernel: Vec<f32>,
    kernel_sigma: f32,
    #[cfg(target_arch = "x86_64")]
    lines: Vec<f32>,
    tmp: FloatImage,
    filtered: FloatImage,
}

/// Gaussian blur with standard deviation `sigma`, returned as 8-bit.
///
/// # Panics
///
/// Panics if `sigma` is not positive.
pub fn gaussian_blur(img: &GrayImage, sigma: f32) -> GrayImage {
    let mut scratch = FilterScratch::default();
    let mut out = GrayImage::default();
    gaussian_blur_into(img, sigma, &mut scratch, &mut out);
    out
}

/// [`gaussian_blur`] into a reusable output with reusable intermediates —
/// zero heap allocations once `scratch` and `out` are warm for this image
/// size, and bit-identical to [`gaussian_blur`].
///
/// On x86-64 hosts that report AVX2 an AVX2 kernel runs (see
/// [`isa`](crate::isa)); it gives the same bits as the portable
/// [`separable_filter_into`] followed by [`FloatImage::to_gray_into`].
///
/// # Panics
///
/// Panics if `sigma` is not positive.
pub fn gaussian_blur_into(
    img: &GrayImage,
    sigma: f32,
    scratch: &mut FilterScratch,
    out: &mut GrayImage,
) {
    gaussian_blur_with(img, sigma, scratch, out, Isa::detect());
}

/// [`gaussian_blur_into`] on the kernel `isa` names.
fn gaussian_blur_with(
    img: &GrayImage,
    sigma: f32,
    scratch: &mut FilterScratch,
    out: &mut GrayImage,
    isa: Isa,
) {
    assert!(sigma > 0.0, "sigma must be positive");
    if scratch.kernel.is_empty() || scratch.kernel_sigma != sigma {
        gaussian_kernel_into(sigma, &mut scratch.kernel);
        scratch.kernel_sigma = sigma;
    }
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2(avx2) => avx2::gaussian_blur(avx2, img, scratch, out),
        Isa::Portable => portable_blur(img, scratch, out),
    }
}

/// The portable blur: [`separable_filter_into`] by `scratch.kernel` in
/// both directions, then rounding to 8 bits.
fn portable_blur(img: &GrayImage, scratch: &mut FilterScratch, out: &mut GrayImage) {
    separable_filter_into(
        img,
        &scratch.kernel,
        &scratch.kernel,
        &mut scratch.tmp,
        &mut scratch.filtered,
    );
    scratch.filtered.to_gray_into(out);
}

/// Box filter (uniform average) with a `(2·radius+1)²` window.
pub fn box_filter(img: &GrayImage, radius: usize) -> GrayImage {
    let n = 2 * radius + 1;
    let k = vec![1.0 / n as f32; n];
    separable_filter(img, &k, &k).to_gray()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaussian_kernel_is_normalized_and_symmetric() {
        let k = gaussian_kernel(1.3);
        let sum: f32 = k.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        let n = k.len();
        for i in 0..n / 2 {
            assert!((k[i] - k[n - 1 - i]).abs() < 1e-7);
        }
        assert_eq!(n % 2, 1);
    }

    #[test]
    fn blur_preserves_constant_images() {
        let img = GrayImage::filled(20, 20, 128);
        let out = gaussian_blur(&img, 2.0);
        for y in 0..20 {
            for x in 0..20 {
                assert_eq!(out.get(x, y), 128);
            }
        }
    }

    #[test]
    fn blur_reduces_contrast_of_impulse() {
        let mut img = GrayImage::new(11, 11);
        img.put(5, 5, 255);
        let out = gaussian_blur(&img, 1.0);
        assert!(out.get(5, 5) < 255);
        assert!(out.get(5, 5) > out.get(5, 3));
        assert!(out.get(4, 5) > 0);
    }

    #[test]
    fn box_filter_averages_window() {
        let img = GrayImage::from_fn(3, 3, |x, _| if x == 1 { 90 } else { 0 });
        let out = box_filter(&img, 1);
        // Center: mean of the 3x3 = 3*90/9 = 30.
        assert_eq!(out.get(1, 1), 30);
    }

    #[test]
    fn separable_filter_identity_kernel() {
        let img = GrayImage::from_fn(9, 7, |x, y| (x * 11 + y * 31) as u8);
        let out = separable_filter(&img, &[1.0], &[1.0]).to_gray();
        assert_eq!(out, img);
    }

    #[test]
    #[should_panic(expected = "center tap")]
    fn even_kernel_rejected() {
        let img = GrayImage::new(4, 4);
        let _ = separable_filter(&img, &[0.5, 0.5], &[1.0]);
    }

    /// Deterministic test content: xorshift noise, or (`saturated`) only
    /// 0 and 255, so sums sit on the clamp and rounding edges.
    #[cfg(target_arch = "x86_64")]
    fn content(w: u32, h: u32, seed: u32, saturated: bool) -> GrayImage {
        let mut state = seed | 1;
        GrayImage::from_fn(w, h, |_, _| {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            match (saturated, state >> 24) {
                (true, v) => 255 * (v as u8 & 1),
                (false, v) => v as u8,
            }
        })
    }

    /// The AVX2 kernel, when the host has it (`None` skips the
    /// portable-vs-AVX2 comparisons below).
    #[cfg(target_arch = "x86_64")]
    fn avx2() -> Option<Isa> {
        let isa = crate::isa::Avx2::detect().map(Isa::Avx2);
        if isa.is_none() {
            eprintln!("host lacks AVX2: portable-vs-AVX2 comparison skipped");
        }
        isa
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn simd_blur_matches_portable_across_radii_and_sizes() {
        // Every radius 1..=15, at the widths around the vector path's
        // minimum (2r + 8) and a camera row, and the heights around its
        // minimum (2r + 1). Each path reuses one scratch across all
        // sizes, so a stale line buffer would show.
        let Some(simd) = avx2() else { return };
        let (mut portable, mut vector) = (FilterScratch::default(), FilterScratch::default());
        let (mut want, mut got) = (GrayImage::default(), GrayImage::default());
        for r in 1..=15u32 {
            let sigma = (r as f32 - 0.5) / 3.0;
            assert_eq!(gaussian_kernel(sigma).len() as u32, 2 * r + 1);
            for w in [2 * r + 7, 2 * r + 8, 2 * r + 9, 640] {
                for h in [2 * r, 2 * r + 1, 2 * r + 2] {
                    for saturated in [false, true] {
                        let img = content(w, h, r * 7919 + w * 31 + h, saturated);
                        gaussian_blur_with(&img, sigma, &mut portable, &mut want, Isa::Portable);
                        gaussian_blur_with(&img, sigma, &mut vector, &mut got, simd);
                        assert_eq!(got, want, "r={r} {w}x{h} saturated={saturated}");
                    }
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn simd_blur_matches_portable_on_frames_and_flat_content() {
        // A camera-sized frame and odd sizes at the frontend's sigma and
        // at radii 1, 3, 6 and 8, plus flat 0 and 255 images (every sum
        // rounds at the clamp bounds).
        let Some(simd) = avx2() else { return };
        let (mut portable, mut vector) = (FilterScratch::default(), FilterScratch::default());
        let (mut want, mut got) = (GrayImage::default(), GrayImage::default());
        let frames = [
            content(640, 480, 7, false),
            content(333, 101, 11, true),
            GrayImage::filled(97, 45, 0),
            GrayImage::filled(97, 45, 255),
        ];
        for img in &frames {
            for sigma in [0.3, 1.0, 1.2, 1.7, 2.45] {
                gaussian_blur_with(img, sigma, &mut portable, &mut want, Isa::Portable);
                gaussian_blur_with(img, sigma, &mut vector, &mut got, simd);
                assert_eq!(got, want, "{:?} sigma={sigma}", img.dimensions());
            }
        }
        // The AVX2 path never fills the portable float planes.
        assert!(vector.filtered.as_raw().is_empty() && vector.tmp.as_raw().is_empty());
    }
}
