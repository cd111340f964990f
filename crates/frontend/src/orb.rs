//! ORB descriptors (the FC task of paper Fig. 12).
//!
//! Rublee et al.'s ORB \[75\]: an orientation assigned by the intensity
//! centroid of the patch, then rotated-BRIEF — 256 pairwise intensity
//! comparisons at a fixed sampling pattern, rotated by the patch
//! orientation. The comparison pattern here is generated once from a
//! deterministic PRNG, mimicking ORB's learned pattern; what matters for
//! matching is that the *same* pattern is used everywhere.
//!
//! On x86-64 hosts that report AVX2, the tests run eight pairs per
//! vector, bit-identical to the portable loop (see the crate docs).

use crate::feature::{KeyPoint, OrbDescriptor};
use eudoxus_image::isa::Isa;
use eudoxus_image::GrayImage;
use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
mod avx2;

/// Patch half-size used for orientation and sampling.
const PATCH_RADIUS: i64 = 9;
/// Sampling offsets must stay within this radius so rotated samples remain
/// inside the patch.
const SAMPLE_RADIUS: f32 = 8.0;

/// ORB parameters.
#[derive(Debug, Clone, Copy)]
pub struct OrbConfig {
    /// When true (default), rotate the sampling pattern by the patch
    /// orientation (rotation-invariant descriptors).
    pub oriented: bool,
}

impl Default for OrbConfig {
    fn default() -> Self {
        OrbConfig { oriented: true }
    }
}

/// The 256 comparison pairs, generated deterministically at first use.
fn sampling_pattern() -> &'static [((f32, f32), (f32, f32)); 256] {
    static PATTERN: OnceLock<[((f32, f32), (f32, f32)); 256]> = OnceLock::new();
    PATTERN.get_or_init(|| {
        // xorshift64* PRNG — fixed seed, so every build uses one pattern.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state = state.wrapping_mul(0x2545F4914F6CDD1D);
            // Map to [-1, 1).
            (state >> 11) as f32 / (1u64 << 53) as f32 * 2.0 - 1.0
        };
        let mut pairs = [((0.0f32, 0.0f32), (0.0f32, 0.0f32)); 256];
        for pair in &mut pairs {
            // Approximate Gaussian via average of uniforms, scaled to the
            // sample radius (BRIEF uses Gaussian-distributed offsets).
            let mut g = || (next() + next() + next()) / 3.0 * SAMPLE_RADIUS;
            loop {
                let a = (g(), g());
                let b = (g(), g());
                let r2 = SAMPLE_RADIUS * SAMPLE_RADIUS;
                if a.0 * a.0 + a.1 * a.1 <= r2 && b.0 * b.0 + b.1 * b.1 <= r2 {
                    *pair = (a, b);
                    break;
                }
            }
        }
        pairs
    })
}

/// [`sampling_pattern`] as four coordinate arrays `[ax, ay, bx, by]`,
/// built once: the AVX2 tests load eight pairs per vector.
#[cfg(target_arch = "x86_64")]
fn sampling_pattern_soa() -> &'static [[f32; 256]; 4] {
    static SOA: OnceLock<[[f32; 256]; 4]> = OnceLock::new();
    SOA.get_or_init(|| {
        let mut soa = [[0.0; 256]; 4];
        for (i, &((ax, ay), (bx, by))) in sampling_pattern().iter().enumerate() {
            soa[0][i] = ax;
            soa[1][i] = ay;
            soa[2][i] = bx;
            soa[3][i] = by;
        }
        soa
    })
}

/// Half-width of the circular patch per row: `PATCH_SPANS[dy + R]` is
/// `⌊√(R² − dy²)⌋` for `R = PATCH_RADIUS`, so row `dy` of the mask
/// `dx² + dy² ≤ R²` is the contiguous range `|dx| ≤ PATCH_SPANS[dy + R]`.
const PATCH_SPANS: [i64; 2 * PATCH_RADIUS as usize + 1] =
    [0, 4, 5, 6, 7, 8, 8, 8, 8, 9, 8, 8, 8, 8, 7, 6, 5, 4, 0];

/// Orientation of the patch by intensity centroid: `θ = atan2(m01, m10)`.
///
/// [`compute_orb`] rejects key points within `PATCH_RADIUS + 1` of the
/// border before calling this, so every tap is in bounds and reads the
/// raw row directly (same pixels the clamped form would return).
///
/// The moments are integers: every term `dx·v` and every partial sum is
/// below 2²⁰ in magnitude, so summing in `i32` gives exactly the value an
/// `f64` sum in any order gives, and the conversion to `f64` is exact.
fn patch_orientation(img: &GrayImage, cx: i64, cy: i64) -> f32 {
    let w = img.width() as i64;
    debug_assert!(
        cx > PATCH_RADIUS
            && cy > PATCH_RADIUS
            && cx + PATCH_RADIUS < w
            && cy + PATCH_RADIUS < img.height() as i64,
        "patch_orientation requires an interior patch"
    );
    let raw = img.as_raw();
    let mut m01 = 0i32;
    let mut m10 = 0i32;
    for (dy, &span) in (-PATCH_RADIUS..=PATCH_RADIUS).zip(&PATCH_SPANS) {
        let centre = ((cy + dy) * w + cx) as usize;
        // The interior margin asserted above keeps the row's span inside
        // the image.
        let row = &raw[centre - span as usize..=centre + span as usize];
        let mut row_sum = 0i32;
        for (dx, &v) in (-span as i32..).zip(row) {
            m10 += dx * i32::from(v);
            row_sum += i32::from(v);
        }
        m01 += dy as i32 * row_sum;
    }
    (f64::from(m01).atan2(f64::from(m10))) as f32
}

/// Computes an ORB descriptor at a key point on the (pre-smoothed) image.
///
/// Returns `None` when the patch would fall outside the image (callers
/// should drop such border key points rather than describe unreliable
/// content).
pub fn compute_orb(img: &GrayImage, kp: &KeyPoint, cfg: &OrbConfig) -> Option<OrbDescriptor> {
    compute_orb_with(img, kp, cfg, Isa::detect())
}

/// [`compute_orb`] with the rotated-BRIEF tests on the kernel `isa`
/// names.
fn compute_orb_with(
    img: &GrayImage,
    kp: &KeyPoint,
    cfg: &OrbConfig,
    isa: Isa,
) -> Option<OrbDescriptor> {
    let (w, h) = img.dimensions();
    let cx = kp.x.round() as i64;
    let cy = kp.y.round() as i64;
    let margin = PATCH_RADIUS + 1;
    if cx < margin || cy < margin || cx >= w as i64 - margin || cy >= h as i64 - margin {
        return None;
    }
    let (sin_t, cos_t) = if cfg.oriented {
        patch_orientation(img, cx, cy).sin_cos()
    } else {
        (0.0, 1.0)
    };
    Some(match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2(avx2) => avx2::rotated_brief(avx2, img, kp, (sin_t, cos_t)),
        Isa::Portable => rotated_brief(img, kp, (sin_t, cos_t)),
    })
}

/// The 256 rotated-BRIEF tests around `kp`, rotated by `(sin θ, cos θ)`:
/// the portable path.
fn rotated_brief(img: &GrayImage, kp: &KeyPoint, rot: (f32, f32)) -> OrbDescriptor {
    let mut desc = OrbDescriptor::zero();
    for (i, pair) in sampling_pattern().iter().enumerate() {
        if brief_test(img, pair, kp, rot) {
            desc.set_bit(i);
        }
    }
    desc
}

/// One rotated-BRIEF test: whether the first point of `pair`, rotated by
/// `(sin θ, cos θ)` about `kp`, samples darker than the second.
#[inline]
fn brief_test(
    img: &GrayImage,
    &((ax, ay), (bx, by)): &((f32, f32), (f32, f32)),
    kp: &KeyPoint,
    (sin_t, cos_t): (f32, f32),
) -> bool {
    // Rotate offsets by the patch orientation.
    let ra = (
        (cos_t * ax - sin_t * ay) + kp.x,
        (sin_t * ax + cos_t * ay) + kp.y,
    );
    let rb = (
        (cos_t * bx - sin_t * by) + kp.x,
        (sin_t * bx + cos_t * by) + kp.y,
    );
    img.sample_bilinear(ra.0, ra.1) < img.sample_bilinear(rb.0, rb.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Renders a deterministic textured blob at `(cx, cy)`, rotated by
    /// `angle`. The texture has a dominant gradient direction so the
    /// intensity-centroid orientation is well defined.
    fn blob_image(cx: f32, cy: f32, angle: f32) -> GrayImage {
        GrayImage::from_fn(64, 64, |x, y| {
            let dx = x as f32 - cx;
            let dy = y as f32 - cy;
            // Rotate the texture lookup by -angle.
            let (s, c) = (-angle).sin_cos();
            let u = c * dx - s * dy;
            let v = s * dx + c * dy;
            let val = 120.0 + 3.5 * u + 35.0 * ((u * 0.6).sin() * (v * 0.5).cos());
            val.clamp(0.0, 255.0) as u8
        })
    }

    #[test]
    fn descriptor_is_reproducible() {
        let img = blob_image(32.0, 32.0, 0.0);
        let kp = KeyPoint::new(32.0, 32.0, 1.0);
        let a = compute_orb(&img, &kp, &OrbConfig::default()).unwrap();
        let b = compute_orb(&img, &kp, &OrbConfig::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn same_patch_matches_translated_copy() {
        let a_img = blob_image(30.0, 30.0, 0.0);
        let b_img = blob_image(34.0, 28.0, 0.0);
        let a = compute_orb(&a_img, &KeyPoint::new(30.0, 30.0, 1.0), &OrbConfig::default()).unwrap();
        let b = compute_orb(&b_img, &KeyPoint::new(34.0, 28.0, 1.0), &OrbConfig::default()).unwrap();
        assert!(a.hamming(&b) < 40, "distance {}", a.hamming(&b));
    }

    #[test]
    fn different_patches_do_not_match() {
        let a_img = blob_image(32.0, 32.0, 0.0);
        // A very different texture.
        let b_img = GrayImage::from_fn(64, 64, |x, y| (((x / 3) ^ (y / 5)) * 37 % 256) as u8);
        let a = compute_orb(&a_img, &KeyPoint::new(32.0, 32.0, 1.0), &OrbConfig::default()).unwrap();
        let b = compute_orb(&b_img, &KeyPoint::new(32.0, 32.0, 1.0), &OrbConfig::default()).unwrap();
        assert!(a.hamming(&b) > 70, "distance {}", a.hamming(&b));
    }

    #[test]
    fn rotation_invariance_with_orientation() {
        let a_img = blob_image(32.0, 32.0, 0.0);
        let b_img = blob_image(32.0, 32.0, 0.9);
        let kp = KeyPoint::new(32.0, 32.0, 1.0);
        let oriented = OrbConfig { oriented: true };
        let plain = OrbConfig { oriented: false };
        let a_o = compute_orb(&a_img, &kp, &oriented).unwrap();
        let b_o = compute_orb(&b_img, &kp, &oriented).unwrap();
        let a_p = compute_orb(&a_img, &kp, &plain).unwrap();
        let b_p = compute_orb(&b_img, &kp, &plain).unwrap();
        // Oriented descriptors must match much better under rotation.
        assert!(
            a_o.hamming(&b_o) + 25 < a_p.hamming(&b_p),
            "oriented {} vs plain {}",
            a_o.hamming(&b_o),
            a_p.hamming(&b_p)
        );
    }

    #[test]
    fn border_keypoints_rejected() {
        let img = blob_image(32.0, 32.0, 0.0);
        assert!(compute_orb(&img, &KeyPoint::new(3.0, 3.0, 1.0), &OrbConfig::default()).is_none());
        assert!(compute_orb(&img, &KeyPoint::new(62.0, 32.0, 1.0), &OrbConfig::default()).is_none());
    }

    #[test]
    fn pattern_offsets_stay_in_patch() {
        for &((ax, ay), (bx, by)) in sampling_pattern() {
            assert!(ax * ax + ay * ay <= SAMPLE_RADIUS * SAMPLE_RADIUS + 1e-3);
            assert!(bx * bx + by * by <= SAMPLE_RADIUS * SAMPLE_RADIUS + 1e-3);
        }
    }

    #[test]
    fn patch_spans_match_sqrt_formula() {
        // The table must give the half-widths of the `sqrt` formula.
        for dy in -PATCH_RADIUS..=PATCH_RADIUS {
            let span = ((PATCH_RADIUS * PATCH_RADIUS - dy * dy) as f64).sqrt() as i64;
            assert_eq!(PATCH_SPANS[(dy + PATCH_RADIUS) as usize], span, "dy={dy}");
        }
    }

    /// The orientation as the `f64` moment sums over every offset of the
    /// circular mask, in row-major order.
    fn orientation_f64(img: &GrayImage, cx: i64, cy: i64) -> f32 {
        let (mut m01, mut m10) = (0.0f64, 0.0f64);
        for dy in -PATCH_RADIUS..=PATCH_RADIUS {
            for dx in -PATCH_RADIUS..=PATCH_RADIUS {
                if dx * dx + dy * dy <= PATCH_RADIUS * PATCH_RADIUS {
                    let v = img.get((cx + dx) as u32, (cy + dy) as u32) as f64;
                    m10 += dx as f64 * v;
                    m01 += dy as f64 * v;
                }
            }
        }
        m01.atan2(m10) as f32
    }

    #[test]
    fn integer_orientation_matches_f64_sums() {
        // Random content, a ramp (one strong moment), a single bright
        // pixel (sums of one nonzero term) and all-255 (the largest
        // terms and partial sums).
        let mut next = uniform(0x0123_4567_89AB_CDEF);
        let noise = GrayImage::from_fn(61, 47, |_, _| (next() * 256.0) as u8);
        let mut spot = GrayImage::new(61, 47);
        spot.put(33, 20, 255);
        let images = [
            noise,
            GrayImage::from_fn(61, 47, |x, y| (x * 4 + y) as u8),
            spot,
            GrayImage::filled(61, 47, 255),
        ];
        let m = PATCH_RADIUS + 1;
        for img in &images {
            for cy in m..img.height() as i64 - m {
                for cx in m..img.width() as i64 - m {
                    assert_eq!(
                        patch_orientation(img, cx, cy).to_bits(),
                        orientation_f64(img, cx, cy).to_bits(),
                        "({cx}, {cy})"
                    );
                }
            }
        }
    }

    /// A deterministic xorshift stream in `[0, 1)`.
    fn uniform(seed: u64) -> impl FnMut() -> f32 {
        let mut state = seed;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u64 << 24) as f32
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn simd_orb_tests_match_portable_on_random_key_points() {
        // The kernels directly, bypassing compute_orb's border check:
        // random sub-pixel key points over and past the whole image,
        // random rotations, plus absurd and NaN positions. Groups with a
        // sample outside the interior exercise the scalar fallback.
        let Some(avx2) = eudoxus_image::isa::Avx2::detect() else {
            eprintln!("host lacks AVX2: portable-vs-AVX2 comparison skipped");
            return;
        };
        // Flat checkerboard cells (ties between samples) beside noise.
        let img = GrayImage::from_fn(97, 83, |x, y| match (x / 6 + y / 6) % 2 {
            0 => 90,
            _ => ((x * 31 + y * 17 + x * y) % 251) as u8,
        });
        let mut next = uniform(0x5DEE_CE66_D1CE_5EED);
        let mut kps: Vec<KeyPoint> = (0..3000)
            .map(|_| KeyPoint::new(next() * 117.0 - 10.0, next() * 103.0 - 10.0, 0.0))
            .collect();
        for (x, y) in [
            (1e19, 40.0),
            (40.0, -1e19),
            (f32::NAN, 30.0),
            (30.0, f32::NAN),
        ] {
            kps.push(KeyPoint::new(x, y, 0.0));
        }
        for kp in &kps {
            let rot = (next() * 6.3).sin_cos();
            for rot in [rot, (0.0, 1.0)] {
                let want = rotated_brief(&img, kp, rot);
                let got = avx2::rotated_brief(avx2, &img, kp, rot);
                assert_eq!(got, want, "key point {kp:?}, rotation {rot:?}");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn simd_orb_descriptors_match_portable() {
        // Through compute_orb: orientation, border rejection and the
        // tests, oriented and plain, at random sub-pixel key points.
        let Some(avx2) = eudoxus_image::isa::Avx2::detect() else {
            eprintln!("host lacks AVX2: portable-vs-AVX2 comparison skipped");
            return;
        };
        let img = blob_image(40.0, 36.0, 0.7);
        let mut next = uniform(0x0DDB_1A5E_5BAD_5EED);
        let mut described = 0;
        for _ in 0..1000 {
            let kp = KeyPoint::new(next() * 64.0, next() * 64.0, 0.0);
            for oriented in [true, false] {
                let cfg = OrbConfig { oriented };
                let want = compute_orb_with(&img, &kp, &cfg, Isa::Portable);
                let got = compute_orb_with(&img, &kp, &cfg, Isa::Avx2(avx2));
                assert_eq!(got, want, "key point {kp:?}, oriented {oriented}");
                described += usize::from(want.is_some());
            }
        }
        assert!(
            described > 500,
            "fixture must describe most key points ({described})"
        );
    }
}
