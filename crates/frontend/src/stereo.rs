//! Stereo matching (the MO and DR tasks of paper Fig. 12).
//!
//! Two stages, exactly as the accelerator splits them:
//!
//! * **Matching optimization (MO)** — for every left feature, find the right
//!   feature with minimum Hamming distance inside the epipolar band and
//!   admissible disparity range.
//! * **Disparity refinement (DR)** — refine the matched disparity to
//!   sub-pixel precision by block matching: a SAD parabola fit around the
//!   integer disparity \[48\].
//!
//! DR takes the paper's integer-pixel route whenever the inputs allow
//! it: when the left key point and the matched disparity are integers
//! (every FAST corner is one) and the block radius is at most 127, each
//! bilinear sample of the three SAD blocks falls on a pixel, so the SADs
//! are integer sums over the `u8` pixels, clamped at the borders. That
//! is bit-identical to the `f32` bilinear SADs, whose every partial sum
//! is an integer below `(2r+1)²·255 < 2^24` and therefore exact. Other
//! inputs (sub-pixel key points, larger blocks) take the bilinear SADs.

use crate::feature::Feature;
use eudoxus_image::GrayImage;

/// Stereo matcher parameters.
#[derive(Debug, Clone, Copy)]
pub struct StereoConfig {
    /// Maximum Hamming distance to accept a match.
    pub max_hamming: u32,
    /// Epipolar tolerance: maximum row difference (pixels).
    pub epipolar_tolerance: f32,
    /// Minimum admissible disparity (pixels).
    pub min_disparity: f32,
    /// Maximum admissible disparity (pixels).
    pub max_disparity: f32,
    /// Lowe-style ratio: best distance must be below `ratio × second best`.
    pub ratio: f32,
    /// Half-size of the SAD block used by refinement.
    pub block_radius: i64,
}

impl Default for StereoConfig {
    fn default() -> Self {
        StereoConfig {
            max_hamming: 60,
            epipolar_tolerance: 1.5,
            min_disparity: 0.3,
            max_disparity: 200.0,
            ratio: 0.9,
            block_radius: 4,
        }
    }
}

/// One spatial correspondence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StereoMatch {
    /// Index into the left feature list.
    pub left_index: usize,
    /// Index into the right feature list.
    pub right_index: usize,
    /// Refined sub-pixel disparity (pixels, positive).
    pub disparity: f32,
    /// Hamming distance of the accepted match.
    pub distance: u32,
}

/// Sum of absolute differences between blocks centered at `(lx, ly)` in the
/// left image and `(rx, ly)` in the right image.
fn block_sad(left: &GrayImage, right: &GrayImage, lx: f32, ly: f32, rx: f32, radius: i64) -> f32 {
    let mut sad = 0.0f32;
    for dy in -radius..=radius {
        for dx in -radius..=radius {
            let lv = left.sample_bilinear(lx + dx as f32, ly + dy as f32);
            let rv = right.sample_bilinear(rx + dx as f32, ly + dy as f32);
            sad += (lv - rv).abs();
        }
    }
    sad
}

/// `(lx, ly, d0)` as integers when [`block_sad_int`] reproduces
/// [`block_sad`] bit for bit at them: all three are integers in
/// `[0, 2^23)` and `0 ≤ radius ≤ 127`. Then every sample coordinate of
/// the three blocks, `lx − d0 ± 1 + dx` included, is an integer below
/// `2^24` in magnitude, exact in `f32`, where a bilinear sample is the
/// clamped pixel itself; and each block's `f32` partial sums are
/// integers below `(2r+1)²·255 ≤ 255³ < 2^24`, so they are exact too.
fn integer_block(lx: f32, ly: f32, d0: f32, radius: i64) -> Option<(i64, i64, i64)> {
    let int = |v: f32| ((0.0..8_388_608.0).contains(&v) && v.fract() == 0.0).then_some(v as i64);
    if !(0..=127).contains(&radius) {
        return None;
    }
    Some((int(lx)?, int(ly)?, int(d0)?))
}

/// [`block_sad`] at integer centers on the `u8` pixels: the sum of
/// `|left − right|` over the `(2r+1)²` block, every tap clamped to its
/// image as `sample_bilinear` clamps it.
fn block_sad_int(
    left: &GrayImage,
    right: &GrayImage,
    lx: i64,
    ly: i64,
    rx: i64,
    radius: i64,
) -> u32 {
    let mut sad = 0;
    for y in ly - radius..=ly + radius {
        for dx in -radius..=radius {
            let (l, r) = (left.get_clamped(lx + dx, y), right.get_clamped(rx + dx, y));
            sad += u32::from(l.abs_diff(r));
        }
    }
    sad
}

/// Sub-pixel disparity refinement by SAD parabola fit at `d−1, d, d+1`,
/// on integer pixels where [`integer_block`] allows it.
fn refine_disparity(
    left: &GrayImage,
    right: &GrayImage,
    lx: f32,
    ly: f32,
    d0: f32,
    cfg: &StereoConfig,
) -> f32 {
    let r = cfg.block_radius;
    let (s_m, s_0, s_p) = match integer_block(lx, ly, d0, r) {
        Some((x, y, d)) => {
            let sad = |rx| block_sad_int(left, right, x, y, rx, r) as f32;
            (sad(x - d + 1), sad(x - d), sad(x - d - 1))
        }
        None => (
            block_sad(left, right, lx, ly, lx - d0 + 1.0, r),
            block_sad(left, right, lx, ly, lx - d0, r),
            block_sad(left, right, lx, ly, lx - d0 - 1.0, r),
        ),
    };
    // Parabola vertex of the three SAD samples; offset bounded to ±0.5.
    let denom = s_m - 2.0 * s_0 + s_p;
    if denom.abs() < 1e-6 {
        return d0;
    }
    let offset = 0.5 * (s_p - s_m) / denom;
    // Note the sign convention: larger disparity = right patch farther left.
    (d0 - offset.clamp(-0.5, 0.5)).max(cfg.min_disparity)
}

/// Matches left features against right features (MO), then refines the
/// accepted disparities (DR). Returns matches sorted by left index; each
/// right feature is used at most once (greedy best-distance assignment).
pub fn match_stereo(
    left_features: &[Feature],
    right_features: &[Feature],
    left_img: &GrayImage,
    right_img: &GrayImage,
    cfg: &StereoConfig,
) -> Vec<StereoMatch> {
    // Sort right features by row for banded lookup.
    let mut right_order: Vec<usize> = (0..right_features.len()).collect();
    right_order.sort_by(|&a, &b| right_features[a].keypoint.y.total_cmp(&right_features[b].keypoint.y));
    let rows: Vec<f32> = right_order
        .iter()
        .map(|&i| right_features[i].keypoint.y)
        .collect();

    let mut proposals: Vec<StereoMatch> = Vec::new();
    for (li, lf) in left_features.iter().enumerate() {
        let y = lf.keypoint.y;
        let lo = rows.partition_point(|&r| r < y - cfg.epipolar_tolerance);
        let hi = rows.partition_point(|&r| r <= y + cfg.epipolar_tolerance);
        let mut best: Option<(usize, u32)> = None;
        let mut second = u32::MAX;
        for &ri in &right_order[lo..hi] {
            let rf = &right_features[ri];
            let disparity = lf.keypoint.x - rf.keypoint.x;
            if disparity < cfg.min_disparity || disparity > cfg.max_disparity {
                continue;
            }
            let d = lf.descriptor.hamming(&rf.descriptor);
            match best {
                None => best = Some((ri, d)),
                Some((_, bd)) if d < bd => {
                    second = bd;
                    best = Some((ri, d));
                }
                Some(_) => second = second.min(d),
            }
        }
        if let Some((ri, d)) = best {
            let pass_ratio = second == u32::MAX || (d as f32) < cfg.ratio * second as f32;
            if d <= cfg.max_hamming && pass_ratio {
                let d0 = lf.keypoint.x - right_features[ri].keypoint.x;
                let refined = refine_disparity(left_img, right_img, lf.keypoint.x, lf.keypoint.y, d0, cfg);
                proposals.push(StereoMatch {
                    left_index: li,
                    right_index: ri,
                    disparity: refined,
                    distance: d,
                });
            }
        }
    }

    // Enforce one-to-one on right features: keep the smallest distance.
    proposals.sort_by_key(|m| m.distance);
    let mut right_used = vec![false; right_features.len()];
    let mut accepted: Vec<StereoMatch> = Vec::new();
    for m in proposals {
        if !right_used[m.right_index] {
            right_used[m.right_index] = true;
            accepted.push(m);
        }
    }
    accepted.sort_by_key(|m| m.left_index);
    accepted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::{KeyPoint, OrbDescriptor};

    fn desc_with_bits(bits: &[usize]) -> OrbDescriptor {
        let mut d = OrbDescriptor::zero();
        for &b in bits {
            d.set_bit(b);
        }
        d
    }

    fn feat(x: f32, y: f32, bits: &[usize]) -> Feature {
        Feature {
            keypoint: KeyPoint::new(x, y, 1.0),
            descriptor: desc_with_bits(bits),
        }
    }

    fn flat() -> GrayImage {
        GrayImage::filled(64, 64, 100)
    }

    #[test]
    fn matches_identical_descriptors_on_epipolar_line() {
        let left = vec![feat(40.0, 20.0, &[1, 2, 3])];
        let right = vec![feat(30.0, 20.0, &[1, 2, 3])];
        let m = match_stereo(&left, &right, &flat(), &flat(), &StereoConfig::default());
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].left_index, 0);
        assert_eq!(m[0].right_index, 0);
        assert!((m[0].disparity - 10.0).abs() <= 0.5);
        assert_eq!(m[0].distance, 0);
    }

    #[test]
    fn rejects_row_violation() {
        let left = vec![feat(40.0, 20.0, &[1])];
        let right = vec![feat(30.0, 26.0, &[1])];
        assert!(match_stereo(&left, &right, &flat(), &flat(), &StereoConfig::default()).is_empty());
    }

    #[test]
    fn rejects_negative_disparity() {
        // Right feature to the right of the left feature — impossible for a
        // physical point.
        let left = vec![feat(30.0, 20.0, &[1])];
        let right = vec![feat(40.0, 20.0, &[1])];
        assert!(match_stereo(&left, &right, &flat(), &flat(), &StereoConfig::default()).is_empty());
    }

    #[test]
    fn rejects_large_hamming() {
        let left = vec![feat(40.0, 20.0, &(0..100).collect::<Vec<_>>())];
        let right = vec![feat(30.0, 20.0, &(100..200).collect::<Vec<_>>())];
        assert!(match_stereo(&left, &right, &flat(), &flat(), &StereoConfig::default()).is_empty());
    }

    #[test]
    fn one_to_one_assignment_keeps_best() {
        // Two left features compete for one right feature; the closer
        // descriptor (exact match) must win.
        let left = vec![
            feat(40.0, 20.0, &[1, 2, 3]),
            feat(42.0, 20.0, &[1, 2, 3, 4, 5, 6, 7, 8]),
        ];
        let right = vec![feat(30.0, 20.0, &[1, 2, 3])];
        let cfg = StereoConfig {
            ratio: 1.0,
            ..StereoConfig::default()
        };
        let m = match_stereo(&left, &right, &flat(), &flat(), &cfg);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].left_index, 0);
    }

    #[test]
    fn subpixel_refinement_on_rendered_edge() {
        // Left image: step edge at x = 32.3; right image: same edge shifted
        // by disparity 4.6 (at x = 27.7).
        let edge = |x0: f32| {
            GrayImage::from_fn(64, 64, |x, _| {
                let v = 60.0 + 140.0 / (1.0 + (-(x as f32 - x0) * 2.0).exp());
                v as u8
            })
        };
        let left_img = edge(32.3);
        let right_img = edge(27.7);
        let left = vec![feat(32.0, 32.0, &[1])];
        let right = vec![feat(27.0, 32.0, &[1])];
        let m = match_stereo(&left, &right, &left_img, &right_img, &StereoConfig::default());
        assert_eq!(m.len(), 1);
        assert!(
            (m[0].disparity - 4.6).abs() < 0.35,
            "refined disparity {}",
            m[0].disparity
        );
    }

    /// A `w × h` image of hashed pseudo-random bytes.
    fn noise(w: u32, h: u32, seed: u32) -> GrayImage {
        GrayImage::from_fn(w, h, |x, y| {
            let v =
                (x.wrapping_mul(7919) ^ y.wrapping_mul(104_729) ^ seed).wrapping_mul(2_654_435_761);
            (v >> 24) as u8
        })
    }

    #[test]
    fn integer_sads_equal_bilinear_sads_at_every_integer_position() {
        // Every left center of the image, right centers one pixel past
        // either border, blocks reaching past every border: the integer
        // SAD equals the bilinear one bit for bit. Radius 127 (the
        // largest block whose sums stay below 2^24) runs on a smaller
        // image to keep the bilinear reference affordable.
        for (radius, w, h) in [(0, 13, 11), (1, 13, 11), (4, 13, 11), (127, 5, 4)] {
            let (left, right) = (noise(w, h, 1), noise(w, h, 2));
            for ly in 0..h as i64 {
                for lx in 0..w as i64 {
                    for rx in -1..=w as i64 {
                        let want =
                            block_sad(&left, &right, lx as f32, ly as f32, rx as f32, radius);
                        let got = block_sad_int(&left, &right, lx, ly, rx, radius) as f32;
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "radius {radius} at ({lx}, {ly}), rx {rx}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn integer_path_takes_only_exact_inputs() {
        assert_eq!(integer_block(12.0, 7.0, 3.0, 4), Some((12, 7, 3)));
        assert_eq!(integer_block(12.0, 7.0, 3.0, 0), Some((12, 7, 3)));
        assert_eq!(integer_block(12.0, 7.0, 3.0, 127), Some((12, 7, 3)));
        // (2·128+1)²·255 ≥ 2^24: an f32 partial sum could round.
        assert_eq!(integer_block(12.0, 7.0, 3.0, 128), None);
        assert_eq!(integer_block(12.0, 7.0, 3.0, -1), None);
        // Sub-pixel, negative, too large or non-finite inputs.
        for (lx, ly, d0) in [
            (12.25, 7.0, 3.0),
            (12.0, 7.5, 3.0),
            (12.0, 7.0, 3.75),
            (12.0, 7.0, -3.0),
            (-1.0, 7.0, 3.0),
            (8_388_608.0, 7.0, 3.0),
            (12.0, f32::NAN, 3.0),
            (12.0, 7.0, f32::INFINITY),
        ] {
            assert_eq!(integer_block(lx, ly, d0, 4), None, "({lx}, {ly}, {d0})");
        }
    }

    #[test]
    fn empty_inputs_are_fine() {
        assert!(match_stereo(&[], &[], &flat(), &flat(), &StereoConfig::default()).is_empty());
    }
}
