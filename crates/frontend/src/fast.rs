//! FAST corner detection (the FD task of paper Fig. 12).
//!
//! Implements the FAST-9 segment test of Rosten & Drummond \[74\]: a pixel is
//! a corner when at least 9 contiguous pixels on the 16-pixel Bresenham
//! circle are all brighter than `center + t` or all darker than
//! `center − t`. Non-maximum suppression keeps the locally strongest
//! responses, and a bucketing pass spreads key points across the image the
//! way production frontends do.
//!
//! The scan is a row stencil like the paper's FD block: a branch-free
//! compass pre-test writes each row's candidates into a byte mask (plain
//! Rust that the compiler vectorizes), the full segment test runs only
//! where the mask is set (under 1 % of pixels on drone frames), and
//! non-maximum suppression walks the row-major list of positive
//! responses. Results are bit-identical to the seed detector kept in
//! `eudoxus_bench::baseline`.

use crate::feature::KeyPoint;
use eudoxus_image::GrayImage;

/// Offsets of the 16-pixel Bresenham circle of radius 3, clockwise from
/// 12 o'clock.
pub const CIRCLE: [(i64, i64); 16] = [
    (0, -3),
    (1, -3),
    (2, -2),
    (3, -1),
    (3, 0),
    (3, 1),
    (2, 2),
    (1, 3),
    (0, 3),
    (-1, 3),
    (-2, 2),
    (-3, 1),
    (-3, 0),
    (-3, -1),
    (-2, -2),
    (-1, -3),
];

/// Minimum contiguous arc length for the segment test (FAST-9).
const ARC: usize = 9;

/// FAST detector parameters.
#[derive(Debug, Clone, Copy)]
pub struct FastConfig {
    /// Intensity threshold `t` of the segment test.
    pub threshold: u8,
    /// Cap on returned key points (strongest kept, spread via grid cells).
    pub max_keypoints: usize,
    /// Grid cell edge for spatial bucketing (pixels).
    pub cell_size: u32,
}

impl Default for FastConfig {
    fn default() -> Self {
        FastConfig {
            threshold: 22,
            max_keypoints: 800,
            cell_size: 40,
        }
    }
}

/// Segment-test classification of one pixel; returns the corner response
/// (0 when not a corner). The response is the sum of absolute differences
/// beyond the threshold over the circle — the score used for NMS.
///
/// The caller's scan loop keeps `(x, y)` at least 3 pixels inside every
/// border, so each circle tap is in bounds and the per-tap clamp of the
/// seed implementation reduces to an unchecked read (same pixels, same
/// arithmetic — the clamp never fired on the interior). The caller has
/// also already passed the compass quick-reject (FAST-9 needs ≥ 2
/// consistent extremes among the 4 compass points for any length-9 arc),
/// so this evaluates the full wrap-around segment test directly — for a
/// pixel that passed the pre-test, the seed code reached the same point
/// with the same state.
///
/// The segment test runs on bit masks: bit `k` of `bright` (`dark`) is
/// set when ring pixel `k` is brighter than `c + t` (darker than
/// `c − t`), and [`has_arc`] finds a wrap-around run of [`ARC`] set bits
/// without a branch per pixel. It decides exactly as the seed's run scan
/// (checked on all 2¹⁶ masks by a unit test).
fn corner_response(img: &GrayImage, x: u32, y: u32, t: u8) -> f32 {
    debug_assert!(
        x >= 3 && y >= 3 && x + 3 < img.width() && y + 3 < img.height(),
        "corner_response requires a 3-pixel interior margin"
    );
    // SAFETY: the interior margin asserted above keeps every offset tap
    // of the radius-3 Bresenham circle in bounds.
    let tap = |dx: i64, dy: i64| unsafe {
        img.get_unchecked((x as i64 + dx) as u32, (y as i64 + dy) as u32) as i32
    };
    let c = tap(0, 0);
    let t = t as i32;

    let mut ring = [0i32; 16];
    for (slot, &(dx, dy)) in ring.iter_mut().zip(CIRCLE.iter()) {
        *slot = tap(dx, dy);
    }
    let (mut bright, mut dark) = (0u16, 0u16);
    for (k, &p) in ring.iter().enumerate() {
        bright |= u16::from(p > c + t) << k;
        dark |= u16::from(p < c - t) << k;
    }
    if !(has_arc(bright) || has_arc(dark)) {
        return 0.0;
    }
    ring.iter()
        .map(|&p| ((p - c).abs() - t).max(0))
        .sum::<i32>() as f32
}

/// Whether the 16-pixel ring `mask` (bit `k` is ring pixel `k`) holds a
/// run of at least [`ARC`] set bits, wrapping around. Doubling the mask
/// to 32 bits turns every wrap-around run into a plain one; four
/// shift-ANDs then leave bit `i` set exactly where bits `i ..= i + 8` are
/// all set (runs of 2, 4, 8, then 9).
fn has_arc(mask: u16) -> bool {
    const _: () = assert!(ARC == 9, "the shift-AND ladder tests runs of 9");
    let m = u32::from(mask) * 0x1_0001;
    let two = m & (m >> 1);
    let four = two & (two >> 2);
    let eight = four & (four >> 4);
    eight & (m >> 8) != 0
}

/// Reusable workspaces for [`detect_fast_into`]: the full-image response
/// map, the per-row compass mask, the list of positive responses, the
/// NMS candidate list, and the bucketing buffers. One warm-up call at a
/// given image size makes every subsequent call allocation-free.
#[derive(Debug, Clone, Default)]
pub struct FastScratch {
    /// Corner responses by flat pixel index. Zero everywhere between
    /// calls: a call writes only the positive responses and zeroes them
    /// again before it returns.
    responses: Vec<f32>,
    /// One row's compass pre-test over the interior columns (1 where the
    /// full segment test must run), zero-padded to a multiple of 8.
    mask: Vec<u8>,
    /// Flat indices of the positive responses, in row-major order.
    positives: Vec<u32>,
    candidates: Vec<KeyPoint>,
    sort_buf: Vec<KeyPoint>,
    cell_counts: Vec<u32>,
    spill: Vec<KeyPoint>,
}

/// Detects FAST-9 corners with 3×3 non-maximum suppression and grid
/// bucketing.
///
/// Returns key points sorted by descending response. Thin wrapper over
/// [`detect_fast_into`] with throwaway buffers; steady-state callers
/// (e.g. the frontend, once per frame per eye) should hold a
/// [`FastScratch`] and call the `_into` form instead.
pub fn detect_fast(img: &GrayImage, cfg: &FastConfig) -> Vec<KeyPoint> {
    let mut scratch = FastScratch::default();
    let mut out = Vec::new();
    detect_fast_into(img, cfg, &mut scratch, &mut out);
    out
}

/// [`detect_fast`] into a reusable output vector with reusable internal
/// buffers. Bit-identical results (same key points in the same order);
/// zero heap allocations once `scratch` and `out` are warm.
pub fn detect_fast_into(
    img: &GrayImage,
    cfg: &FastConfig,
    scratch: &mut FastScratch,
    out: &mut Vec<KeyPoint>,
) {
    out.clear();
    let (w, h) = img.dimensions();
    if w < 8 || h < 8 {
        return;
    }
    let (wu, hu) = (w as usize, h as usize);
    // The map is all zero on entry, so growing it with zeros is enough.
    scratch.responses.resize(wu * hu, 0.0);
    scratch.positives.clear();
    // Interior columns `3 .. w − 3`; the padding stays zero.
    let inner = wu - 6;
    scratch.mask.clear();
    scratch.mask.resize(inner.next_multiple_of(8), 0);
    let raw = img.as_raw();
    for y in 3..hu - 3 {
        let row = |dy: usize| &raw[(y + dy - 3) * wu..][..wu];
        let (up3, mid, dn3) = (row(0), row(3), row(6));
        compass_mask(
            &mid[3..wu - 3],
            [&up3[3..wu - 3], &mid[6..], &dn3[3..wu - 3], &mid[..wu - 6]],
            cfg.threshold,
            &mut scratch.mask[..inner],
        );
        // Walk the set mask bytes eight at a time: most chunks are zero.
        for (chunk, bytes) in scratch.mask.chunks_exact(8).enumerate() {
            let mut bits = u64::from_le_bytes(bytes.try_into().expect("8-byte chunk"));
            while bits != 0 {
                let x = 3 + 8 * chunk + bits.trailing_zeros() as usize / 8;
                bits &= bits - 1;
                let r = corner_response(img, x as u32, y as u32, cfg.threshold);
                if r > 0.0 {
                    let i = y * wu + x;
                    scratch.responses[i] = r;
                    scratch.positives.push(i as u32);
                }
            }
        }
    }
    // 3×3 non-maximum suppression over the positive responses, in
    // row-major order (the order a full scan of the map visits them).
    // Interior pixels have all eight neighbours inside the map; a
    // neighbour that is not a positive response reads 0.
    let map = &scratch.responses;
    let wi = wu as isize;
    let neighbours = [-wi - 1, -wi, -wi + 1, -1, 1, wi - 1, wi, wi + 1];
    scratch.candidates.clear();
    for &i in &scratch.positives {
        let i = i as usize;
        let r = map[i];
        // A neighbour before the pixel in scan order (the first four)
        // suppresses it on a tie; one after it must be strictly stronger.
        let is_max = neighbours.iter().enumerate().all(|(k, &d)| {
            let n = map[i.wrapping_add_signed(d)];
            !(n > r || (n == r && k < 4))
        });
        if is_max {
            let (x, y) = (i % wu, i / wu);
            scratch
                .candidates
                .push(KeyPoint::new(x as f32, y as f32, r));
        }
    }
    for &i in &scratch.positives {
        scratch.responses[i as usize] = 0.0;
    }
    bucket_keypoints_into(scratch, w, h, cfg, out);
}

/// The compass pre-test of the segment test for one row: `mask[i]` is 1
/// when at least two of the four compass pixels `compass[·][i]` (12, 3,
/// 6 and 9 o'clock) are brighter than `centre[i] + t`, or at least two
/// are darker than `centre[i] − t` (FAST-9 needs that for any 9-pixel
/// arc), and 0 otherwise. Pixels that fail score 0 in the full test too.
///
/// The bounds saturate in `u8`: no pixel exceeds 255 or falls below 0,
/// so `p > min(c + t, 255)` equals `p > c + t` and `p < max(c − t, 0)`
/// equals `p < c − t`. The loop has no branches and compiles to vector
/// code on every target.
fn compass_mask(centre: &[u8], compass: [&[u8]; 4], t: u8, mask: &mut [u8]) {
    let n = mask.len();
    let (c, [p0, p4, p8, p12]) = (&centre[..n], compass.map(|p| &p[..n]));
    for i in 0..n {
        let (hi, lo) = (c[i].saturating_add(t), c[i].saturating_sub(t));
        let bright = u8::from(p0[i] > hi)
            + u8::from(p4[i] > hi)
            + u8::from(p8[i] > hi)
            + u8::from(p12[i] > hi);
        let dark = u8::from(p0[i] < lo)
            + u8::from(p4[i] < lo)
            + u8::from(p8[i] < lo)
            + u8::from(p12[i] < lo);
        mask[i] = u8::from(bright >= 2) | u8::from(dark >= 2);
    }
}

/// Stable descending-by-response sort into place, using a caller-owned
/// merge buffer instead of the hidden allocation `slice::sort_by` makes
/// per call. Stable sorts are order-unique for a given comparator, so the
/// result is identical to
/// `v.sort_by(|a, b| b.response.total_cmp(&a.response))`.
fn sort_desc_by_response(v: &mut [KeyPoint], buf: &mut Vec<KeyPoint>) {
    let n = v.len();
    if n < 2 {
        return;
    }
    buf.clear();
    buf.resize(n, KeyPoint::new(0.0, 0.0, 0.0));
    let mut width = 1;
    while width < n {
        let mut lo = 0;
        while lo < n {
            let mid = usize::min(lo + width, n);
            let hi = usize::min(lo + 2 * width, n);
            let (mut i, mut j) = (lo, mid);
            for slot in buf[lo..hi].iter_mut() {
                // Take the right run only when it is strictly stronger —
                // ties keep the left (earlier) element, i.e. stability.
                let take_right = j < hi
                    && (i >= mid
                        || v[j].response.total_cmp(&v[i].response) == std::cmp::Ordering::Greater);
                if take_right {
                    *slot = v[j];
                    j += 1;
                } else {
                    *slot = v[i];
                    i += 1;
                }
            }
            lo = hi;
        }
        v.copy_from_slice(&buf[..n]);
        width *= 2;
    }
}

/// Spreads key points over the image: keeps the strongest per grid cell
/// first, then fills remaining quota by global response order. Operates on
/// `scratch.candidates`, writing the selection into `out`.
fn bucket_keypoints_into(
    scratch: &mut FastScratch,
    w: u32,
    h: u32,
    cfg: &FastConfig,
    out: &mut Vec<KeyPoint>,
) {
    sort_desc_by_response(&mut scratch.candidates, &mut scratch.sort_buf);
    if scratch.candidates.len() <= cfg.max_keypoints {
        out.extend_from_slice(&scratch.candidates);
        return;
    }
    let cell = cfg.cell_size.max(8);
    let cols = w.div_ceil(cell);
    let rows = h.div_ceil(cell);
    scratch.cell_counts.clear();
    scratch.cell_counts.resize((cols * rows) as usize, 0);
    let per_cell = ((cfg.max_keypoints as u32) / (cols * rows).max(1)).max(1);
    scratch.spill.clear();
    for &kp in &scratch.candidates {
        // Checked before the push, so a budget of 0 takes nothing.
        if out.len() == cfg.max_keypoints {
            break;
        }
        let ci = (kp.y as u32 / cell) * cols + (kp.x as u32 / cell);
        if scratch.cell_counts[ci as usize] < per_cell {
            scratch.cell_counts[ci as usize] += 1;
            out.push(kp);
        } else {
            scratch.spill.push(kp);
        }
    }
    // Fill remaining quota with the strongest spilled points.
    for &kp in &scratch.spill {
        if out.len() >= cfg.max_keypoints {
            break;
        }
        out.push(kp);
    }
    sort_desc_by_response(out, &mut scratch.sort_buf);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A bright disc on dark background — an unambiguous corner source.
    fn disc_image() -> GrayImage {
        GrayImage::from_fn(40, 40, |x, y| {
            let dx = x as f32 - 20.0;
            let dy = y as f32 - 20.0;
            if dx * dx + dy * dy < 9.0 {
                220
            } else {
                30
            }
        })
    }

    #[test]
    fn detects_disc_boundary() {
        let kps = detect_fast(&disc_image(), &FastConfig::default());
        assert!(!kps.is_empty());
        // All detections near the disc.
        for kp in &kps {
            let dx = kp.x - 20.0;
            let dy = kp.y - 20.0;
            assert!(dx * dx + dy * dy < 49.0, "stray detection at {kp:?}");
        }
    }

    #[test]
    fn flat_image_has_no_corners() {
        let img = GrayImage::filled(64, 64, 100);
        assert!(detect_fast(&img, &FastConfig::default()).is_empty());
    }

    #[test]
    fn low_contrast_below_threshold_ignored() {
        let img = GrayImage::from_fn(40, 40, |x, _| if x < 20 { 100 } else { 110 });
        let cfg = FastConfig {
            threshold: 25,
            ..FastConfig::default()
        };
        assert!(detect_fast(&img, &cfg).is_empty());
    }

    #[test]
    fn dark_corner_also_detected() {
        // Dark disc on bright background (tests the "darker" arc branch).
        let img = GrayImage::from_fn(40, 40, |x, y| {
            let dx = x as f32 - 20.0;
            let dy = y as f32 - 20.0;
            if dx * dx + dy * dy < 9.0 {
                20
            } else {
                200
            }
        });
        assert!(!detect_fast(&img, &FastConfig::default()).is_empty());
    }

    #[test]
    fn max_keypoints_is_respected() {
        // A dense grid of bright discs — every disc produces corners.
        let img = GrayImage::from_fn(160, 160, |x, y| {
            let dx = (x % 16) as f32 - 8.0;
            let dy = (y % 16) as f32 - 8.0;
            if dx * dx + dy * dy < 9.0 {
                210
            } else {
                40
            }
        });
        let cfg = FastConfig {
            max_keypoints: 50,
            ..FastConfig::default()
        };
        let kps = detect_fast(&img, &cfg);
        assert!(kps.len() <= 50);
        assert!(kps.len() > 20);
        // Sorted by response.
        for w in kps.windows(2) {
            assert!(w[0].response >= w[1].response);
        }
    }

    #[test]
    fn zero_budget_returns_no_keypoints() {
        // The dense disc grid of `max_keypoints_is_respected`: enough
        // candidates for the bucketing path, whose per-cell pass would
        // otherwise take one key point from each of the 16 grid cells.
        let img = GrayImage::from_fn(160, 160, |x, y| {
            let dx = (x % 16) as f32 - 8.0;
            let dy = (y % 16) as f32 - 8.0;
            if dx * dx + dy * dy < 9.0 {
                210
            } else {
                40
            }
        });
        let cfg = FastConfig {
            max_keypoints: 0,
            ..FastConfig::default()
        };
        assert!(!detect_fast(&img, &FastConfig::default()).is_empty());
        assert!(detect_fast(&img, &cfg).is_empty());
    }

    #[test]
    fn saturating_bounds_match_i32_compass_test() {
        // Every (centre, pixel, threshold): the `u8` bounds of
        // `compass_mask` decide exactly as the `i32` comparisons.
        for c in 0..=255u8 {
            for t in 0..=255u8 {
                let (hi, lo) = (c.saturating_add(t), c.saturating_sub(t));
                let (ci, ti) = (i32::from(c), i32::from(t));
                for p in 0..=255u8 {
                    let pi = i32::from(p);
                    assert_eq!(p > hi, pi > ci + ti, "bright c={c} p={p} t={t}");
                    assert_eq!(p < lo, pi < ci - ti, "dark c={c} p={p} t={t}");
                }
            }
        }
    }

    #[test]
    fn compass_mask_matches_counting_test() {
        // Random rows of every length up to 70 (so every remainder of
        // the vector width), thresholds at and between the extremes.
        let mut state = 0x2545_F491u32;
        let mut byte = move || {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            (state >> 24) as u8
        };
        for n in 0..=70 {
            for t in [0u8, 1, 22, 128, 254, 255] {
                let rows: Vec<Vec<u8>> = (0..5).map(|_| (0..n).map(|_| byte()).collect()).collect();
                let compass = [&rows[1][..], &rows[2][..], &rows[3][..], &rows[4][..]];
                let mut mask = vec![7u8; n];
                compass_mask(&rows[0], compass, t, &mut mask);
                for i in 0..n {
                    let c = i32::from(rows[0][i]);
                    let t = i32::from(t);
                    let bright = compass.iter().filter(|p| i32::from(p[i]) > c + t).count();
                    let dark = compass.iter().filter(|p| i32::from(p[i]) < c - t).count();
                    assert_eq!(mask[i], u8::from(bright >= 2 || dark >= 2), "n={n} i={i}");
                }
            }
        }
    }

    /// The seed's segment test: a run scan over `16 + ARC` positions of
    /// the ring, wrapping around.
    fn seed_segment_test(ring: &[i32; 16], c: i32, t: i32) -> bool {
        let (mut bright_run, mut dark_run) = (0usize, 0usize);
        for k in 0..(16 + ARC) {
            let p = ring[k % 16];
            if p > c + t {
                bright_run += 1;
                dark_run = 0;
            } else if p < c - t {
                dark_run += 1;
                bright_run = 0;
            } else {
                bright_run = 0;
                dark_run = 0;
            }
            if bright_run >= ARC || dark_run >= ARC {
                return true;
            }
        }
        false
    }

    #[test]
    fn arc_masks_match_seed_run_scan() {
        // Every ring pattern of brighter pixels alone, darker alone, and
        // brighter against darker (complementary), with the others at
        // the centre value: the bit-mask test decides as the seed scan.
        let (c, t) = (100, 20);
        let (hi, lo, mid) = (c + t + 1, c - t - 1, c);
        for mask in 0..=u16::MAX {
            let bit = |k: usize| mask & (1 << k) != 0;
            for (on, off) in [(hi, mid), (lo, mid), (hi, lo)] {
                let ring: [i32; 16] = std::array::from_fn(|k| if bit(k) { on } else { off });
                let (mut bright, mut dark) = (0u16, 0u16);
                for (k, &p) in ring.iter().enumerate() {
                    bright |= u16::from(p > c + t) << k;
                    dark |= u16::from(p < c - t) << k;
                }
                assert_eq!(
                    has_arc(bright) || has_arc(dark),
                    seed_segment_test(&ring, c, t),
                    "mask {mask:016b}, pixels {on}/{off}"
                );
            }
        }
    }

    #[test]
    fn tiny_image_is_safe() {
        let img = GrayImage::new(6, 6);
        assert!(detect_fast(&img, &FastConfig::default()).is_empty());
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        // One FastScratch reused across images of different content and
        // size must match fresh-buffer detection exactly, point for point.
        let dense = GrayImage::from_fn(160, 160, |x, y| {
            let dx = (x % 16) as f32 - 8.0;
            let dy = (y % 16) as f32 - 8.0;
            if dx * dx + dy * dy < 9.0 {
                210
            } else {
                40
            }
        });
        let cfg_small = FastConfig {
            max_keypoints: 50,
            ..FastConfig::default()
        };
        let mut scratch = FastScratch::default();
        let mut out = Vec::new();
        for (img, cfg) in [
            (&disc_image(), &FastConfig::default()),
            (&dense, &cfg_small), // exercises the bucketing (spill) path
            (&disc_image(), &FastConfig::default()),
            (&GrayImage::filled(64, 64, 100), &FastConfig::default()),
            (&dense, &cfg_small),
        ] {
            detect_fast_into(img, cfg, &mut scratch, &mut out);
            let fresh = detect_fast(img, cfg);
            assert_eq!(out.len(), fresh.len());
            for (a, b) in out.iter().zip(&fresh) {
                assert_eq!(a.x.to_bits(), b.x.to_bits());
                assert_eq!(a.y.to_bits(), b.y.to_bits());
                assert_eq!(a.response.to_bits(), b.response.to_bits());
            }
        }
    }

    #[test]
    fn scratch_sort_matches_std_stable_sort() {
        // Deliberately includes ties so stability is exercised.
        let mut kps: Vec<KeyPoint> = (0..257)
            .map(|i| KeyPoint::new(i as f32, 0.0, ((i * 7919) % 23) as f32))
            .collect();
        let mut reference = kps.clone();
        reference.sort_by(|a, b| b.response.total_cmp(&a.response));
        let mut buf = Vec::new();
        sort_desc_by_response(&mut kps, &mut buf);
        for (a, b) in kps.iter().zip(&reference) {
            assert_eq!((a.x, a.response), (b.x, b.response));
        }
    }

    #[test]
    fn nms_keeps_single_peak_per_corner() {
        let kps = detect_fast(&disc_image(), &FastConfig::default());
        // No two detections closer than 2 px.
        for i in 0..kps.len() {
            for j in (i + 1)..kps.len() {
                assert!(kps[i].distance_squared(&kps[j]) >= 2.0);
            }
        }
    }
}
