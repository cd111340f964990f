//! Seed (pre-scratch) implementations of the frontend hot-path kernels,
//! the seed bundle-adjustment solve and SLAM backend, the seed dense
//! kernels of the filter update, and the seed sensor-fault process.
//!
//! These are the per-frame-allocating, clamp-every-pixel versions the
//! optimized `*_into` kernels replaced, the solve whose Schur
//! reduction scanned every coupling block for every other one
//! ([`solve_lm_baseline`]), the SLAM backend that built its loop-closure
//! index as soon as it had a training set ([`SlamBaseline`]), the matrix
//! product, Cholesky factorization and solve that ran one scalar chain
//! at a time ([`matmul_baseline`] and its neighbours), and the fault
//! process whose pixel noise drew one generator output after another
//! ([`BaselineFaultProcess`]). They are preserved here for two jobs:
//!
//! 1. **Golden reference** — the bit-identity tests assert the optimized
//!    kernels (and the whole [`Frontend`](eudoxus_frontend::Frontend)
//!    with its pyramid cache) produce byte-identical output to this code,
//!    that [`solve_lm`](eudoxus_backend::slam::solve_lm) returns the
//!    seed solve's poses, landmarks and statistics bit for bit, that
//!    [`Slam`](eudoxus_backend::Slam) returns the seed backend's poses,
//!    loop closures and map, that the dense kernels of
//!    [`eudoxus_math`] return the seed loops' entries and errors, and that
//!    [`FaultProcess`](eudoxus_faults::FaultProcess) emits the seed
//!    process's events and counters bit for bit.
//! 2. **Before/after measurement** — the `throughput` binary and the
//!    `frontend_kernels` and `fault_injection` benches run both paths in
//!    the same process, so every `BENCH_throughput.json` records its own
//!    pre-PR baseline.
//!
//! The code intentionally mirrors the seed revision: do not "fix" or
//! optimize it, or the baseline stops being one.

mod ba;
mod dense;
mod faults;
mod slam;

pub use ba::solve_lm_baseline;
pub use dense::{
    backward_substitute_baseline, cholesky_factor_baseline, cholesky_solve_matrix_baseline,
    forward_substitute_baseline, matmul_baseline,
};
pub use faults::BaselineFaultProcess;
pub use slam::SlamBaseline;

use eudoxus_frontend::fast::CIRCLE;
use eudoxus_frontend::{
    FastConfig, Feature, FrameStats, FrontendConfig, FrontendFrame, FrontendTiming, KeyPoint,
    KltConfig, Observation, OrbConfig, OrbDescriptor, StereoConfig, StereoMatch, TrackOutcome,
};
use eudoxus_image::{FloatImage, GrayImage};
use std::sync::OnceLock;
use std::time::Instant;

/// Minimum contiguous arc length for the segment test (FAST-9).
const ARC: usize = 9;

/// Seed Gaussian blur: fresh kernel, fresh float intermediates, clamped
/// border handling at every tap.
pub fn gaussian_blur_baseline(img: &GrayImage, sigma: f32) -> GrayImage {
    let k = eudoxus_image::gaussian_kernel(sigma);
    separable_filter_baseline(img, &k, &k).to_gray()
}

/// Seed separable filter: per-pixel `get_clamped` on both passes.
pub fn separable_filter_baseline(
    img: &GrayImage,
    kernel_x: &[f32],
    kernel_y: &[f32],
) -> FloatImage {
    let (w, h) = img.dimensions();
    let rx = (kernel_x.len() / 2) as i64;
    let ry = (kernel_y.len() / 2) as i64;
    let mut tmp = FloatImage::new(w, h);
    for y in 0..h {
        for x in 0..w {
            let mut acc = 0.0;
            for (k, &kv) in kernel_x.iter().enumerate() {
                acc += kv * img.get_clamped(x as i64 + k as i64 - rx, y as i64) as f32;
            }
            tmp.put(x, y, acc);
        }
    }
    let mut out = FloatImage::new(w, h);
    for y in 0..h {
        for x in 0..w {
            let mut acc = 0.0;
            for (k, &kv) in kernel_y.iter().enumerate() {
                acc += kv * tmp.get_clamped(x as i64, y as i64 + k as i64 - ry);
            }
            out.put(x, y, acc);
        }
    }
    out
}

/// Seed FAST corner response: `get_clamped` on every circle tap.
fn corner_response_baseline(img: &GrayImage, x: u32, y: u32, t: u8) -> f32 {
    let c = img.get(x, y) as i32;
    let t = t as i32;
    let (xi, yi) = (x as i64, y as i64);
    let p0 = img.get_clamped(xi, yi - 3) as i32;
    let p8 = img.get_clamped(xi, yi + 3) as i32;
    let p4 = img.get_clamped(xi + 3, yi) as i32;
    let p12 = img.get_clamped(xi - 3, yi) as i32;
    let bright_quick = [p0, p4, p8, p12].iter().filter(|&&p| p > c + t).count();
    let dark_quick = [p0, p4, p8, p12].iter().filter(|&&p| p < c - t).count();
    if bright_quick < 2 && dark_quick < 2 {
        return 0.0;
    }
    let mut ring = [0i32; 16];
    for (slot, &(dx, dy)) in ring.iter_mut().zip(CIRCLE.iter()) {
        *slot = img.get_clamped(xi + dx, yi + dy) as i32;
    }
    let mut bright_run = 0usize;
    let mut dark_run = 0usize;
    let mut is_corner = false;
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
            is_corner = true;
            break;
        }
    }
    if !is_corner {
        return 0.0;
    }
    ring.iter().map(|&p| ((p - c).abs() - t).max(0)).sum::<i32>() as f32
}

/// Seed FAST detection: fresh response map and candidate vectors per
/// call, `slice::sort_by` (which allocates) for the ordering passes.
pub fn detect_fast_baseline(img: &GrayImage, cfg: &FastConfig) -> Vec<KeyPoint> {
    let (w, h) = img.dimensions();
    if w < 8 || h < 8 {
        return Vec::new();
    }
    let mut responses = vec![0.0f32; (w * h) as usize];
    for y in 3..(h - 3) {
        for x in 3..(w - 3) {
            responses[(y * w + x) as usize] = corner_response_baseline(img, x, y, cfg.threshold);
        }
    }
    let mut candidates: Vec<KeyPoint> = Vec::new();
    for y in 3..(h - 3) {
        for x in 3..(w - 3) {
            let r = responses[(y * w + x) as usize];
            if r <= 0.0 {
                continue;
            }
            let mut is_max = true;
            'nms: for dy in -1i64..=1 {
                for dx in -1i64..=1 {
                    if dx == 0 && dy == 0 {
                        continue;
                    }
                    let n =
                        responses[((y as i64 + dy) as u32 * w + (x as i64 + dx) as u32) as usize];
                    if n > r || (n == r && (dy < 0 || (dy == 0 && dx < 0))) {
                        is_max = false;
                        break 'nms;
                    }
                }
            }
            if is_max {
                candidates.push(KeyPoint::new(x as f32, y as f32, r));
            }
        }
    }
    bucket_keypoints_baseline(candidates, w, h, cfg)
}

fn bucket_keypoints_baseline(
    mut kps: Vec<KeyPoint>,
    w: u32,
    h: u32,
    cfg: &FastConfig,
) -> Vec<KeyPoint> {
    if kps.len() <= cfg.max_keypoints {
        kps.sort_by(|a, b| b.response.total_cmp(&a.response));
        return kps;
    }
    let cell = cfg.cell_size.max(8);
    let cols = w.div_ceil(cell);
    let rows = h.div_ceil(cell);
    kps.sort_by(|a, b| b.response.total_cmp(&a.response));
    let mut cell_counts = vec![0u32; (cols * rows) as usize];
    let per_cell = ((cfg.max_keypoints as u32) / (cols * rows).max(1)).max(1);
    let mut picked = Vec::with_capacity(cfg.max_keypoints);
    let mut spill = Vec::new();
    for kp in kps {
        let ci = (kp.y as u32 / cell) * cols + (kp.x as u32 / cell);
        if cell_counts[ci as usize] < per_cell {
            cell_counts[ci as usize] += 1;
            picked.push(kp);
        } else {
            spill.push(kp);
        }
        if picked.len() == cfg.max_keypoints {
            break;
        }
    }
    for kp in spill {
        if picked.len() >= cfg.max_keypoints {
            break;
        }
        picked.push(kp);
    }
    picked.sort_by(|a, b| b.response.total_cmp(&a.response));
    picked
}

/// Seed bilinear sample: four `get_clamped` taps per sample (the
/// optimized `GrayImage::sample_bilinear` short-circuits the clamps on
/// interior samples; the arithmetic is identical).
fn sample_bilinear_baseline(img: &GrayImage, x: f32, y: f32) -> f32 {
    let x0 = x.floor();
    let y0 = y.floor();
    let fx = x - x0;
    let fy = y - y0;
    let (x0, y0) = (x0 as i64, y0 as i64);
    let p00 = img.get_clamped(x0, y0) as f32;
    let p10 = img.get_clamped(x0 + 1, y0) as f32;
    let p01 = img.get_clamped(x0, y0 + 1) as f32;
    let p11 = img.get_clamped(x0 + 1, y0 + 1) as f32;
    p00 * (1.0 - fx) * (1.0 - fy) + p10 * fx * (1.0 - fy) + p01 * (1.0 - fx) * fy + p11 * fx * fy
}

/// Patch half-size of the seed ORB (orientation and border margin).
const ORB_PATCH_RADIUS: i64 = 9;
/// Radius that bounds the seed ORB's sampling offsets.
const ORB_SAMPLE_RADIUS: f32 = 8.0;

/// Seed ORB comparison pattern: 256 pairs from a fixed-seed xorshift64*
/// stream, generated once.
fn orb_pattern_baseline() -> &'static [((f32, f32), (f32, f32)); 256] {
    static PATTERN: OnceLock<[((f32, f32), (f32, f32)); 256]> = OnceLock::new();
    PATTERN.get_or_init(|| {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state = state.wrapping_mul(0x2545F4914F6CDD1D);
            (state >> 11) as f32 / (1u64 << 53) as f32 * 2.0 - 1.0
        };
        let mut pairs = [((0.0f32, 0.0f32), (0.0f32, 0.0f32)); 256];
        for pair in &mut pairs {
            let mut g = || (next() + next() + next()) / 3.0 * ORB_SAMPLE_RADIUS;
            loop {
                let a = (g(), g());
                let b = (g(), g());
                let r2 = ORB_SAMPLE_RADIUS * ORB_SAMPLE_RADIUS;
                if a.0 * a.0 + a.1 * a.1 <= r2 && b.0 * b.0 + b.1 * b.1 <= r2 {
                    *pair = (a, b);
                    break;
                }
            }
        }
        pairs
    })
}

/// Seed intensity-centroid orientation: every offset of the square,
/// masked to the circle, read through `get_clamped`.
fn patch_orientation_baseline(img: &GrayImage, cx: i64, cy: i64) -> f32 {
    let r = ORB_PATCH_RADIUS;
    let mut m01 = 0.0f64;
    let mut m10 = 0.0f64;
    for dy in -r..=r {
        for dx in -r..=r {
            if dx * dx + dy * dy > r * r {
                continue;
            }
            let v = img.get_clamped(cx + dx, cy + dy) as f64;
            m10 += dx as f64 * v;
            m01 += dy as f64 * v;
        }
    }
    (m01.atan2(m10)) as f32
}

/// Seed ORB descriptor: intensity-centroid orientation, then 256
/// rotated-BRIEF tests, each sampling both points through the seed
/// bilinear sample (four `get_clamped` taps). `None` within
/// `ORB_PATCH_RADIUS + 1` of the border.
pub fn compute_orb_baseline(
    img: &GrayImage,
    kp: &KeyPoint,
    cfg: &OrbConfig,
) -> Option<OrbDescriptor> {
    let (w, h) = img.dimensions();
    let cx = kp.x.round() as i64;
    let cy = kp.y.round() as i64;
    let margin = ORB_PATCH_RADIUS + 1;
    if cx < margin || cy < margin || cx >= w as i64 - margin || cy >= h as i64 - margin {
        return None;
    }
    let (sin_t, cos_t) = if cfg.oriented {
        patch_orientation_baseline(img, cx, cy).sin_cos()
    } else {
        (0.0, 1.0)
    };
    let mut desc = OrbDescriptor::zero();
    for (i, &((ax, ay), (bx, by))) in orb_pattern_baseline().iter().enumerate() {
        let ra = (
            (cos_t * ax - sin_t * ay) + kp.x,
            (sin_t * ax + cos_t * ay) + kp.y,
        );
        let rb = (
            (cos_t * bx - sin_t * by) + kp.x,
            (sin_t * bx + cos_t * by) + kp.y,
        );
        let va = sample_bilinear_baseline(img, ra.0, ra.1);
        let vb = sample_bilinear_baseline(img, rb.0, rb.1);
        if va < vb {
            desc.set_bit(i);
        }
    }
    Some(desc)
}

#[allow(clippy::too_many_arguments)]
fn track_level_baseline(
    prev: &GrayImage,
    next: &GrayImage,
    px: f32,
    py: f32,
    mut gx: f32,
    mut gy: f32,
    cfg: &KltConfig,
) -> Option<(f32, f32, f32)> {
    let r = cfg.window_radius;
    let w = (2 * r + 1) as usize;
    let n_px = (w * w) as f32;
    let mut template = vec![0.0f32; w * w];
    let mut grad_x = vec![0.0f32; w * w];
    let mut grad_y = vec![0.0f32; w * w];
    let mut a11 = 0.0f32;
    let mut a12 = 0.0f32;
    let mut a22 = 0.0f32;
    for (row, dy) in (-r..=r).enumerate() {
        for (col, dx) in (-r..=r).enumerate() {
            let tx = px + dx as f32;
            let ty = py + dy as f32;
            let idx = row * w + col;
            template[idx] = sample_bilinear_baseline(prev, tx, ty);
            let ix = (sample_bilinear_baseline(prev, tx + 1.0, ty)
                - sample_bilinear_baseline(prev, tx - 1.0, ty))
                * 0.5;
            let iy = (sample_bilinear_baseline(prev, tx, ty + 1.0)
                - sample_bilinear_baseline(prev, tx, ty - 1.0))
                * 0.5;
            grad_x[idx] = ix;
            grad_y[idx] = iy;
            a11 += ix * ix;
            a12 += ix * iy;
            a22 += iy * iy;
        }
    }
    let det = a11 * a22 - a12 * a12;
    if det < cfg.min_determinant * n_px * n_px {
        return None;
    }
    let inv = 1.0 / det;
    let mut residual = f32::MAX;
    for _ in 0..cfg.max_iterations {
        let mut b1 = 0.0f32;
        let mut b2 = 0.0f32;
        let mut res_acc = 0.0f32;
        for (row, dy) in (-r..=r).enumerate() {
            for (col, dx) in (-r..=r).enumerate() {
                let idx = row * w + col;
                let tx = px + dx as f32;
                let ty = py + dy as f32;
                let it = sample_bilinear_baseline(next, tx + gx, ty + gy) - template[idx];
                b1 += it * grad_x[idx];
                b2 += it * grad_y[idx];
                res_acc += it.abs();
            }
        }
        residual = res_acc / n_px;
        let ux = (a22 * b1 - a12 * b2) * inv;
        let uy = (a11 * b2 - a12 * b1) * inv;
        gx -= ux;
        gy -= uy;
        if (ux * ux + uy * uy).sqrt() < cfg.epsilon {
            break;
        }
    }
    Some((gx, gy, residual))
}

fn track_one_baseline(
    prev_pyr: &[GrayImage],
    next_pyr: &[GrayImage],
    x: f32,
    y: f32,
    cfg: &KltConfig,
) -> TrackOutcome {
    let levels = prev_pyr.len().min(next_pyr.len());
    let mut gx = 0.0f32;
    let mut gy = 0.0f32;
    let mut residual = f32::MAX;
    let mut degenerate = false;
    for li in (0..levels).rev() {
        let scale = (1u32 << li) as f32;
        let (lx, ly) = (x / scale, y / scale);
        match track_level_baseline(&prev_pyr[li], &next_pyr[li], lx, ly, gx, gy, cfg) {
            Some((dx, dy, res)) => {
                residual = res;
                if li > 0 {
                    gx = dx * 2.0;
                    gy = dy * 2.0;
                } else {
                    gx = dx;
                    gy = dy;
                }
            }
            None => {
                degenerate = true;
                break;
            }
        }
    }
    if degenerate {
        return TrackOutcome::Degenerate;
    }
    let nx = x + gx;
    let ny = y + gy;
    let base = &next_pyr[0];
    let m = cfg.window_radius as f32;
    if nx < m || ny < m || nx >= base.width() as f32 - m || ny >= base.height() as f32 - m {
        return TrackOutcome::OutOfBounds;
    }
    if residual > cfg.max_residual {
        return TrackOutcome::Lost;
    }
    TrackOutcome::Tracked {
        x: nx,
        y: ny,
        residual,
    }
}

/// Seed 2×2 downsample: clamps both source coordinates of every output
/// pixel and reads and writes through the bounds-checked accessors.
pub fn downsample_2x_baseline(img: &GrayImage) -> GrayImage {
    let w = (img.width() / 2).max(1);
    let h = (img.height() / 2).max(1);
    let mut out = GrayImage::new(w, h);
    for y in 0..h {
        let sy = 2 * y;
        let sy1 = (sy + 1).min(img.height() - 1);
        for x in 0..w {
            let sx = 2 * x;
            let sx1 = (sx + 1).min(img.width() - 1);
            let a = img.get(sx, sy) as u16;
            let b = img.get(sx1, sy) as u16;
            let c = img.get(sx, sy1) as u16;
            let d = img.get(sx1, sy1) as u16;
            out.put(x, y, ((a + b + c + d) / 4) as u8);
        }
    }
    out
}

/// Seed pyramid levels (level 0 first): up to `max_levels`, halving with
/// [`downsample_2x_baseline`] until a level is below 16 pixels on a side.
fn pyramid_baseline(base: &GrayImage, max_levels: usize) -> Vec<GrayImage> {
    assert!(max_levels > 0, "a pyramid needs at least one level");
    let mut levels = vec![base.clone()];
    while levels.len() < max_levels {
        let prev = levels.last().expect("non-empty");
        if prev.width() < 16 || prev.height() < 16 {
            break;
        }
        levels.push(downsample_2x_baseline(prev));
    }
    levels
}

/// Seed pyramidal tracking: clones both images and builds both pyramids
/// on every call.
pub fn track_pyramidal_baseline(
    prev: &GrayImage,
    next: &GrayImage,
    points: &[(f32, f32)],
    cfg: &KltConfig,
) -> Vec<TrackOutcome> {
    let prev_pyr = pyramid_baseline(prev, cfg.levels);
    let next_pyr = pyramid_baseline(next, cfg.levels);
    points
        .iter()
        .map(|&(x, y)| track_one_baseline(&prev_pyr, &next_pyr, x, y, cfg))
        .collect()
}

/// Sum of absolute differences between blocks centered at `(lx, ly)` in the
/// left image and `(rx, ly)` in the right image.
fn block_sad_baseline(left: &GrayImage, right: &GrayImage, lx: f32, ly: f32, rx: f32, radius: i64) -> f32 {
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

/// Sub-pixel disparity refinement by SAD parabola fit at `d−1, d, d+1`.
fn refine_disparity_baseline(
    left: &GrayImage,
    right: &GrayImage,
    lx: f32,
    ly: f32,
    d0: f32,
    cfg: &StereoConfig,
) -> f32 {
    let r = cfg.block_radius;
    let s_m = block_sad_baseline(left, right, lx, ly, lx - d0 + 1.0, r);
    let s_0 = block_sad_baseline(left, right, lx, ly, lx - d0, r);
    let s_p = block_sad_baseline(left, right, lx, ly, lx - d0 - 1.0, r);
    // Parabola vertex of the three SAD samples; offset bounded to ±0.5.
    let denom = s_m - 2.0 * s_0 + s_p;
    if denom.abs() < 1e-6 {
        return d0;
    }
    let offset = 0.5 * (s_p - s_m) / denom;
    // Note the sign convention: larger disparity = right patch farther left.
    (d0 - offset.clamp(-0.5, 0.5)).max(cfg.min_disparity)
}

/// Seed stereo matcher: MO, then DR on bilinear SADs for every match.
/// Matches left features against right features (MO), then refines the
/// accepted disparities (DR). Returns matches sorted by left index; each
/// right feature is used at most once (greedy best-distance assignment).
pub fn match_stereo_baseline(
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
                let refined = refine_disparity_baseline(left_img, right_img, lf.keypoint.x, lf.keypoint.y, d0, cfg);
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

/// A live track (internal state of [`BaselineFrontend`]).
#[derive(Debug, Clone, Copy)]
struct Track {
    id: u64,
    x: f32,
    y: f32,
}

/// The seed frontend: identical association and track-management logic to
/// `eudoxus_frontend::Frontend`, but running the baseline kernels, keeping
/// `prev_left` as a full-image clone, and allocating every working buffer
/// per frame. Produces bit-identical [`FrontendFrame`] observation streams
/// to the optimized frontend — that equivalence is what the bit-identity
/// tests pin down.
#[derive(Debug)]
pub struct BaselineFrontend {
    config: FrontendConfig,
    prev_left: Option<GrayImage>,
    tracks: Vec<Track>,
    next_id: u64,
}

impl BaselineFrontend {
    /// Creates a baseline frontend.
    pub fn new(config: FrontendConfig) -> Self {
        BaselineFrontend {
            config,
            prev_left: None,
            tracks: Vec::new(),
            next_id: 0,
        }
    }

    /// Resets all state (segment boundary).
    pub fn reset(&mut self) {
        self.prev_left = None;
        self.tracks.clear();
    }

    /// Processes one stereo frame exactly the way the seed revision did.
    pub fn process(&mut self, left: &GrayImage, right: &GrayImage) -> FrontendFrame {
        let cfg = &self.config;
        let mut timing = FrontendTiming::default();
        let mut stats = FrameStats::default();

        let t = Instant::now();
        let left_blur = gaussian_blur_baseline(left, cfg.tuning.blur_sigma);
        let right_blur = gaussian_blur_baseline(right, cfg.tuning.blur_sigma);
        timing.filtering = t.elapsed();

        let t = Instant::now();
        let kps_left = detect_fast_baseline(left, &cfg.fast);
        let kps_right = detect_fast_baseline(right, &cfg.fast);
        timing.detection = t.elapsed();
        stats.keypoints_left = kps_left.len();
        stats.keypoints_right = kps_right.len();

        let t = Instant::now();
        let feats_left: Vec<Feature> = kps_left
            .iter()
            .filter_map(|kp| {
                compute_orb_baseline(&left_blur, kp, &cfg.orb).map(|descriptor| Feature {
                    keypoint: *kp,
                    descriptor,
                })
            })
            .collect();
        let feats_right: Vec<Feature> = kps_right
            .iter()
            .filter_map(|kp| {
                compute_orb_baseline(&right_blur, kp, &cfg.orb).map(|descriptor| Feature {
                    keypoint: *kp,
                    descriptor,
                })
            })
            .collect();
        timing.description = t.elapsed();

        let t = Instant::now();
        let stereo = match_stereo_baseline(&feats_left, &feats_right, left, right, &cfg.stereo);
        timing.stereo = t.elapsed();
        stats.stereo_matches = stereo.len();
        let mut disparity_of: Vec<Option<f32>> = vec![None; feats_left.len()];
        for m in &stereo {
            disparity_of[m.left_index] = Some(m.disparity);
        }

        let t = Instant::now();
        let tracked: Vec<Option<(f32, f32)>> = match &self.prev_left {
            Some(prev) if !self.tracks.is_empty() => {
                let pts: Vec<(f32, f32)> = self.tracks.iter().map(|tr| (tr.x, tr.y)).collect();
                track_pyramidal_baseline(prev, left, &pts, &cfg.klt)
                    .into_iter()
                    .map(|o| o.position())
                    .collect()
            }
            _ => vec![None; self.tracks.len()],
        };
        timing.temporal = t.elapsed();

        let snap2 = cfg.tuning.snap_radius * cfg.tuning.snap_radius;
        let mut claimed: Vec<Option<u64>> = vec![None; feats_left.len()];
        let mut new_tracks: Vec<Track> = Vec::new();
        let mut observations: Vec<Observation> = Vec::new();
        for (track, pos) in self.tracks.iter().zip(&tracked) {
            let Some((tx, ty)) = *pos else {
                stats.tracks_lost += 1;
                continue;
            };
            let probe = KeyPoint::new(tx, ty, 0.0);
            let mut best: Option<(usize, f32)> = None;
            for (fi, f) in feats_left.iter().enumerate() {
                if claimed[fi].is_some() {
                    continue;
                }
                let d2 = f.keypoint.distance_squared(&probe);
                if d2 <= snap2 && best.is_none_or(|(_, bd)| d2 < bd) {
                    best = Some((fi, d2));
                }
            }
            match best {
                Some((fi, _)) => {
                    claimed[fi] = Some(track.id);
                    let f = &feats_left[fi];
                    observations.push(Observation {
                        track_id: track.id,
                        x: f.keypoint.x,
                        y: f.keypoint.y,
                        disparity: disparity_of[fi],
                        descriptor: f.descriptor,
                    });
                    new_tracks.push(Track {
                        id: track.id,
                        x: f.keypoint.x,
                        y: f.keypoint.y,
                    });
                    stats.tracks_continued += 1;
                }
                None => {
                    let kp = KeyPoint::new(tx, ty, 0.0);
                    match compute_orb_baseline(&left_blur, &kp, &cfg.orb) {
                        Some(descriptor) => {
                            observations.push(Observation {
                                track_id: track.id,
                                x: tx,
                                y: ty,
                                disparity: None,
                                descriptor,
                            });
                            new_tracks.push(Track {
                                id: track.id,
                                x: tx,
                                y: ty,
                            });
                            stats.tracks_continued += 1;
                        }
                        None => stats.tracks_lost += 1,
                    }
                }
            }
        }

        for (fi, f) in feats_left.iter().enumerate() {
            if new_tracks.len() >= cfg.tuning.max_tracks {
                break;
            }
            if claimed[fi].is_some() {
                continue;
            }
            let id = self.next_id;
            self.next_id += 1;
            claimed[fi] = Some(id);
            observations.push(Observation {
                track_id: id,
                x: f.keypoint.x,
                y: f.keypoint.y,
                disparity: disparity_of[fi],
                descriptor: f.descriptor,
            });
            new_tracks.push(Track {
                id,
                x: f.keypoint.x,
                y: f.keypoint.y,
            });
            stats.tracks_spawned += 1;
        }

        self.tracks = new_tracks;
        self.prev_left = Some(left.clone());

        FrontendFrame {
            observations,
            timing,
            stats,
        }
    }
}
