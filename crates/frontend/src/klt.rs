//! Pyramidal Lucas–Kanade optical flow (the DC + LSS tasks of Fig. 12).
//!
//! Temporal matching "tracks feature points across frames using the classic
//! Lucas–Kanade optical flow method" (paper Sec. IV-A). The accelerator
//! splits it into derivatives calculation (DC) and a linear least-squares
//! solve (LSS); the CPU implementation below has the same two phases per
//! iteration: template gradients once per level, then iterative 2×2 normal
//! equation solves.
//!
//! # The batched solve
//!
//! The paper's DC→LSS pipeline is a *regular per-track* computation — the
//! accelerator exploits that by streaming tracks through fixed hardware
//! lanes (Sec. V, `tm_per_track` cycles each). The CPU hot path mirrors
//! the structure: [`track_pyramidal_into`] solves tracks in batches of
//! [`KLT_LANES`], holding per-track state (positions, 2×2 normal matrices,
//! residuals, convergence masks) as parallel SoA arrays in a `TrackBatch`
//! inside [`KltScratch`]. Per-lane arithmetic is exactly the scalar
//! sequence, so the batch is **bit-identical** to solving each track
//! alone.
//!
//! **Kernels**: on x86-64 hosts that report AVX2 (checked at run time),
//! the DC and LSS phases run `std::arch` kernels in which one 256-bit
//! vector holds the eight lanes: masked gathers sample every lane's
//! window at once. Every lane runs the scalar operation sequence — `mul`
//! and `add` stay separate (no FMA), sums keep the scalar order, and the
//! truncating cast appears only where the interior proof gives `x ≥ 0`.
//! Elsewhere the portable batch runs the lanes one after another: a
//! row-hoisted bilinear gather (`eudoxus_image::RowGather`) and a
//! fixed-width unrolled inner loop give the core eight independent `f32`
//! accumulator chains where the scalar solve serializes on one.
//!
//! **Masking contract**: a lane that converges (update norm below
//! `epsilon`) or goes degenerate (determinant test) stops updating its
//! state but *stays in the batch* — it is not compacted out. The
//! portable batch skips its gather and its update, so a batch performs
//! exactly the scalar solve's total sample count (not
//! `lanes × max(iterations)`). The AVX2 kernels skip its gathers but
//! still spend its vector slot. The iteration loop ends when every lane
//! is masked or `max_iterations` is reached.
//!
//! **Scalar fallback**: [`track_one`]/[`track_one_with`] run the original
//! scalar solve (one track, no lanes). Inside the batch, a lane whose
//! window row is not provably interior runs that row on the per-lane
//! clamped sampler, and on AVX2 a lane whose DC grid is not interior, or
//! whose `±1` exactness proof fails, runs the scalar DC (bit-identical by
//! construction). The seed solve itself is preserved verbatim in
//! `eudoxus_bench::baseline` as the golden reference.

use crate::isa::Isa;
use eudoxus_image::{FloatImage, GrayImage, Pyramid, RowGather, RowSampler};

#[cfg(target_arch = "x86_64")]
mod avx2;

/// Lane width of the batched KLT solve: tracks are solved
/// [`KLT_LANES`] at a time with SoA state. Eight `f32` lanes fill one
/// 256-bit vector register: on AVX2 hosts each vector instruction of the
/// DC and LSS kernels advances all eight tracks. The portable path runs
/// the lanes one after another, which still gives the out-of-order core
/// eight independent accumulator chains where the per-track solve has
/// one.
pub const KLT_LANES: usize = 8;

/// LK tracker parameters.
#[derive(Debug, Clone, Copy)]
pub struct KltConfig {
    /// Half-size of the tracking window (window is `(2w+1)²`).
    pub window_radius: i64,
    /// Pyramid levels (1 = no pyramid).
    pub levels: usize,
    /// Max Gauss–Newton iterations per level.
    pub max_iterations: usize,
    /// Convergence threshold on the update norm (pixels).
    pub epsilon: f32,
    /// Minimum acceptable eigenvalue proxy of the 2×2 normal matrix
    /// (rejects textureless windows).
    pub min_determinant: f32,
    /// Maximum residual per pixel for a track to be declared good.
    pub max_residual: f32,
}

impl Default for KltConfig {
    fn default() -> Self {
        KltConfig {
            window_radius: 7,
            levels: 3,
            max_iterations: 15,
            epsilon: 0.03,
            min_determinant: 1e-4,
            max_residual: 18.0,
        }
    }
}

/// Result of tracking one point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrackOutcome {
    /// Converged; carries the position in the new frame.
    Tracked {
        /// New x (pixels).
        x: f32,
        /// New y (pixels).
        y: f32,
        /// Mean absolute residual over the window (intensity units).
        residual: f32,
    },
    /// The point left the image bounds.
    OutOfBounds,
    /// The window had too little texture to constrain the solve.
    Degenerate,
    /// The iteration failed to converge or the residual stayed large.
    Lost,
}

impl TrackOutcome {
    /// The tracked position, if successful.
    pub fn position(&self) -> Option<(f32, f32)> {
        match *self {
            TrackOutcome::Tracked { x, y, .. } => Some((x, y)),
            _ => None,
        }
    }
}

/// SoA state of one batch of up to [`KLT_LANES`] tracks: parallel arrays
/// indexed by lane. The window buffers are lane-interleaved
/// (`buf[pixel * KLT_LANES + lane]`) so the LSS inner loop reads each
/// pixel's lane vector from contiguous memory.
#[derive(Debug, Clone, Default)]
struct TrackBatch {
    /// Full-resolution input positions.
    x: [f32; KLT_LANES],
    y: [f32; KLT_LANES],
    /// Level-scaled positions.
    px: [f32; KLT_LANES],
    py: [f32; KLT_LANES],
    /// Accumulated displacement estimate at the current level.
    gx: [f32; KLT_LANES],
    gy: [f32; KLT_LANES],
    /// 2×2 structure tensor and its inverse determinant (DC output).
    a11: [f32; KLT_LANES],
    a12: [f32; KLT_LANES],
    a22: [f32; KLT_LANES],
    inv: [f32; KLT_LANES],
    /// Mean absolute residual of the last executed iteration.
    residual: [f32; KLT_LANES],
    /// Lane holds a real, non-degenerate track (padding lanes and
    /// degenerate lanes are dead: they stay resident but are masked out
    /// of every gather and update).
    live: [bool; KLT_LANES],
    /// Lane failed the determinant test at some level.
    degenerate: [bool; KLT_LANES],
    /// Lane is still iterating at the current level (convergence mask).
    iterating: [bool; KLT_LANES],
    /// LSS iterations executed per lane, summed over levels.
    iters: [u32; KLT_LANES],
    /// Lane-interleaved template window values, `(2r+1)² × KLT_LANES`.
    template: Vec<f32>,
    /// Lane-interleaved template gradients.
    grad_x: Vec<f32>,
    grad_y: Vec<f32>,
    /// Lane-interleaved per-column sample x positions (`px + dx`).
    txs: Vec<f32>,
    /// Lane-interleaved extended `(w+2)²` sample grid of the AVX2 DC
    /// kernel (the batched form of `KltScratch::samples`).
    #[cfg(target_arch = "x86_64")]
    grid: Vec<f32>,
}

/// Reusable state for the LK solve: per-track window buffers (scalar
/// path), the SoA `TrackBatch` (batched path), and the f32 plane copies
/// of the pyramids. One warm-up call makes every subsequent track
/// allocation-free.
#[derive(Debug, Clone, Default)]
pub struct KltScratch {
    template: Vec<f32>,
    grad_x: Vec<f32>,
    grad_y: Vec<f32>,
    /// Extended `(w+2)²` sample grid of the template window (the DC
    /// phase shares samples between the template and the central
    /// differences instead of re-sampling five times per pixel).
    samples: Vec<f32>,
    /// Per-column proof that the gradient sample positions `tx ± 1.0`
    /// equal the neighboring grid positions `px + (dx ± 1)` bit for bit
    /// (f32 addition rounds, so this can fail near binade boundaries —
    /// those columns fall back to direct sampling).
    exact_x: Vec<(bool, bool)>,
    /// f32 copies of the pyramid levels being tracked between. Every
    /// `u8` is exact in `f32`, so sampling the planes is bit-identical
    /// to sampling the `u8` levels — without the four integer→float
    /// converts inside the innermost loop of the solve.
    prev_planes: Vec<FloatImage>,
    next_planes: Vec<FloatImage>,
    /// Per-column sample x positions `px + dx` (identical computation to
    /// the inline form, hoisted out of the iteration loops).
    txs: Vec<f32>,
    /// SoA state of the batched solve.
    batch: TrackBatch,
    /// Per-point LSS iteration counts of the most recent call (see
    /// [`iteration_counts`](Self::iteration_counts)).
    iterations: Vec<u32>,
}

impl KltScratch {
    /// LSS iteration counts of the most recent [`track_pyramidal_into`]
    /// (one entry per input point, in order) or [`track_one_with`] (one
    /// entry) call, summed over pyramid levels. Diagnostic surface for
    /// the bit-identity harness: the batched and scalar solves must
    /// execute exactly the same number of iterations per track, not just
    /// land on the same positions.
    pub fn iteration_counts(&self) -> &[u32] {
        &self.iterations
    }
}

/// Copies pyramid levels into reusable f32 planes (allocation-free once
/// the plane buffers are warm at the stream's image size).
fn pyramid_to_planes(pyr: &Pyramid, planes: &mut Vec<FloatImage>) {
    planes.truncate(pyr.levels());
    while planes.len() < pyr.levels() {
        planes.push(FloatImage::default());
    }
    for (plane, i) in planes.iter_mut().zip(0..pyr.levels()) {
        plane.copy_from_gray(pyr.level(i));
    }
}

/// DC micro-kernel: samples the extended `(w+2)²` grid around `(px, py)`
/// on `prev` once (the inner `w×w` block is the template, the one-pixel
/// ring holds the out-of-window central-difference taps), proves per
/// column/row that the gradient positions `tx ± 1.0` equal the grid
/// positions bit for bit (falling back to direct sampling where f32
/// rounding breaks the equality), and writes the template, gradients and
/// per-column x positions at `stride`-spaced slots starting at `offset`.
/// `stride = 1` is the scalar layout; the batch passes
/// `stride = KLT_LANES, offset = lane`. Returns the structure tensor
/// `(a11, a12, a22)`; every slot value and the tensor are bit-identical
/// to the seed DC phase regardless of layout.
#[allow(clippy::too_many_arguments)]
fn dc_window(
    prev: &FloatImage,
    px: f32,
    py: f32,
    r: i64,
    samples: &mut Vec<f32>,
    exact_x: &mut Vec<(bool, bool)>,
    template: &mut [f32],
    grad_x: &mut [f32],
    grad_y: &mut [f32],
    txs: &mut [f32],
    stride: usize,
    offset: usize,
) -> (f32, f32, f32) {
    let w = (2 * r + 1) as usize;
    let we = w + 2;
    samples.clear();
    samples.resize(we * we, 0.0);
    for (erow, edy) in (-(r + 1)..=(r + 1)).enumerate() {
        let s = RowSampler::new(prev, py + edy as f32);
        let row_out = &mut samples[erow * we..][..we];
        if s.run_interior(px + (-(r + 1)) as f32, px + (r + 1) as f32) {
            for (slot, edx) in row_out.iter_mut().zip(-(r + 1)..=(r + 1)) {
                // SAFETY: run_interior proved the whole run.
                *slot = unsafe { s.sample_interior(px + edx as f32) };
            }
        } else {
            for (slot, edx) in row_out.iter_mut().zip(-(r + 1)..=(r + 1)) {
                *slot = s.sample(px + edx as f32);
            }
        }
    }
    exact_x.clear();
    exact_x.extend((-r..=r).map(|dx| {
        let tx = px + dx as f32;
        (
            tx + 1.0 == px + (dx + 1) as f32,
            tx - 1.0 == px + (dx - 1) as f32,
        )
    }));
    for (col, dx) in (-r..=r).enumerate() {
        txs[col * stride + offset] = px + dx as f32;
    }
    let mut a11 = 0.0f32;
    let mut a12 = 0.0f32;
    let mut a22 = 0.0f32;
    for (row, dy) in (-r..=r).enumerate() {
        let ty = py + dy as f32;
        let y_exact_dn = ty + 1.0 == py + (dy + 1) as f32;
        let y_exact_up = ty - 1.0 == py + (dy - 1) as f32;
        // Fallback samplers (only consulted when an exactness proof
        // fails, i.e. almost never).
        let s_mid = RowSampler::new(prev, ty);
        let s_up = RowSampler::new(prev, ty - 1.0);
        let s_dn = RowSampler::new(prev, ty + 1.0);
        for (col, dx) in (-r..=r).enumerate() {
            let tx = px + dx as f32;
            let idx = (row * w + col) * stride + offset;
            let e = (row + 1) * we + (col + 1);
            template[idx] = samples[e];
            let (x_exact_r, x_exact_l) = exact_x[col];
            let right = if x_exact_r { samples[e + 1] } else { s_mid.sample(tx + 1.0) };
            let left = if x_exact_l { samples[e - 1] } else { s_mid.sample(tx - 1.0) };
            let ix = (right - left) * 0.5;
            let down = if y_exact_dn { samples[e + we] } else { s_dn.sample(tx) };
            let up = if y_exact_up { samples[e - we] } else { s_up.sample(tx) };
            let iy = (down - up) * 0.5;
            grad_x[idx] = ix;
            grad_y[idx] = iy;
            a11 += ix * ix;
            a12 += ix * iy;
            a22 += iy * iy;
        }
    }
    (a11, a12, a22)
}

/// Tracks one point on a single pyramid level; `(gx, gy)` is the initial
/// displacement estimate. Returns `(dx, dy, residual, iterations)` on
/// success. This is the scalar fallback path — the batched solve in
/// [`track_pyramidal_into`] executes the identical per-lane arithmetic.
///
/// The DC phase samples template values and central-difference gradients
/// *within the window only* — computing full-image gradient maps per
/// track would dominate the frame time, and the accelerator's DC block
/// likewise operates on windowed data (paper Fig. 12).
#[allow(clippy::too_many_arguments)]
fn track_level(
    prev: &FloatImage,
    next: &FloatImage,
    px: f32,
    py: f32,
    mut gx: f32,
    mut gy: f32,
    cfg: &KltConfig,
    scratch: &mut KltScratch,
) -> Option<(f32, f32, f32, u32)> {
    let r = cfg.window_radius;
    let w = (2 * r + 1) as usize;
    let n_px = (w * w) as f32;

    // DC phase: template values, window gradients and the 2×2 structure
    // tensor (constant across iterations: linearized at the template).
    scratch.template.clear();
    scratch.template.resize(w * w, 0.0);
    scratch.grad_x.clear();
    scratch.grad_x.resize(w * w, 0.0);
    scratch.grad_y.clear();
    scratch.grad_y.resize(w * w, 0.0);
    scratch.txs.clear();
    scratch.txs.resize(w, 0.0);
    let (a11, a12, a22) = dc_window(
        prev,
        px,
        py,
        r,
        &mut scratch.samples,
        &mut scratch.exact_x,
        &mut scratch.template,
        &mut scratch.grad_x,
        &mut scratch.grad_y,
        &mut scratch.txs,
        1,
        0,
    );
    let det = a11 * a22 - a12 * a12;
    if det < cfg.min_determinant * n_px * n_px {
        return None;
    }
    let inv = 1.0 / det;

    let template = &scratch.template;
    let grad_x = &scratch.grad_x;
    let grad_y = &scratch.grad_y;

    // LSS phase: iterate the 2×2 solve.
    let txs = &scratch.txs;
    let mut residual = f32::MAX;
    let mut iters = 0u32;
    for _ in 0..cfg.max_iterations {
        iters += 1;
        let mut b1 = 0.0f32;
        let mut b2 = 0.0f32;
        let mut res_acc = 0.0f32;
        for (row, dy) in (-r..=r).enumerate() {
            let ty = py + dy as f32;
            let s = RowSampler::new(next, ty + gy);
            let base = row * w;
            let trow = &template[base..][..w];
            let grow = &grad_x[base..][..w];
            let hrow = &grad_y[base..][..w];
            let taps = txs.iter().zip(trow).zip(grow.iter().zip(hrow));
            if s.run_interior(txs[0] + gx, txs[w - 1] + gx) {
                // Whole row interior: no per-sample bounds branches.
                for ((&tx, &t), (&gxv, &gyv)) in taps {
                    // SAFETY: run_interior proved both endpoints (and by
                    // monotonicity of floor, every column between) are
                    // interior on this row.
                    let it = unsafe { s.sample_interior(tx + gx) } - t;
                    b1 += it * gxv;
                    b2 += it * gyv;
                    res_acc += it.abs();
                }
            } else {
                for ((&tx, &t), (&gxv, &gyv)) in taps {
                    let it = s.sample(tx + gx) - t;
                    b1 += it * gxv;
                    b2 += it * gyv;
                    res_acc += it.abs();
                }
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
    Some((gx, gy, residual, iters))
}

/// One LSS iteration of the batched solve: accumulates the 2×2 normal
/// equation right-hand sides and the absolute-residual sums for every
/// lane still iterating. Each active lane's accumulation visits the
/// window in the same row-major order as the scalar solve with the same
/// arithmetic, so per-lane results are bit-identical to
/// [`track_level`]'s iteration.
///
/// Masked lanes (converged, degenerate, padding) stay resident in the
/// batch but are skipped by the gather — their accumulators would be
/// discarded anyway, and skipping keeps the batch's total sample count
/// equal to the scalar solve's instead of `lanes × max(iterations)`.
/// The fast path requires every *active* lane's sample run on the
/// current window row to be interior; rows that fail fall back to
/// [`lss_lane_row`] for every active lane.
fn lss_batch_iteration(
    next: &FloatImage,
    b: &TrackBatch,
    w: usize,
    r: i64,
) -> ([f32; KLT_LANES], [f32; KLT_LANES], [f32; KLT_LANES]) {
    let mut b1 = [0.0f32; KLT_LANES];
    let mut b2 = [0.0f32; KLT_LANES];
    let mut res = [0.0f32; KLT_LANES];
    let active = b.iterating;
    let full = active == [true; KLT_LANES];
    // Hoisted lane state and window buffers (read-only for the whole
    // iteration; local copies free the optimizer from aliasing doubts).
    let gx = b.gx;
    let gy = b.gy;
    let py = b.py;
    let tmpl: &[f32] = &b.template;
    let gradx: &[f32] = &b.grad_x;
    let grady: &[f32] = &b.grad_y;
    let txs: &[f32] = &b.txs;
    debug_assert!(tmpl.len() >= w * w * KLT_LANES);
    debug_assert!(gradx.len() >= w * w * KLT_LANES && grady.len() >= w * w * KLT_LANES);
    debug_assert!(txs.len() >= w * KLT_LANES);
    for (row, dy) in (-r..=r).enumerate() {
        let mut ys = [0.0f32; KLT_LANES];
        for l in 0..KLT_LANES {
            // Same association as the scalar path: `(py + dy) + gy`.
            ys[l] = py[l] + dy as f32 + gy[l];
        }
        let gather = RowGather::<KLT_LANES>::new_masked(next, &ys, &active);
        let mut all_interior = true;
        for l in 0..KLT_LANES {
            all_interior &= !active[l]
                || gather.lane_run_interior(
                    l,
                    txs[l] + gx[l],
                    txs[(w - 1) * KLT_LANES + l] + gx[l],
                );
        }
        let base = row * w;
        if all_interior && full {
            // Branch-free lane-parallel micro-kernel: per pixel column,
            // gather one sample per lane and update the eight
            // independent accumulator chains where the scalar solve
            // serializes on one.
            for col in 0..w {
                let pix = (base + col) * KLT_LANES;
                let txc = col * KLT_LANES;
                for l in 0..KLT_LANES {
                    // SAFETY: lane_run_interior proved every lane's whole
                    // run on this row (floor is monotone over the run);
                    // buffer indices are below `w²·KLT_LANES`, the
                    // resize length (debug-asserted above).
                    let (sv, t, gxv, gyv) = unsafe {
                        let xv = *txs.get_unchecked(txc + l) + gx[l];
                        (
                            gather.gather_unchecked(l, xv),
                            *tmpl.get_unchecked(pix + l),
                            *gradx.get_unchecked(pix + l),
                            *grady.get_unchecked(pix + l),
                        )
                    };
                    let it = sv - t;
                    b1[l] += it * gxv;
                    b2[l] += it * gyv;
                    res[l] += it.abs();
                }
            }
        } else if all_interior {
            // Same micro-kernel with the convergence mask applied: the
            // mask is loop-invariant for the whole iteration, so the
            // skip branch predicts perfectly and masked lanes cost
            // nothing but the test.
            for col in 0..w {
                let pix = (base + col) * KLT_LANES;
                let txc = col * KLT_LANES;
                for l in 0..KLT_LANES {
                    if !active[l] {
                        continue;
                    }
                    // SAFETY: as in the branch-free loop above.
                    let (sv, t, gxv, gyv) = unsafe {
                        let xv = *txs.get_unchecked(txc + l) + gx[l];
                        (
                            gather.gather_unchecked(l, xv),
                            *tmpl.get_unchecked(pix + l),
                            *gradx.get_unchecked(pix + l),
                            *grady.get_unchecked(pix + l),
                        )
                    };
                    let it = sv - t;
                    b1[l] += it * gxv;
                    b2[l] += it * gyv;
                    res[l] += it.abs();
                }
            }
        } else {
            for l in 0..KLT_LANES {
                if active[l] {
                    (b1[l], b2[l], res[l]) =
                        lss_lane_row(next, b, l, row, ys[l], w, (b1[l], b2[l], res[l]));
                }
            }
        }
    }
    (b1, b2, res)
}

/// Window row `row` (at height `y`) of lane `l` on the per-lane clamped
/// sampler, added to the lane's running sums `(b1, b2, res)`: the seed
/// row structure verbatim (interior runs unchecked, borders clamped).
/// The border fallback of both batched LSS kernels.
fn lss_lane_row(
    next: &FloatImage,
    b: &TrackBatch,
    l: usize,
    row: usize,
    y: f32,
    w: usize,
    (mut b1, mut b2, mut res): (f32, f32, f32),
) -> (f32, f32, f32) {
    let s = RowSampler::new(next, y);
    let gx = b.gx[l];
    let x_first = b.txs[l] + gx;
    let x_last = b.txs[(w - 1) * KLT_LANES + l] + gx;
    let interior = s.run_interior(x_first, x_last);
    for col in 0..w {
        let pix = (row * w + col) * KLT_LANES + l;
        let xv = b.txs[col * KLT_LANES + l] + gx;
        let sv = if interior {
            // SAFETY: run_interior proved the whole run.
            unsafe { s.sample_interior(xv) }
        } else {
            s.sample(xv)
        };
        let it = sv - b.template[pix];
        b1 += it * b.grad_x[pix];
        b2 += it * b.grad_y[pix];
        res += it.abs();
    }
    (b1, b2, res)
}

/// Solves one batch of up to [`KLT_LANES`] tracks through the pyramid,
/// coarse to fine, and appends one [`TrackOutcome`] per input point to
/// `out` (and its iteration count to the scratch diagnostics).
///
/// Per-lane state follows exactly the scalar recurrence of
/// [`track_one_planes`]; lanes beyond `pts.len()` are padding (dead from
/// the start) and lanes that fail the determinant test die in place.
/// Dead and converged lanes stay resident in the batch but are masked
/// out of every gather and update. `isa` picks the DC and LSS kernels;
/// every choice gives the same bits.
fn track_batch_planes(
    prev: &[FloatImage],
    next: &[FloatImage],
    pts: &[(f32, f32)],
    cfg: &KltConfig,
    scratch: &mut KltScratch,
    out: &mut Vec<TrackOutcome>,
    isa: Isa,
) {
    debug_assert!(!pts.is_empty() && pts.len() <= KLT_LANES);
    let n = pts.len();
    let r = cfg.window_radius;
    let w = (2 * r + 1) as usize;
    let n_px = (w * w) as f32;
    let levels = prev.len().min(next.len());

    let scratch = &mut *scratch;
    let b = &mut scratch.batch;
    b.template.resize(w * w * KLT_LANES, 0.0);
    b.grad_x.resize(w * w * KLT_LANES, 0.0);
    b.grad_y.resize(w * w * KLT_LANES, 0.0);
    b.txs.resize(w * KLT_LANES, 0.0);
    for l in 0..KLT_LANES {
        let (x, y) = if l < n { pts[l] } else { (0.0, 0.0) };
        b.x[l] = x;
        b.y[l] = y;
        b.gx[l] = 0.0;
        b.gy[l] = 0.0;
        b.residual[l] = f32::MAX;
        b.live[l] = l < n;
        b.degenerate[l] = false;
        b.iters[l] = 0;
    }

    for li in (0..levels).rev() {
        // Same scale law as `Pyramid::scale`.
        let scale = (1u32 << li) as f32;
        let prev_p = &prev[li];
        let next_p = &next[li];
        for l in 0..KLT_LANES {
            if b.live[l] {
                b.px[l] = b.x[l] / scale;
                b.py[l] = b.y[l] / scale;
            }
            // Dead lanes (padding, degenerate) keep stale positions —
            // they are masked out of every gather, so the values are
            // never sampled.
        }

        // DC phase: the AVX2 kernel solves every live lane it can prove
        // (interior grid, exact ±1 taps) and returns their bit mask;
        // `dc_window` solves the rest.
        let solved: u32 = match isa {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2(avx2) => avx2::dc_lanes(avx2, prev_p, r, b),
            Isa::Portable => 0,
        };
        for l in 0..KLT_LANES {
            if !b.live[l] {
                continue;
            }
            let (a11, a12, a22) = if solved & (1 << l) != 0 {
                (b.a11[l], b.a12[l], b.a22[l])
            } else {
                dc_window(
                    prev_p,
                    b.px[l],
                    b.py[l],
                    r,
                    &mut scratch.samples,
                    &mut scratch.exact_x,
                    &mut b.template,
                    &mut b.grad_x,
                    &mut b.grad_y,
                    &mut b.txs,
                    KLT_LANES,
                    l,
                )
            };
            let det = a11 * a22 - a12 * a12;
            if det < cfg.min_determinant * n_px * n_px {
                // Scalar path stops this track at the first degenerate
                // level; the lane dies in place.
                b.live[l] = false;
                b.degenerate[l] = true;
                continue;
            }
            b.a11[l] = a11;
            b.a12[l] = a12;
            b.a22[l] = a22;
            b.inv[l] = 1.0 / det;
        }

        // LSS phase: lane-masked Gauss–Newton iterations.
        b.iterating = b.live;
        for _ in 0..cfg.max_iterations {
            if !b.iterating.contains(&true) {
                break;
            }
            let (b1, b2, res) = match isa {
                #[cfg(target_arch = "x86_64")]
                Isa::Avx2(avx2) => avx2::lss_iteration(avx2, next_p, b, w, r),
                Isa::Portable => lss_batch_iteration(next_p, b, w, r),
            };
            for l in 0..KLT_LANES {
                if !b.iterating[l] {
                    continue;
                }
                b.iters[l] += 1;
                b.residual[l] = res[l] / n_px;
                let ux = (b.a22[l] * b1[l] - b.a12[l] * b2[l]) * b.inv[l];
                let uy = (b.a11[l] * b2[l] - b.a12[l] * b1[l]) * b.inv[l];
                b.gx[l] -= ux;
                b.gy[l] -= uy;
                if (ux * ux + uy * uy).sqrt() < cfg.epsilon {
                    b.iterating[l] = false;
                }
            }
        }

        if li > 0 {
            for l in 0..KLT_LANES {
                if b.live[l] {
                    b.gx[l] *= 2.0;
                    b.gy[l] *= 2.0;
                }
            }
        }
    }

    let base = &next[0];
    let m = cfg.window_radius as f32;
    for l in 0..n {
        let outcome = if b.degenerate[l] {
            TrackOutcome::Degenerate
        } else {
            let nx = b.x[l] + b.gx[l];
            let ny = b.y[l] + b.gy[l];
            if nx < m || ny < m || nx >= base.width() as f32 - m || ny >= base.height() as f32 - m
            {
                TrackOutcome::OutOfBounds
            } else if b.residual[l] > cfg.max_residual {
                TrackOutcome::Lost
            } else {
                TrackOutcome::Tracked {
                    x: nx,
                    y: ny,
                    residual: b.residual[l],
                }
            }
        };
        out.push(outcome);
        scratch.iterations.push(b.iters[l]);
    }
}

/// Tracks points from `prev` to `next` using pyramids built internally.
///
/// `points` are positions in `prev`; the result has one [`TrackOutcome`]
/// per input point, in order.
///
/// Thin wrapper over [`track_pyramidal_into`] that builds both pyramids
/// and throwaway scratch per call. Steady-state callers should cache the
/// pyramids (the previous frame's pyramid is reusable as-is) and hold a
/// [`KltScratch`].
pub fn track_pyramidal(
    prev: &GrayImage,
    next: &GrayImage,
    points: &[(f32, f32)],
    cfg: &KltConfig,
) -> Vec<TrackOutcome> {
    let prev_pyr = Pyramid::build(prev.clone(), cfg.levels);
    let next_pyr = Pyramid::build(next.clone(), cfg.levels);
    let mut scratch = KltScratch::default();
    let mut out = Vec::new();
    track_pyramidal_into(&prev_pyr, &next_pyr, points, cfg, &mut scratch, &mut out);
    out
}

/// Tracks points between two pre-built pyramids into a reusable output
/// vector, solving the points in lane-parallel batches of [`KLT_LANES`]
/// (the final batch may be a masked remainder). Bit-identical to
/// [`track_pyramidal`] and to tracking each point alone with
/// [`track_one_with`]; zero heap allocations once `scratch` and `out`
/// are warm.
pub fn track_pyramidal_into(
    prev_pyr: &Pyramid,
    next_pyr: &Pyramid,
    points: &[(f32, f32)],
    cfg: &KltConfig,
    scratch: &mut KltScratch,
    out: &mut Vec<TrackOutcome>,
) {
    track_pyramidal_with(prev_pyr, next_pyr, points, cfg, scratch, out, Isa::detect());
}

/// [`track_pyramidal_into`] on the kernels `isa` names.
fn track_pyramidal_with(
    prev_pyr: &Pyramid,
    next_pyr: &Pyramid,
    points: &[(f32, f32)],
    cfg: &KltConfig,
    scratch: &mut KltScratch,
    out: &mut Vec<TrackOutcome>,
    isa: Isa,
) {
    out.clear();
    scratch.iterations.clear();
    let mut prev_planes = std::mem::take(&mut scratch.prev_planes);
    let mut next_planes = std::mem::take(&mut scratch.next_planes);
    pyramid_to_planes(prev_pyr, &mut prev_planes);
    pyramid_to_planes(next_pyr, &mut next_planes);
    for chunk in points.chunks(KLT_LANES) {
        track_batch_planes(&prev_planes, &next_planes, chunk, cfg, scratch, out, isa);
    }
    scratch.prev_planes = prev_planes;
    scratch.next_planes = next_planes;
}

/// Tracks a single point through the pyramid, coarse to fine.
pub fn track_one(
    prev_pyr: &Pyramid,
    next_pyr: &Pyramid,
    x: f32,
    y: f32,
    cfg: &KltConfig,
) -> TrackOutcome {
    track_one_with(prev_pyr, next_pyr, x, y, cfg, &mut KltScratch::default())
}

/// [`track_one`] with caller-owned window buffers (allocation-free once
/// `scratch` is warm). This is the scalar fallback path: one track, no
/// lane batching — bit-identical to the lane the batched solve would
/// give the same point. Converts both pyramids to f32 planes per call —
/// when tracking many points between the same pyramids, use
/// [`track_pyramidal_into`], which converts once and batches the solve.
pub fn track_one_with(
    prev_pyr: &Pyramid,
    next_pyr: &Pyramid,
    x: f32,
    y: f32,
    cfg: &KltConfig,
    scratch: &mut KltScratch,
) -> TrackOutcome {
    scratch.iterations.clear();
    let mut prev_planes = std::mem::take(&mut scratch.prev_planes);
    let mut next_planes = std::mem::take(&mut scratch.next_planes);
    pyramid_to_planes(prev_pyr, &mut prev_planes);
    pyramid_to_planes(next_pyr, &mut next_planes);
    let outcome = track_one_planes(&prev_planes, &next_planes, x, y, cfg, scratch);
    scratch.prev_planes = prev_planes;
    scratch.next_planes = next_planes;
    outcome
}

/// Tracks one point between pre-converted f32 pyramid planes (the scalar
/// solve).
fn track_one_planes(
    prev: &[FloatImage],
    next: &[FloatImage],
    x: f32,
    y: f32,
    cfg: &KltConfig,
    scratch: &mut KltScratch,
) -> TrackOutcome {
    let levels = prev.len().min(next.len());
    let mut gx = 0.0f32;
    let mut gy = 0.0f32;
    let mut residual = f32::MAX;
    let mut degenerate = false;
    let mut iters_total = 0u32;
    for li in (0..levels).rev() {
        // Same scale law as `Pyramid::scale`.
        let scale = (1u32 << li) as f32;
        let (lx, ly) = (x / scale, y / scale);
        match track_level(&prev[li], &next[li], lx, ly, gx, gy, cfg, scratch) {
            Some((dx, dy, res, iters)) => {
                residual = res;
                iters_total += iters;
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
    scratch.iterations.push(iters_total);
    if degenerate {
        return TrackOutcome::Degenerate;
    }
    let nx = x + gx;
    let ny = y + gy;
    let base = &next[0];
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A textured image with a smooth per-pixel pattern, shifted by
    /// `(sx, sy)` pixels.
    fn textured(sx: f32, sy: f32) -> GrayImage {
        textured_sized(96, 96, sx, sy)
    }

    /// [`textured`] at `w × h`.
    fn textured_sized(w: u32, h: u32, sx: f32, sy: f32) -> GrayImage {
        GrayImage::from_fn(w, h, |x, y| {
            let u = x as f32 - sx;
            let v = y as f32 - sy;
            let val = 128.0
                + 50.0 * ((u * 0.35).sin() * (v * 0.28).cos())
                + 30.0 * ((u * 0.11 + v * 0.17).sin());
            val.clamp(0.0, 255.0) as u8
        })
    }

    /// Asserts two outcome slices are bit-identical (positions and
    /// residuals compared at the bit level).
    fn assert_bit_identical(a: &[TrackOutcome], b: &[TrackOutcome]) {
        assert_eq!(a.len(), b.len());
        for (i, (oa, ob)) in a.iter().zip(b).enumerate() {
            match (oa, ob) {
                (
                    TrackOutcome::Tracked { x: ax, y: ay, residual: ar },
                    TrackOutcome::Tracked { x: bx, y: by, residual: br },
                ) => {
                    assert_eq!(ax.to_bits(), bx.to_bits(), "point {i}: x");
                    assert_eq!(ay.to_bits(), by.to_bits(), "point {i}: y");
                    assert_eq!(ar.to_bits(), br.to_bits(), "point {i}: residual");
                }
                _ => assert_eq!(oa, ob, "point {i}"),
            }
        }
    }

    /// Scalar reference: tracks every point alone through
    /// [`track_one_with`] and collects outcomes + iteration counts.
    fn scalar_reference(
        prev_pyr: &Pyramid,
        next_pyr: &Pyramid,
        pts: &[(f32, f32)],
        cfg: &KltConfig,
    ) -> (Vec<TrackOutcome>, Vec<u32>) {
        let mut scratch = KltScratch::default();
        let mut outcomes = Vec::new();
        let mut iters = Vec::new();
        for &(x, y) in pts {
            outcomes.push(track_one_with(prev_pyr, next_pyr, x, y, cfg, &mut scratch));
            iters.push(scratch.iteration_counts()[0]);
        }
        (outcomes, iters)
    }

    #[test]
    fn tracks_small_shift() {
        let prev = textured(0.0, 0.0);
        let next = textured(1.7, -0.8);
        let pts = [(40.0, 40.0), (55.0, 30.0), (30.0, 60.0)];
        let out = track_pyramidal(&prev, &next, &pts, &KltConfig::default());
        for (i, o) in out.iter().enumerate() {
            let (nx, ny) = o.position().unwrap_or_else(|| panic!("point {i} lost: {o:?}"));
            assert!((nx - (pts[i].0 + 1.7)).abs() < 0.25, "x err {}", nx - pts[i].0);
            assert!((ny - (pts[i].1 - 0.8)).abs() < 0.25, "y err {}", ny - pts[i].1);
        }
    }

    #[test]
    fn tracks_large_shift_via_pyramid() {
        let prev = textured(0.0, 0.0);
        let next = textured(9.0, 6.0);
        let out = track_pyramidal(&prev, &next, &[(45.0, 45.0)], &KltConfig::default());
        let (nx, ny) = out[0].position().expect("tracked");
        assert!((nx - 54.0).abs() < 0.6, "nx={nx}");
        assert!((ny - 51.0).abs() < 0.6, "ny={ny}");
    }

    #[test]
    fn flat_region_is_degenerate() {
        let prev = GrayImage::filled(64, 64, 120);
        let next = GrayImage::filled(64, 64, 120);
        let out = track_pyramidal(&prev, &next, &[(32.0, 32.0)], &KltConfig::default());
        assert_eq!(out[0], TrackOutcome::Degenerate);
    }

    #[test]
    fn point_leaving_image_is_out_of_bounds() {
        // Aperiodic texture (quadratic phase) so large shifts cannot alias
        // onto a false in-bounds match.
        let tex = |s: f32| {
            GrayImage::from_fn(96, 96, |x, y| {
                let u = x as f32 - s;
                let v = y as f32;
                let val = 128.0 + 60.0 * ((u * u * 0.01 + v * 0.3).sin());
                val.clamp(0.0, 255.0) as u8
            })
        };
        let prev = tex(0.0);
        let next = tex(30.0);
        // Point near the right edge moves out of the frame.
        let out = track_pyramidal(&prev, &next, &[(90.0, 48.0)], &KltConfig::default());
        assert!(
            matches!(out[0], TrackOutcome::OutOfBounds | TrackOutcome::Lost),
            "outcome {:?}",
            out[0]
        );
    }

    #[test]
    fn appearance_change_is_lost() {
        let prev = textured(0.0, 0.0);
        // Completely different content.
        let next = GrayImage::from_fn(96, 96, |x, y| (((x / 2) ^ (y / 3)) * 53 % 256) as u8);
        let out = track_pyramidal(&prev, &next, &[(48.0, 48.0)], &KltConfig::default());
        assert!(out[0].position().is_none(), "outcome {:?}", out[0]);
    }

    #[test]
    fn cached_pyramids_and_scratch_are_bit_identical() {
        // Tracking through pre-built pyramids with a reused scratch (the
        // frontend's steady-state path) must equal the build-per-call
        // wrapper exactly.
        let prev = textured(0.0, 0.0);
        let next = textured(1.7, -0.8);
        let pts = [(40.0, 40.0), (55.0, 30.0), (30.0, 60.0), (32.0, 32.0)];
        let cfg = KltConfig::default();
        let reference = track_pyramidal(&prev, &next, &pts, &cfg);

        let prev_pyr = Pyramid::build(prev.clone(), cfg.levels);
        let next_pyr = Pyramid::build(next.clone(), cfg.levels);
        let mut scratch = KltScratch::default();
        let mut out = Vec::new();
        // Twice: the second run exercises fully warm buffers.
        for _ in 0..2 {
            track_pyramidal_into(&prev_pyr, &next_pyr, &pts, &cfg, &mut scratch, &mut out);
            assert_bit_identical(&out, &reference);
        }
    }

    #[test]
    fn absurd_coordinates_do_not_misbehave() {
        // Far-out finite positions saturate the float→int casts inside
        // the row samplers; they must take the clamped fallback (never
        // the unchecked path) and report a failed track.
        let prev = textured(0.0, 0.0);
        let next = textured(1.0, 0.0);
        let pts = [(1e19f32, 1e19f32), (-1e19, 48.0), (48.0, -1e19)];
        let out = track_pyramidal(&prev, &next, &pts, &KltConfig::default());
        for (p, o) in pts.iter().zip(&out) {
            assert!(o.position().is_none(), "point {p:?} tracked: {o:?}");
        }
    }

    #[test]
    fn zero_motion_stays_put() {
        let prev = textured(0.0, 0.0);
        let out = track_pyramidal(&prev, &prev, &[(50.0, 50.0)], &KltConfig::default());
        let (nx, ny) = out[0].position().expect("tracked");
        assert!((nx - 50.0).abs() < 0.05);
        assert!((ny - 50.0).abs() < 0.05);
    }

    #[test]
    fn batch_matches_scalar_for_every_remainder_width() {
        // Track counts 1..=2·LANES+1 cover a lone lane, partial batches,
        // exactly one full batch, and full-batch-plus-tail — positions,
        // outcomes and iteration counts must all match the scalar solve.
        let prev = textured(0.0, 0.0);
        let next = textured(1.7, -0.8);
        let cfg = KltConfig::default();
        let prev_pyr = Pyramid::build(prev.clone(), cfg.levels);
        let next_pyr = Pyramid::build(next.clone(), cfg.levels);
        let all_pts: Vec<(f32, f32)> = (0..(2 * KLT_LANES + 1))
            .map(|i| {
                let fi = i as f32;
                (12.0 + fi * 4.1, 80.0 - fi * 3.3)
            })
            .collect();
        let mut scratch = KltScratch::default();
        let mut out = Vec::new();
        for n in 1..=all_pts.len() {
            let pts = &all_pts[..n];
            let (reference, ref_iters) = scalar_reference(&prev_pyr, &next_pyr, pts, &cfg);
            track_pyramidal_into(&prev_pyr, &next_pyr, pts, &cfg, &mut scratch, &mut out);
            assert_bit_identical(&out, &reference);
            assert_eq!(scratch.iteration_counts(), &ref_iters[..], "iterations, n={n}");
        }
    }

    #[test]
    fn mixed_batch_with_degenerate_and_border_lanes_matches_scalar() {
        // One batch mixing healthy lanes, low-texture (degenerate) lanes
        // inside a flat patch, and lanes whose window leaves the border:
        // masking one lane must not perturb its neighbors.
        let prev = GrayImage::from_fn(96, 96, |x, y| {
            if (30..60).contains(&x) && (30..60).contains(&y) {
                120 // flat patch: degenerate windows
            } else {
                let u = x as f32;
                let v = y as f32;
                (128.0 + 60.0 * ((u * 0.37).sin() * (v * 0.23).cos())).clamp(0.0, 255.0) as u8
            }
        });
        let next = prev.clone();
        let cfg = KltConfig::default();
        let prev_pyr = Pyramid::build(prev.clone(), cfg.levels);
        let next_pyr = Pyramid::build(next.clone(), cfg.levels);
        let pts = [
            (12.0, 12.0),  // healthy
            (45.0, 45.0),  // flat → degenerate
            (2.0, 48.0),   // window over the left border → out of bounds
            (80.0, 80.0),  // healthy
            (44.0, 46.0),  // flat → degenerate
            (93.0, 5.0),   // window over the corner → out of bounds
            (20.0, 70.0),  // healthy
        ];
        let (reference, ref_iters) = scalar_reference(&prev_pyr, &next_pyr, &pts, &cfg);
        assert!(
            reference.contains(&TrackOutcome::Degenerate),
            "fixture must exercise degenerate lanes: {reference:?}"
        );
        assert!(
            reference.contains(&TrackOutcome::OutOfBounds),
            "fixture must exercise border lanes: {reference:?}"
        );
        assert!(
            reference.iter().any(|o| o.position().is_some()),
            "fixture must keep healthy lanes: {reference:?}"
        );
        let mut scratch = KltScratch::default();
        let mut out = Vec::new();
        track_pyramidal_into(&prev_pyr, &next_pyr, &pts, &cfg, &mut scratch, &mut out);
        assert_bit_identical(&out, &reference);
        assert_eq!(scratch.iteration_counts(), &ref_iters[..]);
    }

    #[test]
    fn full_batch_converging_on_first_iteration() {
        // Zero motion: the first LSS update is exactly zero, so every
        // lane of a full batch converges on iteration 1 of every level.
        let prev = textured(0.0, 0.0);
        let cfg = KltConfig::default();
        let pyr = Pyramid::build(prev.clone(), cfg.levels);
        let pts: Vec<(f32, f32)> = (0..KLT_LANES)
            .map(|i| (30.0 + 5.0 * i as f32, 40.0 + 3.0 * i as f32))
            .collect();
        let mut scratch = KltScratch::default();
        let mut out = Vec::new();
        track_pyramidal_into(&pyr, &pyr, &pts, &cfg, &mut scratch, &mut out);
        let (reference, ref_iters) = scalar_reference(&pyr, &pyr, &pts, &cfg);
        assert_bit_identical(&out, &reference);
        assert_eq!(scratch.iteration_counts(), &ref_iters[..]);
        for (o, &it) in out.iter().zip(scratch.iteration_counts()) {
            assert!(o.position().is_some(), "outcome {o:?}");
            // One iteration per pyramid level.
            assert_eq!(it, cfg.levels as u32, "iterations {it}");
        }
    }

    #[test]
    fn zero_iteration_budget_matches_scalar() {
        // max_iterations = 0 leaves the residual at MAX (→ Lost) on both
        // paths; the batch must not diverge on the empty LSS loop.
        let prev = textured(0.0, 0.0);
        let next = textured(1.0, 0.5);
        let cfg = KltConfig {
            max_iterations: 0,
            ..KltConfig::default()
        };
        let prev_pyr = Pyramid::build(prev.clone(), cfg.levels);
        let next_pyr = Pyramid::build(next.clone(), cfg.levels);
        let pts = [(40.0, 40.0), (50.0, 50.0), (60.0, 30.0)];
        let (reference, ref_iters) = scalar_reference(&prev_pyr, &next_pyr, &pts, &cfg);
        let mut scratch = KltScratch::default();
        let mut out = Vec::new();
        track_pyramidal_into(&prev_pyr, &next_pyr, &pts, &cfg, &mut scratch, &mut out);
        assert_bit_identical(&out, &reference);
        assert_eq!(scratch.iteration_counts(), &ref_iters[..]);
        assert!(ref_iters.iter().all(|&i| i == 0));
    }

    /// The AVX2 kernels, when the host has them (`None` skips the
    /// portable-vs-AVX2 comparisons below).
    #[cfg(target_arch = "x86_64")]
    fn avx2() -> Option<Isa> {
        let isa = crate::isa::Avx2::detect().map(Isa::Avx2);
        if isa.is_none() {
            eprintln!("host lacks AVX2: portable-vs-AVX2 comparison skipped");
        }
        isa
    }

    /// Tracks `pts` on the portable kernels and on `simd`, and asserts
    /// bit-identical outcomes and equal per-track iteration counts.
    #[cfg(target_arch = "x86_64")]
    fn assert_kernels_agree(
        prev_pyr: &Pyramid,
        next_pyr: &Pyramid,
        pts: &[(f32, f32)],
        cfg: &KltConfig,
        simd: Isa,
        what: &str,
    ) {
        let run = |isa| {
            let mut scratch = KltScratch::default();
            let mut out = Vec::new();
            track_pyramidal_with(prev_pyr, next_pyr, pts, cfg, &mut scratch, &mut out, isa);
            (out, scratch.iterations)
        };
        let (want, want_iters) = run(Isa::Portable);
        let (got, got_iters) = run(simd);
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            match (g, w) {
                (
                    TrackOutcome::Tracked {
                        x: gx,
                        y: gy,
                        residual: gr,
                    },
                    TrackOutcome::Tracked {
                        x: wx,
                        y: wy,
                        residual: wr,
                    },
                ) => {
                    assert_eq!(
                        [gx.to_bits(), gy.to_bits(), gr.to_bits()],
                        [wx.to_bits(), wy.to_bits(), wr.to_bits()],
                        "{what}: point {i} {:?}",
                        pts[i]
                    );
                }
                _ => assert_eq!(g, w, "{what}: point {i} {:?}", pts[i]),
            }
        }
        assert_eq!(got_iters, want_iters, "{what}: iteration counts");
    }

    /// Seventeen positions (two full batches and a lone lane) on a
    /// `w × h` image: interior and sub-pixel, on and past every border,
    /// absurdly far (`1e19`) and NaN.
    #[cfg(target_arch = "x86_64")]
    fn hostile_points(w: f32, h: f32) -> Vec<(f32, f32)> {
        vec![
            (40.3, 50.7),
            (w * 0.5, h * 0.5),
            (0.0, 0.0),
            (2.0, h * 0.4),
            (w - 1.0, h - 1.0),
            (w - 1.4, 30.2),
            (31.7, h - 0.6),
            (-0.5, 20.0),
            (-30.0, 40.0),
            (w + 25.0, h + 3.0),
            (1e19, 1e19),
            (-1e19, 48.0),
            (48.0, 1e19),
            (f32::NAN, 40.0),
            (40.0, f32::NAN),
            (w * 0.7 + 0.33, h * 0.3 - 0.21),
            (12.125, 18.875),
        ]
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn simd_klt_matches_portable_across_radii_and_levels() {
        let Some(simd) = avx2() else { return };
        let (w, h) = (120, 100);
        let prev = textured_sized(w, h, 0.0, 0.0);
        let next = textured_sized(w, h, 2.3, -1.6);
        let pts = hostile_points(w as f32, h as f32);
        for levels in 1..=4 {
            let prev_pyr = Pyramid::build(prev.clone(), levels);
            let next_pyr = Pyramid::build(next.clone(), levels);
            assert_eq!(
                prev_pyr.levels(),
                levels,
                "fixture must reach {levels} levels"
            );
            for window_radius in 1..=10 {
                let cfg = KltConfig {
                    window_radius,
                    levels,
                    ..KltConfig::default()
                };
                let what = format!("radius {window_radius}, levels {levels}");
                assert_kernels_agree(&prev_pyr, &next_pyr, &pts, &cfg, simd, &what);
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn simd_klt_matches_portable_for_every_remainder_width() {
        let Some(simd) = avx2() else { return };
        let prev = textured(0.0, 0.0);
        let next = textured(1.7, -0.8);
        let cfg = KltConfig::default();
        let prev_pyr = Pyramid::build(prev.clone(), cfg.levels);
        let next_pyr = Pyramid::build(next.clone(), cfg.levels);
        let pts = hostile_points(96.0, 96.0);
        for n in 1..=pts.len() {
            let what = format!("{n} tracks");
            assert_kernels_agree(&prev_pyr, &next_pyr, &pts[..n], &cfg, simd, &what);
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn simd_klt_matches_portable_on_degenerate_lanes_and_exact_budgets() {
        // Flat-patch (degenerate) lanes beside healthy ones, lanes that
        // converge on iteration 1, and the empty iteration budget.
        let Some(simd) = avx2() else { return };
        let prev = GrayImage::from_fn(96, 96, |x, y| {
            if (30..60).contains(&x) && (30..60).contains(&y) {
                120
            } else {
                let (u, v) = (x as f32, y as f32);
                (128.0 + 60.0 * ((u * 0.37).sin() * (v * 0.23).cos())).clamp(0.0, 255.0) as u8
            }
        });
        let pyr = Pyramid::build(prev.clone(), 3);
        let pts = [
            (12.0, 12.0),
            (45.0, 45.0),
            (80.0, 80.0),
            (44.0, 46.0),
            (20.0, 70.0),
        ];
        for max_iterations in [0, 1, 15] {
            let cfg = KltConfig {
                max_iterations,
                ..KltConfig::default()
            };
            let what = format!("max_iterations {max_iterations}");
            assert_kernels_agree(&pyr, &pyr, &pts, &cfg, simd, &what);
        }
    }
}
