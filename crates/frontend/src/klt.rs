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
//! lanes one after another (Sec. V, `tm_per_track` cycles each). The CPU
//! hot path mirrors the structure: [`track_pyramidal_into`] runs the
//! pyramid level by level, coarse to fine, and streams each level's
//! tracks through [`KLT_LANES`] lanes, holding per-lane state (positions,
//! 2×2 normal matrices, window buffers, masks) as parallel SoA arrays in
//! a `TrackBatch` inside [`KltScratch`]. A *staging* batch runs the DC
//! phase of the next eight waiting tracks at full width; a track that
//! fails the determinant test retires there without taking an LSS lane.
//! Before each LSS iteration, every lane of the *LSS* batch freed by
//! convergence or by the iteration budget takes the next staged track
//! (a plain copy of its window buffers and scalars), and the staging
//! batch restages when it runs dry. Each track's displacement, residual,
//! iteration count and degenerate flag wait in `KltScratch` between
//! levels. Per-lane arithmetic is exactly the scalar sequence, so the
//! solve is **bit-identical** to solving each track alone, whichever lane
//! and neighbors a track gets.
//!
//! **Visit order**: the tracks do not stream in input order. Once per
//! call the solve sorts a permutation of the input points, held in
//! [`KltScratch`], by 32-pixel row band (`floor(y / 32)` at full
//! resolution), then `x`, then input index, with non-finite positions
//! last, and every level stages its tracks in that order. The lanes of a
//! batch then sample neighbouring windows, which share image rows in the
//! core's caches, as the accelerator's line buffers share them. The sort
//! is unstable but its key is a total order, so it allocates nothing and
//! gives one permutation per input. Outcomes,
//! [`KltScratch::iteration_counts`] and the per-track state stay indexed
//! by input position, and a track's arithmetic does not depend on its
//! turn, so the order changes no output bit.
//!
//! **Kernels**: on x86-64 hosts that report AVX2 (checked at run time),
//! the DC and LSS phases run `std::arch` kernels in which one 256-bit
//! vector holds the eight lanes. A DC grid row or LSS window row whose
//! live lanes are all interior, with regular column runs, takes row
//! loads: each lane reads its window row with contiguous 8-wide loads
//! and one transpose per eight columns returns the samples to the
//! lane-interleaved layout. Every other row runs a clamped sampler that
//! gathers the taps the scalar clamp takes. Every lane runs the scalar
//! operation sequence — `mul` and `add` stay separate (no FMA), sums
//! keep the scalar order, and the truncating cast appears only where the
//! interior proof gives `x ≥ 0` or after a clamp to the plane. Lanes
//! whose window reaches past the plane, and lanes whose `±1` gradient
//! taps the grid cannot supply, stay on the vector kernels. Elsewhere
//! the portable batch runs the lanes one after another: a row-hoisted
//! bilinear gather (`eudoxus_image::RowGather`) and a fixed-width
//! unrolled inner loop give the core eight independent `f32`
//! accumulator chains where the scalar solve serializes on one. Both
//! kernel sets run under the same refill loop.
//!
//! **Masking contract**: a lane is live while it holds a track. A free
//! lane is skipped by the portable batch's gathers and updates (so the
//! solve performs exactly the scalar solve's sample count) and by the
//! AVX2 loads and gathers, but it still spends its slot in every AVX2
//! vector instruction. A row-load row's last block of `m < 8` columns
//! loads with only its first `m` elements masked in, so no lane reads
//! past its run's last tap. Lanes are refilled the moment their track
//! leaves, so they idle only in each level's tail, once no track is left
//! to stage: on rendered drone frames 97 % of LSS lane slots do useful
//! work ([`KltScratch::lss_vector_iterations`]). A level ends when every
//! track has left the lanes.
//!
//! **Scalar fallback**: [`track_one`]/[`track_one_with`] run the original
//! scalar solve (one track, no lanes). The portable batch runs every DC
//! on `dc_window` and, for a window row where some lane's run is not
//! provably interior, every lane's row on the per-lane clamped sampler
//! (`lss_lane_row`). On AVX2 only a lane with a non-finite coordinate
//! (NaN or infinity) runs `dc_window` or `lss_lane_row`, so such
//! payloads never meet a vector instruction; a plane one pixel wide or
//! high, which no pyramid the frontend builds has, runs the portable
//! batch.
//! [`KltScratch::scalar_dc_lanes`] and [`KltScratch::scalar_lss_rows`]
//! count what the last call sent there, and
//! [`KltScratch::clamped_dc_rows`] and [`KltScratch::clamped_lss_rows`]
//! the AVX2 rows that ran on the clamped sampler. The seed solve itself
//! is preserved verbatim in `eudoxus_bench::baseline` as the golden
//! reference.

use eudoxus_image::isa::Isa;
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

/// SoA state of up to [`KLT_LANES`] tracks, one per lane: parallel arrays
/// indexed by lane. The window buffers are lane-interleaved
/// (`buf[pixel * KLT_LANES + lane]`) so the LSS inner loop reads each
/// pixel's lane vector from contiguous memory. The solve keeps two: the
/// staging batch the DC phase fills and the LSS batch the solve
/// iterates, whose free lanes the staged tracks refill.
#[derive(Debug, Clone, Default)]
struct TrackBatch {
    /// Index of the track each lane holds (meaningful where `live`).
    track: [usize; KLT_LANES],
    /// Level-scaled positions (the LSS phase reads only `py`; its
    /// column positions are in `txs`).
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
    /// Lane holds a track: staged and not yet handed out (staging
    /// batch), or still iterating at the current level (LSS batch). Free
    /// lanes are masked out of every gather and update.
    live: [bool; KLT_LANES],
    /// LSS iterations the lane's track has run at the current level.
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
    /// Lane masks of the AVX2 DC kernel, two per window column: the lanes
    /// whose right and whose left `±1` tap fails the exactness proof (the
    /// batched form of `KltScratch::exact_x`).
    #[cfg(target_arch = "x86_64")]
    inexact: Vec<f32>,
    /// Lane-major fractional column offsets of the AVX2 row-load sampler,
    /// eight columns per lane vector, one run per batch (the DC grid's
    /// columns in the staging batch, the window's in the LSS batch).
    #[cfg(target_arch = "x86_64")]
    fx: Vec<f32>,
}

impl TrackBatch {
    /// Sizes the window buffers for windows of `w × w` pixels.
    fn resize_windows(&mut self, w: usize) {
        self.template.resize(w * w * KLT_LANES, 0.0);
        self.grad_x.resize(w * w * KLT_LANES, 0.0);
        self.grad_y.resize(w * w * KLT_LANES, 0.0);
        self.txs.resize(w * KLT_LANES, 0.0);
    }
}

/// Per-track state of the batched solve that outlives a lane: a track
/// takes a lane once per pyramid level and hands this back when it
/// leaves.
#[derive(Debug, Clone, Copy)]
struct TrackState {
    /// Displacement estimate, carried from level to level.
    gx: f32,
    gy: f32,
    /// Mean absolute residual of the last executed iteration.
    residual: f32,
    /// Failed the determinant test at some level (and stopped there).
    degenerate: bool,
}

impl TrackState {
    /// A track that has not started: no displacement, no residual yet.
    const START: TrackState = TrackState {
        gx: 0.0,
        gy: 0.0,
        residual: f32::MAX,
        degenerate: false,
    };

    /// The outcome of the track that started at `(x, y)` in a frame whose
    /// full-resolution plane is `base`.
    fn outcome(&self, x: f32, y: f32, base: &FloatImage, cfg: &KltConfig) -> TrackOutcome {
        if self.degenerate {
            return TrackOutcome::Degenerate;
        }
        let nx = x + self.gx;
        let ny = y + self.gy;
        let m = cfg.window_radius as f32;
        if nx < m || ny < m || nx >= base.width() as f32 - m || ny >= base.height() as f32 - m {
            TrackOutcome::OutOfBounds
        } else if self.residual > cfg.max_residual {
            TrackOutcome::Lost
        } else {
            TrackOutcome::Tracked {
                x: nx,
                y: ny,
                residual: self.residual,
            }
        }
    }
}

/// Reusable state for the LK solve: per-track window buffers (scalar
/// path), the staging and LSS `TrackBatch`es and the per-track state
/// (batched path). One warm-up call makes every subsequent track
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
    /// Per-column sample x positions `px + dx` (identical computation to
    /// the inline form, hoisted out of the iteration loops).
    txs: Vec<f32>,
    /// Tracks whose DC phase ran and that wait for an LSS lane.
    stage: TrackBatch,
    /// Tracks in their LSS iterations.
    lanes: TrackBatch,
    /// Input indices in visit order (see [`visit_order`]): the order in
    /// which every level stages its tracks.
    order: Vec<usize>,
    /// Per-track state of the batched solve, one entry per input point.
    tracks: Vec<TrackState>,
    /// Per-point LSS iteration counts of the most recent call (see
    /// [`iteration_counts`](Self::iteration_counts)).
    iterations: Vec<u32>,
    /// LSS batch iterations of the most recent call (see
    /// [`lss_vector_iterations`](Self::lss_vector_iterations)).
    vector_iterations: u64,
    /// Lanes of the most recent call whose DC ran on `dc_window` (see
    /// [`scalar_dc_lanes`](Self::scalar_dc_lanes)).
    scalar_dc_lanes: u64,
    /// Lane rows of the most recent call run by `lss_lane_row` (see
    /// [`scalar_lss_rows`](Self::scalar_lss_rows)).
    scalar_lss_rows: u64,
    /// DC batches staged by the most recent call (see
    /// [`dc_vector_batches`](Self::dc_vector_batches)).
    dc_batches: u64,
    /// DC grid rows and LSS window rows of the most recent call served by
    /// the AVX2 clamped sampler (see [`clamped_dc_rows`](Self::clamped_dc_rows)
    /// and [`clamped_lss_rows`](Self::clamped_lss_rows)).
    clamped_dc_rows: u64,
    clamped_lss_rows: u64,
}

impl KltScratch {
    /// Zeroes the per-call diagnostic counters.
    fn reset_counters(&mut self) {
        self.vector_iterations = 0;
        self.scalar_dc_lanes = 0;
        self.scalar_lss_rows = 0;
        self.dc_batches = 0;
        self.clamped_dc_rows = 0;
        self.clamped_lss_rows = 0;
    }

    /// LSS iteration counts of the most recent [`track_pyramidal_into`]
    /// (one entry per input point, in order) or [`track_one_with`] (one
    /// entry) call, summed over pyramid levels. Diagnostic surface for
    /// the bit-identity harness: the batched and scalar solves must
    /// execute exactly the same number of iterations per track, not just
    /// land on the same positions.
    pub fn iteration_counts(&self) -> &[u32] {
        &self.iterations
    }

    /// LSS iterations of the whole [`KLT_LANES`]-wide batch run by the
    /// most recent [`track_pyramidal_into`] call (zero after
    /// [`track_one_with`]). Each advances every occupied lane by one
    /// iteration, so the sum of [`iteration_counts`](Self::iteration_counts)
    /// divided by `KLT_LANES ×` this count is the solve's lane occupancy:
    /// the share of lane slots that did useful work.
    pub fn lss_vector_iterations(&self) -> u64 {
        self.vector_iterations
    }

    /// Staged lanes whose DC phase the most recent
    /// [`track_pyramidal_into`] call ran on the scalar `dc_window`
    /// (zero after [`track_one_with`]). On the portable path, and on a
    /// plane one pixel wide or high, that is every staged lane; on AVX2
    /// hosts otherwise only the lanes with a non-finite position, so on
    /// finite inputs any other count means lanes slipped off the vector
    /// kernel, which changes speed but no output bit.
    pub fn scalar_dc_lanes(&self) -> u64 {
        self.scalar_dc_lanes
    }

    /// Window rows of single lanes that the most recent
    /// [`track_pyramidal_into`] call ran on the per-lane clamped row
    /// (`lss_lane_row`) instead of a batched kernel (zero after
    /// [`track_one_with`]). On the portable path, and on a plane one
    /// pixel wide or high, that is every lane of each row some lane's run
    /// leaves the interior; on AVX2 hosts otherwise only the rows of lanes
    /// with a non-finite coordinate.
    pub fn scalar_lss_rows(&self) -> u64 {
        self.scalar_lss_rows
    }

    /// Staging batches whose DC phase the most recent
    /// [`track_pyramidal_into`] call ran (zero after [`track_one_with`]).
    /// Each samples one `(2r + 3)`-row grid, so this times `2r + 3` is
    /// the number of DC grid rows the call sampled.
    pub fn dc_vector_batches(&self) -> u64 {
        self.dc_batches
    }

    /// DC grid rows that the most recent [`track_pyramidal_into`] call
    /// sampled on the AVX2 clamped sampler instead of row loads, because
    /// some lane's grid row reaches past the plane or its column run is
    /// irregular (zero on the portable path and after
    /// [`track_one_with`]). A row counts once, whatever its lane count.
    pub fn clamped_dc_rows(&self) -> u64 {
        self.clamped_dc_rows
    }

    /// LSS window rows of the whole batch that the most recent
    /// [`track_pyramidal_into`] call sampled on the AVX2 clamped sampler
    /// instead of row loads, for the reasons of
    /// [`clamped_dc_rows`](Self::clamped_dc_rows). Out of
    /// `(2r + 1) ×` [`lss_vector_iterations`](Self::lss_vector_iterations)
    /// rows.
    pub fn clamped_lss_rows(&self) -> u64 {
        self.clamped_lss_rows
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
/// live lane. Each live lane's accumulation visits the window in the
/// same row-major order as the scalar solve with the same arithmetic, so
/// per-lane results are bit-identical to [`track_level`]'s iteration.
///
/// Free lanes (only in a level's tail, when no track is left to refill
/// them) are skipped by the gather, so the batch's total sample count
/// equals the scalar solve's. The fast path requires every live lane's
/// sample run on the current window row to be interior; rows that fail
/// fall back to [`lss_lane_row`] for every live lane, each counted in
/// `scalar_rows`.
fn lss_batch_iteration(
    next: &FloatImage,
    b: &TrackBatch,
    w: usize,
    r: i64,
    scalar_rows: &mut u64,
) -> ([f32; KLT_LANES], [f32; KLT_LANES], [f32; KLT_LANES]) {
    let mut b1 = [0.0f32; KLT_LANES];
    let mut b2 = [0.0f32; KLT_LANES];
    let mut res = [0.0f32; KLT_LANES];
    let active = b.live;
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
            // Same micro-kernel with the lane mask applied: the mask is
            // loop-invariant for the whole iteration, so the skip branch
            // predicts perfectly and free lanes cost nothing but the
            // test.
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
                    *scalar_rows += 1;
                }
            }
        }
    }
    (b1, b2, res)
}

/// Window row `row` (at height `y`) of lane `l` on the per-lane clamped
/// sampler, added to the lane's running sums `(b1, b2, res)`: the seed
/// row structure verbatim (interior runs unchecked, borders clamped).
/// The border fallback of the portable batch; the AVX2 kernel sends it
/// only lanes with a non-finite coordinate.
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

/// Runs the DC phase of the next [`KLT_LANES`] waiting tracks of a level
/// into the staging batch: tracks from position `*waiting` of the visit
/// order on that have not gone degenerate take the lanes in order, `isa`
/// picks the DC kernel (the AVX2 kernel solves every lane with a finite
/// position, `dc_window` the rest), and a track that fails the
/// determinant test retires here, flagged degenerate, without ever taking
/// an LSS lane. Returns `false` when no track was left to stage.
fn stage_tracks(
    prev: &FloatImage,
    scale: f32,
    points: &[(f32, f32)],
    waiting: &mut usize,
    scratch: &mut KltScratch,
    cfg: &KltConfig,
    isa: Isa,
) -> bool {
    let KltScratch {
        samples,
        exact_x,
        stage,
        order,
        tracks,
        scalar_dc_lanes,
        dc_batches,
        #[cfg(target_arch = "x86_64")]
        clamped_dc_rows,
        ..
    } = scratch;
    let r = cfg.window_radius;
    let w = (2 * r + 1) as usize;
    let n_px = (w * w) as f32;
    stage.live = [false; KLT_LANES];
    let mut filled = 0;
    while filled < KLT_LANES && *waiting < order.len() {
        let t = order[*waiting];
        *waiting += 1;
        if tracks[t].degenerate {
            continue;
        }
        let (x, y) = points[t];
        stage.track[filled] = t;
        stage.px[filled] = x / scale;
        stage.py[filled] = y / scale;
        stage.live[filled] = true;
        filled += 1;
    }
    if filled == 0 {
        return false;
    }
    *dc_batches += 1;
    // Free lanes keep stale positions: the DC kernel masks them out.
    let solved: u32 = match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2(avx2) => avx2::dc_lanes(avx2, prev, r, stage, clamped_dc_rows),
        Isa::Portable => 0,
    };
    for l in 0..filled {
        let (a11, a12, a22) = if solved & (1 << l) != 0 {
            (stage.a11[l], stage.a12[l], stage.a22[l])
        } else {
            *scalar_dc_lanes += 1;
            dc_window(
                prev,
                stage.px[l],
                stage.py[l],
                r,
                samples,
                exact_x,
                &mut stage.template,
                &mut stage.grad_x,
                &mut stage.grad_y,
                &mut stage.txs,
                KLT_LANES,
                l,
            )
        };
        let det = a11 * a22 - a12 * a12;
        if det < cfg.min_determinant * n_px * n_px {
            // The scalar solve stops this track at its first degenerate
            // level.
            tracks[stage.track[l]].degenerate = true;
            stage.live[l] = false;
            continue;
        }
        stage.a11[l] = a11;
        stage.a12[l] = a12;
        stage.a22[l] = a22;
        stage.inv[l] = 1.0 / det;
    }
    true
}

/// Height in full-resolution pixels of the row bands of the visit order.
const VISIT_BAND: f32 = 32.0;

/// Fills `order` with the input indices of `points` in visit order: by
/// 32-pixel row band (`floor(y / 32)`), then by `x`, then by input index,
/// with non-finite positions last (by input index). Tracks staged in this
/// order share image rows and columns with their lane neighbours, so the
/// windows of one batch come from a few cache-resident rows of each plane
/// instead of from all over it. The key is a total order, so the unstable
/// (allocation-free) sort gives one permutation for a given input.
fn visit_order(points: &[(f32, f32)], order: &mut Vec<usize>) {
    let key = |i: usize| {
        let (x, y) = points[i];
        if x.is_finite() && y.is_finite() {
            (false, (y / VISIT_BAND).floor() as i64, x)
        } else {
            (true, 0, 0.0)
        }
    };
    order.clear();
    order.extend(0..points.len());
    order.sort_unstable_by(|&a, &b| {
        let ((na, ba, xa), (nb, bb, xb)) = (key(a), key(b));
        na.cmp(&nb)
            .then(ba.cmp(&bb))
            .then(xa.total_cmp(&xb))
            .then(a.cmp(&b))
    });
}

/// Moves the staged track in lane `from` of `stage` into the free LSS
/// lane `to` of `lanes`: its window buffers, its DC scalars and its
/// carried displacement `(gx, gy)`. A plain per-lane copy: an AVX2
/// permute and blend that moves every lane of a refill at once measured
/// slower, because a refill moves two lanes on average.
fn refill_lane(
    stage: &TrackBatch,
    from: usize,
    lanes: &mut TrackBatch,
    to: usize,
    gx: f32,
    gy: f32,
) {
    for (dst, src) in [
        (&mut lanes.template, &stage.template),
        (&mut lanes.grad_x, &stage.grad_x),
        (&mut lanes.grad_y, &stage.grad_y),
        (&mut lanes.txs, &stage.txs),
    ] {
        let (dst, _) = dst.as_chunks_mut::<KLT_LANES>();
        let (src, _) = src.as_chunks::<KLT_LANES>();
        for (d, s) in dst.iter_mut().zip(src) {
            d[to] = s[from];
        }
    }
    lanes.track[to] = stage.track[from];
    lanes.py[to] = stage.py[from];
    lanes.a11[to] = stage.a11[from];
    lanes.a12[to] = stage.a12[from];
    lanes.a22[to] = stage.a22[from];
    lanes.inv[to] = stage.inv[from];
    lanes.gx[to] = gx;
    lanes.gy[to] = gy;
    lanes.iters[to] = 0;
    lanes.live[to] = true;
}

/// Solves every live track on one pyramid level (`scale = 2^level`).
///
/// The level's tracks stream through the [`KLT_LANES`] lanes of the LSS
/// batch in visit order: before each LSS iteration, every lane freed by
/// convergence or by the iteration budget takes the next staged track,
/// and the staging batch runs the DC phase of the next eight waiting
/// tracks whenever it runs dry. A track's arithmetic is the scalar
/// recurrence of [`track_level`] whichever lane it lands in. Only the
/// level's last iterations, when no track is left to refill a lane, run
/// with free lanes. `isa` picks the DC and LSS kernels; every choice
/// gives the same bits.
fn solve_level(
    prev: &FloatImage,
    next: &FloatImage,
    scale: f32,
    points: &[(f32, f32)],
    cfg: &KltConfig,
    scratch: &mut KltScratch,
    isa: Isa,
) {
    let r = cfg.window_radius;
    let w = (2 * r + 1) as usize;
    let n_px = (w * w) as f32;
    let mut waiting = 0;
    let mut staged = KLT_LANES;
    loop {
        // Refill: each free lane takes the next staged track, restaging
        // when the staging batch runs dry. With a zero iteration budget
        // no track takes a lane, so this stages (runs the DC phase of)
        // every track of the level.
        let mut lane = 0;
        'refill: while lane < KLT_LANES {
            if scratch.lanes.live[lane] {
                lane += 1;
                continue;
            }
            while staged == KLT_LANES || !scratch.stage.live[staged] {
                if staged < KLT_LANES {
                    staged += 1;
                } else if stage_tracks(prev, scale, points, &mut waiting, scratch, cfg, isa) {
                    staged = 0;
                } else {
                    break 'refill;
                }
            }
            scratch.stage.live[staged] = false;
            if cfg.max_iterations > 0 {
                let t = scratch.tracks[scratch.stage.track[staged]];
                refill_lane(&scratch.stage, staged, &mut scratch.lanes, lane, t.gx, t.gy);
            }
            staged += 1;
        }
        let KltScratch {
            lanes,
            tracks,
            iterations,
            vector_iterations,
            scalar_lss_rows,
            #[cfg(target_arch = "x86_64")]
            clamped_lss_rows,
            ..
        } = &mut *scratch;
        if !lanes.live.contains(&true) {
            break;
        }

        // LSS phase: one Gauss–Newton iteration of every live lane.
        let (b1, b2, res) = match isa {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2(avx2) => {
                avx2::lss_iteration(avx2, next, lanes, w, r, scalar_lss_rows, clamped_lss_rows)
            }
            Isa::Portable => lss_batch_iteration(next, lanes, w, r, scalar_lss_rows),
        };
        *vector_iterations += 1;
        for l in 0..KLT_LANES {
            if !lanes.live[l] {
                continue;
            }
            let t = lanes.track[l];
            lanes.iters[l] += 1;
            iterations[t] += 1;
            tracks[t].residual = res[l] / n_px;
            let ux = (lanes.a22[l] * b1[l] - lanes.a12[l] * b2[l]) * lanes.inv[l];
            let uy = (lanes.a11[l] * b2[l] - lanes.a12[l] * b1[l]) * lanes.inv[l];
            lanes.gx[l] -= ux;
            lanes.gy[l] -= uy;
            if (ux * ux + uy * uy).sqrt() < cfg.epsilon
                || lanes.iters[l] as usize == cfg.max_iterations
            {
                // Converged or out of budget: the lane is free for the
                // next track.
                tracks[t].gx = lanes.gx[l];
                tracks[t].gy = lanes.gy[l];
                lanes.live[l] = false;
            }
        }
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
/// vector. Each pyramid level's tracks stream through [`KLT_LANES`]
/// lane-parallel slots in spatial order (row band, then `x`), a
/// converged track's lane refilled with the next waiting one.
/// Bit-identical to [`track_pyramidal`] and to tracking each point alone
/// with [`track_one_with`]; zero heap allocations once `scratch` and
/// `out` are warm.
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
    let w = (2 * cfg.window_radius + 1) as usize;
    scratch.stage.resize_windows(w);
    scratch.lanes.resize_windows(w);
    // Every level ends with all lanes free; a call starts that way too.
    scratch.lanes.live = [false; KLT_LANES];
    visit_order(points, &mut scratch.order);
    scratch.tracks.clear();
    scratch.tracks.resize(points.len(), TrackState::START);
    scratch.iterations.clear();
    scratch.iterations.resize(points.len(), 0);
    scratch.reset_counters();
    let levels = prev_pyr.levels().min(next_pyr.levels());
    for li in (0..levels).rev() {
        // Same scale law as `Pyramid::scale`.
        let scale = (1u32 << li) as f32;
        solve_level(
            prev_pyr.plane(li),
            next_pyr.plane(li),
            scale,
            points,
            cfg,
            scratch,
            isa,
        );
        if li > 0 {
            for t in scratch.tracks.iter_mut().filter(|t| !t.degenerate) {
                t.gx *= 2.0;
                t.gy *= 2.0;
            }
        }
    }

    out.clear();
    let base = next_pyr.plane(0);
    out.extend(
        points
            .iter()
            .zip(&scratch.tracks)
            .map(|(&(x, y), t)| t.outcome(x, y, base, cfg)),
    );
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
/// lanes — bit-identical to the lane the batched solve would give the
/// same point.
pub fn track_one_with(
    prev_pyr: &Pyramid,
    next_pyr: &Pyramid,
    x: f32,
    y: f32,
    cfg: &KltConfig,
    scratch: &mut KltScratch,
) -> TrackOutcome {
    scratch.iterations.clear();
    scratch.reset_counters();
    let levels = prev_pyr.levels().min(next_pyr.levels());
    let mut track = TrackState::START;
    let mut iters_total = 0u32;
    for li in (0..levels).rev() {
        // Same scale law as `Pyramid::scale`.
        let scale = (1u32 << li) as f32;
        let (lx, ly) = (x / scale, y / scale);
        let (prev, next) = (prev_pyr.plane(li), next_pyr.plane(li));
        match track_level(prev, next, lx, ly, track.gx, track.gy, cfg, scratch) {
            Some((dx, dy, res, iters)) => {
                track.residual = res;
                iters_total += iters;
                if li > 0 {
                    track.gx = dx * 2.0;
                    track.gy = dy * 2.0;
                } else {
                    track.gx = dx;
                    track.gy = dy;
                }
            }
            None => {
                track.degenerate = true;
                break;
            }
        }
    }
    scratch.iterations.push(iters_total);
    track.outcome(x, y, next_pyr.plane(0), cfg)
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

    #[test]
    fn visit_order_sorts_by_band_then_x_then_index() {
        let pts = [
            (5.0, 40.0),
            (1.0, 33.0),
            (f32::NAN, 0.0),
            (3.0, 10.0),
            (3.0, 10.0),
            (-2.0, 31.9),
            (0.0, -1.0),
            (7.0, f32::INFINITY),
        ];
        let mut order = vec![99; 3];
        visit_order(&pts, &mut order);
        assert_eq!(order, [6, 5, 3, 4, 1, 0, 2, 7]);
    }

    /// The kernels the host runs: the portable batch, and AVX2 where the
    /// host has it.
    fn host_isas() -> Vec<Isa> {
        let mut isas = vec![Isa::Portable];
        if Isa::detect() != Isa::Portable {
            isas.push(Isa::detect());
        }
        isas
    }

    #[test]
    fn shuffled_points_give_the_same_outcomes_by_input_index() {
        // The visit order depends on the positions alone: a permutation
        // of the input permutes the outcomes and iteration counts and
        // changes nothing else, on every kernel set.
        let (prev, mut pts) = refill_fixture(0.0, 0.0);
        let (next, _) = refill_fixture(1.6, -0.9);
        pts.extend([(f32::NAN, 30.0), (50.0, 1e19), (40.0, 40.0), (40.0, 40.0)]);
        let cfg = KltConfig::default();
        let prev_pyr = Pyramid::build(prev, cfg.levels);
        let next_pyr = Pyramid::build(next, cfg.levels);
        let n = pts.len();
        // `i ↦ 17·i + 5 (mod n)` is a permutation: 17 and n = 47 are
        // coprime.
        assert_eq!(n, 47);
        let perm: Vec<usize> = (0..n).map(|i| (17 * i + 5) % n).collect();
        let shuffled: Vec<(f32, f32)> = perm.iter().map(|&i| pts[i]).collect();
        for isa in host_isas() {
            let run = |pts: &[(f32, f32)]| {
                let mut scratch = KltScratch::default();
                let mut out = Vec::new();
                track_pyramidal_with(&prev_pyr, &next_pyr, pts, &cfg, &mut scratch, &mut out, isa);
                (out, scratch.iteration_counts().to_vec())
            };
            let (out, iters) = run(&pts);
            let (out_s, iters_s) = run(&shuffled);
            let by_input: Vec<TrackOutcome> = perm.iter().map(|&i| out[i]).collect();
            assert_bit_identical(&out_s, &by_input);
            let iters_by_input: Vec<u32> = perm.iter().map(|&i| iters[i]).collect();
            assert_eq!(iters_s, iters_by_input, "{isa:?}");
        }
    }

    /// A textured image with a flat (degenerate) patch, shifted by
    /// `(sx, sy)`, and 43 tracks over it: healthy, degenerate, on and
    /// past the border. Five batches and a tail, so the solve restages
    /// mid-level and lanes hand over between tracks of different
    /// iteration counts.
    fn refill_fixture(sx: f32, sy: f32) -> (GrayImage, Vec<(f32, f32)>) {
        let img = GrayImage::from_fn(96, 96, |x, y| {
            let (u, v) = (x as f32 - sx, y as f32 - sy);
            if (30.0..60.0).contains(&u) && (30.0..60.0).contains(&v) {
                120
            } else {
                (128.0 + 60.0 * ((u * 0.37).sin() * (v * 0.23).cos())).clamp(0.0, 255.0) as u8
            }
        });
        let pts = (0..43)
            .map(|i| {
                let fi = i as f32;
                (
                    -3.0 + (fi * 0.377).fract() * 102.0,
                    -3.0 + (fi * 0.613).fract() * 102.0,
                )
            })
            .collect();
        (img, pts)
    }

    #[test]
    fn refilled_lanes_match_scalar_across_budgets() {
        let (prev, pts) = refill_fixture(0.0, 0.0);
        let (next, _) = refill_fixture(1.6, -0.9);
        let cfg = KltConfig::default();
        let prev_pyr = Pyramid::build(prev, cfg.levels);
        let next_pyr = Pyramid::build(next, cfg.levels);
        let mut scratch = KltScratch::default();
        let mut out = Vec::new();
        for max_iterations in [0, 1, 2, 15] {
            let cfg = KltConfig {
                max_iterations,
                ..cfg
            };
            let (reference, ref_iters) = scalar_reference(&prev_pyr, &next_pyr, &pts, &cfg);
            for kind in [TrackOutcome::Degenerate, TrackOutcome::OutOfBounds] {
                assert!(reference.contains(&kind), "fixture lacks {kind:?}");
            }
            track_pyramidal_into(&prev_pyr, &next_pyr, &pts, &cfg, &mut scratch, &mut out);
            assert_bit_identical(&out, &reference);
            assert_eq!(
                scratch.iteration_counts(),
                &ref_iters[..],
                "budget {max_iterations}"
            );
        }
    }

    /// The AVX2 kernels, when the host has them (`None` skips the
    /// portable-vs-AVX2 comparisons below).
    #[cfg(target_arch = "x86_64")]
    fn avx2() -> Option<Isa> {
        let isa = eudoxus_image::isa::Avx2::detect().map(Isa::Avx2);
        if isa.is_none() {
            eprintln!("host lacks AVX2: portable-vs-AVX2 comparison skipped");
        }
        isa
    }

    /// Tracks `pts` on the portable kernels and on `simd`, asserts
    /// bit-identical outcomes and equal per-track iteration counts, and
    /// returns the `simd` run's scratch.
    #[cfg(target_arch = "x86_64")]
    fn assert_kernels_agree(
        prev_pyr: &Pyramid,
        next_pyr: &Pyramid,
        pts: &[(f32, f32)],
        cfg: &KltConfig,
        simd: Isa,
        what: &str,
    ) -> KltScratch {
        let run = |isa| {
            let mut scratch = KltScratch::default();
            let mut out = Vec::new();
            track_pyramidal_with(prev_pyr, next_pyr, pts, cfg, &mut scratch, &mut out, isa);
            (out, scratch)
        };
        let (want, want_scratch) = run(Isa::Portable);
        let (got, got_scratch) = run(simd);
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
        assert_eq!(
            got_scratch.iterations, want_scratch.iterations,
            "{what}: iteration counts"
        );
        got_scratch
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
    fn simd_klt_matches_portable_when_lanes_refill() {
        let Some(simd) = avx2() else { return };
        let (prev, pts) = refill_fixture(0.0, 0.0);
        let (next, _) = refill_fixture(1.6, -0.9);
        let prev_pyr = Pyramid::build(prev, 3);
        let next_pyr = Pyramid::build(next, 3);
        for max_iterations in [0, 1, 2, 15] {
            let cfg = KltConfig {
                max_iterations,
                ..KltConfig::default()
            };
            let what = format!("max_iterations {max_iterations}");
            assert_kernels_agree(&prev_pyr, &next_pyr, &pts, &cfg, simd, &what);
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

    /// Whether the DC's `±1` exactness proof fails for some column or
    /// row of a window of radius `r` at the level-scaled `(px, py)`.
    #[cfg(target_arch = "x86_64")]
    fn inexact_taps(px: f32, py: f32, r: i64) -> bool {
        (-r..=r).any(|d| {
            [px, py].into_iter().any(|p| {
                let t = p + d as f32;
                t + 1.0 != p + (d + 1) as f32 || t - 1.0 != p + (d - 1) as f32
            })
        })
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn simd_klt_matches_portable_on_edge_and_inexact_lanes() {
        // The lanes the AVX2 kernels once handed to the scalar DC and
        // rows: sub-pixel windows straddling a power of two at every
        // level (`t ± 1` rounds differently from the grid position),
        // windows overhanging each border by 1..=r+1 pixels, and tracks
        // just inside a border whose image moves out of the plane, so
        // their LSS rows leave it mid-solve. Every one of them now runs
        // on the vector kernels: the AVX2 run calls no scalar DC or row.
        let Some(simd) = avx2() else { return };
        let (w, h) = (560u32, 540u32);
        let (wf, hf) = (w as f32, h as f32);
        let prev = textured_sized(w, h, 0.0, 0.0);
        let nexts = [
            textured_sized(w, h, 3.6, 2.9),
            textured_sized(w, h, -3.6, -2.9),
        ];
        let deltas = [-8.37f32, -2.71, -0.617, -0.000_1, 0.123, 1.93, 7.45];
        let mut straddling = Vec::new();
        for level in 0..4 {
            let s = (1u32 << level) as f32;
            for p in [16.0f32, 32.0, 64.0, 128.0, 256.0, 512.0] {
                for (i, &d) in deltas.iter().enumerate() {
                    let (x, y) = ((p + d) * s, (p.min(256.0) - deltas[6 - i]) * s);
                    if x < wf && y < hf {
                        straddling.push((x, y));
                    }
                }
            }
        }
        for levels in 1..=4 {
            let prev_pyr = Pyramid::build(prev.clone(), levels);
            let next_pyrs = nexts.clone().map(|next| Pyramid::build(next, levels));
            for window_radius in 1..=10 {
                let cfg = KltConfig {
                    window_radius,
                    levels,
                    ..KltConfig::default()
                };
                let r = window_radius as f32;
                let mut pts = straddling.clone();
                for level in 0..levels {
                    let s = (1u32 << level) as f32;
                    let (lw, lh) = (wf / s, hf / s);
                    for k in 1..=window_radius + 1 {
                        // The window reaches `k` pixels past the border
                        // (and `k - 0.4` at the sub-pixel position).
                        for off in [k as f32, k as f32 - 0.4] {
                            pts.push(((r - off) * s, lh * 0.4 * s));
                            pts.push(((lw - 1.0 - r + off) * s, lh * 0.6 * s));
                            pts.push((lw * 0.3 * s, (r - off) * s));
                            pts.push((lw * 0.7 * s, (lh - 1.0 - r + off) * s));
                        }
                    }
                    // Interior at the start, within reach of the border
                    // once the image moves.
                    for j in [0.5f32, 2.25, 4.0] {
                        pts.push(((r + 1.0 + j) * s, lh * 0.5 * s));
                        pts.push(((lw - 2.0 - r - j) * s, lh * 0.5 * s));
                        pts.push((lw * 0.5 * s, (r + 1.0 + j) * s));
                        pts.push((lw * 0.5 * s, (lh - 2.0 - r - j) * s));
                    }
                }
                let inexact = (0..levels).any(|level| {
                    let s = (1u32 << level) as f32;
                    pts.iter()
                        .any(|&(x, y)| inexact_taps(x / s, y / s, window_radius))
                });
                assert!(
                    inexact,
                    "fixture lacks inexact taps at radius {window_radius}"
                );
                for (n, next_pyr) in next_pyrs.iter().enumerate() {
                    let what = format!("radius {window_radius}, levels {levels}, motion {n}");
                    let scratch =
                        assert_kernels_agree(&prev_pyr, next_pyr, &pts, &cfg, simd, &what);
                    assert_eq!(
                        (scratch.scalar_dc_lanes(), scratch.scalar_lss_rows()),
                        (0, 0),
                        "{what}: lanes fell back to the scalar DC or rows"
                    );
                }
            }
        }
    }
    /// Whether the column run `x_c = (x_0 + c) + gx`, `c < n`, is
    /// irregular: some `trunc(x_c) != trunc(x_0) + c`.
    #[cfg(target_arch = "x86_64")]
    fn irregular_run(x0: f32, n: i64, gx: f32) -> bool {
        let t = |c: i64| ((x0 + c as f32) + gx) as i64;
        (0..n).any(|c| t(c) != t(0) + c)
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn simd_klt_matches_portable_on_irregular_runs() {
        // Windows whose columns cross the binades at 64, 128, 256 and 512
        // from positions a few odd ulps away: `px + d` rounds differently
        // on either side of the crossing, so `trunc` skips or repeats a
        // column and the row loads cannot serve the grid. Those rows run
        // the clamped sampler; outcomes stay bit for bit.
        let Some(simd) = avx2() else { return };
        let (w, h) = (560u32, 540u32);
        let prev = textured_sized(w, h, 0.0, 0.0);
        let next = textured_sized(w, h, 0.7, -0.4);
        let prev_pyr = Pyramid::build(prev, 1);
        let next_pyr = Pyramid::build(next, 1);
        let mut pts = Vec::new();
        for p in [64.0f32, 128.0, 256.0, 512.0] {
            for j in [1u32, 3, 5, 7] {
                let below = f32::from_bits(p.to_bits() - j);
                let above = f32::from_bits(p.to_bits() + j);
                pts.push((below, 200.0 + j as f32));
                pts.push((above, 300.5 - j as f32));
            }
        }
        for window_radius in 1..=10 {
            let cfg = KltConfig {
                window_radius,
                levels: 1,
                ..KltConfig::default()
            };
            let r = window_radius + 1;
            assert!(
                pts.iter().any(|&(x, _)| irregular_run(x - r as f32, 2 * r + 1, 0.0)),
                "fixture lacks irregular grid runs at radius {window_radius}"
            );
            let what = format!("radius {window_radius}");
            let scratch = assert_kernels_agree(&prev_pyr, &next_pyr, &pts, &cfg, simd, &what);
            assert_eq!((scratch.scalar_dc_lanes(), scratch.scalar_lss_rows()), (0, 0));
            assert!(
                scratch.clamped_dc_rows() > 0,
                "{what}: irregular grid rows took row loads"
            );
        }
    }

    /// Stages `lanes` (level-0 positions, at most eight) on `prev` with the
    /// AVX2 DC, moves each into the LSS batch with its displacement
    /// `(gx, gy)`, runs one LSS iteration on the AVX2 and the portable
    /// kernels, asserts both give the same bits on every lane, and returns
    /// the rows the AVX2 kernel ran on the clamped sampler.
    #[cfg(target_arch = "x86_64")]
    fn lss_kernels_agree(
        simd: Isa,
        prev: &FloatImage,
        next: &FloatImage,
        lanes: &[((f32, f32), (f32, f32))],
        window_radius: i64,
    ) -> u64 {
        let Isa::Avx2(avx2) = simd else {
            unreachable!("AVX2 kernels")
        };
        let cfg = KltConfig {
            window_radius,
            ..KltConfig::default()
        };
        let w = (2 * window_radius + 1) as usize;
        let pts: Vec<(f32, f32)> = lanes.iter().map(|&(p, _)| p).collect();
        let mut scratch = KltScratch::default();
        scratch.stage.resize_windows(w);
        scratch.lanes.resize_windows(w);
        scratch.order = (0..pts.len()).collect();
        scratch.tracks = vec![TrackState::START; pts.len()];
        let mut waiting = 0;
        assert!(stage_tracks(prev, 1.0, &pts, &mut waiting, &mut scratch, &cfg, simd));
        for (l, &(_, (gx, gy))) in lanes.iter().enumerate() {
            assert!(scratch.stage.live[l], "lane {l} went degenerate");
            refill_lane(&scratch.stage, l, &mut scratch.lanes, l, gx, gy);
        }
        let (mut scalar, mut clamped) = (0, 0);
        let b = &mut scratch.lanes;
        let got = avx2::lss_iteration(avx2, next, b, w, window_radius, &mut scalar, &mut clamped);
        let want = lss_batch_iteration(next, &scratch.lanes, w, window_radius, &mut 0);
        for l in 0..lanes.len() {
            assert_eq!(
                [got.0[l], got.1[l], got.2[l]].map(f32::to_bits),
                [want.0[l], want.1[l], want.2[l]].map(f32::to_bits),
                "lane {l}: {:?}",
                lanes[l]
            );
        }
        assert_eq!(scalar, 0);
        clamped
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn simd_lss_row_loads_match_portable_on_irregular_runs() {
        // `gx = 1 − 1.5·2⁻¹⁸` lifts `txs + gx` to the next integer where
        // the sum lands at 128 or above (half an ulp there is 2⁻¹⁷) and
        // not below (half an ulp is 2⁻¹⁸): at `px = 130, r = 7` the
        // columns' floors skip from 127 to 129, so one lane's run is
        // irregular and every row of the batch runs the clamped sampler.
        let Some(simd) = avx2() else { return };
        let prev = Pyramid::build(textured_sized(300, 200, 0.0, 0.0), 1);
        let next = Pyramid::build(textured_sized(300, 200, 0.8, 0.3), 1);
        let (prev, next) = (prev.plane(0), next.plane(0));
        let r = 7;
        let skip = 1.0 - 1.5 * (2.0f32).powi(-18);
        assert!(irregular_run(130.0 - r as f32, 2 * r + 1, skip));
        let mut lanes: Vec<((f32, f32), (f32, f32))> = (0..KLT_LANES)
            .map(|l| {
                let fl = l as f32;
                ((40.0 + 25.0 * fl, 60.0 + 9.0 * fl), (0.37 * fl - 1.2, 0.25))
            })
            .collect();
        assert!(lanes
            .iter()
            .all(|&((x, _), (gx, _))| !irregular_run(x - r as f32, 2 * r + 1, gx)));
        assert_eq!(lss_kernels_agree(simd, prev, next, &lanes, r), 0);
        lanes[3] = ((130.0, 100.0), (skip, 0.25));
        let w = 2 * r as u64 + 1;
        assert_eq!(lss_kernels_agree(simd, prev, next, &lanes, r), w);
        // The same lane alone, and beside free lanes.
        assert_eq!(lss_kernels_agree(simd, prev, next, &lanes[3..5], r), w);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn simd_klt_row_loads_touch_the_last_row_and_column() {
        // Grids and windows whose last `+1` taps are the plane's last
        // column and last row, at every radius up to 10: widths that are
        // no multiple of eight end in masked loads, and those must read
        // the taps the scalar sampler reads and nothing past them. With
        // no motion the LSS samples the DC's run, so every row takes row
        // loads (the DC grid of the second set reaches past the plane).
        let Some(simd) = avx2() else { return };
        let (w, h) = (120u32, 100u32);
        let pyr = Pyramid::build(textured_sized(w, h, 0.0, 0.0), 1);
        let (wf, hf) = (w as f32, h as f32);
        for window_radius in 1..=10 {
            let cfg = KltConfig {
                window_radius,
                levels: 1,
                ..KltConfig::default()
            };
            let r = window_radius as f32;
            // The last tap of the run is at `floor(x) + 1 = end`: the DC
            // grid reaches `r + 1` past the centre, the LSS window `r`.
            for (reach, dc_inside) in [(r + 1.0, true), (r, false)] {
                let mut pts = Vec::new();
                for f in [0.0f32, 0.25, 0.5, 0.875] {
                    pts.push((wf - 2.0 - reach + f, hf * 0.5 + 4.0 * f));
                    pts.push((wf * 0.5 - 8.0 * f, hf - 2.0 - reach + f));
                }
                let what = format!("radius {window_radius}, reach {reach}");
                let scratch = assert_kernels_agree(&pyr, &pyr, &pts, &cfg, simd, &what);
                assert_eq!(scratch.clamped_lss_rows(), 0, "{what}");
                if dc_inside {
                    assert_eq!(scratch.clamped_dc_rows(), 0, "{what}");
                }
            }
        }
    }
}
