//! Bundle adjustment by Levenberg–Marquardt with Schur elimination, plus
//! keyframe marginalization.
//!
//! The SLAM mapping block solves "a non-linear optimization problem, which
//! minimizes the projection errors from 2D features to 3D points in the
//! map … using the Levenberg–Marquardt method" (paper Sec. IV-A). The
//! landmark block of the Hessian is 3×3 block-diagonal, so each iteration
//! eliminates landmarks by Schur complement and solves only the reduced
//! pose system — the same structure the paper's marginalization kernel
//! exploits in hardware (Fig. 15: `A_rr − A_rm·A_mm⁻¹·A_mr`).
//!
//! [`solve_lm`] indexes the 6×3 pose–landmark coupling blocks once per
//! solve, grouped by landmark. The reduction pairs each block only with
//! the blocks of its own landmark, so a damping try costs `Σ k_lm²`
//! block products, where `k_lm` is the number of free keyframes that
//! observe landmark `lm`; the back-substitution visits each block once.
//! The floating-point order is fixed, and whole runs are
//! bit-reproducible:
//!
//! - every entry of the reduced matrix and of its right-hand side takes
//!   its landmark contributions in ascending landmark;
//! - every landmark's back-substitution right-hand side takes its pose
//!   contributions in ascending slot;
//! - every coupling block takes its observations in input order, the
//!   reprojection row before the disparity row;
//! - each `W = H_pl·H_ll⁻¹` and each `W·H_lpᵀ` update is formed in full,
//!   by one fixed expression, before it is added.

use eudoxus_geometry::{Mat3, PinholeCamera, Pose, Quaternion, Vec2, Vec3};
use eudoxus_math::{schur_complement, Matrix, Vector};

/// One reprojection measurement inside a [`BaProblem`].
#[derive(Debug, Clone, Copy)]
pub struct BaObservation {
    /// Index into [`BaProblem::poses`].
    pub kf: usize,
    /// Index into [`BaProblem::landmarks`].
    pub landmark: usize,
    /// Observed pixel (left camera).
    pub pixel: Vec2,
    /// Observed stereo disparity, when the frontend matched the feature
    /// across the pair. Disparity rows anchor the metric scale that pure
    /// monocular reprojection leaves weakly observable over short window
    /// baselines.
    pub disparity: Option<f64>,
}

/// A local bundle-adjustment problem.
#[derive(Debug, Clone)]
pub struct BaProblem {
    /// Camera intrinsics.
    pub camera: PinholeCamera,
    /// Stereo baseline (meters) for disparity residuals.
    pub baseline: f64,
    /// Keyframe poses (body == camera frame).
    pub poses: Vec<Pose>,
    /// `fixed[i]` freezes pose `i` (gauge anchoring).
    pub fixed: Vec<bool>,
    /// Landmark world positions.
    pub landmarks: Vec<Vec3>,
    /// All reprojection measurements.
    pub observations: Vec<BaObservation>,
}

/// Levenberg–Marquardt settings.
#[derive(Debug, Clone, Copy)]
pub struct LmConfig {
    /// Maximum accepted iterations.
    pub max_iterations: usize,
    /// Initial damping λ.
    pub initial_lambda: f64,
    /// Convergence threshold on relative cost decrease.
    pub epsilon: f64,
    /// Huber threshold (pixels) — mistracked features must not drag the
    /// quadratic cost (the real frontend has a heavy outlier tail).
    pub huber_px: f64,
    /// Hard outlier gate (pixels): residuals beyond this contribute a
    /// constant cost and zero gradient (wrong stereo matches can be
    /// hundreds of pixels off and would otherwise steer the solve).
    pub outlier_gate_px: f64,
}

impl Default for LmConfig {
    fn default() -> Self {
        LmConfig {
            max_iterations: 8,
            initial_lambda: 1e-3,
            epsilon: 1e-6,
            huber_px: 2.5,
            outlier_gate_px: 25.0,
        }
    }
}

/// Outcome of [`solve_lm`].
#[derive(Debug, Clone, Copy)]
pub struct LmResult {
    /// Iterations that produced an accepted step.
    pub iterations: usize,
    /// Total squared reprojection error before optimization (px²).
    pub initial_cost: f64,
    /// Total squared reprojection error after (px²).
    pub final_cost: f64,
    /// Rows of the reduced (pose) system — the matrix size the
    /// accelerator's Solver kernel sees.
    pub reduced_dim: usize,
}

/// A Gaussian prior on a subset of poses produced by marginalization:
/// cost `½·eᵀ·H·e` with `e` the stacked `[δθ, δp]` of each pose relative
/// to its linearization point.
#[derive(Debug, Clone)]
pub struct PosePrior {
    /// Pose indices (into the consumer's window) this prior constrains.
    pub kf_indices: Vec<usize>,
    /// Information matrix (`6m × 6m`).
    pub information: Matrix,
    /// Linearization poses, one per constrained index.
    pub linearization: Vec<Pose>,
}

/// Minimal 6-vector `[log(R·R₀ᵀ), t − t₀]` of a pose relative to its
/// linearization point (world-frame convention, matching the BA
/// perturbation).
fn pose_error(pose: Pose, lin: Pose) -> [f64; 6] {
    let dr = eudoxus_geometry::log_so3((pose.rotation * lin.rotation.conjugate()).to_matrix());
    let dt = pose.translation - lin.translation;
    [dr.x, dr.y, dr.z, dt.x, dt.y, dt.z]
}

/// Huber ρ(e) for residual magnitude `e`: quadratic inside `k`, linear
/// outside.
fn huber_rho(e: f64, k: f64) -> f64 {
    if e <= k {
        e * e
    } else {
        k * (2.0 * e - k)
    }
}

/// Total robust reprojection cost of the problem (Huber, px²-equivalent).
/// Observations behind the camera contribute a fixed large penalty.
pub fn total_cost(p: &BaProblem) -> f64 {
    let cfg = LmConfig::default();
    total_cost_with(p, cfg.huber_px, cfg.outlier_gate_px)
}

/// [`total_cost`] with explicit Huber threshold and outlier gate.
pub fn total_cost_with(p: &BaProblem, huber_px: f64, gate_px: f64) -> f64 {
    let mut cost = 0.0;
    for o in &p.observations {
        let p_cam = p.poses[o.kf].inverse_transform(p.landmarks[o.landmark]);
        match p.camera.project(p_cam) {
            Some(pred) if p_cam.z > 0.05 => {
                let r = o.pixel - pred;
                // Beyond the gate the cost saturates: the observation is
                // an outlier and must neither pull the solution nor reward
                // configurations that merely shrink its error.
                cost += huber_rho(r.norm().min(gate_px), huber_px);
                if let Some(d) = o.disparity {
                    let pred_d = p.camera.fx * p.baseline / p_cam.z;
                    cost += huber_rho((d - pred_d).abs().min(gate_px), huber_px);
                }
            }
            _ => cost += huber_rho(gate_px, huber_px),
        }
    }
    cost
}

/// The pose–landmark coupling blocks of one solve, indexed once: the
/// observations and the free-pose slots do not change between iterations.
struct CouplingIndex {
    /// The distinct `(landmark, slot)` pairs of observations on free
    /// keyframes, sorted: each landmark's pairs are contiguous and in
    /// ascending slot.
    pairs: Vec<(usize, usize)>,
    /// `pairs[bucket_start[lm]..bucket_start[lm + 1]]` are landmark
    /// `lm`'s pairs.
    bucket_start: Vec<usize>,
    /// Each observation's pair, `None` on a fixed keyframe.
    of_obs: Vec<Option<usize>>,
}

impl CouplingIndex {
    fn new(p: &BaProblem, slots: &[Option<usize>]) -> Self {
        let key = |o: &BaObservation| slots[o.kf].map(|slot| (o.landmark, slot));
        let mut pairs: Vec<(usize, usize)> = p.observations.iter().filter_map(key).collect();
        pairs.sort_unstable();
        pairs.dedup();
        let mut bucket_start = vec![0; p.landmarks.len() + 1];
        for &(lm, _) in &pairs {
            bucket_start[lm + 1] += 1;
        }
        for lm in 0..p.landmarks.len() {
            bucket_start[lm + 1] += bucket_start[lm];
        }
        let of_obs = p
            .observations
            .iter()
            .map(|o| key(o).map(|k| pairs.binary_search(&k).expect("every pair is indexed")))
            .collect();
        CouplingIndex {
            pairs,
            bucket_start,
            of_obs,
        }
    }

    /// Indices of landmark `lm`'s pairs, in ascending slot.
    fn bucket(&self, lm: usize) -> std::ops::Range<usize> {
        self.bucket_start[lm]..self.bucket_start[lm + 1]
    }
}

/// Solves the problem in place. Returns statistics; on unrecoverable
/// numerical failure the problem is left at its best-so-far state.
pub fn solve_lm(p: &mut BaProblem, cfg: &LmConfig, prior: Option<&PosePrior>) -> LmResult {
    // Slot assignment for free poses.
    let slots: Vec<Option<usize>> = {
        let mut next = 0usize;
        p.fixed
            .iter()
            .map(|&f| {
                if f {
                    None
                } else {
                    let s = next;
                    next += 1;
                    Some(s)
                }
            })
            .collect()
    };
    let n_free = slots.iter().flatten().count();
    let n_lm = p.landmarks.len();
    let np = 6 * n_free;
    let initial_cost = total_cost_with(p, cfg.huber_px, cfg.outlier_gate_px);
    let mut result = LmResult {
        iterations: 0,
        initial_cost,
        final_cost: initial_cost,
        reduced_dim: np,
    };
    if np == 0 || n_lm == 0 || p.observations.is_empty() {
        return result;
    }

    let coupling = CouplingIndex::new(p, &slots);
    // Pose-landmark coupling: one 6×3 block per indexed pair, present
    // once an observation of the pair passes this iteration's gates.
    let mut h_pl: Vec<Option<[[f64; 3]; 6]>> = vec![None; coupling.pairs.len()];
    let mut lambda = cfg.initial_lambda;
    let mut cost = initial_cost;
    for _ in 0..cfg.max_iterations {
        // ---- Linearize: accumulate H_pp, H_pl, H_ll, gradients. ----
        let mut h_pp = Matrix::zeros(np, np);
        let mut g_p = Vector::zeros(np);
        let mut h_ll: Vec<Mat3> = vec![Mat3::zero(); n_lm];
        let mut g_l: Vec<Vec3> = vec![Vec3::zero(); n_lm];
        h_pl.fill(None);
        // Rᵀ of each pose, once per linearization, not per observation.
        let rot_ts: Vec<Mat3> = p
            .poses
            .iter()
            .map(|pose| pose.rotation.conjugate().to_matrix())
            .collect();

        for (o, &pair) in p.observations.iter().zip(&coupling.of_obs) {
            let pose = p.poses[o.kf];
            let lm = p.landmarks[o.landmark];
            let p_cam = pose.inverse_transform(lm);
            if p_cam.z <= 0.05 {
                continue;
            }
            let Some(pred) = p.camera.project(p_cam) else { continue };
            let raw_r = [o.pixel.x - pred.x, o.pixel.y - pred.y];
            let e = (raw_r[0] * raw_r[0] + raw_r[1] * raw_r[1]).sqrt();
            if e > cfg.outlier_gate_px {
                continue; // gated outlier: zero gradient/Hessian
            }
            let w = if e <= cfg.huber_px { 1.0 } else { cfg.huber_px / e };
            let r = [raw_r[0], raw_r[1]];
            let j_pi = p.camera.projection_jacobian(p_cam);
            let rot_t = &rot_ts[o.kf];
            // ∂h/∂landmark = Jπ·Rᵀ; residual jacobian J_l = −that.
            let jh_l = mul2x3(&j_pi, rot_t);
            // ∂h/∂δθ = Jπ·Rᵀ·hat(l − t) ; ∂h/∂δp = −Jπ·Rᵀ.
            let jh_th = mul2x3_m(&jh_l, &Mat3::hat(lm - pose.translation));
            // Landmark gradient/Hessian (J_l = −jh_l).
            for a in 0..3 {
                for b in 0..3 {
                    h_ll[o.landmark].m[a][b] +=
                        w * (jh_l[0][a] * jh_l[0][b] + jh_l[1][a] * jh_l[1][b]);
                }
            }
            // g_l = J_lᵀ r = −jh_lᵀ r.
            let gl = Vec3::new(
                -w * (jh_l[0][0] * r[0] + jh_l[1][0] * r[1]),
                -w * (jh_l[0][1] * r[0] + jh_l[1][1] * r[1]),
                -w * (jh_l[0][2] * r[0] + jh_l[1][2] * r[1]),
            );
            g_l[o.landmark] += gl;

            if let Some(pair) = pair {
                let slot = coupling.pairs[pair].1;
                // Pose residual jacobian J_p = [−jh_th | +jh_l].
                let mut jp = [[0.0f64; 6]; 2];
                for c in 0..3 {
                    jp[0][c] = -jh_th[0][c];
                    jp[1][c] = -jh_th[1][c];
                    jp[0][3 + c] = jh_l[0][c];
                    jp[1][3 + c] = jh_l[1][c];
                }
                let base = 6 * slot;
                for a in 0..6 {
                    for b in 0..6 {
                        h_pp[(base + a, base + b)] +=
                            w * (jp[0][a] * jp[0][b] + jp[1][a] * jp[1][b]);
                    }
                    g_p[base + a] += w * (jp[0][a] * r[0] + jp[1][a] * r[1]);
                }
                // Coupling block J_pᵀ J_l (6×3), J_l = −jh_l.
                let entry = h_pl[pair].get_or_insert([[0.0; 3]; 6]);
                for a in 0..6 {
                    for b in 0..3 {
                        entry[a][b] +=
                            w * (jp[0][a] * (-jh_l[0][b]) + jp[1][a] * (-jh_l[1][b]));
                    }
                }
            }

            // Disparity (stereo) residual row: d = fx·B/z depends on the
            // camera-frame depth only.
            if let Some(d_obs) = o.disparity {
                let pred_d = p.camera.fx * p.baseline / p_cam.z;
                let r_d = d_obs - pred_d;
                if r_d.abs() <= cfg.outlier_gate_px {
                    let w_d = if r_d.abs() <= cfg.huber_px {
                        1.0
                    } else {
                        cfg.huber_px / r_d.abs()
                    };
                    // ∂d/∂p_cam = (0, 0, −fx·B/z²); chain through
                    // p_cam = Rᵀ(l − t).
                    let dd_dz = -p.camera.fx * p.baseline / (p_cam.z * p_cam.z);
                    // ∂h_d/∂landmark = dd_dz · (Rᵀ row 2).
                    let jl_d = [
                        dd_dz * rot_t.m[2][0],
                        dd_dz * rot_t.m[2][1],
                        dd_dz * rot_t.m[2][2],
                    ];
                    // Landmark terms (J = −jh).
                    for a in 0..3 {
                        for b in 0..3 {
                            h_ll[o.landmark].m[a][b] += w_d * jl_d[a] * jl_d[b];
                        }
                    }
                    g_l[o.landmark] += Vec3::new(
                        -w_d * jl_d[0] * r_d,
                        -w_d * jl_d[1] * r_d,
                        -w_d * jl_d[2] * r_d,
                    );
                    if let Some(pair) = pair {
                        let slot = coupling.pairs[pair].1;
                        // ∂h_d/∂δθ = dd_dz · (Rᵀ·hat(l−t)) row 2;
                        // ∂h_d/∂δp = −jl_d.
                        let hat = Mat3::hat(lm - pose.translation);
                        let mut jth_d = [0.0f64; 3];
                        for c in 0..3 {
                            jth_d[c] = (0..3)
                                .map(|k| dd_dz * rot_t.m[2][k] * hat.m[k][c])
                                .sum();
                        }
                        let mut jp_d = [0.0f64; 6];
                        for c in 0..3 {
                            jp_d[c] = -jth_d[c];
                            jp_d[3 + c] = jl_d[c];
                        }
                        let base = 6 * slot;
                        for a in 0..6 {
                            for b in 0..6 {
                                h_pp[(base + a, base + b)] += w_d * jp_d[a] * jp_d[b];
                            }
                            g_p[base + a] += w_d * jp_d[a] * r_d;
                        }
                        let entry = h_pl[pair].get_or_insert([[0.0; 3]; 6]);
                        for a in 0..6 {
                            for b in 0..3 {
                                entry[a][b] += w_d * jp_d[a] * (-jl_d[b]);
                            }
                        }
                    }
                }
            }
        }

        // Marginalization prior contribution.
        if let Some(prior) = prior {
            let m = prior.kf_indices.len();
            // e = stacked pose errors; gradient += H·e, Hessian += H.
            let mut e = Vector::zeros(6 * m);
            for (bi, (&kf, lin)) in prior
                .kf_indices
                .iter()
                .zip(&prior.linearization)
                .enumerate()
            {
                if kf >= p.poses.len() {
                    continue;
                }
                let pe = pose_error(p.poses[kf], *lin);
                for c in 0..6 {
                    e[6 * bi + c] = pe[c];
                }
            }
            let he = prior.information.matvec(&e);
            for (bi, &kf) in prior.kf_indices.iter().enumerate() {
                let Some(Some(slot)) = slots.get(kf) else { continue };
                let base = 6 * slot;
                for a in 0..6 {
                    g_p[base + a] += he[6 * bi + a];
                    for (bj, &kf2) in prior.kf_indices.iter().enumerate() {
                        let Some(Some(slot2)) = slots.get(kf2) else { continue };
                        let base2 = 6 * slot2;
                        for b in 0..6 {
                            h_pp[(base + a, base2 + b)] +=
                                prior.information[(6 * bi + a, 6 * bj + b)];
                        }
                    }
                }
            }
        }

        // ---- Try LM steps with increasing damping. ----
        let mut accepted = false;
        for _try in 0..4 {
            // Damped landmark inverses.
            let mut ll_inv: Vec<Mat3> = Vec::with_capacity(n_lm);
            let mut ok = true;
            for h in &h_ll {
                let mut d = *h;
                for i in 0..3 {
                    d.m[i][i] += lambda + 1e-9;
                }
                match d.inverse() {
                    Some(inv) => ll_inv.push(inv),
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                lambda *= 4.0;
                continue;
            }
            // Reduced system S = H_pp + λI − Σ H_pl·H_ll⁻¹·H_lp,
            // rhs = −g_p + Σ H_pl·H_ll⁻¹·g_l.
            let mut s = h_pp.clone();
            s.add_diag(lambda);
            let mut rhs = -&g_p;
            for (&(lm, slot), blk) in coupling.pairs.iter().zip(&h_pl) {
                let Some(blk) = blk else { continue };
                let inv = ll_inv[lm];
                // W = H_pl·H_ll⁻¹ (6×3).
                let mut w = [[0.0f64; 3]; 6];
                for a in 0..6 {
                    for b in 0..3 {
                        w[a][b] = (0..3).map(|k| blk[a][k] * inv.m[k][b]).sum();
                    }
                }
                // S block (slot, slot2) -= W·H_lpᵀ for every slot2 sharing lm.
                for pair2 in coupling.bucket(lm) {
                    let Some(blk2) = &h_pl[pair2] else { continue };
                    let slot2 = coupling.pairs[pair2].1;
                    let base = 6 * slot;
                    let base2 = 6 * slot2;
                    for a in 0..6 {
                        for b in 0..6 {
                            let upd: f64 = (0..3).map(|k| w[a][k] * blk2[b][k]).sum();
                            s[(base + a, base2 + b)] -= upd;
                        }
                    }
                }
                // rhs += W·g_l.
                let base = 6 * slot;
                let gl = g_l[lm];
                for a in 0..6 {
                    rhs[base + a] += w[a][0] * gl.x + w[a][1] * gl.y + w[a][2] * gl.z;
                }
            }
            let Ok(dp) = s.solve_spd(&rhs).or_else(|_| s.solve(&rhs)) else {
                lambda *= 4.0;
                continue;
            };
            // Back-substitute landmarks: δl = H_ll⁻¹(−g_l − H_lp·δp).
            let mut dl: Vec<Vec3> = vec![Vec3::zero(); n_lm];
            let mut rhs_l: Vec<Vec3> = g_l.iter().map(|g| -*g).collect();
            for (&(lm, slot), blk) in coupling.pairs.iter().zip(&h_pl) {
                let Some(blk) = blk else { continue };
                let base = 6 * slot;
                let mut acc = Vec3::zero();
                for b in 0..3 {
                    let v: f64 = (0..6).map(|a| blk[a][b] * dp[base + a]).sum();
                    match b {
                        0 => acc.x = v,
                        1 => acc.y = v,
                        _ => acc.z = v,
                    }
                }
                rhs_l[lm] -= acc;
            }
            for lm in 0..n_lm {
                dl[lm] = ll_inv[lm] * rhs_l[lm];
            }
            // Apply tentatively.
            let saved_poses = p.poses.clone();
            let saved_lms = p.landmarks.clone();
            for (kf, slot) in slots.iter().enumerate() {
                let Some(slot) = slot else { continue };
                let base = 6 * slot;
                let dth = Vec3::new(dp[base], dp[base + 1], dp[base + 2]);
                let dt = Vec3::new(dp[base + 3], dp[base + 4], dp[base + 5]);
                p.poses[kf] = Pose::new(
                    Quaternion::from_rotation_vector(dth) * p.poses[kf].rotation,
                    p.poses[kf].translation + dt,
                );
            }
            for (lm, d) in dl.iter().enumerate() {
                p.landmarks[lm] += *d;
            }
            let new_cost = total_cost_with(p, cfg.huber_px, cfg.outlier_gate_px);
            if new_cost < cost {
                cost = new_cost;
                lambda = (lambda / 3.0).max(1e-9);
                accepted = true;
                result.iterations += 1;
                break;
            }
            // Reject: restore and raise damping.
            p.poses = saved_poses;
            p.landmarks = saved_lms;
            lambda *= 4.0;
        }
        if !accepted {
            break;
        }
        if (result.final_cost - cost).abs() / cost.max(1e-12) < cfg.epsilon {
            result.final_cost = cost;
            break;
        }
        result.final_cost = cost;
    }
    result.final_cost = cost;
    result
}

/// Marginalizes one keyframe: builds the joint Hessian over
/// `[exclusive landmarks | marginalized pose | remaining poses]` from the
/// observations touching the marginalized state, Schur-complements the
/// first block out (the paper's `A_rr − A_rm·A_mm⁻¹·A_mr`, Fig. 15), and
/// returns a [`PosePrior`] on the remaining poses.
///
/// `marg_kf` and `remaining` index into `poses`. `exclusive_landmarks`
/// lists landmark indices observed *only* by the marginalized keyframe
/// among the window. Returns `None` when the marginalized block is not
/// invertible (e.g. no observations).
///
/// The returned `matrix_dim` is the dimension of the marginalized block —
/// the size the accelerator's marginalization kernel operates on
/// (Fig. 16c correlates it with feature count).
pub fn marginalize_keyframe(
    camera: &PinholeCamera,
    poses: &[Pose],
    landmarks: &[Vec3],
    observations: &[BaObservation],
    marg_kf: usize,
    exclusive_landmarks: &[usize],
    remaining: &[usize],
) -> Option<(PosePrior, usize)> {
    let k = exclusive_landmarks.len();
    let m = remaining.len();
    if m == 0 {
        return None;
    }
    let dim_m = 3 * k + 6; // marginalized block: landmarks + pose
    let dim_r = 6 * m;
    let n = dim_m + dim_r;
    let lm_slot = |lm: usize| -> Option<usize> {
        exclusive_landmarks.iter().position(|&l| l == lm)
    };
    let kf_slot = |kf: usize| -> Option<usize> {
        if kf == marg_kf {
            Some(3 * k) // the pose block right after landmarks
        } else {
            remaining.iter().position(|&r| r == kf).map(|i| dim_m + 6 * i)
        }
    };

    let mut h = Matrix::zeros(n, n);
    let mut involved_obs = 0usize;
    for o in observations {
        let touches = o.kf == marg_kf || lm_slot(o.landmark).is_some();
        if !touches {
            continue;
        }
        let Some(pose_base) = kf_slot(o.kf) else { continue };
        let pose = poses[o.kf];
        let lm = landmarks[o.landmark];
        let p_cam = pose.inverse_transform(lm);
        if p_cam.z <= 0.05 || camera.project(p_cam).is_none() {
            continue;
        }
        involved_obs += 1;
        let j_pi = camera.projection_jacobian(p_cam);
        let rot_t = pose.rotation.conjugate().to_matrix();
        let jh_l = mul2x3(&j_pi, &rot_t);
        let jh_th = mul2x3_m(&jh_l, &Mat3::hat(lm - pose.translation));
        // Row jacobian over [landmark(3)? | pose(6)] in global coords.
        // J entries: landmark block (if exclusive) and pose block.
        let mut cols: Vec<(usize, [f64; 2])> = Vec::with_capacity(9);
        if let Some(ls) = lm_slot(o.landmark) {
            for c in 0..3 {
                cols.push((3 * ls + c, [-jh_l[0][c], -jh_l[1][c]]));
            }
        }
        for c in 0..3 {
            cols.push((pose_base + c, [jh_th[0][c], jh_th[1][c]]));
            cols.push((pose_base + 3 + c, [-jh_l[0][c], -jh_l[1][c]]));
        }
        for &(ci, jv_i) in &cols {
            for &(cj, jv_j) in &cols {
                h[(ci, cj)] += jv_i[0] * jv_j[0] + jv_i[1] * jv_j[1];
            }
        }
    }
    if involved_obs < 3 {
        return None;
    }
    // Regularize the marginalized block so the Schur complement exists
    // even for weakly observed landmarks.
    for i in 0..dim_m {
        h[(i, i)] += 1e-6;
    }
    let a_mm = h.block(0, 0, dim_m, dim_m).ok()?;
    let a_mr = h.block(0, dim_m, dim_m, dim_r).ok()?;
    let a_rm = h.block(dim_m, 0, dim_r, dim_m).ok()?;
    let a_rr = h.block(dim_m, dim_m, dim_r, dim_r).ok()?;
    let mut prior_h = schur_complement(&a_mm, &a_mr, &a_rm, &a_rr).ok()?;
    prior_h.symmetrize();
    Some((
        PosePrior {
            kf_indices: remaining.to_vec(),
            information: prior_h,
            linearization: remaining.iter().map(|&i| poses[i]).collect(),
        },
        dim_m,
    ))
}

fn mul2x3(j: &[[f64; 3]; 2], m: &Mat3) -> [[f64; 3]; 2] {
    let mut out = [[0.0; 3]; 2];
    for r in 0..2 {
        for c in 0..3 {
            out[r][c] = (0..3).map(|k| j[r][k] * m.m[k][c]).sum();
        }
    }
    out
}

fn mul2x3_m(j: &[[f64; 3]; 2], m: &Mat3) -> [[f64; 3]; 2] {
    mul2x3(j, m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn camera() -> PinholeCamera {
        PinholeCamera::centered(480.0, 640, 480)
    }

    /// Builds a 3-keyframe problem with perfect observations, then
    /// perturbs poses/landmarks.
    fn perturbed_problem() -> (BaProblem, Vec<Pose>, Vec<Vec3>) {
        let cam = camera();
        let true_poses: Vec<Pose> = (0..3)
            .map(|i| {
                Pose::from_rotation_vector(
                    Vec3::new(0.0, 0.02 * i as f64, 0.0),
                    Vec3::new(0.4 * i as f64, 0.05 * i as f64, 0.0),
                )
            })
            .collect();
        let true_lms: Vec<Vec3> = (0..30)
            .map(|i| {
                Vec3::new(
                    (i % 6) as f64 * 0.8 - 2.0,
                    ((i / 6) % 5) as f64 * 0.6 - 1.2,
                    5.0 + (i % 4) as f64 * 0.8,
                )
            })
            .collect();
        let mut observations = Vec::new();
        for (ki, pose) in true_poses.iter().enumerate() {
            for (li, lm) in true_lms.iter().enumerate() {
                if let Some(px) = cam.project_in_bounds(pose.inverse_transform(*lm)) {
                    observations.push(BaObservation {
                        kf: ki,
                        landmark: li,
                        pixel: px,
                        disparity: None,
                    });
                }
            }
        }
        // Perturb all but the first pose, and every landmark.
        let poses: Vec<Pose> = true_poses
            .iter()
            .enumerate()
            .map(|(i, p)| {
                if i == 0 {
                    *p
                } else {
                    p.perturb_global(
                        Vec3::new(0.01, -0.008, 0.012) * i as f64,
                        Vec3::new(0.05, -0.04, 0.03) * i as f64,
                    )
                }
            })
            .collect();
        let landmarks: Vec<Vec3> = true_lms
            .iter()
            .enumerate()
            .map(|(i, l)| *l + Vec3::new(0.03, -0.02, 0.04) * ((i % 3) as f64 - 1.0))
            .collect();
        (
            BaProblem {
                camera: cam,
                baseline: 0.12,
                poses,
                fixed: vec![true, false, false],
                landmarks,
                observations,
            },
            true_poses,
            true_lms,
        )
    }

    #[test]
    fn lm_reduces_cost_dramatically() {
        let (mut p, true_poses, _) = perturbed_problem();
        // Extra iterations: observations that start beyond the outlier
        // gate re-enter gradually as the inliers pull the poses in.
        let cfg = LmConfig {
            max_iterations: 40,
            ..LmConfig::default()
        };
        let result = solve_lm(&mut p, &cfg, None);
        assert!(result.initial_cost > 100.0, "initial {}", result.initial_cost);
        assert!(
            result.final_cost < result.initial_cost * 5e-3,
            "cost {} → {}",
            result.initial_cost,
            result.final_cost
        );
        // Optimized poses near truth.
        for (opt, truth) in p.poses.iter().zip(&true_poses) {
            assert!(opt.translation_distance(*truth) < 5e-3);
            assert!(opt.rotation_distance(*truth) < 5e-3);
        }
    }

    #[test]
    fn fixed_pose_never_moves() {
        let (mut p, _, _) = perturbed_problem();
        let anchor = p.poses[0];
        solve_lm(&mut p, &LmConfig::default(), None);
        assert_eq!(p.poses[0], anchor);
    }

    #[test]
    fn empty_problem_is_noop() {
        let mut p = BaProblem {
            camera: camera(),
            baseline: 0.12,
            poses: vec![Pose::identity()],
            fixed: vec![false],
            landmarks: vec![],
            observations: vec![],
        };
        let r = solve_lm(&mut p, &LmConfig::default(), None);
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn prior_anchors_poses() {
        // Without observations, a strong prior must keep the pose at its
        // linearization point even though BA would otherwise drift it.
        let (mut p, _, _) = perturbed_problem();
        let lin = p.poses[1];
        let prior = PosePrior {
            kf_indices: vec![1],
            information: Matrix::from_diag(&[1e8; 6]),
            linearization: vec![lin],
        };
        solve_lm(&mut p, &LmConfig::default(), Some(&prior));
        assert!(
            p.poses[1].translation_distance(lin) < 2e-3,
            "prior ignored: moved {}",
            p.poses[1].translation_distance(lin)
        );
    }

    #[test]
    fn marginalization_produces_psd_prior() {
        let (p, _, _) = perturbed_problem();
        // Landmarks observed by all kfs → none exclusive; use a subset
        // artificially as exclusive to exercise the path.
        let exclusive: Vec<usize> = (0..5).collect();
        let (prior, dim) = marginalize_keyframe(
            &p.camera,
            &p.poses,
            &p.landmarks,
            &p.observations,
            0,
            &exclusive,
            &[1, 2],
        )
        .expect("marginalization succeeds");
        assert_eq!(dim, 3 * 5 + 6);
        assert_eq!(prior.information.shape(), (12, 12));
        // PSD check: x'Hx ≥ 0 for a few vectors.
        for s in 0..5 {
            let x = Vector::from_iter((0..12).map(|i| ((i * 7 + s * 3) as f64 * 0.37).sin()));
            let q = x.dot(&prior.information.matvec(&x));
            assert!(q > -1e-6, "not PSD: {q}");
        }
    }

    #[test]
    fn marginalization_with_no_remaining_fails() {
        let (p, _, _) = perturbed_problem();
        assert!(marginalize_keyframe(
            &p.camera,
            &p.poses,
            &p.landmarks,
            &p.observations,
            0,
            &[],
            &[],
        )
        .is_none());
    }
}
