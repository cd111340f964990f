//! Seed bundle-adjustment solve: the Levenberg–Marquardt step with the
//! Schur reduction that scans every pose–landmark coupling block of a
//! `BTreeMap` for every other one.
//!
//! Copied verbatim from the seed `eudoxus_backend::slam::ba`, with its
//! private helpers and the cost it minimizes, so the golden test
//! (`tests/ba_identity.rs`) notices any change to the live solver's
//! floating-point order. Only the entry point's name and the cost's
//! visibility differ.

use eudoxus_backend::slam::{BaProblem, LmConfig, LmResult, PosePrior};
use eudoxus_geometry::{Mat3, Pose, Quaternion, Vec3};
use eudoxus_math::{Matrix, Vector};

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

/// Total robust reprojection cost with explicit Huber threshold and
/// outlier gate.
fn total_cost_with(p: &BaProblem, huber_px: f64, gate_px: f64) -> f64 {
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


/// Solves the problem in place. Returns statistics; on unrecoverable
/// numerical failure the problem is left at its best-so-far state.
pub fn solve_lm_baseline(p: &mut BaProblem, cfg: &LmConfig, prior: Option<&PosePrior>) -> LmResult {
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

    let mut lambda = cfg.initial_lambda;
    let mut cost = initial_cost;
    for _ in 0..cfg.max_iterations {
        // ---- Linearize: accumulate H_pp, H_pl, H_ll, gradients. ----
        let mut h_pp = Matrix::zeros(np, np);
        let mut g_p = Vector::zeros(np);
        let mut h_ll: Vec<Mat3> = vec![Mat3::zero(); n_lm];
        let mut g_l: Vec<Vec3> = vec![Vec3::zero(); n_lm];
        // Sparse pose-landmark coupling: (slot, lm) → 6×3 block. BTreeMap
        // rather than HashMap: the Schur reduction below iterates this map
        // accumulating floats, and a deterministic order keeps whole runs
        // bit-reproducible (HashMap order varies per instance).
        let mut h_pl: std::collections::BTreeMap<(usize, usize), [[f64; 3]; 6]> =
            std::collections::BTreeMap::new();

        for o in &p.observations {
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
            let rot_t = pose.rotation.conjugate().to_matrix();
            // ∂h/∂landmark = Jπ·Rᵀ; residual jacobian J_l = −that.
            let jh_l = mul2x3(&j_pi, &rot_t);
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

            if let Some(slot) = slots[o.kf] {
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
                let entry = h_pl.entry((slot, o.landmark)).or_insert([[0.0; 3]; 6]);
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
                    let rot_t = pose.rotation.conjugate().to_matrix();
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
                    if let Some(slot) = slots[o.kf] {
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
                        let entry =
                            h_pl.entry((slot, o.landmark)).or_insert([[0.0; 3]; 6]);
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
            for (&(slot, lm), blk) in &h_pl {
                let inv = ll_inv[lm];
                // W = H_pl·H_ll⁻¹ (6×3).
                let mut w = [[0.0f64; 3]; 6];
                for a in 0..6 {
                    for b in 0..3 {
                        w[a][b] = (0..3).map(|k| blk[a][k] * inv.m[k][b]).sum();
                    }
                }
                // S block (slot, slot2) -= W·H_lpᵀ for every slot2 sharing lm.
                for (&(slot2, lm2), blk2) in &h_pl {
                    if lm2 != lm {
                        continue;
                    }
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
            for (&(slot, lm), blk) in &h_pl {
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
