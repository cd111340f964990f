//! Golden bit-identity of the bundle-adjustment solve.
//!
//! [`solve_lm_baseline`] is the seed solve, whose Schur reduction scanned
//! every pose–landmark coupling block for every other one. The live
//! [`solve_lm`] pairs each block only with its own landmark's blocks, and
//! must return the same poses, landmarks and [`LmResult`] bit for bit.
//! The windows below cover what changes the reduction's shape: windows of
//! two to seven keyframes with one of them fixed, landmarks seen by a
//! single free keyframe and by all of them, observations with and without
//! disparity, residuals in the Huber tail, outliers beyond the gate and
//! points at or behind the near plane (so a coupling block can be absent
//! in one iteration and present in the next), and a marginalization prior.

use eudoxus_backend::slam::{
    marginalize_keyframe, solve_lm, BaObservation, BaProblem, LmConfig, LmResult, PosePrior,
};
use eudoxus_bench::baseline::solve_lm_baseline;
use eudoxus_geometry::{PinholeCamera, Pose, Vec2, Vec3};
use eudoxus_sim::SimRng;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// A synthetic local window: `keyframes` poses stepping sideways, the one
/// at `fixed` frozen, and `landmarks` points in front of them.
#[derive(Debug, Clone, Copy)]
struct Window {
    keyframes: usize,
    fixed: usize,
    landmarks: usize,
    seed: u64,
}

/// The window's problem with noisy, partly corrupted observations, poses
/// (except the fixed one) and landmarks perturbed off the truth.
fn problem(win: Window) -> BaProblem {
    let mut rng = SimRng::seed_from(win.seed);
    let camera = PinholeCamera::centered(480.0, 640, 480);
    let baseline = 0.12;
    let truth: Vec<Pose> = (0..win.keyframes)
        .map(|i| {
            let i = i as f64;
            Pose::from_rotation_vector(
                Vec3::new(0.01 * i, 0.03 * i, -0.005 * i),
                Vec3::new(0.35 * i, 0.04 * i, 0.03 * i),
            )
        })
        .collect();
    let mut landmarks = Vec::with_capacity(win.landmarks);
    let mut observations = Vec::new();
    for li in 0..win.landmarks {
        // Most points sit 3–12 m ahead of the window; every tenth sits in
        // a keyframe's near plane (0.02–0.08 m deep), so its observation
        // there fails the depth test at some linearization points.
        let near = li % 10 == 9;
        let anchor = truth[rng.uniform_usize(0, win.keyframes)];
        let depth = if near {
            rng.uniform(0.02, 0.08)
        } else {
            rng.uniform(3.0, 12.0)
        };
        let ray = Vec3::new(rng.uniform(-0.6, 0.6), rng.uniform(-0.45, 0.45), 1.0);
        let point = anchor.transform(ray * depth);
        // Seen by every keyframe, or by one free keyframe (and maybe the
        // fixed one), or by a random subset.
        let seen: Vec<usize> = match li % 3 {
            0 => (0..win.keyframes).collect(),
            1 => {
                let mut one = rng.uniform_usize(0, win.keyframes);
                if one == win.fixed {
                    one = (one + 1) % win.keyframes;
                }
                let mut seen = vec![one];
                if rng.chance(0.5) {
                    seen.push(win.fixed);
                }
                seen
            }
            _ => (0..win.keyframes).filter(|_| rng.chance(0.6)).collect(),
        };
        for kf in seen {
            let p_cam = truth[kf].inverse_transform(point);
            let pixel = match camera.project_in_bounds(p_cam) {
                Some(px) => px,
                // Near-plane and off-sensor points: an arbitrary pixel.
                None if near => Vec2::new(rng.uniform(0.0, 640.0), rng.uniform(0.0, 480.0)),
                None => continue,
            };
            // Some keyframes observe a landmark twice, so a coupling block
            // sums several observations' rows.
            let copies = if rng.chance(0.15) { 2 } else { 1 };
            for _ in 0..copies {
                // Residuals: mostly sub-pixel, some in the Huber tail, some
                // straddling or beyond the 25 px outlier gate.
                let error = match rng.uniform_usize(0, 20) {
                    0..=13 => rng.gauss_scaled(0.5),
                    14..=16 => rng.uniform(3.0, 12.0),
                    17 | 18 => rng.uniform(20.0, 30.0),
                    _ => rng.uniform(40.0, 200.0),
                };
                let angle = rng.uniform(0.0, std::f64::consts::TAU);
                let pixel = pixel + Vec2::new(error * angle.cos(), error * angle.sin());
                let disparity = rng.chance(0.6).then(|| {
                    let tail = if rng.chance(0.2) {
                        rng.uniform(-40.0, 40.0)
                    } else {
                        rng.gauss_scaled(0.3)
                    };
                    camera.fx * baseline / p_cam.z.max(0.05) + tail
                });
                observations.push(BaObservation {
                    kf,
                    landmark: li,
                    pixel,
                    disparity,
                });
            }
        }
        landmarks.push(point + Vec3::new(rng.gauss(), rng.gauss(), rng.gauss()) * 0.05);
    }
    let poses = truth
        .iter()
        .enumerate()
        .map(|(i, pose)| {
            if i == win.fixed {
                *pose
            } else {
                let dphi = Vec3::new(rng.gauss(), rng.gauss(), rng.gauss()) * 0.01;
                let dt = Vec3::new(rng.gauss(), rng.gauss(), rng.gauss()) * 0.05;
                pose.perturb_global(dphi, dt)
            }
        })
        .collect();
    BaProblem {
        camera,
        baseline,
        poses,
        fixed: (0..win.keyframes).map(|i| i == win.fixed).collect(),
        landmarks,
        observations,
    }
}

/// The `(keyframe, landmark)` pairs on free keyframes that at least one
/// observation passes the solve's gates for at the problem's current
/// state: in front of the near plane, projectable, within the outlier
/// gate. Only these pairs carry a coupling block in an iteration.
fn present_pairs(p: &BaProblem, cfg: &LmConfig) -> BTreeSet<(usize, usize)> {
    p.observations
        .iter()
        .filter(|o| !p.fixed[o.kf])
        .filter(|o| {
            let p_cam = p.poses[o.kf].inverse_transform(p.landmarks[o.landmark]);
            p_cam.z > 0.05
                && p.camera
                    .project(p_cam)
                    .is_some_and(|pred| (o.pixel - pred).norm() <= cfg.outlier_gate_px)
        })
        .map(|o| (o.kf, o.landmark))
        .collect()
}

/// Free `(keyframe, landmark)` pairs with at least one observation.
fn observed_pairs(p: &BaProblem) -> BTreeSet<(usize, usize)> {
    p.observations
        .iter()
        .filter(|o| !p.fixed[o.kf])
        .map(|o| (o.kf, o.landmark))
        .collect()
}

fn assert_pose_bits(live: Pose, seed: Pose, what: &str) {
    let bits = |p: Pose| {
        [
            p.rotation.w,
            p.rotation.x,
            p.rotation.y,
            p.rotation.z,
            p.translation.x,
            p.translation.y,
            p.translation.z,
        ]
        .map(f64::to_bits)
    };
    assert_eq!(bits(live), bits(seed), "{what}: {live:?} vs seed {seed:?}");
}

/// Solves clones of `p` with the live and the seed solver and asserts
/// bitwise equality of every output. Returns the live solve's result and
/// problem.
fn assert_matches_seed(
    p: &BaProblem,
    cfg: &LmConfig,
    prior: Option<&PosePrior>,
    case: &str,
) -> (LmResult, BaProblem) {
    let mut live = p.clone();
    let mut seed = p.clone();
    let r = solve_lm(&mut live, cfg, prior);
    let s = solve_lm_baseline(&mut seed, cfg, prior);
    assert_eq!(r.iterations, s.iterations, "{case}: iterations");
    assert_eq!(r.reduced_dim, s.reduced_dim, "{case}: reduced_dim");
    assert_eq!(
        r.initial_cost.to_bits(),
        s.initial_cost.to_bits(),
        "{case}: initial_cost {} vs {}",
        r.initial_cost,
        s.initial_cost
    );
    assert_eq!(
        r.final_cost.to_bits(),
        s.final_cost.to_bits(),
        "{case}: final_cost {} vs {}",
        r.final_cost,
        s.final_cost
    );
    for (i, (&a, &b)) in live.poses.iter().zip(&seed.poses).enumerate() {
        assert_pose_bits(a, b, &format!("{case}: pose {i}"));
    }
    for (i, (a, b)) in live.landmarks.iter().zip(&seed.landmarks).enumerate() {
        assert_eq!(
            [a.x, a.y, a.z].map(f64::to_bits),
            [b.x, b.y, b.z].map(f64::to_bits),
            "{case}: landmark {i}: {a:?} vs seed {b:?}"
        );
    }
    (r, live)
}

#[test]
fn windows_of_two_to_seven_keyframes_match_seed() {
    let cfg = LmConfig::default();
    let mut changed_presence = false;
    for keyframes in 2..=7 {
        let win = Window {
            keyframes,
            fixed: keyframes / 2,
            landmarks: 40 + 60 * (keyframes - 2),
            seed: 100 + keyframes as u64,
        };
        let p = problem(win);
        let before = present_pairs(&p, &cfg);
        let observed = observed_pairs(&p);
        assert!(
            before.len() < observed.len() && !before.is_empty(),
            "{win:?}: {} of {} pairs present, the case must start with absent ones",
            before.len(),
            observed.len()
        );
        let (result, solved) = assert_matches_seed(&p, &cfg, None, &format!("{win:?}"));
        assert!(result.iterations > 0, "{win:?}: no accepted step");
        changed_presence |= present_pairs(&solved, &cfg) != before;
    }
    assert!(
        changed_presence,
        "no window changed which coupling blocks are present during its solve"
    );
}

#[test]
fn largest_window_matches_seed_at_several_dampings() {
    // Seven keyframes, 400 landmarks, the first keyframe fixed; damping
    // from soft to stiff, and enough iterations to converge.
    let win = Window {
        keyframes: 7,
        fixed: 0,
        landmarks: 400,
        seed: 7,
    };
    let p = problem(win);
    for (initial_lambda, max_iterations) in [(1e-3, 8), (1e2, 3), (1e-6, 12)] {
        let cfg = LmConfig {
            initial_lambda,
            max_iterations,
            ..LmConfig::default()
        };
        let case = format!("λ₀ {initial_lambda}");
        let (result, _) = assert_matches_seed(&p, &cfg, None, &case);
        assert!(result.iterations > 0, "{case}: no accepted step");
    }
}

#[test]
fn marginalization_prior_matches_seed() {
    // Marginalize the oldest keyframe of a six-keyframe window, then
    // solve the remaining five with the prior, as the SLAM window slides.
    let full = problem(Window {
        keyframes: 6,
        fixed: 0,
        landmarks: 120,
        seed: 31,
    });
    let mut seen_later = vec![false; full.landmarks.len()];
    for o in &full.observations {
        if o.kf > 0 {
            seen_later[o.landmark] = true;
        }
    }
    let exclusive: Vec<usize> = (0..full.landmarks.len())
        .filter(|&l| !seen_later[l])
        .collect();
    let remaining: Vec<usize> = (1..6).collect();
    let (prior, _) = marginalize_keyframe(
        &full.camera,
        &full.poses,
        &full.landmarks,
        &full.observations,
        0,
        &exclusive,
        &remaining,
    )
    .expect("the oldest keyframe marginalizes");
    // Re-index the window onto the five remaining keyframes; the prior
    // constrains all of them, the fixed one included.
    let prior = PosePrior {
        kf_indices: prior.kf_indices.iter().map(|&kf| kf - 1).collect(),
        ..prior
    };
    let window = BaProblem {
        poses: full.poses[1..].to_vec(),
        fixed: vec![true, false, false, false, false],
        observations: full
            .observations
            .iter()
            .filter(|o| o.kf > 0)
            .map(|o| BaObservation { kf: o.kf - 1, ..*o })
            .collect(),
        ..full.clone()
    };
    assert_matches_seed(&window, &LmConfig::default(), Some(&prior), "with prior");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random window shapes: keyframe count, fixed keyframe, landmark
    /// count and damping.
    #[test]
    fn random_windows_match_seed(
        keyframes in 2usize..8,
        fixed in 0usize..7,
        landmarks in 1usize..90,
        seed in 0u64..1_000_000,
        initial_lambda in 1e-6f64..10.0,
    ) {
        let win = Window {
            keyframes,
            fixed: fixed % keyframes,
            landmarks,
            seed,
        };
        let cfg = LmConfig {
            initial_lambda,
            ..LmConfig::default()
        };
        assert_matches_seed(&problem(win), &cfg, None, &format!("{win:?}"));
    }
}
