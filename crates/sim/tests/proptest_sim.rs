//! Property-based tests on the simulator: kinematic consistency of the
//! IMU synthesis and geometric consistency of the GPS/trajectory models.

use eudoxus_geometry::Vec3;
use eudoxus_sim::{CircuitTrajectory, Figure8Trajectory, GpsModel, ImuModel, SimRng, Trajectory};
use eudoxus_stream::Environment;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn ideal_imu_integrates_back_to_trajectory(
        straight in 5.0f64..40.0,
        radius in 2.0f64..10.0,
        speed in 1.0f64..8.0,
    ) {
        // Integrating the ideal IMU must recover the ground-truth motion:
        // the synthesis is kinematically consistent with the trajectory.
        let traj = CircuitTrajectory::new(straight, radius, speed, 1.0);
        let mut rng = SimRng::seed_from(1);
        let samples = ImuModel::ideal().generate(&traj, 2.0, &mut rng);
        let mut pose = traj.pose_at(0.0);
        let mut vel = traj.velocity_world(0.0);
        let g = Vec3::new(0.0, 0.0, -9.80665);
        let mut last_t = 0.0;
        for s in &samples[1..] {
            let dt = s.t - last_t;
            last_t = s.t;
            let a_world = pose.rotation.rotate(s.accel) + g;
            let v_new = vel + a_world * dt;
            pose.translation += (vel + v_new) * (0.5 * dt);
            vel = v_new;
            pose.rotation = pose.rotation
                * eudoxus_geometry::Quaternion::from_rotation_vector(s.gyro * dt);
        }
        let truth = traj.pose_at(last_t);
        // Trapezoidal integration error grows with centripetal
        // acceleration (v²/r), so the admissible drift scales with it.
        let bound = 0.02 + 0.005 * speed * speed / radius;
        prop_assert!(
            pose.translation_distance(truth) < bound,
            "integrated drift {} m (bound {bound})",
            pose.translation_distance(truth)
        );
    }

    #[test]
    fn figure8_velocity_is_consistent_with_positions(
        ax in 1.0f64..4.0,
        ay in 1.0f64..3.0,
        omega in 0.1f64..0.8,
        t in 0.0f64..20.0,
    ) {
        let traj = Figure8Trajectory::new(ax, ay, omega, 1.5);
        let dt = 1e-3;
        let numeric = (traj.pose_at(t + dt).translation - traj.pose_at(t - dt).translation)
            / (2.0 * dt);
        let analytic = traj.velocity_world(t);
        prop_assert!((numeric - analytic).norm() < 1e-3);
    }

    #[test]
    fn gps_fix_count_matches_outdoor_time(split in 0.1f64..0.9) {
        let traj = CircuitTrajectory::new(20.0, 5.0, 3.0, 1.0);
        let duration = 10.0;
        let mut rng = SimRng::seed_from(5);
        let fixes = GpsModel::default().generate(
            &traj,
            duration,
            |t| {
                if t < duration * split {
                    Environment::OutdoorUnknown
                } else {
                    Environment::IndoorUnknown
                }
            },
            &mut rng,
        );
        // 10 Hz over the outdoor fraction, within one sample of the ideal.
        let expected = (duration * split * 10.0) as usize;
        prop_assert!(fixes.len() as i64 - expected as i64 <= 2);
        prop_assert!(fixes.iter().all(|f| f.t <= duration * split + 1e-9));
    }

    #[test]
    fn gps_errors_concentrate_near_sigma(sigma in 0.2f64..2.0) {
        let traj = CircuitTrajectory::new(20.0, 5.0, 3.0, 1.0);
        let model = GpsModel {
            sigma_xy: sigma,
            sigma_z: sigma,
            multipath_prob: 0.0,
            ..GpsModel::default()
        };
        let mut rng = SimRng::seed_from(9);
        let fixes = model.generate(&traj, 60.0, |_| Environment::OutdoorKnown, &mut rng);
        let mean_err = fixes
            .iter()
            .map(|f| (f.position - traj.pose_at(f.t).translation).norm())
            .sum::<f64>()
            / fixes.len() as f64;
        // Mean 3-D error of N(0, σ²I₃) is ≈ 1.6 σ; accept a broad band.
        prop_assert!((0.8 * sigma..3.0 * sigma).contains(&mean_err), "mean {mean_err}, sigma {sigma}");
    }
}
