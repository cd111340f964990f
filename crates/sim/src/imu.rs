//! Inertial measurement unit synthesis.
//!
//! "IMU samples are noisy; localization results would quickly drift if
//! relying completely on the IMU" (paper Sec. II). The model reproduces the
//! two error mechanisms that cause that drift: additive white noise and a
//! slowly wandering bias (random walk) on both the gyroscope and the
//! accelerometer.

use crate::rng::SimRng;
use crate::trajectory::Trajectory;
use eudoxus_geometry::Vec3;
use eudoxus_stream::ImuSample;

/// Standard gravity (m/s²), world `-z`.
pub const GRAVITY: f64 = 9.80665;

/// IMU noise/bias model and sampling rate.
///
/// Default values approximate a consumer-grade MEMS part (e.g. MPU-9250
/// class), matching the "below $1,000 combined" sensor suite the paper
/// assumes.
#[derive(Debug, Clone, Copy)]
pub struct ImuModel {
    /// Sampling rate (Hz).
    pub rate_hz: f64,
    /// White-noise standard deviation per gyro sample (rad/s).
    pub gyro_noise: f64,
    /// White-noise standard deviation per accel sample (m/s²).
    pub accel_noise: f64,
    /// Gyro bias random-walk step per sample (rad/s).
    pub gyro_bias_walk: f64,
    /// Accel bias random-walk step per sample (m/s²).
    pub accel_bias_walk: f64,
}

impl Default for ImuModel {
    fn default() -> Self {
        ImuModel {
            rate_hz: 200.0,
            gyro_noise: 2e-3,
            accel_noise: 2e-2,
            gyro_bias_walk: 2e-5,
            accel_bias_walk: 2e-4,
        }
    }
}

impl ImuModel {
    /// An ideal (noise-free) IMU, useful for isolating estimator errors in
    /// tests.
    pub fn ideal() -> Self {
        ImuModel {
            rate_hz: 200.0,
            gyro_noise: 0.0,
            accel_noise: 0.0,
            gyro_bias_walk: 0.0,
            accel_bias_walk: 0.0,
        }
    }

    /// Synthesizes samples over `[0, duration]` from the ground-truth
    /// trajectory. The accelerometer measures specific force
    /// `f_b = R_wbᵀ·(a_w − g_w)` with `g_w = (0, 0, −9.80665)`.
    pub fn generate(
        &self,
        trajectory: &dyn Trajectory,
        duration: f64,
        rng: &mut SimRng,
    ) -> Vec<ImuSample> {
        let dt = 1.0 / self.rate_hz;
        let n = (duration / dt).floor() as usize + 1;
        let g_world = Vec3::new(0.0, 0.0, -GRAVITY);
        let mut gyro_bias = Vec3::zero();
        let mut accel_bias = Vec3::zero();
        let mut samples = Vec::with_capacity(n);
        for i in 0..n {
            let t = i as f64 * dt;
            let pose = trajectory.pose_at(t);
            let omega_body = trajectory.angular_velocity_body(t);
            let a_world = trajectory.acceleration_world(t);
            let f_body = pose.rotation.conjugate().rotate(a_world - g_world);
            // Bias random walk.
            gyro_bias += Vec3::new(
                rng.gauss_scaled(self.gyro_bias_walk),
                rng.gauss_scaled(self.gyro_bias_walk),
                rng.gauss_scaled(self.gyro_bias_walk),
            );
            accel_bias += Vec3::new(
                rng.gauss_scaled(self.accel_bias_walk),
                rng.gauss_scaled(self.accel_bias_walk),
                rng.gauss_scaled(self.accel_bias_walk),
            );
            samples.push(ImuSample {
                t,
                gyro: omega_body
                    + gyro_bias
                    + Vec3::new(
                        rng.gauss_scaled(self.gyro_noise),
                        rng.gauss_scaled(self.gyro_noise),
                        rng.gauss_scaled(self.gyro_noise),
                    ),
                accel: f_body
                    + accel_bias
                    + Vec3::new(
                        rng.gauss_scaled(self.accel_noise),
                        rng.gauss_scaled(self.accel_noise),
                        rng.gauss_scaled(self.accel_noise),
                    ),
            });
        }
        samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trajectory::CircuitTrajectory;

    fn traj() -> CircuitTrajectory {
        CircuitTrajectory::new(20.0, 6.0, 3.0, 1.0)
    }

    #[test]
    fn sample_count_matches_rate() {
        let mut rng = SimRng::seed_from(1);
        let samples = ImuModel::default().generate(&traj(), 2.0, &mut rng);
        assert_eq!(samples.len(), 401); // 200 Hz × 2 s + initial sample
        assert!((samples[1].t - samples[0].t - 0.005).abs() < 1e-12);
    }

    #[test]
    fn ideal_imu_reads_gravity_on_straight() {
        let mut rng = SimRng::seed_from(2);
        let samples = ImuModel::ideal().generate(&traj(), 0.5, &mut rng);
        // Early on the bottom straight: no linear accel, no rotation.
        let s = &samples[10];
        assert!(s.gyro.norm() < 1e-6);
        // Specific force = R^T(0,0,+g): with body +y down, gravity reaction
        // appears as −g on the body y axis.
        assert!((s.accel.norm() - GRAVITY).abs() < 1e-6);
        assert!((s.accel.y + GRAVITY).abs() < 1e-6, "accel={:?}", s.accel);
    }

    #[test]
    fn noisy_imu_deviates_from_ideal() {
        let mut rng1 = SimRng::seed_from(3);
        let mut rng2 = SimRng::seed_from(3);
        let ideal = ImuModel::ideal().generate(&traj(), 0.2, &mut rng1);
        let noisy = ImuModel::default().generate(&traj(), 0.2, &mut rng2);
        let dev: f64 = ideal
            .iter()
            .zip(&noisy)
            .map(|(a, b)| (a.gyro - b.gyro).norm())
            .sum();
        assert!(dev > 0.0);
    }

    #[test]
    fn bias_random_walk_accumulates() {
        let model = ImuModel {
            gyro_noise: 0.0,
            accel_noise: 0.0,
            gyro_bias_walk: 1e-3,
            accel_bias_walk: 0.0,
            rate_hz: 200.0,
        };
        let mut rng = SimRng::seed_from(4);
        let samples = model.generate(&traj(), 5.0, &mut rng);
        let early = samples[10].gyro - traj().angular_velocity_body(samples[10].t);
        let late = samples[900].gyro - traj().angular_velocity_body(samples[900].t);
        // Variance grows with time; late bias should (typically) be larger.
        assert!(late.norm() > early.norm());
    }
}
