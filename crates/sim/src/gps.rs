//! GPS receiver synthesis.
//!
//! GPS provides the three translational DoF but "is blocked in an indoor
//! environment and could be unreliable even outdoor when the multi-path
//! problem occurs" (paper Sec. II). The model emits fixes only while the
//! machine is outdoors, with Gaussian noise plus occasional multipath
//! glitches of several meters.

use crate::rng::SimRng;
use crate::trajectory::Trajectory;
use eudoxus_geometry::Vec3;
use eudoxus_stream::{Environment, GpsSample};

/// GPS availability/noise model.
#[derive(Debug, Clone, Copy)]
pub struct GpsModel {
    /// Fix rate (Hz).
    pub rate_hz: f64,
    /// Horizontal noise σ (meters).
    pub sigma_xy: f64,
    /// Vertical noise σ (meters).
    pub sigma_z: f64,
    /// Probability that a fix is perturbed by multipath.
    pub multipath_prob: f64,
    /// Magnitude of a multipath excursion (meters).
    pub multipath_mag: f64,
}

impl Default for GpsModel {
    fn default() -> Self {
        GpsModel {
            rate_hz: 10.0,
            sigma_xy: 0.5,
            sigma_z: 1.0,
            multipath_prob: 0.02,
            multipath_mag: 4.0,
        }
    }
}

impl GpsModel {
    /// Generates fixes over `[0, duration]`. `environment_at` classifies
    /// each instant; indoor instants produce no fix (signal blocked).
    pub fn generate(
        &self,
        trajectory: &dyn Trajectory,
        duration: f64,
        environment_at: impl Fn(f64) -> Environment,
        rng: &mut SimRng,
    ) -> Vec<GpsSample> {
        let dt = 1.0 / self.rate_hz;
        let n = (duration / dt).floor() as usize + 1;
        let mut out = Vec::new();
        for i in 0..n {
            let t = i as f64 * dt;
            if !environment_at(t).has_gps() {
                continue;
            }
            let truth = trajectory.pose_at(t).translation;
            let mut noise = Vec3::new(
                rng.gauss_scaled(self.sigma_xy),
                rng.gauss_scaled(self.sigma_xy),
                rng.gauss_scaled(self.sigma_z),
            );
            let mut sigma = self.sigma_xy;
            if rng.chance(self.multipath_prob) {
                // Multipath: a large, biased excursion with degraded
                // reported accuracy.
                let dir = rng.uniform(0.0, std::f64::consts::TAU);
                noise += Vec3::new(dir.cos(), dir.sin(), 0.2) * self.multipath_mag;
                sigma = self.multipath_mag;
            }
            out.push(GpsSample {
                t,
                position: truth + noise,
                sigma,
            });
        }
        out
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
    fn outdoor_produces_fixes_at_rate() {
        let mut rng = SimRng::seed_from(1);
        let fixes =
            GpsModel::default().generate(&traj(), 3.0, |_| Environment::OutdoorUnknown, &mut rng);
        assert_eq!(fixes.len(), 31);
    }

    #[test]
    fn indoor_produces_none() {
        let mut rng = SimRng::seed_from(2);
        let fixes =
            GpsModel::default().generate(&traj(), 3.0, |_| Environment::IndoorUnknown, &mut rng);
        assert!(fixes.is_empty());
    }

    #[test]
    fn mixed_schedule_gates_fixes() {
        let mut rng = SimRng::seed_from(3);
        let fixes = GpsModel::default().generate(
            &traj(),
            10.0,
            |t| {
                if t < 5.0 {
                    Environment::OutdoorUnknown
                } else {
                    Environment::IndoorUnknown
                }
            },
            &mut rng,
        );
        assert!(fixes.iter().all(|f| f.t < 5.0 + 1e-9));
        assert!(!fixes.is_empty());
    }

    #[test]
    fn noise_is_bounded_in_probability() {
        let mut rng = SimRng::seed_from(4);
        let model = GpsModel {
            multipath_prob: 0.0,
            ..GpsModel::default()
        };
        let fixes = model.generate(&traj(), 30.0, |_| Environment::OutdoorKnown, &mut rng);
        let worst = fixes
            .iter()
            .map(|f| (f.position - traj().pose_at(f.t).translation).norm())
            .fold(0.0f64, f64::max);
        assert!(worst < 6.0, "worst error {worst}");
    }

    #[test]
    fn multipath_inflates_reported_sigma() {
        let mut rng = SimRng::seed_from(5);
        let model = GpsModel {
            multipath_prob: 1.0,
            ..GpsModel::default()
        };
        let fixes = model.generate(&traj(), 1.0, |_| Environment::OutdoorKnown, &mut rng);
        assert!(fixes.iter().all(|f| f.sigma >= 4.0));
    }
}
