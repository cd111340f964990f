//! Scenario presets reproducing the paper's dataset mix (Sec. VII-A).
//!
//! `EDX-CAR` evaluates on KITTI (1280×720) plus in-house indoor frames;
//! `EDX-DRONE` on EuRoC (640×480) plus in-house outdoor frames; both mixes
//! are 50 % outdoor / 25 % indoor-without-map / 25 % indoor-with-map. The
//! builder generates the synthetic equivalents at the same resolutions.

use crate::dataset::Dataset;
use crate::gps::GpsModel;
use crate::imu::ImuModel;
use crate::render::{render_stereo_pair, RenderConfig};
use crate::rng::SimRng;
use crate::trajectory::{CircuitTrajectory, Figure8Trajectory, Trajectory};
use crate::world::World;
use eudoxus_geometry::{PinholeCamera, StereoRig};
use eudoxus_stream::{Environment, FrameData, Segment};

/// Which of the paper's evaluation scenarios to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioKind {
    /// Indoor, no map (SLAM territory; Fig. 3a).
    IndoorUnknown,
    /// Indoor with a pre-built map (registration territory; Fig. 3b).
    IndoorKnown,
    /// Outdoor, no map (VIO+GPS territory; Fig. 3c).
    OutdoorUnknown,
    /// Outdoor with a map (VIO still wins; Fig. 3d).
    OutdoorKnown,
    /// The 50/25/25 mixed evaluation set (Sec. VII-A).
    Mixed,
}

impl ScenarioKind {
    /// The environment label for the simple (non-mixed) kinds.
    fn environment(self) -> Environment {
        match self {
            ScenarioKind::IndoorUnknown => Environment::IndoorUnknown,
            ScenarioKind::IndoorKnown => Environment::IndoorKnown,
            ScenarioKind::OutdoorUnknown => Environment::OutdoorUnknown,
            ScenarioKind::OutdoorKnown => Environment::OutdoorKnown,
            ScenarioKind::Mixed => unreachable!("mixed has no single environment"),
        }
    }
}

/// Camera/vehicle platform, matching the two FPGA prototypes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Platform {
    /// Self-driving car (EDX-CAR): 1280×720 stereo, 0.54 m baseline.
    Car,
    /// Drone (EDX-DRONE): 640×480 stereo, 0.11 m baseline.
    Drone,
}

impl Platform {
    /// The stereo rig of this platform.
    pub fn rig(self) -> StereoRig {
        match self {
            Platform::Car => StereoRig::new(PinholeCamera::centered(700.0, 1280, 720), 0.54),
            Platform::Drone => StereoRig::new(PinholeCamera::centered(450.0, 640, 480), 0.11),
        }
    }

    fn render_config(self) -> RenderConfig {
        match self {
            // Car: 35 cm façade elements visible out to 60 m at f = 700 px.
            Platform::Car => RenderConfig {
                patch_radius_m: 0.35,
                max_distance: 60.0,
                ..RenderConfig::default()
            },
            // Drone: 9 cm interior details within 25 m at f = 450 px.
            Platform::Drone => RenderConfig {
                patch_radius_m: 0.09,
                max_distance: 25.0,
                ..RenderConfig::default()
            },
        }
    }
}

/// Builder for synthetic datasets.
///
/// # Example
///
/// ```
/// use eudoxus_sim::{ScenarioBuilder, ScenarioKind};
///
/// let data = ScenarioBuilder::new(ScenarioKind::OutdoorUnknown)
///     .frames(5)
///     .fps(10.0)
///     .seed(3)
///     .build();
/// assert_eq!(data.frames.len(), 5);
/// assert!(!data.gps.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    kind: ScenarioKind,
    platform: Option<Platform>,
    frames: usize,
    fps: f64,
    seed: u64,
    landmarks: Option<usize>,
}

impl ScenarioBuilder {
    /// Starts a builder for the given scenario.
    pub fn new(kind: ScenarioKind) -> Self {
        ScenarioBuilder {
            kind,
            platform: None,
            frames: 60,
            fps: 10.0,
            seed: 0,
            landmarks: None,
        }
    }

    /// Overrides the platform (default: drone indoors, car outdoors and for
    /// the mixed set).
    pub fn platform(mut self, platform: Platform) -> Self {
        self.platform = Some(platform);
        self
    }

    /// Number of stereo frames to generate.
    pub fn frames(mut self, frames: usize) -> Self {
        self.frames = frames.max(1);
        self
    }

    /// Camera frame rate (Hz).
    ///
    /// # Panics
    ///
    /// Panics unless positive.
    pub fn fps(mut self, fps: f64) -> Self {
        assert!(fps > 0.0, "fps must be positive");
        self.fps = fps;
        self
    }

    /// Random seed for world generation and sensor noise.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the landmark count (default: scenario-appropriate density).
    pub fn landmarks(mut self, count: usize) -> Self {
        self.landmarks = Some(count);
        self
    }

    /// Generates the dataset.
    pub fn build(self) -> Dataset {
        match self.kind {
            ScenarioKind::Mixed => {
                let platform = self.platform.unwrap_or(Platform::Car);
                let half = (self.frames / 2).max(1);
                let quarter = (self.frames / 4).max(1);
                let rest = self.frames.saturating_sub(half + quarter).max(1);
                let outdoor = self
                    .clone_with(ScenarioKind::OutdoorUnknown, platform, half, self.seed)
                    .build();
                let indoor_unknown = self
                    .clone_with(ScenarioKind::IndoorUnknown, platform, quarter, self.seed + 1)
                    .build();
                let indoor_known = self
                    .clone_with(ScenarioKind::IndoorKnown, platform, rest, self.seed + 2)
                    .build();
                Dataset::concat(
                    format!("mixed[{platform:?}]"),
                    vec![outdoor, indoor_unknown, indoor_known],
                )
            }
            kind => {
                let env = kind.environment();
                let platform = self
                    .platform
                    .unwrap_or(if env.is_indoor() { Platform::Drone } else { Platform::Car });
                build_segment(kind, platform, self.frames, self.fps, self.seed, self.landmarks)
            }
        }
    }

    fn clone_with(
        &self,
        kind: ScenarioKind,
        platform: Platform,
        frames: usize,
        seed: u64,
    ) -> ScenarioBuilder {
        ScenarioBuilder {
            kind,
            platform: Some(platform),
            frames,
            fps: self.fps,
            seed,
            landmarks: self.landmarks,
        }
    }
}

/// Builds a single-environment dataset.
fn build_segment(
    kind: ScenarioKind,
    platform: Platform,
    frames: usize,
    fps: f64,
    seed: u64,
    landmarks: Option<usize>,
) -> Dataset {
    let env = kind.environment();
    let rig = platform.rig();
    let cfg = platform.render_config();
    let duration = frames as f64 / fps;
    let mut rng = SimRng::seed_from(seed ^ 0xE0_D0_05);

    // World + trajectory per environment/platform.
    let (world, trajectory): (World, Box<dyn Trajectory>) = if env.is_indoor() {
        let count = landmarks.unwrap_or(900);
        let world = World::indoor_room(seed, count);
        let traj: Box<dyn Trajectory> = match platform {
            Platform::Drone => {
                Box::new(Figure8Trajectory::new(3.2, 2.0, 0.35, 1.5).with_cycles(8.0))
            }
            Platform::Car => Box::new(
                CircuitTrajectory::new(5.0, 1.6, 1.2, 1.3).with_laps(16.0),
            ),
        };
        (world, traj)
    } else {
        // Street sized to the circuit footprint.
        let speed = match platform {
            Platform::Car => 8.0,
            Platform::Drone => 4.0,
        };
        let straight = 50.0;
        let radius = 6.0;
        let count = landmarks.unwrap_or(2600);
        let world = World::outdoor_street(seed, count, straight + 2.0 * radius + 8.0);
        let height = match platform {
            Platform::Car => 1.6,
            Platform::Drone => 2.5,
        };
        let traj: Box<dyn Trajectory> =
            Box::new(CircuitTrajectory::new(straight, radius, speed, height).with_laps(32.0));
        (world, traj)
    };

    let mut frames_out = Vec::with_capacity(frames);
    let mut ground_truth = Vec::with_capacity(frames);
    for i in 0..frames {
        let t = i as f64 / fps;
        let pose = trajectory.pose_at(t);
        let (left, right) = render_stereo_pair(&world, pose, &rig, &cfg);
        frames_out.push(FrameData {
            index: i,
            t,
            environment: env,
            left: std::sync::Arc::new(left),
            right: std::sync::Arc::new(right),
        });
        ground_truth.push(pose);
    }

    let mut imu_rng = rng.fork(1);
    let imu = ImuModel::default().generate(trajectory.as_ref(), duration, &mut imu_rng);
    let gps = if env.has_gps() {
        let mut gps_rng = rng.fork(2);
        GpsModel::default().generate(trajectory.as_ref(), duration, |_| env, &mut gps_rng)
    } else {
        Vec::new()
    };

    Dataset {
        name: format!("{env}[{platform:?}]"),
        rig,
        fps,
        frames: frames_out,
        imu,
        gps,
        ground_truth,
        segments: vec![Segment {
            start_frame: 0,
            environment: env,
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indoor_defaults_to_drone_resolution() {
        let d = ScenarioBuilder::new(ScenarioKind::IndoorUnknown)
            .frames(2)
            .build();
        assert_eq!(d.rig.camera.width, 640);
        assert!(d.gps.is_empty());
        assert_eq!(d.ground_truth.len(), 2);
    }

    #[test]
    fn outdoor_defaults_to_car_resolution() {
        let d = ScenarioBuilder::new(ScenarioKind::OutdoorUnknown)
            .frames(2)
            .build();
        assert_eq!(d.rig.camera.width, 1280);
        assert!(!d.gps.is_empty());
    }

    #[test]
    fn mixed_has_paper_proportions() {
        let d = ScenarioBuilder::new(ScenarioKind::Mixed).frames(16).build();
        assert_eq!(d.frames.len(), 16);
        assert_eq!(d.segments.len(), 3);
        let outdoor = d
            .frames
            .iter()
            .filter(|f| f.environment.has_gps())
            .count();
        assert_eq!(outdoor, 8, "50% outdoor");
        let known = d
            .frames
            .iter()
            .filter(|f| f.environment == Environment::IndoorKnown)
            .count();
        assert_eq!(known, 4, "25% indoor with map");
    }

    #[test]
    fn frames_are_time_ordered_and_labeled() {
        let d = ScenarioBuilder::new(ScenarioKind::Mixed).frames(8).build();
        for w in d.frames.windows(2) {
            assert!(w[1].t > w[0].t);
            assert_eq!(w[1].index, w[0].index + 1);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = ScenarioBuilder::new(ScenarioKind::IndoorUnknown)
            .frames(2)
            .seed(5)
            .build();
        let b = ScenarioBuilder::new(ScenarioKind::IndoorUnknown)
            .frames(2)
            .seed(5)
            .build();
        assert_eq!(a.frames[1].left, b.frames[1].left);
        assert_eq!(a.imu.len(), b.imu.len());
        assert_eq!(a.imu[10].gyro, b.imu[10].gyro);
    }

    #[test]
    fn platform_override_is_respected() {
        let d = ScenarioBuilder::new(ScenarioKind::IndoorUnknown)
            .frames(1)
            .platform(Platform::Car)
            .build();
        assert_eq!(d.rig.camera.width, 1280);
    }
}
