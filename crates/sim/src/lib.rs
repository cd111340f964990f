//! Synthetic sensor and world simulation for Eudoxus.
//!
//! The paper evaluates on KITTI (outdoor, car, 1280×720), EuRoC (indoor,
//! drone, 640×480) and PerceptIn's in-house dataset (mixed, unpublished).
//! None of those are available offline, so this crate substitutes the
//! closest synthetic equivalent (see DESIGN.md §1): textured-landmark worlds
//! rendered through a calibrated stereo rig, an IMU with bias random walk
//! and white noise, and a GPS that is only available outdoors — reproducing
//! the environment taxonomy of paper Fig. 2.
//!
//! The generated frames contain real pixels: the FAST detector finds the
//! landmark stamps, ORB describes them, stereo matching recovers their
//! disparity and Lucas–Kanade tracks them across frames — so the entire
//! frontend runs unmodified, with realistic feature counts.
//!
//! # Example
//!
//! ```
//! use eudoxus_sim::{ScenarioBuilder, ScenarioKind};
//!
//! let dataset = ScenarioBuilder::new(ScenarioKind::IndoorUnknown)
//!     .frames(4)
//!     .seed(7)
//!     .build();
//! assert_eq!(dataset.frames.len(), 4);
//! assert!(dataset.gps.is_empty(), "no GPS indoors");
//! ```
//!
//! The event model (`SensorEvent`, `ImageEvent`, `FrameData`, `Segment`,
//! `ImuSample`, `GpsSample`, `Environment`) lives in the leaf
//! `eudoxus-stream` crate, so live producers speak the streaming wire
//! format without linking this simulator. What lives here is genuinely
//! simulator-side: scenario/world/trajectory generation, the IMU/GPS
//! *noise models*, and [`Dataset`] with its replay adapters
//! ([`Dataset::events`], [`Dataset::source`]).

pub mod dataset;
pub mod gps;
pub mod imu;
pub mod render;
pub mod rng;
pub mod scenario;
pub mod trajectory;
pub mod world;

pub use dataset::{Dataset, DatasetSource};
pub use gps::GpsModel;
pub use imu::ImuModel;
pub use render::{render_stereo_pair, RenderConfig};
pub use rng::SimRng;
pub use scenario::{Platform, ScenarioBuilder, ScenarioKind};
pub use trajectory::{CircuitTrajectory, Figure8Trajectory, Trajectory};
pub use world::{Landmark, World};
