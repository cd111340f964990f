//! The end-to-end unified localization pipeline (paper Fig. 4), as a
//! batch adapter over the streaming API.
//!
//! [`Eudoxus`] owns a single [`LocalizationSession`] and replays a
//! recorded `Dataset` into it via `Dataset::events`: per frame, the
//! shared frontend extracts and matches features, the environment selects
//! the backend mode through the session's estimator registry, and the
//! chosen backend consumes the correspondences plus the IMU/GPS windows.
//! Estimators reset at dataset segment boundaries (mixed datasets are
//! concatenations of independent traversals — see
//! `eudoxus_sim::Dataset::concat`), which arrive as
//! [`SensorEvent::SegmentBoundary`](eudoxus_stream::SensorEvent) events.
//!
//! The dataset-replay surface ([`Eudoxus::process_dataset`], available
//! with the default `sim` feature) is the only part of this crate that
//! needs the simulator; everything else consumes `eudoxus_stream` events
//! from any producer.

#[cfg(feature = "sim")]
use crate::instrument::RunLog;
use crate::session::LocalizationSession;
use eudoxus_backend::{BackendMode, RegistrationConfig, SlamConfig, VioConfig, WorldMap};
use eudoxus_frontend::FrontendConfig;
#[cfg(feature = "sim")]
use eudoxus_sim::Dataset;

/// Configuration of the full pipeline.
#[derive(Debug, Clone, Default)]
pub struct PipelineConfig {
    /// Frontend settings.
    pub frontend: FrontendConfig,
    /// VIO settings.
    pub vio: VioConfig,
    /// SLAM settings.
    pub slam: SlamConfig,
    /// Registration settings (only used when a map is installed).
    pub registration: RegistrationConfig,
    /// Apply the anchors carried by segment-boundary events when
    /// initializing estimators. In dataset replay the anchor is the
    /// segment's first ground-truth pose (standard evaluation practice);
    /// a live producer doing an estimator hand-off must also enable this
    /// for its anchors to take effect. Off (the default), every segment
    /// starts from identity and VIO estimates a relative trajectory.
    pub anchor_to_ground_truth: bool,
}

impl PipelineConfig {
    /// Default configuration with ground-truth anchoring enabled.
    pub fn anchored() -> Self {
        PipelineConfig {
            anchor_to_ground_truth: true,
            ..PipelineConfig::default()
        }
    }
}

/// The unified localization system, batch flavor: a thin adapter that
/// replays datasets through a [`LocalizationSession`].
///
/// Construct it from a built session —
/// `SessionBuilder::new(config).build_batch()` or
/// [`Eudoxus::from_session`] — so engine, map and backends are chosen in
/// one place. Prefer driving a [`LocalizationSession`] directly (or a
/// [`SessionManager`](crate::session::SessionManager) for many agents)
/// when the input is a live stream rather than a recorded dataset.
pub struct Eudoxus {
    session: LocalizationSession,
}

impl std::fmt::Debug for Eudoxus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Eudoxus({:?})", self.session)
    }
}

impl Eudoxus {
    /// Wraps an already-built streaming session — the construction path
    /// [`SessionBuilder::build_batch`](crate::builder::SessionBuilder::build_batch)
    /// uses.
    pub fn from_session(session: LocalizationSession) -> Self {
        Eudoxus { session }
    }

    /// Read access to the underlying streaming session (estimator
    /// registry, persisted map, …).
    pub fn session(&self) -> &LocalizationSession {
        &self.session
    }

    /// Mutable access to the underlying session (e.g. to register a
    /// custom backend before replaying).
    pub fn session_mut(&mut self) -> &mut LocalizationSession {
        &mut self.session
    }

    /// The map persisted by the session's mapping backend (SLAM), if any.
    pub fn persisted_map(&self) -> Option<WorldMap> {
        self.session.persisted_map()
    }

    /// The mode that will run for a frame in `env`, given the registered
    /// backends (e.g. map availability).
    pub fn effective_mode(&self, env: eudoxus_stream::Environment) -> BackendMode {
        self.session.effective_mode(env)
    }

    /// Resets all estimators (segment boundary).
    pub fn reset(&mut self) {
        self.session.reset();
    }

    /// Processes a whole dataset by replaying it as an event stream,
    /// producing the run log. Needs the `sim` feature (on by default) —
    /// a simulator-free serving build drives the session through
    /// `eudoxus_stream` sources instead.
    #[cfg(feature = "sim")]
    pub fn process_dataset(&mut self, dataset: &Dataset) -> RunLog {
        // Each replay's records are indexed from 0, like the dataset's
        // frames (a session fed live events instead counts monotonically).
        self.session.rebase_frame_index(0);
        let mut log = RunLog::new();
        for event in dataset.events() {
            if let Some(record) = self.session.push(event) {
                log.records.push(record);
            }
        }
        log
    }
}

// The tests replay datasets, so they need the (default) `sim` feature;
// dev-deps make `eudoxus_sim` itself available either way, but not the
// feature-gated `process_dataset`/`build_map` items they drive.
#[cfg(all(test, feature = "sim"))]
mod tests {
    use super::*;
    use crate::builder::SessionBuilder;
    use eudoxus_sim::{Platform, ScenarioBuilder, ScenarioKind};
    use eudoxus_stream::Environment;

    fn dataset(kind: ScenarioKind, frames: usize) -> Dataset {
        ScenarioBuilder::new(kind)
            .frames(frames)
            .seed(7)
            .platform(Platform::Drone)
            .build()
    }

    #[test]
    fn outdoor_runs_vio_and_stays_accurate() {
        let data = dataset(ScenarioKind::OutdoorUnknown, 6);
        let mut system = SessionBuilder::new(PipelineConfig::anchored()).build_batch();
        let log = system.process_dataset(&data);
        assert_eq!(log.len(), 6);
        assert!(log.records.iter().all(|r| r.mode == BackendMode::Vio));
        let rmse = log.translation_rmse();
        assert!(rmse < 1.5, "VIO RMSE {rmse} m");
    }

    #[test]
    fn indoor_unknown_runs_slam() {
        let data = dataset(ScenarioKind::IndoorUnknown, 5);
        let mut system = SessionBuilder::new(PipelineConfig::anchored()).build_batch();
        let log = system.process_dataset(&data);
        assert!(log.records.iter().all(|r| r.mode == BackendMode::Slam));
        let rmse = log.translation_rmse();
        assert!(rmse < 1.0, "SLAM RMSE {rmse} m");
    }

    #[test]
    fn indoor_known_without_map_degrades_to_slam() {
        let data = dataset(ScenarioKind::IndoorKnown, 2);
        let mut system = SessionBuilder::new(PipelineConfig::anchored()).build_batch();
        let log = system.process_dataset(&data);
        assert!(log.records.iter().all(|r| r.mode == BackendMode::Slam));
    }

    #[test]
    fn indoor_known_with_map_runs_registration() {
        let data = dataset(ScenarioKind::IndoorKnown, 6);
        // Mapping pass (SLAM over the same traversal), then registration.
        let map = crate::mapping::build_map(&data, &PipelineConfig::anchored());
        assert!(!map.points.is_empty());
        let mut system = SessionBuilder::new(PipelineConfig::anchored()).map(map).build_batch();
        let log = system.process_dataset(&data);
        assert!(log
            .records
            .iter()
            .all(|r| r.mode == BackendMode::Registration));
        let tracked = log.records.iter().filter(|r| r.tracking).count();
        assert!(tracked >= log.len() / 2, "tracked {tracked}/{}", log.len());
    }

    #[test]
    fn mixed_dataset_switches_modes_at_segments() {
        let data = ScenarioBuilder::new(ScenarioKind::Mixed)
            .frames(12)
            .seed(3)
            .platform(Platform::Drone)
            .build();
        let mut system = SessionBuilder::new(PipelineConfig::anchored()).build_batch();
        let log = system.process_dataset(&data);
        let modes: Vec<BackendMode> = log.records.iter().map(|r| r.mode).collect();
        assert!(modes.contains(&BackendMode::Vio));
        assert!(modes.contains(&BackendMode::Slam));
        // Environment labels drive the modes.
        for r in &log.records {
            if r.environment == Environment::OutdoorUnknown {
                assert_eq!(r.mode, BackendMode::Vio);
            }
        }
    }

    #[test]
    fn kernels_recorded_per_mode() {
        let data = dataset(ScenarioKind::OutdoorUnknown, 4);
        let mut system = SessionBuilder::new(PipelineConfig::anchored()).build_batch();
        let log = system.process_dataset(&data);
        // Every VIO frame must at least run IMU integration.
        for r in &log.records {
            assert!(
                !r.backend_kernels.is_empty(),
                "frame {} has no kernel samples",
                r.index
            );
        }
        assert!(log.latency_summary(None).mean > 0.0);
    }

    #[test]
    fn repeated_replays_restart_frame_indices() {
        let data = dataset(ScenarioKind::OutdoorUnknown, 3);
        let mut system = SessionBuilder::new(PipelineConfig::anchored()).build_batch();
        let first = system.process_dataset(&data);
        let second = system.process_dataset(&data);
        assert_eq!(first.records[0].index, 0);
        assert_eq!(second.records[0].index, 0);
        assert_eq!(second.records.last().unwrap().index, 2);
    }
}
