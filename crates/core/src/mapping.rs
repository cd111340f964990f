//! Map construction via a SLAM pass.
//!
//! In deployment, "the robots would spend a few days mapping new
//! warehouses" (paper Sec. III) before registration can run there. This
//! helper performs that survey pass: run the pipeline in SLAM mode over a
//! dataset and persist the resulting map.

use crate::builder::SessionBuilder;
use crate::pipeline::PipelineConfig;
use eudoxus_backend::WorldMap;
use eudoxus_sim::Dataset;
use eudoxus_stream::Environment;

/// Runs a SLAM mapping pass over the dataset and returns the persisted
/// map. The dataset's environment labels are ignored — every frame is
/// treated as unmapped territory, exactly like a survey run.
pub fn build_map(dataset: &Dataset, config: &PipelineConfig) -> WorldMap {
    // Relabel every frame as indoor-unknown so the mode selector picks
    // SLAM throughout.
    let mut survey = dataset.clone();
    for f in &mut survey.frames {
        f.environment = Environment::IndoorUnknown;
    }
    for s in &mut survey.segments {
        s.environment = Environment::IndoorUnknown;
    }
    let mut system = SessionBuilder::new(config.clone()).build_batch();
    let _ = system.process_dataset(&survey);
    system
        .persisted_map()
        .expect("the default registry always includes a mapping (SLAM) backend")
}

#[cfg(test)]
mod tests {
    use super::*;
    use eudoxus_sim::{Platform, ScenarioBuilder, ScenarioKind};

    #[test]
    fn survey_produces_nonempty_map() {
        let data = ScenarioBuilder::new(ScenarioKind::IndoorKnown)
            .frames(5)
            .seed(11)
            .platform(Platform::Drone)
            .build();
        let map = build_map(&data, &PipelineConfig::anchored());
        assert!(map.points.len() > 30, "only {} points", map.points.len());
        assert!(!map.keyframes.is_empty());
    }

    #[test]
    fn survey_is_reproducible_within_a_process() {
        // Two surveys of one dataset persist the same map: the same
        // point ids in the same order, with bit-identical contents.
        let data = ScenarioBuilder::new(ScenarioKind::IndoorKnown)
            .frames(5)
            .seed(11)
            .platform(Platform::Drone)
            .build();
        let a = build_map(&data, &PipelineConfig::anchored());
        let b = build_map(&data, &PipelineConfig::anchored());
        let ids = |m: &WorldMap| m.points.iter().map(|p| p.id).collect::<Vec<_>>();
        assert_eq!(ids(&a), ids(&b), "point order differs between surveys");
        for (p, q) in a.points.iter().zip(&b.points) {
            let bits = |v: eudoxus_geometry::Vec3| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()];
            assert_eq!(bits(p.position), bits(q.position), "point {} moved", p.id);
            assert_eq!(p.descriptor, q.descriptor, "point {} descriptor", p.id);
        }
    }

    #[test]
    fn map_points_lie_in_the_room() {
        let data = ScenarioBuilder::new(ScenarioKind::IndoorUnknown)
            .frames(4)
            .seed(5)
            .platform(Platform::Drone)
            .build();
        let map = build_map(&data, &PipelineConfig::anchored());
        // Indoor room is 12×8×4 m centered at origin. Stereo depth noise
        // at low parallax can throw individual triangulated points well
        // past the walls, so require the bulk (90 %) of the map to lie
        // within a sane margin of the room rather than every point.
        let inside = map
            .points
            .iter()
            .filter(|p| {
                p.position.x.abs() < 10.0
                    && p.position.y.abs() < 8.0
                    && (-2.0..7.0).contains(&p.position.z)
            })
            .count();
        assert!(
            inside * 10 >= map.points.len() * 9,
            "only {inside}/{} map points near the room",
            map.points.len()
        );
    }
}
