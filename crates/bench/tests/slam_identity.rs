//! Golden identity of the SLAM backend, loop closure included.
//!
//! [`SlamBaseline`] is the seed backend: it trains the vocabulary as soon
//! as its corpus reaches `vocab_train_min` and queries the keyframe
//! database at every keyframe after. The live [`Slam`] builds that index
//! only at the first keyframe that can close a loop. Both run through the
//! same input streams; every estimate (pose bits, tracking flag, kernel
//! kinds and sizes), the loop-closure count, the keyframe and landmark
//! counts and the persisted map must agree exactly.
//!
//! The revisit streams circle a ring of landmarks twice. The second lap
//! re-observes every landmark under a fresh track id with its first-lap
//! descriptor, so the database finds the first lap's keyframes and loop
//! closure fires. One ring is dense enough that the vocabulary's training
//! set fills before keyframe `loop_min_gap`, the other so sparse that it
//! fills later, so both ways the index can be built are covered.

use eudoxus_backend::{Backend, BackendEstimate, BackendInput, Slam, SlamConfig, WorldMap};
use eudoxus_bench::baseline::SlamBaseline;
use eudoxus_frontend::{Observation, OrbDescriptor};
use eudoxus_geometry::{PinholeCamera, Pose, PoseAnchor, StereoRig, Vec3};
use eudoxus_sim::SimRng;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn rig() -> StereoRig {
    StereoRig::new(PinholeCamera::centered(450.0, 640, 480), 0.11)
}

/// One landmark: world position and its fixed descriptor.
struct Landmark {
    position: Vec3,
    descriptor: OrbDescriptor,
}

/// `count` landmarks on a ring of radius 6–9 m around the vertical axis,
/// with random descriptors.
fn ring(count: usize, rng: &mut SimRng) -> Vec<Landmark> {
    let mut bits = StdRng::seed_from_u64(rng.uniform_usize(0, usize::MAX) as u64);
    (0..count)
        .map(|i| {
            let angle = std::f64::consts::TAU * (i as f64 + rng.uniform(0.0, 0.8)) / count as f64;
            let radius = rng.uniform(6.0, 9.0);
            Landmark {
                position: Vec3::new(
                    radius * angle.sin(),
                    rng.uniform(-1.5, 1.5),
                    radius * angle.cos(),
                ),
                descriptor: OrbDescriptor::from_words(std::array::from_fn(|_| bits.random())),
            }
        })
        .collect()
}

/// Camera pose `frame` frames into a circuit of `lap` frames: yawing
/// once around the vertical axis per lap while its centre moves on a
/// 0.4 m circle.
fn circuit_pose(frame: usize, lap: usize) -> Pose {
    let yaw = std::f64::consts::TAU * frame as f64 / lap as f64;
    Pose::from_rotation_vector(
        Vec3::new(0.0, yaw, 0.0),
        Vec3::new(0.4 * yaw.sin(), 0.0, 0.4 * yaw.cos() - 0.4),
    )
}

/// Noisy stereo observations of the visible landmarks. Track ids are
/// landmark indices plus `id_offset`.
fn observe(
    rig: &StereoRig,
    pose: Pose,
    landmarks: &[Landmark],
    id_offset: u64,
    rng: &mut SimRng,
) -> Vec<Observation> {
    landmarks
        .iter()
        .enumerate()
        .filter_map(|(i, lm)| {
            let p_cam = pose.inverse_transform(lm.position);
            if p_cam.z < 0.5 {
                return None;
            }
            let px = rig.camera.project_in_bounds(p_cam)?;
            let disparity = rig.disparity_from_depth(p_cam.z) + rng.gauss_scaled(0.1);
            Some(Observation {
                track_id: i as u64 + id_offset,
                x: (px.x + rng.gauss_scaled(0.3)) as f32,
                y: (px.y + rng.gauss_scaled(0.3)) as f32,
                disparity: Some(disparity as f32),
                descriptor: lm.descriptor,
            })
        })
        .collect()
}

/// One backend step's input: its time and observations, or a segment
/// boundary with an optional anchor.
enum Event {
    Frame(f64, Vec<Observation>),
    Segment(Option<PoseAnchor>),
}

/// Two laps of a circuit of `lap` frames around a ring of `landmarks`
/// points; the second lap's track ids are fresh.
fn revisit(landmarks: usize, lap: usize, seed: u64) -> Vec<Event> {
    let rig = rig();
    let mut rng = SimRng::seed_from(seed);
    let world = ring(landmarks, &mut rng);
    (0..2 * lap)
        .map(|f| {
            let id_offset = if f < lap { 0 } else { 100_000 };
            let obs = observe(&rig, circuit_pose(f, lap), &world, id_offset, &mut rng);
            Event::Frame(f as f64 * 0.05, obs)
        })
        .collect()
}

/// One lap of `lap` frames, then a second lap with fresh track ids that
/// turns in place, `offset` laps ahead of the first, and holds still for
/// `hold` frames from its frame `hold_at`.
fn hover_revisit(lap: usize, hold_at: usize, hold: usize, offset: f64, seed: u64) -> Vec<Event> {
    let rig = rig();
    let mut rng = SimRng::seed_from(seed);
    let world = ring(100, &mut rng);
    let second = (0..lap).map(|f| {
        let g = f.min(hold_at) + f.saturating_sub(hold_at + hold);
        let yaw = std::f64::consts::TAU * (g as f64 / lap as f64 + offset);
        Pose::from_rotation_vector(Vec3::new(0.0, yaw, 0.0), Vec3::zero())
    });
    (0..lap)
        .map(|f| circuit_pose(f, lap))
        .chain(second)
        .enumerate()
        .map(|(f, pose)| {
            let id_offset = if f < lap { 0 } else { 100_000 };
            let obs = observe(&rig, pose, &world, id_offset, &mut rng);
            Event::Frame(f as f64 * 0.05, obs)
        })
        .collect()
}

/// Runs both backends through `events`; returns the live backend's loop
/// closures after checking every estimate and the final state.
fn compare(cfg: SlamConfig, events: &[Event]) -> usize {
    let rig = rig();
    let mut live = Slam::new(cfg);
    let mut seed = SlamBaseline::new(cfg);
    for (i, event) in events.iter().enumerate() {
        match event {
            Event::Segment(anchor) => {
                live.begin_segment(*anchor);
                seed.begin_segment(*anchor);
            }
            Event::Frame(t, observations) => {
                let input = BackendInput {
                    t: *t,
                    observations,
                    imu: &[],
                    gps: &[],
                    rig,
                };
                let got = live.step(&input);
                let want = seed.step(&input);
                assert_eq!(estimate_key(&got), estimate_key(&want), "event {i}");
            }
        }
    }
    assert_eq!(live.loops_closed(), seed.loops_closed(), "loops closed");
    assert_eq!(live.keyframe_count(), seed.keyframe_count(), "keyframes");
    assert_eq!(live.landmark_count(), seed.landmark_count(), "landmarks");
    assert_eq!(
        map_key(&live.persist_map()),
        map_key(&seed.persist_map()),
        "persisted map"
    );
    live.loops_closed()
}

fn pose_bits(p: &Pose) -> [u64; 7] {
    let (q, t) = (p.rotation, p.translation);
    [q.w, q.x, q.y, q.z, t.x, t.y, t.z].map(f64::to_bits)
}

/// Pose bits, tracking flag and each kernel sample's kind and size.
fn estimate_key(e: &BackendEstimate) -> ([u64; 7], bool, Vec<String>) {
    let kernels = e
        .kernels
        .iter()
        .map(|k| format!("{:?}/{}", k.kernel, k.size))
        .collect();
    (pose_bits(&e.pose), e.tracking, kernels)
}

/// The map's points and keyframes, with positions and poses as bits.
type MapKey = (
    Vec<(u64, [u64; 3], [u64; 4])>,
    Vec<(u64, [u64; 7], Vec<u64>)>,
);

fn map_key(map: &WorldMap) -> MapKey {
    let points = map
        .points
        .iter()
        .map(|p| {
            let v = p.position;
            (
                p.id,
                [v.x, v.y, v.z].map(f64::to_bits),
                *p.descriptor.words(),
            )
        })
        .collect();
    let keyframes = map
        .keyframes
        .iter()
        .map(|k| (k.id, pose_bits(&k.pose), k.point_ids.clone()))
        .collect();
    (points, keyframes)
}

/// The keyframe whose descriptors bring the vocabulary's training set to
/// `vocab_train_min`, in a stream without segment boundaries.
fn training_keyframe(cfg: &SlamConfig, events: &[Event]) -> Option<u64> {
    let mut descriptors = 0;
    let keyframes = events.iter().step_by(cfg.keyframe_interval);
    for (id, event) in (0u64..).zip(keyframes) {
        let Event::Frame(_, observations) = event else {
            panic!("segment boundary")
        };
        descriptors += observations.len();
        if descriptors >= cfg.vocab_train_min {
            return Some(id);
        }
    }
    None
}

#[test]
fn dense_revisit_closes_loops_like_the_seed() {
    // The training set fills well before keyframe `loop_min_gap`, where
    // the index is then built. A lap is `loop_min_gap` keyframes long, so
    // that keyframe's query is the first that can close a loop.
    let cfg = SlamConfig::default();
    let events = revisit(360, 45, 11);
    assert!(training_keyframe(&cfg, &events).is_some_and(|kf| kf < cfg.loop_min_gap));
    let loops = compare(cfg, &events);
    assert!(loops >= 1, "the revisit closed no loop");
}

#[test]
fn sparse_revisit_closes_loops_like_the_seed() {
    // The training set fills after keyframe `loop_min_gap`, so the index
    // is built at the training keyframe and holds that keyframe when it
    // first answers a query.
    let cfg = SlamConfig::default();
    let events = revisit(100, 60, 12);
    assert!(training_keyframe(&cfg, &events).is_some_and(|kf| kf > cfg.loop_min_gap));
    let loops = compare(cfg, &events);
    assert!(loops >= 1, "the revisit closed no loop");
}

#[test]
fn training_keyframe_query_finds_itself_like_the_seed() {
    // The second lap holds still over keyframes 16-19, and keyframe 18
    // completes the training set. The seed's index, built there, holds
    // keyframe 18 when it answers keyframe 18's query, so the three
    // identical views fill its top three and push out the first lap's
    // keyframe 1, a valid loop candidate. The lazy index must hold the
    // same documents at that query, or it closes a loop the seed did not.
    let events = hover_revisit(45, 3, 9, 0.012, 14);
    let cfg = SlamConfig::default();
    let descriptors: usize = events
        .iter()
        .step_by(cfg.keyframe_interval)
        .take(19)
        .map(|e| match e {
            Event::Frame(_, obs) => obs.len(),
            Event::Segment(_) => 0,
        })
        .sum();
    let cfg = SlamConfig {
        vocab_train_min: descriptors,
        ..cfg
    };
    assert_eq!(training_keyframe(&cfg, &events), Some(18));
    let loops = compare(cfg, &events);
    assert!(loops >= 1, "the second lap closed no loop");
}

#[test]
fn segments_and_short_configurations_match_the_seed() {
    // Every frame a keyframe, a small window (so marginalization runs),
    // a short loop gap, and segment boundaries that reset both backends
    // mid-stream, one of them anchored.
    let cfg = SlamConfig {
        keyframe_interval: 1,
        window_size: 4,
        loop_min_gap: 6,
        vocab_train_min: 150,
        ..SlamConfig::default()
    };
    let mut events = revisit(160, 24, 13);
    let anchor = PoseAnchor {
        pose: circuit_pose(17, 24),
        velocity: Vec3::zero(),
    };
    events.insert(17, Event::Segment(Some(anchor)));
    events.insert(35, Event::Segment(None));
    compare(cfg, &events);
}
