//! Seed SLAM backend: the eager loop-closure index.
//!
//! Copied verbatim from the seed `eudoxus_backend::slam` module. This
//! `Slam` appends every keyframe's descriptors to its corpus for the
//! whole session, trains the vocabulary as soon as the corpus reaches
//! `vocab_train_min`, backfills the keyframe database at once and queries
//! it at every keyframe after, even where no candidate can pass the
//! `loop_min_gap` test. The golden test (`tests/slam_identity.rs`) drives
//! it and the live backend through the same input streams and notices
//! any change to poses, loop closures or the persisted map. Only the
//! type's name differs; it reuses the live configuration, solvers and
//! vocabulary.

use eudoxus_backend::kernels::{Kernel, KernelTimer};
use eudoxus_backend::pose_opt::{optimize_pose, PoseObservation};
use eudoxus_backend::slam::{
    align_point_sets, marginalize_keyframe, solve_lm, BaObservation, BaProblem, PosePrior,
};
use eudoxus_backend::{
    Backend, BackendEstimate, BackendInput, BackendMode, MapKeyframe, MapPoint, SlamConfig,
    WorldMap,
};
use eudoxus_frontend::OrbDescriptor;
use eudoxus_geometry::{Pose, Vec2, Vec3};
use eudoxus_vocab::{KeyframeDatabase, Vocabulary, VocabularyConfig};
use std::collections::{HashMap, VecDeque};

/// A mapped landmark.
#[derive(Debug, Clone, Copy)]
struct LandmarkData {
    position: Vec3,
    descriptor: OrbDescriptor,
}

/// One keyframe in the window or archive.
#[derive(Debug, Clone)]
struct KeyframeData {
    id: u64,
    pose: Pose,
    /// `(track_id, pixel, disparity)` observations of mapped landmarks.
    obs: Vec<(u64, Vec2, Option<f64>)>,
    descriptors: Vec<OrbDescriptor>,
}

/// The seed SLAM backend.
#[derive(Debug)]
pub struct SlamBaseline {
    cfg: SlamConfig,
    frame_count: u64,
    next_kf_id: u64,
    pose: Pose,
    last_pose: Option<Pose>,
    motion: Pose,
    landmarks: HashMap<u64, LandmarkData>,
    window: VecDeque<KeyframeData>,
    archived: Vec<KeyframeData>,
    prior: Option<PosePrior>,
    prior_kf_ids: Vec<u64>,
    vocab: Option<Vocabulary>,
    db: KeyframeDatabase,
    corpus: Vec<OrbDescriptor>,
    initial: Option<Pose>,
    initialized: bool,
    loops_closed: usize,
    /// Stereo baseline of the rig (captured from the first input).
    baseline: f64,
}

impl SlamBaseline {
    /// Creates an uninitialized SLAM backend.
    pub fn new(cfg: SlamConfig) -> Self {
        SlamBaseline {
            cfg,
            frame_count: 0,
            next_kf_id: 0,
            pose: Pose::identity(),
            last_pose: None,
            motion: Pose::identity(),
            landmarks: HashMap::new(),
            window: VecDeque::new(),
            archived: Vec::new(),
            prior: None,
            prior_kf_ids: Vec::new(),
            vocab: None,
            db: KeyframeDatabase::new(),
            corpus: Vec::new(),
            initial: None,
            initialized: false,
            loops_closed: 0,
            baseline: 0.0,
        }
    }

    /// Sets the pose the map is anchored at (first frame).
    pub fn set_initial_pose(&mut self, pose: Pose) {
        self.initial = Some(pose);
    }

    /// Number of mapped landmarks.
    pub fn landmark_count(&self) -> usize {
        self.landmarks.len()
    }

    /// Number of keyframes created so far.
    pub fn keyframe_count(&self) -> u64 {
        self.next_kf_id
    }

    /// Loop closures performed so far.
    pub fn loops_closed(&self) -> usize {
        self.loops_closed
    }

    /// Exports the accumulated map for later registration (paper:
    /// "persist map (optional)").
    pub fn persist_map(&self) -> WorldMap {
        let mut points: Vec<MapPoint> = self
            .landmarks
            .iter()
            .map(|(&id, l)| MapPoint {
                id,
                position: l.position,
                descriptor: l.descriptor,
            })
            .collect();
        // `HashMap` order differs per process, and registration builds
        // its vocabulary and greedy matches in map order: sort by id so
        // the same survey persists the same map.
        points.sort_unstable_by_key(|p| p.id);
        let keyframes = self
            .archived
            .iter()
            .chain(self.window.iter())
            .map(|k| MapKeyframe {
                id: k.id,
                pose: k.pose,
                point_ids: k.obs.iter().map(|&(tid, _, _)| tid).collect(),
            })
            .collect();
        WorldMap { points, keyframes }
    }

    /// Builds the local BA problem over the current window. Returns the
    /// problem plus the landmark ids backing each landmark index.
    fn build_window_problem(
        &self,
        camera: &eudoxus_geometry::PinholeCamera,
    ) -> (BaProblem, Vec<u64>) {
        // Landmarks observed by ≥ 2 window keyframes.
        let mut count: HashMap<u64, usize> = HashMap::new();
        for kf in &self.window {
            for &(tid, _, _) in &kf.obs {
                *count.entry(tid).or_insert(0) += 1;
            }
        }
        let mut lm_ids: Vec<u64> = count
            .iter()
            .filter(|&(tid, &c)| c >= 2 && self.landmarks.contains_key(tid))
            .map(|(&tid, _)| tid)
            .collect();
        lm_ids.sort_unstable();
        let lm_index: HashMap<u64, usize> =
            lm_ids.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        let mut observations = Vec::new();
        for (ki, kf) in self.window.iter().enumerate() {
            for &(tid, px, disparity) in &kf.obs {
                if let Some(&li) = lm_index.get(&tid) {
                    observations.push(BaObservation {
                        kf: ki,
                        landmark: li,
                        pixel: px,
                        disparity,
                    });
                }
            }
        }
        let poses: Vec<Pose> = self.window.iter().map(|k| k.pose).collect();
        let n = poses.len();
        let fixed: Vec<bool> = (0..n).map(|i| i == 0).collect();
        let landmarks: Vec<Vec3> = lm_ids
            .iter()
            .map(|tid| self.landmarks[tid].position)
            .collect();
        (
            BaProblem {
                camera: *camera,
                baseline: self.baseline,
                poses,
                fixed,
                landmarks,
                observations,
            },
            lm_ids,
        )
    }

    /// Remaps the stored prior's keyframe ids onto current window indices.
    fn remapped_prior(&self) -> Option<PosePrior> {
        let prior = self.prior.as_ref()?;
        let mut kf_indices = Vec::with_capacity(self.prior_kf_ids.len());
        for kid in &self.prior_kf_ids {
            let idx = self.window.iter().position(|k| k.id == *kid)?;
            kf_indices.push(idx);
        }
        Some(PosePrior {
            kf_indices,
            information: prior.information.clone(),
            linearization: prior.linearization.clone(),
        })
    }

    /// Attempts loop closure for the newest keyframe; returns the number of
    /// matched point pairs used (0 when no loop fired).
    fn try_loop_closure(&mut self) -> usize {
        let Some(vocab) = &self.vocab else { return 0 };
        let Some(current) = self.window.back() else {
            return 0;
        };
        let bow = vocab.bow(&current.descriptors);
        let hits = self.db.query(&bow, 3);
        let candidate = hits.into_iter().find(|h| {
            h.score >= self.cfg.loop_min_score
                && current.id.saturating_sub(h.doc_id) >= self.cfg.loop_min_gap
        });
        let Some(hit) = candidate else { return 0 };
        let Some(old_kf) = self
            .archived
            .iter()
            .chain(self.window.iter())
            .find(|k| k.id == hit.doc_id)
            .cloned()
        else {
            return 0;
        };
        // Match current landmarks against the old keyframe's landmarks by
        // descriptor distance.
        let mut pairs_from = Vec::new();
        let mut pairs_to = Vec::new();
        for &(tid_new, _, _) in &current.obs {
            let Some(lm_new) = self.landmarks.get(&tid_new) else {
                continue;
            };
            let mut best: Option<(u64, u32)> = None;
            for &(tid_old, _, _) in &old_kf.obs {
                if tid_old == tid_new {
                    continue; // same physical track — no drift info
                }
                let Some(lm_old) = self.landmarks.get(&tid_old) else {
                    continue;
                };
                let d = lm_new.descriptor.hamming(&lm_old.descriptor);
                if d <= self.cfg.loop_max_hamming && best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((tid_old, d));
                }
            }
            if let Some((tid_old, _)) = best {
                pairs_from.push(lm_new.position);
                pairs_to.push(self.landmarks[&tid_old].position);
            }
        }
        if pairs_from.len() < 6 {
            return 0;
        }
        let Some(correction) = align_point_sets(&pairs_from, &pairs_to) else {
            return 0;
        };
        // Apply the drift correction to the live state: current pose and
        // every window keyframe.
        self.pose = correction * self.pose;
        for kf in &mut self.window {
            kf.pose = correction * kf.pose;
        }
        self.loops_closed += 1;
        pairs_from.len()
    }
}

impl Backend for SlamBaseline {
    fn mode(&self) -> BackendMode {
        BackendMode::Slam
    }

    fn begin_segment(&mut self, anchor: Option<eudoxus_geometry::PoseAnchor>) {
        self.reset();
        // The anchor replaces any previous segment's: an unanchored
        // segment maps from identity, not from stale state.
        self.initial = anchor.map(|a| a.pose);
    }

    fn step(&mut self, input: &BackendInput<'_>) -> BackendEstimate {
        let mut timer = KernelTimer::new();
        let camera = input.rig.camera;
        self.baseline = input.rig.baseline;
        if !self.initialized {
            self.pose = self.initial.unwrap_or_else(Pose::identity);
            self.initialized = true;
        } else {
            self.pose = self.pose * self.motion; // constant-velocity prediction
        }

        // --- Tracking + landmark initialization ("Init."/"Others"). ---
        let mut tracking = true;
        timer.time(Kernel::SlamInit, input.observations.len(), || {
            let matches: Vec<PoseObservation> = input
                .observations
                .iter()
                .filter_map(|o| {
                    self.landmarks.get(&o.track_id).map(|lm| PoseObservation {
                        world: lm.position,
                        pixel: Vec2::new(o.x as f64, o.y as f64),
                    })
                })
                .collect();
            if matches.len() >= 6 {
                if let Some(result) =
                    optimize_pose(&camera, self.pose, &matches, &self.cfg.pose_opt)
                {
                    self.pose = result.pose;
                }
            } else if self.frame_count > 0 {
                tracking = false;
            }
            // Initialize landmarks from stereo depth.
            for o in input.observations {
                if self.landmarks.contains_key(&o.track_id) {
                    continue;
                }
                let Some(disp) = o.disparity else { continue };
                let Some(depth) = input.rig.depth_from_disparity(disp as f64) else {
                    continue;
                };
                if !(0.3..80.0).contains(&depth) {
                    continue;
                }
                let p_cam = camera.unproject_depth(Vec2::new(o.x as f64, o.y as f64), depth);
                self.landmarks.insert(
                    o.track_id,
                    LandmarkData {
                        position: self.pose.transform(p_cam),
                        descriptor: o.descriptor,
                    },
                );
            }
        });

        // --- Keyframe path: mapping, marginalization, loop closure. ---
        if self
            .frame_count
            .is_multiple_of(self.cfg.keyframe_interval as u64)
        {
            // Only observations consistent with the current map enter the
            // keyframe (mistracked features otherwise poison BA).
            let obs: Vec<(u64, Vec2, Option<f64>)> = input
                .observations
                .iter()
                .filter_map(|o| {
                    let lm = self.landmarks.get(&o.track_id)?;
                    let px = Vec2::new(o.x as f64, o.y as f64);
                    let p_cam = self.pose.inverse_transform(lm.position);
                    let pred = camera.project(p_cam)?;
                    ((pred - px).norm() < 6.0).then_some((
                        o.track_id,
                        px,
                        o.disparity.map(f64::from),
                    ))
                })
                .collect();
            let descriptors: Vec<OrbDescriptor> =
                input.observations.iter().map(|o| o.descriptor).collect();
            let kf = KeyframeData {
                id: self.next_kf_id,
                pose: self.pose,
                obs,
                descriptors: descriptors.clone(),
            };
            self.next_kf_id += 1;
            self.window.push_back(kf);

            // [Solver] local bundle adjustment over the window.
            if self.window.len() >= 2 {
                let (mut problem, lm_ids) = self.build_window_problem(&camera);
                let prior = self.remapped_prior();
                let n_obs = problem.observations.len();
                timer.time(Kernel::Solver, n_obs, || {
                    solve_lm(&mut problem, &self.cfg.lm, prior.as_ref());
                });
                for (ki, kf) in self.window.iter_mut().enumerate() {
                    kf.pose = problem.poses[ki];
                }
                for (li, tid) in lm_ids.iter().enumerate() {
                    if let Some(lm) = self.landmarks.get_mut(tid) {
                        lm.position = problem.landmarks[li];
                    }
                }
                self.pose = self.window.back().expect("window non-empty").pose;
            }

            // [Marginalization] slide the window.
            if self.window.len() > self.cfg.window_size {
                let (problem, lm_ids) = self.build_window_problem(&camera);
                // Landmarks seen only by the oldest keyframe within the
                // window get marginalized with it.
                let mut seen_later = vec![false; lm_ids.len()];
                for o in &problem.observations {
                    if o.kf > 0 {
                        seen_later[o.landmark] = true;
                    }
                }
                let exclusive: Vec<usize> = (0..lm_ids.len()).filter(|&i| !seen_later[i]).collect();
                let remaining: Vec<usize> = (1..self.window.len()).collect();
                let marg_size = 3 * exclusive.len() + 6;
                let result = timer.time(Kernel::Marginalization, marg_size, || {
                    marginalize_keyframe(
                        &camera,
                        &problem.poses,
                        &problem.landmarks,
                        &problem.observations,
                        0,
                        &exclusive,
                        &remaining,
                    )
                });
                if let Some((prior, _)) = result {
                    self.prior_kf_ids = remaining.iter().map(|&i| self.window[i].id).collect();
                    self.prior = Some(prior);
                }
                let old = self.window.pop_front().expect("window non-empty");
                self.archived.push(old);
            }

            // Vocabulary training + loop closure (bookkeeping time lands on
            // the Init kernel).
            timer.time(Kernel::SlamInit, descriptors.len(), || {
                self.corpus.extend(descriptors.iter().copied());
                if self.vocab.is_none() && self.corpus.len() >= self.cfg.vocab_train_min {
                    let mut vocab =
                        Vocabulary::train(&self.corpus, &VocabularyConfig::default(), 17);
                    let docs: Vec<Vec<OrbDescriptor>> = self
                        .archived
                        .iter()
                        .chain(self.window.iter())
                        .map(|k| k.descriptors.clone())
                        .collect();
                    vocab.reweight_idf(&docs);
                    // Backfill the database.
                    for kf in self.archived.iter().chain(self.window.iter()) {
                        self.db.insert(kf.id, vocab.bow(&kf.descriptors));
                    }
                    self.vocab = Some(vocab);
                }
                self.try_loop_closure();
                if let (Some(vocab), Some(kf)) = (&self.vocab, self.window.back()) {
                    self.db.insert(kf.id, vocab.bow(&kf.descriptors));
                }
            });
        }

        // Constant-velocity motion model update.
        if let Some(last) = self.last_pose {
            self.motion = last.between(self.pose);
        }
        self.last_pose = Some(self.pose);
        self.frame_count += 1;

        BackendEstimate {
            pose: self.pose,
            kernels: timer.into_samples(),
            tracking,
        }
    }

    fn reset(&mut self) {
        let cfg = self.cfg;
        let initial = self.initial;
        *self = SlamBaseline::new(cfg);
        self.initial = initial;
    }

    fn persist_map(&self) -> Option<WorldMap> {
        Some(SlamBaseline::persist_map(self))
    }
}
