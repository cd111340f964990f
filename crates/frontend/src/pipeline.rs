//! The assembled frontend pipeline with track management and per-task
//! timing.
//!
//! Mirrors the block structure of paper Fig. 12: image filtering (IF) and
//! feature detection (FD) feed descriptor calculation (FC); descriptors
//! from both eyes feed stereo matching (MO + DR); the previous left frame
//! feeds temporal matching (DC + LSS). The pipeline also owns *track
//! identities*: a feature tracked across frames keeps a stable `track_id`,
//! which is what the MSCKF and SLAM backends key their observations on.

use crate::fast::{detect_fast_into, FastConfig, FastScratch};
use crate::feature::{Feature, KeyPoint, OrbDescriptor};
use crate::klt::{track_pyramidal_into, KltConfig, KltScratch, TrackOutcome};
use crate::orb::{compute_orb, OrbConfig};
use crate::stereo::{match_stereo, StereoConfig};
use eudoxus_image::{gaussian_blur_into, FilterScratch, GrayImage, Pyramid};
use eudoxus_telemetry::{SpanScope, TelemetryHub};
use std::time::{Duration, Instant};

/// Frontend parameters.
#[derive(Debug, Clone, Copy, Default)]
pub struct FrontendConfig {
    /// FAST detector settings.
    pub fast: FastConfig,
    /// ORB descriptor settings.
    pub orb: OrbConfig,
    /// Stereo matcher settings.
    pub stereo: StereoConfig,
    /// LK tracker settings.
    pub klt: KltConfig,
    /// Extra knobs with defaults.
    pub tuning: Tuning,
}

/// Secondary frontend knobs.
#[derive(Debug, Clone, Copy)]
pub struct Tuning {
    /// Gaussian σ applied before descriptor calculation (the IF task).
    pub blur_sigma: f32,
    /// Max distance (pixels) to snap an LK-tracked point to a detection.
    pub snap_radius: f32,
    /// Cap on simultaneously live tracks.
    pub max_tracks: usize,
}

impl Default for Tuning {
    fn default() -> Self {
        Tuning {
            blur_sigma: 1.2,
            snap_radius: 3.0,
            max_tracks: 420,
        }
    }
}

/// A per-frame throttling directive issued by the execution engine's
/// control loop and applied by [`Frontend::process`] on the *next* frame.
///
/// Each field caps (never raises) the corresponding [`FrontendConfig`]
/// knob, so a directive can only shrink the workload: the effective
/// budget is `min(config, directive)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameDirective {
    /// Cap on FAST detections per image (clamps `FastConfig::max_keypoints`).
    pub max_keypoints: usize,
    /// Cap on simultaneously live tracks (clamps `Tuning::max_tracks`).
    pub max_tracks: usize,
    /// Cap on KLT pyramid levels (clamps `KltConfig::levels`, min 1).
    pub max_pyramid_levels: usize,
}

impl FrameDirective {
    /// The mildest throttled operating point: a modest trim of the
    /// feature budget with the full pyramid. First rung of the control
    /// loop's severity ladder.
    pub fn mild() -> Self {
        FrameDirective {
            max_keypoints: 600,
            max_tracks: 320,
            max_pyramid_levels: 3,
        }
    }

    /// The default throttled operating point: roughly half the default
    /// feature budget and one fewer pyramid level.
    pub fn throttled() -> Self {
        FrameDirective {
            max_keypoints: 400,
            max_tracks: 210,
            max_pyramid_levels: 2,
        }
    }

    /// The deepest cut: a quarter of the default feature budget on a
    /// single pyramid level. Last rung of the severity ladder, for
    /// frames that keep missing their deadline under
    /// [`throttled`](Self::throttled).
    pub fn severe() -> Self {
        FrameDirective {
            max_keypoints: 250,
            max_tracks: 130,
            max_pyramid_levels: 1,
        }
    }
}

/// Wall-clock time spent in each frontend block for one frame.
///
/// Names follow the accelerator task graph: FD + IF + FC form feature
/// extraction; MO + DR form stereo matching; DC + LSS form temporal
/// matching (paper Fig. 12).
#[derive(Debug, Clone, Copy, Default)]
pub struct FrontendTiming {
    /// Feature point detection (FD) over both images.
    pub detection: Duration,
    /// Image filtering (IF) over both images.
    pub filtering: Duration,
    /// Feature descriptor calculation (FC) over both images.
    pub description: Duration,
    /// Stereo matching: matching optimization + disparity refinement
    /// (MO + DR).
    pub stereo: Duration,
    /// Temporal matching: derivatives + least-squares solves (DC + LSS),
    /// including the rebuild of the current left image's pyramid that
    /// the solves read. The benchmark's `frontend.temporal_ms` layer is
    /// this field, so it includes the rebuild too; the telemetry spans
    /// split it into `pyramid_rebuild` and `track_pyramidal`.
    pub temporal: Duration,
}

impl FrontendTiming {
    /// Total frontend time.
    pub fn total(&self) -> Duration {
        self.detection + self.filtering + self.description + self.stereo + self.temporal
    }

    /// Feature-extraction share (FD + IF + FC).
    pub fn feature_extraction(&self) -> Duration {
        self.detection + self.filtering + self.description
    }
}

/// One per-frame feature observation handed to the backends.
#[derive(Debug, Clone, Copy)]
pub struct Observation {
    /// Persistent track identity (stable across frames while tracked).
    pub track_id: u64,
    /// Sub-pixel position in the left image.
    pub x: f32,
    /// Sub-pixel position in the left image.
    pub y: f32,
    /// Stereo disparity when the feature matched across the pair.
    pub disparity: Option<f32>,
    /// ORB descriptor from the left image.
    pub descriptor: OrbDescriptor,
}

/// Counters describing one processed frame (inputs to the accelerator's
/// analytical model and the runtime scheduler's regressors).
#[derive(Debug, Clone, Copy, Default)]
pub struct FrameStats {
    /// FAST detections in the left image (after bucketing).
    pub keypoints_left: usize,
    /// FAST detections in the right image.
    pub keypoints_right: usize,
    /// Accepted stereo matches.
    pub stereo_matches: usize,
    /// Tracks carried over from the previous frame.
    pub tracks_continued: usize,
    /// Newly spawned tracks this frame.
    pub tracks_spawned: usize,
    /// Tracks that died this frame.
    pub tracks_lost: usize,
}

/// Output of [`Frontend::process`] for one stereo frame.
#[derive(Debug, Clone)]
pub struct FrontendFrame {
    /// Features visible this frame, with persistent identities.
    pub observations: Vec<Observation>,
    /// Per-task wall-clock timings.
    pub timing: FrontendTiming,
    /// Workload counters.
    pub stats: FrameStats,
}

/// A live track (internal state).
#[derive(Debug, Clone, Copy)]
struct Track {
    id: u64,
    x: f32,
    y: f32,
}

/// Per-frame workspaces owned by [`Frontend`], reused across frames so the
/// steady-state hot path performs no heap allocations for the FAST
/// response map, the blur intermediates, the KLT window buffers, or the
/// image pyramids. Buffers grow to the high-water mark of the stream
/// (first frame at each new image size) and stay warm from then on.
///
/// The contract each kernel-level scratch upholds: results are
/// bit-identical to the allocating wrappers, regardless of what the
/// buffers held before the call.
#[derive(Debug, Default)]
pub struct FrontendScratch {
    filter: FilterScratch,
    left_blur: GrayImage,
    right_blur: GrayImage,
    fast: FastScratch,
    kps_left: Vec<KeyPoint>,
    kps_right: Vec<KeyPoint>,
    feats_left: Vec<Feature>,
    feats_right: Vec<Feature>,
    disparity_of: Vec<Option<f32>>,
    klt: KltScratch,
    points: Vec<(f32, f32)>,
    tracked: Vec<TrackOutcome>,
    claimed: Vec<Option<u64>>,
    new_tracks: Vec<Track>,
    /// Pyramid slot the *current* frame's left image is built into; after
    /// the frame it swaps with `Frontend::prev_pyr`, so the two slots
    /// alternate and no pyramid is ever rebuilt for the same image twice.
    spare_pyr: Pyramid,
    /// Optional span recorder: when armed, [`Frontend::process`] stamps
    /// one [`SpanScope::Kernel`] span per kernel invocation (blur, FAST,
    /// ORB, stereo, pyramid rebuild, KLT). Pure observation — the armed
    /// and unarmed paths are bit-identical on every output.
    telemetry: Option<TelemetryHub>,
    /// Frame index stamped on kernel spans (set by the session per frame).
    telemetry_frame: u64,
}

/// The stateful frontend.
///
/// # Example
///
/// ```
/// use eudoxus_frontend::{Frontend, FrontendConfig};
/// use eudoxus_image::GrayImage;
///
/// let mut fe = Frontend::new(FrontendConfig::default());
/// let img = GrayImage::filled(64, 64, 100);
/// let out = fe.process(&img, &img);
/// assert!(out.observations.is_empty()); // textureless input
/// ```
#[derive(Debug)]
pub struct Frontend {
    config: FrontendConfig,
    /// Pyramid of the previous frame's left image — the temporal-matching
    /// template. Cached so KLT builds one pyramid per frame (the current
    /// left) instead of two plus a full-image clone.
    prev_pyr: Option<Pyramid>,
    tracks: Vec<Track>,
    next_id: u64,
    scratch: FrontendScratch,
    /// Throttle directive in force for the next processed frame; `None`
    /// leaves every budget at its configured value (the untouched path
    /// is bit-identical to a frontend that has never seen a directive).
    directive: Option<FrameDirective>,
}

impl Frontend {
    /// Creates a frontend with the given configuration.
    pub fn new(config: FrontendConfig) -> Self {
        Frontend {
            config,
            prev_pyr: None,
            tracks: Vec::new(),
            next_id: 0,
            scratch: FrontendScratch::default(),
            directive: None,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &FrontendConfig {
        &self.config
    }

    /// Sets (or clears) the throttle directive applied to the next frame.
    pub fn set_directive(&mut self, directive: Option<FrameDirective>) {
        self.directive = directive;
    }

    /// The directive currently in force, if any.
    pub fn directive(&self) -> Option<FrameDirective> {
        self.directive
    }

    /// Arms (or disarms) per-kernel span recording. The handle lives in
    /// the scratch: the kernels themselves keep their signatures, and a
    /// disarmed frontend never touches the clock.
    pub fn set_telemetry(&mut self, telemetry: Option<TelemetryHub>) {
        self.scratch.telemetry = telemetry;
    }

    /// Sets the frame index stamped on subsequent kernel spans.
    pub fn set_telemetry_frame(&mut self, frame_idx: u64) {
        self.scratch.telemetry_frame = frame_idx;
    }

    /// Number of currently live tracks.
    pub fn live_tracks(&self) -> usize {
        self.tracks.len()
    }

    /// Resets all state (used at dataset segment boundaries). Scratch
    /// buffers stay warm — reuse across segments cannot affect results
    /// (every buffer is fully rewritten or cleared per frame).
    pub fn reset(&mut self) {
        // Park the cached pyramid for reuse rather than dropping it.
        if let Some(pyr) = self.prev_pyr.take() {
            self.scratch.spare_pyr = pyr;
        }
        self.tracks.clear();
    }

    /// Processes one stereo frame, returning observations with persistent
    /// track identities plus timing and workload counters.
    ///
    /// Steady state (after the first frame at a given image size) this
    /// performs no heap allocations for the FAST response maps, the blur
    /// buffers, or the image pyramids: all of that lives in the owned
    /// [`FrontendScratch`], and the previous left pyramid is carried over
    /// from the last frame instead of being rebuilt from a clone.
    pub fn process(&mut self, left: &GrayImage, right: &GrayImage) -> FrontendFrame {
        let cfg = &self.config;
        let directive = self.directive;
        // Effective budgets: a directive can only shrink the configured
        // ones, never raise them.
        let fast_cfg = match directive {
            Some(d) => FastConfig {
                max_keypoints: cfg.fast.max_keypoints.min(d.max_keypoints),
                ..cfg.fast
            },
            None => cfg.fast,
        };
        let klt_levels = match directive {
            Some(d) => cfg.klt.levels.min(d.max_pyramid_levels.max(1)),
            None => cfg.klt.levels,
        };
        let max_tracks = match directive {
            Some(d) => cfg.tuning.max_tracks.min(d.max_tracks),
            None => cfg.tuning.max_tracks,
        };
        let mut timing = FrontendTiming::default();
        let mut stats = FrameStats::default();

        // Span bracketing: an Arc bump per frame when armed, nothing at
        // all when not. Spans are stamped by the hub's clock (wall or
        // model) independently of the `Instant` timing fields.
        let telemetry = self.scratch.telemetry.clone();
        let span_frame = self.scratch.telemetry_frame;
        let span_open = || telemetry.as_ref().map(|hub| hub.start());
        let span_close = |kernel: &'static str, start: Option<u64>| {
            if let (Some(hub), Some(start)) = (telemetry.as_ref(), start) {
                hub.record(SpanScope::Kernel, kernel, span_frame, start);
            }
        };

        // IF: smooth both images for descriptor sampling.
        let s = span_open();
        let t = Instant::now();
        gaussian_blur_into(
            left,
            cfg.tuning.blur_sigma,
            &mut self.scratch.filter,
            &mut self.scratch.left_blur,
        );
        gaussian_blur_into(
            right,
            cfg.tuning.blur_sigma,
            &mut self.scratch.filter,
            &mut self.scratch.right_blur,
        );
        timing.filtering = t.elapsed();
        span_close("gaussian_blur", s);

        // FD: detect on both raw images.
        let s = span_open();
        let t = Instant::now();
        detect_fast_into(left, &fast_cfg, &mut self.scratch.fast, &mut self.scratch.kps_left);
        detect_fast_into(right, &fast_cfg, &mut self.scratch.fast, &mut self.scratch.kps_right);
        timing.detection = t.elapsed();
        span_close("detect_fast", s);
        stats.keypoints_left = self.scratch.kps_left.len();
        stats.keypoints_right = self.scratch.kps_right.len();

        // FC: describe on the blurred images; drop border points.
        let s = span_open();
        let t = Instant::now();
        self.scratch.feats_left.clear();
        self.scratch.feats_left.extend(self.scratch.kps_left.iter().filter_map(|kp| {
            compute_orb(&self.scratch.left_blur, kp, &cfg.orb).map(|descriptor| Feature {
                keypoint: *kp,
                descriptor,
            })
        }));
        self.scratch.feats_right.clear();
        self.scratch.feats_right.extend(self.scratch.kps_right.iter().filter_map(|kp| {
            compute_orb(&self.scratch.right_blur, kp, &cfg.orb).map(|descriptor| Feature {
                keypoint: *kp,
                descriptor,
            })
        }));
        timing.description = t.elapsed();
        span_close("compute_orb", s);

        // MO + DR: spatial correspondences.
        let s = span_open();
        let t = Instant::now();
        let stereo = match_stereo(
            &self.scratch.feats_left,
            &self.scratch.feats_right,
            left,
            right,
            &cfg.stereo,
        );
        timing.stereo = t.elapsed();
        span_close("match_stereo", s);
        stats.stereo_matches = stereo.len();
        self.scratch.disparity_of.clear();
        self.scratch.disparity_of.resize(self.scratch.feats_left.len(), None);
        for m in &stereo {
            self.scratch.disparity_of[m.left_index] = Some(m.disparity);
        }

        // DC + LSS: temporal correspondences for live tracks. The current
        // left pyramid is built once into the spare slot; the previous
        // frame's pyramid (cached, not rebuilt) provides the template.
        let t = Instant::now();
        let s = span_open();
        let mut cur_pyr = std::mem::take(&mut self.scratch.spare_pyr);
        cur_pyr.rebuild_from(left, klt_levels);
        span_close("pyramid_rebuild", s);
        let s = span_open();
        self.scratch.tracked.clear();
        if let Some(prev_pyr) = &self.prev_pyr {
            if !self.tracks.is_empty() {
                self.scratch.points.clear();
                self.scratch.points.extend(self.tracks.iter().map(|tr| (tr.x, tr.y)));
                track_pyramidal_into(
                    prev_pyr,
                    &cur_pyr,
                    &self.scratch.points,
                    &cfg.klt,
                    &mut self.scratch.klt,
                    &mut self.scratch.tracked,
                );
            }
        }
        timing.temporal = t.elapsed();
        span_close("track_pyramidal", s);

        // Associate: snap each tracked point to the nearest detection.
        let snap2 = cfg.tuning.snap_radius * cfg.tuning.snap_radius;
        self.scratch.claimed.clear();
        self.scratch.claimed.resize(self.scratch.feats_left.len(), None);
        self.scratch.new_tracks.clear();
        let mut observations: Vec<Observation> = Vec::new();
        for (ti, track) in self.tracks.iter().enumerate() {
            // `tracked` is empty (not length-matched) when temporal
            // matching did not run; every track then counts as lost,
            // matching the pre-scratch behavior.
            let Some((tx, ty)) = self.scratch.tracked.get(ti).and_then(|o| o.position()) else {
                stats.tracks_lost += 1;
                continue;
            };
            // Nearest unclaimed detection within the snap radius.
            let probe = KeyPoint::new(tx, ty, 0.0);
            let mut best: Option<(usize, f32)> = None;
            for (fi, f) in self.scratch.feats_left.iter().enumerate() {
                if self.scratch.claimed[fi].is_some() {
                    continue;
                }
                let d2 = f.keypoint.distance_squared(&probe);
                if d2 <= snap2 && best.is_none_or(|(_, bd)| d2 < bd) {
                    best = Some((fi, d2));
                }
            }
            match best {
                Some((fi, _)) => {
                    self.scratch.claimed[fi] = Some(track.id);
                    let f = &self.scratch.feats_left[fi];
                    observations.push(Observation {
                        track_id: track.id,
                        x: f.keypoint.x,
                        y: f.keypoint.y,
                        disparity: self.scratch.disparity_of[fi],
                        descriptor: f.descriptor,
                    });
                    self.scratch.new_tracks.push(Track {
                        id: track.id,
                        x: f.keypoint.x,
                        y: f.keypoint.y,
                    });
                    stats.tracks_continued += 1;
                }
                None => {
                    // No detection nearby (the detector's spatial
                    // bucketing is view-dependent); keep the track alive at
                    // the LK position, as production frontends do —
                    // detection only *replenishes* tracks, it does not
                    // gate them.
                    let kp = KeyPoint::new(tx, ty, 0.0);
                    match compute_orb(&self.scratch.left_blur, &kp, &cfg.orb) {
                        Some(descriptor) => {
                            observations.push(Observation {
                                track_id: track.id,
                                x: tx,
                                y: ty,
                                disparity: None,
                                descriptor,
                            });
                            self.scratch.new_tracks.push(Track {
                                id: track.id,
                                x: tx,
                                y: ty,
                            });
                            stats.tracks_continued += 1;
                        }
                        None => stats.tracks_lost += 1,
                    }
                }
            }
        }

        // Spawn tracks on unclaimed detections (strongest first — the
        // detection list is already response-ordered).
        for (fi, f) in self.scratch.feats_left.iter().enumerate() {
            if self.scratch.new_tracks.len() >= max_tracks {
                break;
            }
            if self.scratch.claimed[fi].is_some() {
                continue;
            }
            let id = self.next_id;
            self.next_id += 1;
            self.scratch.claimed[fi] = Some(id);
            observations.push(Observation {
                track_id: id,
                x: f.keypoint.x,
                y: f.keypoint.y,
                disparity: self.scratch.disparity_of[fi],
                descriptor: f.descriptor,
            });
            self.scratch.new_tracks.push(Track {
                id,
                x: f.keypoint.x,
                y: f.keypoint.y,
            });
            stats.tracks_spawned += 1;
        }

        std::mem::swap(&mut self.tracks, &mut self.scratch.new_tracks);
        // Rotate pyramid slots: the old template becomes next frame's
        // spare buffer, the current left pyramid becomes the template.
        self.scratch.spare_pyr = self.prev_pyr.take().unwrap_or_default();
        self.prev_pyr = Some(cur_pyr);

        FrontendFrame {
            observations,
            timing,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An image with a grid of distinct textured blobs, shifted by
    /// `(sx, sy)` — a miniature of what `eudoxus-sim` renders.
    fn blob_grid(sx: f32, sy: f32) -> GrayImage {
        let mut img = GrayImage::filled(160, 120, 110);
        for by in 0..3u64 {
            for bx in 0..4u64 {
                let cx = 24.0 + bx as f32 * 36.0 + sx;
                let cy = 20.0 + by as f32 * 36.0 + sy;
                let id = by * 4 + bx;
                for dy in -6i64..=6 {
                    for dx in -6i64..=6 {
                        let px = (cx + dx as f32).round() as i64;
                        let py = (cy + dy as f32).round() as i64;
                        if px < 0 || py < 0 || px >= 160 || py >= 120 {
                            continue;
                        }
                        if dx * dx + dy * dy > 36 {
                            continue;
                        }
                        let tex = eudoxus_sim::rng::hash_u8(id, dx as u64, dy as u64) as i64;
                        let v = (110 + (tex - 128)).clamp(0, 255) as u8;
                        img.put(px as u32, py as u32, v);
                    }
                }
            }
        }
        img
    }

    fn stereo_pair(shift: f32, disparity: f32) -> (GrayImage, GrayImage) {
        (blob_grid(shift, 0.0), blob_grid(shift - disparity, 0.0))
    }

    #[test]
    fn first_frame_spawns_tracks() {
        let mut fe = Frontend::new(FrontendConfig::default());
        let (l, r) = stereo_pair(0.0, 6.0);
        let out = fe.process(&l, &r);
        assert!(out.observations.len() >= 8, "only {} obs", out.observations.len());
        assert_eq!(out.stats.tracks_spawned, out.observations.len());
        assert_eq!(out.stats.tracks_continued, 0);
        // Most features should have stereo depth.
        let with_depth = out.observations.iter().filter(|o| o.disparity.is_some()).count();
        assert!(with_depth * 2 >= out.observations.len());
    }

    #[test]
    fn second_frame_continues_tracks() {
        let mut fe = Frontend::new(FrontendConfig::default());
        let (l0, r0) = stereo_pair(0.0, 6.0);
        let first = fe.process(&l0, &r0);
        let (l1, r1) = stereo_pair(2.0, 6.0);
        let second = fe.process(&l1, &r1);
        assert!(
            second.stats.tracks_continued >= first.observations.len() / 2,
            "continued {} of {}",
            second.stats.tracks_continued,
            first.observations.len()
        );
        // Continued observations keep their ids.
        let ids0: std::collections::HashSet<u64> =
            first.observations.iter().map(|o| o.track_id).collect();
        let kept = second
            .observations
            .iter()
            .filter(|o| ids0.contains(&o.track_id))
            .count();
        assert_eq!(kept, second.stats.tracks_continued);
    }

    #[test]
    fn stereo_disparity_is_recovered() {
        let mut fe = Frontend::new(FrontendConfig::default());
        let (l, r) = stereo_pair(0.0, 6.0);
        let out = fe.process(&l, &r);
        let disparities: Vec<f32> = out.observations.iter().filter_map(|o| o.disparity).collect();
        assert!(!disparities.is_empty());
        for d in disparities {
            assert!((d - 6.0).abs() < 1.0, "disparity {d}");
        }
    }

    #[test]
    fn reset_clears_tracks() {
        let mut fe = Frontend::new(FrontendConfig::default());
        let (l, r) = stereo_pair(0.0, 6.0);
        fe.process(&l, &r);
        assert!(fe.live_tracks() > 0);
        fe.reset();
        assert_eq!(fe.live_tracks(), 0);
        let out = fe.process(&l, &r);
        assert_eq!(out.stats.tracks_continued, 0);
    }

    #[test]
    fn timing_fields_are_populated() {
        let mut fe = Frontend::new(FrontendConfig::default());
        let (l, r) = stereo_pair(0.0, 6.0);
        let out = fe.process(&l, &r);
        assert!(out.timing.total() > Duration::ZERO);
        assert!(out.timing.feature_extraction() >= out.timing.detection);
    }

    #[test]
    fn directive_caps_the_feature_budget() {
        let mut fe = Frontend::new(FrontendConfig::default());
        fe.set_directive(Some(FrameDirective {
            max_keypoints: 6,
            max_tracks: 4,
            max_pyramid_levels: 1,
        }));
        let (l, r) = stereo_pair(0.0, 6.0);
        let out = fe.process(&l, &r);
        assert!(out.stats.keypoints_left <= 6, "kp {}", out.stats.keypoints_left);
        assert!(out.observations.len() <= 4, "obs {}", out.observations.len());
        // Clearing the directive restores the configured budgets.
        fe.set_directive(None);
        let out = fe.process(&l, &r);
        assert!(out.stats.keypoints_left > 6);
    }

    #[test]
    fn telemetry_spans_cover_every_kernel_and_change_nothing() {
        use eudoxus_telemetry::TelemetryConfig;

        let mut plain = Frontend::new(FrontendConfig::default());
        let mut armed = Frontend::new(FrontendConfig::default());
        let hub = TelemetryHub::new(TelemetryConfig::deterministic(1_000));
        armed.set_telemetry(Some(hub.clone()));
        for (i, shift) in [0.0f32, 2.0, 4.0].into_iter().enumerate() {
            armed.set_telemetry_frame(i as u64);
            let (l, r) = stereo_pair(shift, 6.0);
            let a = plain.process(&l, &r);
            let b = armed.process(&l, &r);
            // Observation-only: arming never perturbs the outputs.
            assert_eq!(a.observations.len(), b.observations.len());
            for (oa, ob) in a.observations.iter().zip(&b.observations) {
                assert_eq!(oa.track_id, ob.track_id);
                assert_eq!(oa.x.to_bits(), ob.x.to_bits());
                assert_eq!(oa.y.to_bits(), ob.y.to_bits());
            }
        }
        let spans = hub.drain();
        // Six kernel spans per frame, stamped with the frame index.
        assert_eq!(spans.len(), 3 * 6);
        for kernel in [
            "gaussian_blur",
            "detect_fast",
            "compute_orb",
            "match_stereo",
            "pyramid_rebuild",
            "track_pyramidal",
        ] {
            assert_eq!(
                spans.iter().filter(|s| s.kernel == kernel).count(),
                3,
                "missing spans for {kernel}"
            );
        }
        assert!(spans.iter().all(|s| s.scope == SpanScope::Kernel));
        assert_eq!(spans.iter().filter(|s| s.frame_idx == 2).count(), 6);
    }

    #[test]
    fn track_cap_is_enforced() {
        let mut cfg = FrontendConfig::default();
        cfg.tuning.max_tracks = 5;
        let mut fe = Frontend::new(cfg);
        let (l, r) = stereo_pair(0.0, 6.0);
        let out = fe.process(&l, &r);
        assert!(out.observations.len() <= 5);
    }
}
