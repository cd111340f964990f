//! Assembled sensor datasets (frames + IMU + GPS + ground truth).
//!
//! The event *model* (`SensorEvent`, `ImageEvent`, `FrameData`,
//! `Segment`) lives in `eudoxus-stream`; this module owns what is
//! genuinely simulator-side: the [`Dataset`] container and its replay
//! adapters ([`Dataset::events`] for a flat iterator, [`Dataset::source`]
//! for a backpressure-aware [`EventSource`]).

use eudoxus_geometry::{Pose, PoseAnchor, StereoRig, Vec3};
use eudoxus_stream::source::{EventSource, IterSource, SourcePoll};
use eudoxus_stream::{FrameData, GpsSample, ImageEvent, ImuSample, Segment, SensorEvent};
use std::sync::Arc;

/// A complete synthetic dataset: the substitution for KITTI / EuRoC /
/// the in-house recordings (see DESIGN.md §1).
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Human-readable name (e.g. `"outdoor-unknown[car]"`).
    pub name: String,
    /// Stereo rig that captured the frames.
    pub rig: StereoRig,
    /// Nominal camera frame rate (Hz).
    pub fps: f64,
    /// Stereo frames in time order.
    pub frames: Vec<FrameData>,
    /// IMU samples in time order (200 Hz by default).
    pub imu: Vec<ImuSample>,
    /// GPS fixes in time order (empty indoors).
    pub gps: Vec<GpsSample>,
    /// Ground-truth body pose per frame.
    pub ground_truth: Vec<Pose>,
    /// Environment segments, in frame order.
    pub segments: Vec<Segment>,
}

impl Dataset {
    /// Total time span covered by the frames (seconds).
    pub fn duration(&self) -> f64 {
        match (self.frames.first(), self.frames.last()) {
            (Some(a), Some(b)) => b.t - a.t,
            _ => 0.0,
        }
    }

    /// IMU samples with `t0 < t ≤ t1` (the integration window between two
    /// consecutive frames).
    pub fn imu_between(&self, t0: f64, t1: f64) -> &[ImuSample] {
        let lo = self.imu.partition_point(|s| s.t <= t0);
        let hi = self.imu.partition_point(|s| s.t <= t1);
        &self.imu[lo..hi]
    }

    /// GPS fixes with `t0 < t ≤ t1`.
    pub fn gps_between(&self, t0: f64, t1: f64) -> &[GpsSample] {
        let lo = self.gps.partition_point(|s| s.t <= t0);
        let hi = self.gps.partition_point(|s| s.t <= t1);
        &self.gps[lo..hi]
    }

    /// The segment containing `frame_index`.
    ///
    /// # Panics
    ///
    /// Panics on an empty dataset or out-of-range index.
    pub fn segment_of(&self, frame_index: usize) -> Segment {
        assert!(frame_index < self.frames.len(), "frame index out of range");
        let i = self
            .segments
            .partition_point(|s| s.start_frame <= frame_index);
        self.segments[i - 1]
    }

    /// True when `frame_index` starts a new segment (estimators reset here).
    pub fn is_segment_start(&self, frame_index: usize) -> bool {
        self.segments.iter().any(|s| s.start_frame == frame_index)
    }

    /// The anchor a segment starting at `frame_index` re-initializes
    /// estimators with: the ground-truth pose there, with velocity from
    /// the first two poses of the segment (standard evaluation practice).
    /// A single-frame segment anchors at rest — differencing across the
    /// segment boundary would fabricate a velocity between unrelated
    /// traversals.
    pub fn segment_anchor(&self, frame_index: usize) -> PoseAnchor {
        let gt = self.ground_truth[frame_index];
        let segment_end = self
            .segments
            .iter()
            .map(|s| s.start_frame)
            .filter(|&start| start > frame_index)
            .min()
            .unwrap_or(self.ground_truth.len());
        let velocity = if frame_index + 1 < segment_end {
            (self.ground_truth[frame_index + 1].translation - gt.translation) * self.fps
        } else {
            Vec3::zero()
        };
        PoseAnchor::new(gt, velocity)
    }

    /// Replays the dataset as a live sensor stream: for each frame, a
    /// [`SensorEvent::SegmentBoundary`] when a new segment starts, then
    /// the IMU readings and GPS fixes of the inter-frame window (`t_prev <
    /// t ≤ t_frame`, exactly the windows the batch pipeline consumes), and
    /// finally the [`SensorEvent::Image`] itself. Feeding these events
    /// one at a time into a `LocalizationSession` reproduces the batch
    /// `process_dataset` result frame for frame.
    ///
    /// Sensor samples timestamped after the last frame are not emitted
    /// (the batch pipeline never consumes them either).
    ///
    /// Each `Image` event shares the stereo pair with the dataset via
    /// `Arc` — the event is still self-contained (it keeps the pixels
    /// alive on its own), but replay copies no image data.
    pub fn events(&self) -> impl Iterator<Item = SensorEvent> + '_ {
        self.frames.iter().enumerate().flat_map(move |(i, frame)| {
            let mut out: Vec<SensorEvent> = Vec::new();
            if self.is_segment_start(i) {
                out.push(SensorEvent::SegmentBoundary {
                    anchor: Some(self.segment_anchor(i)),
                });
            }
            let t_prev = if i == 0 { -1.0 } else { self.frames[i - 1].t };
            out.extend(
                self.imu_between(t_prev, frame.t)
                    .iter()
                    .map(|s| SensorEvent::Imu(*s)),
            );
            out.extend(
                self.gps_between(t_prev, frame.t)
                    .iter()
                    .map(|s| SensorEvent::Gps(*s)),
            );
            out.push(SensorEvent::Image(ImageEvent {
                t: frame.t,
                environment: frame.environment,
                left: Arc::clone(&frame.left),
                right: Arc::clone(&frame.right),
                rig: self.rig,
                ground_truth: Some(self.ground_truth[i]),
            }));
            out
        })
    }

    /// The dataset as a pull-based [`EventSource`]: the always-ready
    /// replay producer the streaming ingestion layer (`StreamMux` +
    /// `SessionManager::ingest`) consumes. Emits exactly the
    /// [`events`](Dataset::events) stream, then
    /// [`Closed`](SourcePoll::Closed).
    pub fn source(&self) -> DatasetSource<'_> {
        let events: Box<dyn Iterator<Item = SensorEvent> + '_> = Box::new(self.events());
        DatasetSource {
            inner: IterSource::new(events),
        }
    }

    /// Concatenates datasets recorded with the same rig, shifting times and
    /// indices so the result is monotonic. Used to build the paper's mixed
    /// evaluation set (50 % outdoor / 25 % indoor-unknown / 25 %
    /// indoor-known, Sec. VII-A).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or rigs differ.
    pub fn concat(name: impl Into<String>, parts: Vec<Dataset>) -> Dataset {
        assert!(!parts.is_empty(), "cannot concatenate zero datasets");
        let rig = parts[0].rig;
        let fps = parts[0].fps;
        let mut out = Dataset {
            name: name.into(),
            rig,
            fps,
            frames: Vec::new(),
            imu: Vec::new(),
            gps: Vec::new(),
            ground_truth: Vec::new(),
            segments: Vec::new(),
        };
        let mut t_offset = 0.0;
        for part in parts {
            assert!(part.rig == rig, "rig mismatch in concatenation");
            let frame_offset = out.frames.len();
            for seg in &part.segments {
                out.segments.push(Segment {
                    start_frame: seg.start_frame + frame_offset,
                    environment: seg.environment,
                });
            }
            for f in part.frames {
                out.frames.push(FrameData {
                    index: f.index + frame_offset,
                    t: f.t + t_offset,
                    ..f
                });
            }
            for s in part.imu {
                out.imu.push(ImuSample {
                    t: s.t + t_offset,
                    ..s
                });
            }
            for s in part.gps {
                out.gps.push(GpsSample {
                    t: s.t + t_offset,
                    ..s
                });
            }
            out.ground_truth.extend(part.ground_truth);
            // Next part starts one frame period after this one ends.
            t_offset = out.frames.last().map_or(t_offset, |f| f.t) + 1.0 / fps;
        }
        out
    }
}

/// A [`Dataset`] replayed as an [`EventSource`]: always ready, never
/// [`Pending`](SourcePoll::Pending). Borrows the dataset, so frames are
/// `Arc`-shared rather than copied — fanning one dataset out to several
/// sources costs reference counts, not pixels.
pub struct DatasetSource<'a> {
    // Delegates to the stream crate's iterator adapter so the
    // Ready/Closed poll semantics live in exactly one place.
    inner: IterSource<Box<dyn Iterator<Item = SensorEvent> + 'a>>,
}

impl std::fmt::Debug for DatasetSource<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("DatasetSource(..)")
    }
}

impl EventSource for DatasetSource<'_> {
    fn poll_event(&mut self) -> SourcePoll {
        self.inner.poll_event()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Platform, ScenarioBuilder, ScenarioKind};
    use eudoxus_stream::Environment;

    fn tiny(kind: ScenarioKind) -> Dataset {
        ScenarioBuilder::new(kind)
            .frames(3)
            .seed(1)
            .platform(Platform::Drone)
            .build()
    }

    #[test]
    fn imu_window_is_half_open() {
        let d = tiny(ScenarioKind::OutdoorUnknown);
        let all = d.imu_between(-1.0, d.duration() + 1.0);
        assert!(!all.is_empty());
        let t_mid = d.frames[1].t;
        let before = d.imu_between(-1.0, t_mid);
        let after = d.imu_between(t_mid, d.duration() + 1.0);
        assert_eq!(before.len() + after.len(), all.len());
    }

    #[test]
    fn concat_shifts_times_and_indices() {
        let a = tiny(ScenarioKind::OutdoorUnknown);
        let b = tiny(ScenarioKind::IndoorUnknown);
        let c = Dataset::concat("mix", vec![a.clone(), b.clone()]);
        assert_eq!(c.frames.len(), 6);
        assert_eq!(c.frames[3].index, 3);
        assert!(c.frames[3].t > c.frames[2].t);
        assert_eq!(c.segments.len(), 2);
        assert_eq!(c.segment_of(0).environment, Environment::OutdoorUnknown);
        assert_eq!(c.segment_of(5).environment, Environment::IndoorUnknown);
        assert!(c.is_segment_start(3));
        assert!(!c.is_segment_start(4));
        // IMU timestamps strictly increasing across the seam.
        for w in c.imu.windows(2) {
            assert!(w[1].t > w[0].t);
        }
    }

    #[test]
    fn events_replay_frames_segments_and_windows() {
        let a = tiny(ScenarioKind::OutdoorUnknown);
        let b = tiny(ScenarioKind::IndoorUnknown);
        let d = Dataset::concat("mix", vec![a, b]);
        let events: Vec<SensorEvent> = d.events().collect();

        let images = events
            .iter()
            .filter(|e| matches!(e, SensorEvent::Image(_)))
            .count();
        assert_eq!(images, d.frames.len());
        let boundaries = events
            .iter()
            .filter(|e| matches!(e, SensorEvent::SegmentBoundary { .. }))
            .count();
        assert_eq!(boundaries, d.segments.len());

        // Sensor data arrives before the frame that closes its window, and
        // every emitted IMU sample belongs to the batch pipeline's windows.
        let mut frames_seen = 0;
        let mut imu_seen = 0;
        for e in &events {
            match e {
                SensorEvent::Image(img) => {
                    assert!((img.t - d.frames[frames_seen].t).abs() < 1e-12);
                    assert!(img.ground_truth.is_some());
                    frames_seen += 1;
                }
                SensorEvent::Imu(s) => {
                    assert!(s.t <= d.frames[frames_seen].t + 1e-12);
                    imu_seen += 1;
                }
                _ => {}
            }
        }
        let last_t = d.frames.last().unwrap().t;
        let in_window = d.imu.iter().filter(|s| s.t <= last_t).count();
        assert_eq!(imu_seen, in_window);

        // The first segment's anchor carries the ground-truth start state.
        let Some(SensorEvent::SegmentBoundary { anchor: Some(a0) }) = events.first() else {
            panic!("stream must open with an anchored segment boundary");
        };
        assert!(a0.pose.translation_distance(d.ground_truth[0]) < 1e-12);
    }

    #[test]
    fn source_replays_the_event_stream_then_closes() {
        let d = tiny(ScenarioKind::OutdoorUnknown);
        let expected: Vec<SensorEvent> = d.events().collect();
        let mut source = d.source();
        let mut got = Vec::new();
        loop {
            match source.poll_event() {
                SourcePoll::Ready(e) => got.push(e),
                SourcePoll::Pending => panic!("dataset sources are always ready"),
                SourcePoll::Closed => break,
            }
        }
        assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(&expected) {
            assert_eq!(g.timestamp(), e.timestamp());
            assert_eq!(g.is_image(), e.is_image());
        }
        // Closed is sticky.
        assert!(matches!(source.poll_event(), SourcePoll::Closed));
    }

    #[test]
    fn gps_only_in_outdoor_segment() {
        let a = tiny(ScenarioKind::OutdoorUnknown);
        let b = tiny(ScenarioKind::IndoorUnknown);
        let boundary_t = a.duration();
        let c = Dataset::concat("mix", vec![a, b]);
        assert!(!c.gps.is_empty());
        assert!(c.gps.iter().all(|g| g.t <= boundary_t + 0.2));
    }
}
