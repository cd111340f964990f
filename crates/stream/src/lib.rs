//! Source-agnostic sensor event streams for Eudoxus.
//!
//! This is the *leaf* crate of the streaming stack: it owns the event
//! model every producer and consumer speaks ([`SensorEvent`],
//! [`ImageEvent`], [`FrameData`], [`Segment`]), the environment taxonomy
//! of paper Fig. 2 ([`Environment`]), and the ingestion primitives a
//! serving node is built from:
//!
//! * [`EventSource`] — a pull-based stream with explicit
//!   [`Pending`](SourcePoll::Pending)/[`Closed`](SourcePoll::Closed)
//!   states (plus the [`IterSource`]/[`ChunkedSource`] adapters);
//! * [`IngestQueue`] — a bounded per-agent queue with drop/defer
//!   [`OverflowPolicy`] and backpressure [`IngestCounters`];
//! * [`StreamMux`] — a deterministic k-way merge of many agents' sources
//!   by capture timestamp, chunking-insensitive and
//!   backpressure-composable.
//!
//! It depends only on `eudoxus-geometry`, `eudoxus-image` and the leaf
//! `eudoxus-telemetry` (its counters publish into the shared registry):
//! a live producer (a driver process, a network ingest shim) links this
//! crate and nothing else — in particular **not** the simulator. The
//! Eudoxus paper (HPCA 2021) treats localization as a streaming system
//! fed by heterogeneous sensors at fixed rates; this crate is that
//! system's front door.
//!
//! # Layering
//!
//! ```text
//! eudoxus-math ─ eudoxus-geometry ─ eudoxus-image ─ eudoxus-telemetry   (numerics / observability)
//!                        │                │                 │
//!                        └── eudoxus-stream ──┐ ────────────┘           (this crate)
//!                              │        │     │
//!                              │  eudoxus-faults                        (event corruption)
//!                              │              │
//!                        eudoxus-sim    eudoxus-core                    (producers / consumers)
//! ```
//!
//! `eudoxus-sim` (one producer among many) and `eudoxus-core` (the
//! consumer) both depend on this crate; neither is needed to *speak* the
//! protocol. `eudoxus-faults` sits between them: a deterministic
//! [`SensorEvent`]-in / [`SensorEvent`]-out corruption layer (and an
//! [`EventSource`] adapter) that degrades any producer's stream without
//! either side knowing.
//!
//! # A producer without the simulator
//!
//! The example below hand-rolls a two-frame producer and feeds it into a
//! `LocalizationSession` — no `eudoxus-sim` anywhere (this doc test
//! builds `eudoxus-core` with its simulator feature disabled):
//!
//! ```
//! use eudoxus_core::{PipelineConfig, SessionBuilder};
//! use eudoxus_geometry::{PinholeCamera, StereoRig};
//! use eudoxus_image::GrayImage;
//! use eudoxus_stream::{
//!     Environment, EventSource, ImageEvent, ImuSample, SensorEvent, SourcePoll,
//! };
//! use std::sync::Arc;
//!
//! /// A live producer: yields a segment boundary, then per frame an IMU
//! /// reading and the stereo image that closes its window.
//! struct CameraRig {
//!     rig: StereoRig,
//!     next: usize,
//! }
//!
//! impl EventSource for CameraRig {
//!     fn poll_event(&mut self) -> SourcePoll {
//!         let i = self.next;
//!         self.next += 1;
//!         let frame = |k: usize| {
//!             // Stand-in for a capture: a flat exposure (a real driver
//!             // hands over its sensor buffer).
//!             let image = Arc::new(GrayImage::filled(64, 48, 128));
//!             SourcePoll::Ready(SensorEvent::Image(ImageEvent {
//!                 t: k as f64 * 0.1,
//!                 environment: Environment::OutdoorUnknown,
//!                 left: Arc::clone(&image),
//!                 right: image,
//!                 rig: self.rig,
//!                 ground_truth: None, // live streams have no reference
//!             }))
//!         };
//!         match i {
//!             0 => SourcePoll::Ready(SensorEvent::SegmentBoundary { anchor: None }),
//!             1 => frame(0),
//!             2 => SourcePoll::Ready(SensorEvent::Imu(ImuSample {
//!                 t: 0.05,
//!                 gyro: eudoxus_geometry::Vec3::zero(),
//!                 accel: eudoxus_geometry::Vec3::new(0.0, 0.0, 9.80665),
//!             })),
//!             3 => frame(1),
//!             _ => SourcePoll::Closed,
//!         }
//!     }
//! }
//!
//! let mut producer = CameraRig {
//!     rig: StereoRig::new(PinholeCamera::centered(80.0, 64, 48), 0.1),
//!     next: 0,
//! };
//! let mut session = SessionBuilder::new(PipelineConfig::default()).build();
//! let mut frames = 0;
//! loop {
//!     match producer.poll_event() {
//!         SourcePoll::Ready(event) => {
//!             if let Some(record) = session.push(event) {
//!                 assert!(!record.has_ground_truth);
//!                 frames += 1;
//!             }
//!         }
//!         SourcePoll::Pending => continue, // a real loop would park here
//!         SourcePoll::Closed => break,
//!     }
//! }
//! assert_eq!(frames, 2);
//! ```

pub mod environment;
pub mod event;
pub mod mux;
pub mod queue;
pub mod source;

pub use environment::Environment;
pub use event::{FrameData, GpsSample, ImageEvent, ImuSample, Segment, SensorEvent};
pub use mux::{MuxPoll, StreamMux};
pub use queue::{Admission, IngestCounters, IngestQueue, OverflowPolicy};
pub use source::{ChunkedSource, EventSource, IterSource, SourcePoll};
