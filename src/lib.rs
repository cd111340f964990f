//! # Eudoxus
//!
//! A from-scratch Rust reproduction of *"Eudoxus: Characterizing and
//! Accelerating Localization in Autonomous Machines"* (HPCA 2021): a
//! unified localization framework — one shared vision frontend feeding
//! registration / VIO / SLAM backends selected by the operating
//! environment — together with a calibrated analytical model of the
//! paper's FPGA accelerator (frontend task pipeline, five-building-block
//! matrix engine, runtime offload scheduler, resource/energy accounting).
//!
//! This crate is a facade: each subsystem lives in its own crate and is
//! re-exported here under a short name.
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`math`] | `eudoxus-math` | dense linear algebra (QR/Cholesky/LU, Schur) |
//! | [`geometry`] | `eudoxus-geometry` | SO(3)/SE(3), cameras, triangulation |
//! | [`image`] | `eudoxus-image` | filtering, gradients, pyramids |
//! | [`telemetry`] | `eudoxus-telemetry` | zero-allocation spans, histograms, counter registry, trace export |
//! | [`stream`] | `eudoxus-stream` | sensor event model, environment taxonomy, sources/queues/mux |
//! | [`sim`] | `eudoxus-sim` | synthetic worlds, sensors, datasets |
//! | [`frontend`] | `eudoxus-frontend` | FAST, ORB, stereo, Lucas–Kanade |
//! | [`vocab`] | `eudoxus-vocab` | bag-of-binary-words place recognition |
//! | [`backend`] | `eudoxus-backend` | MSCKF, GPS fusion, SLAM, registration |
//! | [`accel`] | `eudoxus-accel` | FPGA accelerator models |
//! | [`link`] | `eudoxus-link` | deterministic communication-channel models |
//! | [`faults`] | `eudoxus-faults` | deterministic sensor fault injection |
//! | [`core`] | `eudoxus-core` | the unified pipeline + instrumentation |
//!
//! # Quickstart
//!
//! Batch: replay a recorded dataset through the unified pipeline (a thin
//! adapter over the streaming session). Every construction path starts
//! at a [`SessionBuilder`](eudoxus_core::SessionBuilder).
//!
//! ```no_run
//! use eudoxus::prelude::*;
//!
//! // Synthesize an outdoor traversal (KITTI-like substitution).
//! let dataset = ScenarioBuilder::new(ScenarioKind::OutdoorUnknown)
//!     .frames(50)
//!     .build();
//! // Run the unified pipeline: the environment selects VIO+GPS.
//! let mut system = SessionBuilder::new(PipelineConfig::anchored()).build_batch();
//! let log = system.process_dataset(&dataset);
//! println!("RMSE {:.3} m at {:.1} FPS", log.translation_rmse(), log.fps());
//! ```
//!
//! Streaming, with the accelerator model in the loop: feed sensor
//! events one at a time into a
//! [`LocalizationSession`](eudoxus_core::LocalizationSession) — the shape
//! a live deployment uses. Attaching an
//! [`ExecutionEngine`](eudoxus_core::ExecutionEngine) makes the
//! EDX-CAR/EDX-DRONE offload decision per pushed frame; every record
//! then carries an `ExecutionReport` (target, modeled latency, energy):
//!
//! ```no_run
//! use eudoxus::prelude::*;
//!
//! let dataset = ScenarioBuilder::new(ScenarioKind::Mixed).frames(20).build();
//! let mut session = SessionBuilder::new(PipelineConfig::anchored())
//!     .engine(ModeledAccelEngine::edx_drone())
//!     .build();
//! for event in dataset.events() {
//!     if let Some(record) = session.push(event) {
//!         let accel = record.execution.as_ref().unwrap();
//!         println!(
//!             "frame {} ran {}: modeled {:.1} ms on {}",
//!             record.index, record.mode, accel.total_ms(), accel.engine
//!         );
//!     }
//! }
//! ```
//!
//! Estimators are registered behind the
//! [`Backend`](eudoxus_backend::Backend) trait, so a custom one slots in
//! with `SessionBuilder::backend(..)`.
//!
//! Many-agent ingestion goes through `eudoxus_stream`: one
//! [`EventSource`](eudoxus_stream::EventSource) per agent (live producer
//! or `Dataset::source()` replay), merged deterministically by a
//! [`StreamMux`](eudoxus_stream::StreamMux), flowing into bounded
//! per-agent queues inside a `SessionManager` stamped out by the same
//! builder:
//!
//! ```no_run
//! use eudoxus::prelude::*;
//!
//! let a = ScenarioBuilder::new(ScenarioKind::OutdoorUnknown).frames(10).seed(1).build();
//! let b = ScenarioBuilder::new(ScenarioKind::IndoorUnknown).frames(10).seed(2).build();
//! let mut manager = SessionBuilder::new(PipelineConfig::anchored())
//!     .ingest_limit(64, OverflowPolicy::Defer) // bounded, lossless
//!     .agent("car")
//!     .agent("drone")
//!     .build_manager();
//! let mut mux = StreamMux::new();
//! for (id, data) in [("car", &a), ("drone", &b)] {
//!     mux.add_source(id, data.source());
//! }
//! let records = manager.pump(&mut mux);
//! for snapshot in manager.ingest_stats() {
//!     println!("{snapshot}");
//! }
//! println!("{} frames from {} agents", records.len(), manager.agent_count());
//! ```
//!
//! The event model itself (`SensorEvent`, `Environment`, …) lives in the
//! leaf `eudoxus-stream` crate — producers link it without pulling in
//! the simulator.
//!
//! # Edge offload over a modeled link
//!
//! The paper's accelerator talks to the CPU over a fixed on-board bus
//! (PCIe 3.0 on EDX-CAR, AXI4 on EDX-DRONE). The leaf `eudoxus-link`
//! crate generalizes that bus into a [`LinkModel`](eudoxus_link::LinkModel):
//! a deterministic per-frame process pricing each transfer from the
//! current bandwidth/latency/loss state. `StaticLink` reproduces the
//! bus arithmetic bit for bit, while seeded `StochasticLink` profiles
//! (`lan_stable`, `congested_uplink`, `urban_canyon_dropout`) model a
//! *remote* accelerator behind a degrading channel. Attach one with
//! `SessionBuilder::link(..)` and the
//! [`ScheduledEngine`](eudoxus_core::ScheduledEngine) re-prices
//! every offloadable kernel against live link state each frame, falling
//! back to pure CPU when the link drops the frame or the modeled round
//! trip would blow `SessionBuilder::deadline_ms(..)`:
//!
//! ```no_run
//! use eudoxus::prelude::*;
//!
//! let mut session = SessionBuilder::new(PipelineConfig::anchored())
//!     .engine(ScheduledEngine::with_policy(
//!         Platform::edx_drone(),
//!         OffloadPolicy::Always,
//!     ))
//!     .link(StochasticLink::new(LinkProfile::congested_uplink(), 7))
//!     .deadline_ms(50.0)
//!     .build();
//! // ... push events, then:
//! if let Some(stats) = session.engine().link_stats() {
//!     println!("{stats}"); // frames seen / lost / cpu fallbacks
//! }
//! ```
//!
//! `cargo run --release --example edge_offload` sweeps all three
//! profiles over the same scenario; the throughput bench's `link_sweep`
//! block in `BENCH_throughput.json` records how the offload rate decays
//! as the channel degrades.
//!
//! # Surviving degraded sensors
//!
//! Real streams are not the simulator's clean ones: cameras drop frames
//! in bursts, dust blacks out vision, IMUs drift, GPS cuts out. The
//! leaf `eudoxus-faults` crate models those failure classes as a seeded
//! deterministic [`FaultPlan`](eudoxus_faults::FaultPlan) (canned
//! [`FaultProfile`](eudoxus_faults::FaultProfile)s, mildest to worst:
//! `imu_drift` → `flaky_camera` → `dusty_site` → `sensor_storm`), and
//! the session owns the survival reflex:
//! `SessionBuilder::faults(plan, seed)` degrades every pushed event and
//! arms the health monitor, which walks each frame's vitals through the
//! `Nominal → Degraded → DeadReckoning → Recovering` state machine.
//! While vision is starved the session dead-reckons on internal sensors
//! (`Backend::dead_reckon`); when vision returns it re-anchors the
//! estimators at the dead-reckoned pose. Each record then carries a
//! `HealthReport`, sessions expose cumulative `SessionHealthStats`, and
//! frames whose mode has no registered backend come back as unserved
//! records instead of panicking:
//!
//! ```no_run
//! use eudoxus::prelude::*;
//!
//! let dataset = ScenarioBuilder::new(ScenarioKind::OutdoorUnknown).frames(30).build();
//! let mut session = SessionBuilder::new(PipelineConfig::anchored())
//!     .faults(FaultProfile::dusty_site().plan, 42)
//!     .build();
//! for event in dataset.events() {
//!     if let Some(record) = session.push(event) {
//!         let health = record.health.expect("faulted sessions report health");
//!         println!("frame {}: {}", record.index, health.state);
//!     }
//! }
//! println!("{}", session.health_stats());
//! ```
//!
//! `cargo run --release --example degraded_run` walks a dusty-site
//! mission frame by frame; `cargo run --release -p eudoxus-bench --bin
//! robustness` regenerates `BENCH_robustness.json` — pose RMSE vs the
//! clean run, dead-reckoned frames and recovery counts per fault
//! profile × scenario, monotone in profile severity.
//!
//! # Closing the control loop
//!
//! Engine verdicts can also *steer*. Three opt-in mechanisms (default
//! sessions stay bit-identical to the observe-only API):
//!
//! * **Kernel steering** — `SessionBuilder::throttle(ThrottleConfig)`
//!   arms a deterministic hysteresis loop on the modeled frame period:
//!   `enter_frames` consecutive deadline overruns issue a
//!   `FrameDirective` the frontend applies next frame (caps on
//!   keypoints/tracks, a shallower pyramid, optionally the scalar KLT
//!   path — caps only ever shrink the configured budget), held until
//!   the raw period clears `exit_margin × min(throttled baseline,
//!   deadline)` for `exit_frames` frames. Constant load never clears
//!   its own baseline, so the loop cannot oscillate.
//! * **Admission control** —
//!   `SessionManager::set_admission_control(AdmissionConfig)` (or
//!   `SessionBuilder::admission` through `build_manager`) gates image
//!   events per agent: admit while the modeled period meets the
//!   deadline, decimate (keep 1 in `degrade_keep`) up to
//!   `shed_factor × deadline`, shed (`Enqueue::Shed`) beyond — with
//!   agents below `Nominal` health deprioritized first, and counters
//!   that conserve (`offered == admitted + degraded + shed`) in
//!   `IngestSnapshot`.
//! * **Fault-aware pricing** — health verdicts feed the engine seam:
//!   dead-reckoned frames are priced as IMU-only work (zero
//!   vision-kernel offload decisions), `DeadReckoning`-state frames
//!   skip offload, and deadlines now arm a `ScheduledEngine` even
//!   without a link (`deadline_missed` counted in `LinkStats`).
//!
//! ```no_run
//! use eudoxus::prelude::*;
//!
//! let mut session = SessionBuilder::new(PipelineConfig::anchored())
//!     .engine(ScheduledEngine::with_policy(
//!         Platform::edx_drone(),
//!         OffloadPolicy::Always,
//!     ))
//!     .throttle(ThrottleConfig::new(33.0)) // hold a 30 fps frame budget
//!     .build();
//! // ... push events; throttled records carry record.directive, and:
//! println!("throttle rate: {:.0}%", session.throttle_stats().throttle_rate() * 100.0);
//! ```
//!
//! `cargo run --release -p eudoxus-bench --bin throughput --
//! --deadline-ms 15` adds the closed-loop pass and fills the
//! `control_loop` block of `BENCH_throughput.json` (throttle rate, shed
//! counters, modeled-vs-unthrottled frame period).
//!
//! # Observing a running fleet
//!
//! The leaf `eudoxus-telemetry` crate is the one observability surface
//! every layer shares: fixed-capacity allocation-free span recording
//! ([`SpanRing`](eudoxus_telemetry::SpanRing)), streaming log-bucketed
//! latency histograms with p50/p90/p99, a unified
//! [`CounterRegistry`](eudoxus_telemetry::CounterRegistry) snapshot that
//! every stats struct publishes into, and JSON-lines /
//! `chrome://tracing` exporters (load the trace in Perfetto). Arm it
//! with `SessionBuilder::telemetry(..)` — off by default, and an armed
//! session stays bit-identical to a plain one (telemetry observes, it
//! never steers):
//!
//! ```no_run
//! use eudoxus::prelude::*;
//!
//! let dataset = ScenarioBuilder::new(ScenarioKind::Mixed).frames(20).build();
//! let mut session = SessionBuilder::new(PipelineConfig::anchored())
//!     .telemetry(TelemetryConfig::new())
//!     .build();
//! for event in dataset.events() {
//!     session.push(event);
//! }
//! let hub = session.telemetry().unwrap();
//! println!("frame p99 {:.2} ms", hub.frame_histogram().p99_ms());
//! let trace = chrome_trace_json(&hub.drain());
//! std::fs::write("chrome_trace.json", trace).unwrap();
//! // One flat sorted snapshot of every counter the session carries:
//! let mut reg = CounterRegistry::new();
//! session.publish_counters(&mut reg);
//! print!("{reg}");
//! ```
//!
//! Each frame opens a `frame` span with `backend_step`, `execute_frame`
//! and `health_observe` sub-spans, and the frontend stamps each of its
//! six kernels (`gaussian_blur`, `detect_fast`, `compute_orb`,
//! `match_stereo`, `pyramid_rebuild`, `track_pyramidal`); fleet
//! managers tag each agent's spans with its own chrome-trace track. The
//! bench bins time themselves from the same rings — the
//! `frame_latency_ms` / `kernel_percentiles_us` blocks of
//! `BENCH_throughput.json` are drained spans, not ad-hoc stopwatch
//! arithmetic.
//!
//! # Performance
//!
//! The steady-state frame path is allocation-free and multi-core:
//!
//! * **Scratch-reused kernels** — the frontend hot path (Gaussian blur,
//!   FAST detection, pyramid construction, KLT tracking) runs through
//!   `*_into` kernels writing into buffers owned by the `Frontend`; after
//!   one warm-up frame it performs zero heap allocations for response
//!   maps, blur buffers, and pyramids. Results are bit-identical to the
//!   allocating wrappers (and to the seed implementations preserved in
//!   `eudoxus_bench::baseline`) — proven by the golden tests in
//!   `crates/bench/tests/bit_identity.rs` and the counting-allocator test
//!   in `crates/bench/tests/alloc_free.rs`. See the `eudoxus_frontend`
//!   crate docs for the scratch contract and when `*_into` is worth it.
//! * **Frame and pyramid reuse** — datasets share stereo frames with
//!   their event streams via `Arc<GrayImage>` (replay copies no pixels),
//!   and the frontend carries the previous left-image pyramid across
//!   frames instead of cloning and rebuilding it.
//! * **Parallel ingest** — `SessionManager::poll_parallel(n_workers)`
//!   shards agents across scoped threads and merges the records back
//!   into exactly the sequential round-robin order (bit-identical to
//!   `poll`; see `tests/streaming_session.rs`). Sessions are CPU-bound:
//!   use `n_workers ≈ min(agent_count, physical cores)`; extra workers
//!   idle, and `n_workers = 1` degenerates to the sequential path.
//!
//! `cargo run --release -p eudoxus-bench --bin throughput` regenerates
//! `BENCH_throughput.json` — frames/sec per scenario for the seed
//! baseline vs the current frontend, per-kernel microseconds, manager
//! scaling, (with `--features count-alloc`) allocations per frame, and
//! the in-loop engine's modeled accelerated fps + energy per scenario
//! (`--engine {cpu,edx-car,edx-drone,scheduled}`; default: the trained
//! scheduler on EDX-DRONE).

pub use eudoxus_accel as accel;
pub use eudoxus_backend as backend;
pub use eudoxus_core as core;
pub use eudoxus_faults as faults;
pub use eudoxus_frontend as frontend;
pub use eudoxus_geometry as geometry;
pub use eudoxus_image as image;
pub use eudoxus_link as link;
pub use eudoxus_math as math;
pub use eudoxus_sim as sim;
pub use eudoxus_stream as stream;
pub use eudoxus_telemetry as telemetry;
pub use eudoxus_vocab as vocab;

/// The most common imports, in one place.
pub mod prelude {
    pub use eudoxus_accel::{Platform, PlatformKind};
    pub use eudoxus_backend::{Backend, BackendMode, WorldMap};
    pub use eudoxus_core::{
        build_map, AccelModel, AdmissionConfig, AdmissionStats, CpuEngine, DegradationState,
        Enqueue, Eudoxus, ExecutionEngine, ExecutionReport, FallbackCause, FrameDirective,
        HealthConfig, HealthReport, IngestReport, LinkStats, LocalizationSession, Mode,
        ModeledAccelEngine, OffloadPolicy, PipelineConfig, RunLog, ScheduledEngine, SessionBuilder,
        SessionHealthStats, SessionManager, Summary, ThrottleConfig, ThrottleStats,
    };
    pub use eudoxus_faults::{FaultInjector, FaultPlan, FaultProfile};
    pub use eudoxus_frontend::{Frontend, FrontendConfig};
    pub use eudoxus_geometry::{Pose, PoseAnchor, Vec3};
    pub use eudoxus_link::{LinkModel, LinkProfile, LinkState, StaticLink, StochasticLink, TraceLink};
    pub use eudoxus_sim::{Dataset, ScenarioBuilder, ScenarioKind};
    pub use eudoxus_stream::{
        Environment, EventSource, IngestQueue, OverflowPolicy, SensorEvent, SourcePoll, StreamMux,
    };
    pub use eudoxus_telemetry::{
        chrome_trace_json, json_lines, validate_chrome_trace, CounterRegistry, Histogram, Span,
        SpanScope, Telemetry, TelemetryConfig, TelemetryHub,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        use crate::prelude::*;
        let _ = PipelineConfig::anchored();
        let _ = Platform::edx_car();
        let _ = Mode::ALL;
        let _ = Vec3::zero();
        let _ = LinkProfile::canned();
        let _ = StaticLink::new(1e9, 1e-5);
        let _ = FaultProfile::canned();
        let _ = HealthConfig::default();
        let _ = ThrottleConfig::new(33.0);
        let _ = AdmissionConfig::new(33.0);
        let _ = FrameDirective::throttled();
        let _ = TelemetryConfig::new();
        let _ = CounterRegistry::new();
        let _ = Histogram::new();
        assert!(FaultPlan::default().is_empty());
    }
}
