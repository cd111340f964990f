//! The unified Eudoxus localization framework.
//!
//! This crate assembles the paper's Fig. 4: one shared vision frontend
//! feeding an optimization backend that switches between three modes —
//! registration, VIO and SLAM — according to the operating environment
//! (Fig. 2 taxonomy: GPS availability × map availability). It provides:
//!
//! * [`session`] — the streaming API: a [`LocalizationSession`] fed one
//!   `SensorEvent` at a time through a registry of pluggable
//!   `Backend` estimators, and a [`SessionManager`] that round-robins
//!   many concurrent agents, ingests `eudoxus_stream::StreamMux`-merged
//!   event sources with bounded, backpressure-counted per-agent queues,
//!   and drains them across worker threads;
//! * [`builder`] — the one construction surface: a [`SessionBuilder`]
//!   that assembles sessions, managers and batch systems (engine, map,
//!   backends, agents, ingest bounds) in one fluent chain;
//! * [`engine`] — in-loop execution: the [`ExecutionEngine`] consulted
//!   by `push` for every frame, with the passthrough [`CpuEngine`], the
//!   always-offload [`ModeledAccelEngine`] and the paper's
//!   regression-scheduled [`ScheduledEngine`]. The modeling engines
//!   share one [`AccelModel`], whose [`replay`](AccelModel::replay)
//!   re-scores a measured CPU run through the accelerator models,
//!   producing the accelerated latency/energy numbers of Figs. 17–21;
//! * [`mode`] — mode selection from the environment;
//! * [`pipeline`] — the batch adapter: `Eudoxus::process_dataset`
//!   replays a recorded dataset through a session, with full per-kernel
//!   instrumentation (needs the default `sim` feature — the streaming
//!   surface does not);
//! * [`instrument`] — the run log every experiment consumes;
//! * [`metrics`] — trajectory error metrics (RMSE/ATE);
//! * [`stats`] — summary statistics (mean/SD/RSD/RMS);
//! * [`mapping`] — building a persisted map via a SLAM pass.
//!
//! # Batch example
//!
//! Replay a recorded dataset (the adapter drives the streaming session
//! internally):
//!
//! ```no_run
//! # #[cfg(feature = "sim")] {
//! use eudoxus_core::{PipelineConfig, SessionBuilder};
//! use eudoxus_sim::{ScenarioBuilder, ScenarioKind};
//!
//! let dataset = ScenarioBuilder::new(ScenarioKind::OutdoorUnknown)
//!     .frames(30)
//!     .build();
//! let mut system = SessionBuilder::new(PipelineConfig::default()).build_batch();
//! let log = system.process_dataset(&dataset);
//! println!("RMSE: {:.3} m", log.translation_rmse());
//! # }
//! ```
//!
//! # Streaming example
//!
//! Feed sensor events one at a time — the shape a live deployment uses
//! (here the events come from a replayed dataset). Attaching a modeled
//! engine makes every record carry a live accelerator estimate:
//!
//! ```no_run
//! use eudoxus_core::{ModeledAccelEngine, PipelineConfig, SessionBuilder};
//! use eudoxus_sim::{ScenarioBuilder, ScenarioKind};
//!
//! let dataset = ScenarioBuilder::new(ScenarioKind::OutdoorUnknown)
//!     .frames(30)
//!     .build();
//! let mut session = SessionBuilder::new(PipelineConfig::default())
//!     .engine(ModeledAccelEngine::edx_drone())
//!     .build();
//! for event in dataset.events() {
//!     if let Some(record) = session.push(event) {
//!         let accel = record.execution.as_ref().expect("modeled engine reports");
//!         println!(
//!             "frame {} via {}: measured {:.1} ms, modeled {:.1} ms on {}",
//!             record.index,
//!             record.mode,
//!             record.total_ms(),
//!             accel.total_ms(),
//!             accel.engine,
//!         );
//!     }
//! }
//! ```
//!
//! # Communication-adaptive offload (`SessionBuilder::link`)
//!
//! Since the link redesign, the accelerator can sit behind a modeled
//! communication channel instead of the on-board bus:
//! [`SessionBuilder::link`](builder::SessionBuilder::link) attaches any
//! `eudoxus_link::LinkModel` (with an optional per-frame deadline via
//! [`deadline_ms`](builder::SessionBuilder::deadline_ms)) to the
//! session's engine, and [`ScheduledEngine`] then advances the link
//! once per pushed frame and re-prices every offloadable kernel
//! against the current bandwidth/latency/loss state:
//!
//! ```no_run
//! use eudoxus_core::{
//!     LinkProfile, OffloadPolicy, PipelineConfig, ScheduledEngine, SessionBuilder,
//!     StochasticLink,
//! };
//! use eudoxus_accel::Platform;
//!
//! let mut session = SessionBuilder::new(PipelineConfig::anchored())
//!     .engine(ScheduledEngine::with_policy(
//!         Platform::edx_drone(),
//!         OffloadPolicy::Always,
//!     ))
//!     .link(StochasticLink::new(LinkProfile::urban_canyon_dropout(), 42))
//!     .deadline_ms(50.0)
//!     .build();
//! // ... push events; then inspect the shedding counters:
//! if let Some(stats) = session.engine().link_stats() {
//!     println!("{stats}");
//! }
//! ```
//!
//! Offload falls back to pure CPU in exactly two cases, recorded as the
//! report's [`FallbackCause`]: the link dropped the frame
//! (`FrameLost` — a dropout burst made transfers impossible), or the
//! modeled frame latency with offloads would blow the configured
//! deadline (`DeadlineExceeded` — the engine refuses to gamble on the
//! remote side). Everything stays deterministic: profiles
//! (`LinkProfile::{lan_stable, congested_uplink,
//! urban_canyon_dropout}`) drive seeded processes that replay bit
//! for bit, and a `StaticLink` mirroring the platform bus reproduces
//! the linkless engine exactly. The passthrough [`CpuEngine`] and the
//! fixed-bus [`ModeledAccelEngine`] ignore attached links (their
//! `attach_link` returns `false`); no-link sessions are bit-identical
//! to the pre-link API.
//!
//! # Surviving degraded sensors (`SessionBuilder::faults` / `::health`)
//!
//! Real deployments do not get the simulator's clean streams: cameras
//! drop frames in bursts, dust blacks out vision for seconds, IMUs
//! drift, GPS cuts out. Since the robustness redesign the session owns
//! both sides of that problem:
//!
//! * [`SessionBuilder::faults`](builder::SessionBuilder::faults)
//!   attaches a seeded `eudoxus_faults::FaultPlan` (canned
//!   `FaultProfile`s: `imu_drift` → `flaky_camera` → `dusty_site` →
//!   `sensor_storm`, mildest to worst) that degrades every pushed event
//!   deterministically — each built agent gets an independent identical
//!   fork, and the same `(plan, seed)` replays bit for bit.
//! * [`SessionBuilder::health`](builder::SessionBuilder::health) (also
//!   auto-enabled by `.faults(..)`) arms the [`HealthMonitor`]: per
//!   frame it folds vitals (tracked features, inter-frame gaps, pose
//!   innovation) through the `Nominal → Degraded → DeadReckoning →
//!   Recovering` [`DegradationState`] machine. While vision is starved
//!   the session serves poses by **dead-reckoning** on internal sensors
//!   (`Backend::dead_reckon`, IMU propagation only); when vision
//!   returns it re-anchors every estimator at the dead-reckoned pose
//!   and re-enters through the registry fallback chain. Each record
//!   then carries a [`HealthReport`], and
//!   [`LocalizationSession::health_stats`] /
//!   [`SessionManager::ingest_stats`] expose the cumulative
//!   [`SessionHealthStats`].
//!
//! Sessions without faults or health monitoring keep the historical
//! behavior bit for bit (`health: None` on every record). Frames whose
//! mode has no registered backend no longer panic: they come back as
//! unserved records (held pose, `tracking: false`).
//!
//! ```no_run
//! use eudoxus_core::{FaultProfile, PipelineConfig, SessionBuilder};
//!
//! let mut session = SessionBuilder::new(PipelineConfig::anchored())
//!     .faults(FaultProfile::dusty_site().plan, 42)
//!     .build();
//! // ... push events; every record now carries a health verdict:
//! // record.health.unwrap().state, .dead_reckoned, .served
//! println!("{}", session.health_stats());
//! ```
//!
//! # Closing the control loop (`SessionBuilder::throttle` / `::admission`)
//!
//! Engines *observe and price* each frame; since the control-loop PR
//! the verdict also **steers**. Three opt-in mechanisms close the loop
//! (default sessions remain bit-identical to the observe-only API):
//!
//! * **Kernel steering.** [`SessionBuilder::throttle`] arms a
//!   hysteretic [`ThrottleController`]: after every engine report the
//!   session feeds it the modeled frame period, and when the period
//!   exceeds `deadline_ms` for `enter_frames` consecutive frames it
//!   issues a [`FrameDirective`] that the frontend applies on the
//!   *next* frame — a shrunken feature budget (`max_keypoints`,
//!   `max_tracks`) and a shallower pyramid. Directive caps only ever
//!   *shrink* the configured budget. The directive stays in force until the raw modeled period
//!   drops below `exit_margin × min(throttled baseline, deadline)` for
//!   `exit_frames` consecutive frames; on constant load the throttled
//!   period equals its own baseline and never clears that margin, so
//!   **the loop cannot oscillate**. Every throttled [`FrameRecord`]
//!   carries the applied directive, and
//!   [`LocalizationSession::throttle_stats`] exposes the
//!   entries/exits/throttled-frame counters.
//!
//! * **Admission control.** [`SessionBuilder::admission`] (or
//!   [`SessionManager::set_admission_control`]) gates image events at
//!   `try_enqueue`/`ingest` time against each agent's modeled frame
//!   period `P` (health-inflated by `health_penalty` for agents below
//!   `Nominal`):
//!
//!   | Evidence | Verdict |
//!   |---|---|
//!   | no modeled period yet | admit (the gate only acts on evidence) |
//!   | `P ≤ deadline` | admit |
//!   | `deadline < P ≤ shed_factor × deadline` | degrade: keep 1 image in `degrade_keep` |
//!   | `P > shed_factor × deadline` | shed ([`Enqueue::Shed`]) |
//!
//!   Sensor windows are never gated — starving them would corrupt the
//!   frames that *are* admitted. Counters conserve
//!   (`offered == admitted + degraded + shed`) and surface per agent in
//!   [`IngestSnapshot`].
//!
//! * **Fault-aware pricing.** The health verdict feeds the engine seam
//!   ([`FrameContext`]`::health`): dead-reckoned or unserved frames are
//!   priced as IMU-only work (no vision kernels, no offload
//!   decisions), frames still in the `DeadReckoning` state skip
//!   accelerator offload entirely, and a `ScheduledEngine` with a
//!   deadline (now armed with or without a link) re-plans overruns
//!   all-local and counts `deadline_missed` in its [`LinkStats`].
//!
//! [`SessionBuilder::throttle`]: builder::SessionBuilder::throttle
//! [`SessionBuilder::admission`]: builder::SessionBuilder::admission
//!
//! # Serving without the simulator
//!
//! The event model (`SensorEvent`, `ImageEvent`, `Environment`, …) lives
//! in the leaf `eudoxus-stream` crate. This crate's simulator dependency
//! is the optional default feature `sim`, which gates only the batch
//! surface ([`Eudoxus`]'s `process_dataset` and [`mapping`]'s
//! `build_map`): build with `default-features = false` for a serving
//! node that feeds sessions from live `eudoxus_stream::EventSource`s and
//! never links the scenario generator. For many-agent serving, prefer
//! the ingestion path: register one `EventSource` per agent in a
//! `eudoxus_stream::StreamMux`, bound each agent's queue with
//! [`SessionManager::set_ingest_limit`], and drive everything with
//! [`SessionManager::pump`] (or `ingest` + `poll`/`poll_parallel` for
//! manual control); backpressure counters surface through
//! [`SessionManager::ingest_stats`].

pub mod builder;
pub mod control;
pub mod engine;
pub mod health;
pub mod instrument;
#[cfg(feature = "sim")]
pub mod mapping;
pub mod metrics;
pub mod mode;
pub mod pipeline;
pub mod session;
pub mod stats;

pub use builder::SessionBuilder;
pub use control::{
    AdmissionConfig, AdmissionStats, ThrottleConfig, ThrottleController, ThrottleStats,
};
pub use engine::{
    AccelModel, AcceleratedFrame, AcceleratedRun, CpuEngine, ExecutionEngine, ExecutionReport,
    ExecutionTarget, FallbackCause, FrameContext, KernelDecision, LinkStats, ModeledAccelEngine,
    OffloadPolicy, ScheduledEngine,
};
pub use health::{
    DegradationState, FrameVitals, HealthConfig, HealthMonitor, HealthReport, SessionHealthStats,
};
pub use instrument::{FrameRecord, IngestSnapshot, RunLog};
#[cfg(feature = "sim")]
pub use mapping::build_map;
pub use metrics::{relative_error_percent, translation_rmse};
pub use mode::Mode;
pub use pipeline::{Eudoxus, PipelineConfig};
pub use session::{Enqueue, IngestReport, LocalizationSession, SessionManager};
pub use stats::Summary;

// The per-frame feature-budget directive, re-exported so control-loop
// consumers need only this crate (the type lives in `eudoxus-frontend`,
// where the pipeline applies it).
pub use eudoxus_frontend::FrameDirective;

// The streaming event types, re-exported so session consumers need only
// this crate (they live in the leaf `eudoxus-stream` crate).
pub use eudoxus_stream::{ImageEvent, SensorEvent};

// The channel model, re-exported so link-aware sessions need only this
// crate (the types live in the leaf `eudoxus-link` crate).
pub use eudoxus_link::{LinkModel, LinkProfile, LinkState, StaticLink, StochasticLink, TraceLink};

// The fault model, re-exported so degradation experiments need only this
// crate (the types live in the leaf `eudoxus-faults` crate).
pub use eudoxus_faults::{FaultCounters, FaultInjector, FaultPlan, FaultProcess, FaultProfile};

// The observation surface, re-exported so arming telemetry
// (`SessionBuilder::telemetry`) and draining its spans need only this
// crate (the types live in the leaf `eudoxus-telemetry` crate).
pub use eudoxus_telemetry::{
    chrome_trace_json, json_lines, validate_chrome_trace, CounterRegistry, Histogram, Span,
    SpanScope, Telemetry, TelemetryConfig, TelemetryHub,
};
