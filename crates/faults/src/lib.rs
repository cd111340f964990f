//! # eudoxus-faults
//!
//! Deterministic sensor fault injection for Eudoxus: seeded degradation
//! processes that turn any clean event stream into a flaky one —
//! camera-drop bursts, exposure ramps, pixel noise, vision blackouts,
//! IMU bias random-walks, GPS outages and multipath — so the session's
//! graceful-degradation machinery (fallback chain, health monitor,
//! dead-reckoning) can be exercised and regression-tested under stress.
//!
//! Every scenario the pipeline ships is a clean stereo+IMU world; real
//! deployments are not. A bulldozer in dust, a drone behind a smeared
//! lens, a car in an urban canyon all see the same failure classes this
//! crate models. This leaf crate (deps: `eudoxus-stream`,
//! `eudoxus-image`, `eudoxus-geometry`, the offline `rand` shim) owns
//! the fault model; `eudoxus-core` consumes it at the session ingest
//! boundary.
//!
//! ## The model
//!
//! * [`FaultPlan`] — the knobs: Gilbert–Elliott camera-drop and
//!   GPS-outage burst processes, deterministic exposure triangle ramps
//!   and vision-blackout windows, per-pixel noise, IMU bias
//!   random-walks, GPS multipath. The default plan is the exact
//!   passthrough.
//! * [`FaultProcess`] — the plan as a seeded process:
//!   [`apply`](FaultProcess::apply) maps one [`SensorEvent`] to its
//!   faulted form (`None` when a burst swallowed it);
//!   [`fork`](FaultProcess::fork) restarts an identical process for
//!   per-agent stamping. A **fixed draw schedule** (images two draws,
//!   IMU six, GPS four, boundaries zero; pixel noise on a counter-based
//!   sub-stream, four pixels per step on AVX2 hosts) makes the faulted
//!   stream a pure function of `(plan, seed, input events)` — the same
//!   discipline as `eudoxus-link`'s `StochasticLink`.
//! * [`FaultInjector`] — an `EventSource` adapter wrapping any inner
//!   source, absorbing dropped events transparently.
//! * [`FaultProfile`] — canned personalities, mildest → worst:
//!   [`imu_drift`](FaultProfile::imu_drift) →
//!   [`flaky_camera`](FaultProfile::flaky_camera) →
//!   [`dusty_site`](FaultProfile::dusty_site) →
//!   [`sensor_storm`](FaultProfile::sensor_storm), with an in-crate
//!   severity-ordering pin test (`BENCH_robustness.json` sweeps them in
//!   this order).
//!
//! ```
//! use eudoxus_faults::{FaultInjector, FaultProfile};
//! use eudoxus_stream::{EventSource, IterSource, SourcePoll};
//!
//! let clean = IterSource::from_vec(Vec::new()); // any EventSource
//! let profile = FaultProfile::dusty_site();
//! let mut flaky = FaultInjector::new(clean, profile.plan, 42);
//! while let SourcePoll::Ready(event) = flaky.poll_event() {
//!     // degraded events; dropped frames never surface
//!     let _ = event;
//! }
//! println!("{}", flaky.counters());
//! ```
//!
//! [`SensorEvent`]: eudoxus_stream::SensorEvent

mod plan;
mod process;

pub use plan::{FaultPlan, FaultProfile};
pub use process::{FaultCounters, FaultInjector, FaultProcess, BLACKOUT_GRAY};
