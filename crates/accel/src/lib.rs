//! Analytical model of the Eudoxus FPGA accelerator.
//!
//! The paper prototypes Eudoxus on two FPGAs — a Virtex-7 board for the
//! self-driving car (EDX-CAR) and a Zynq Ultrascale+ for drones
//! (EDX-DRONE) — neither of which is available here, so this crate
//! implements the substitution DESIGN.md §1 documents: a calibrated,
//! cycle-based analytical model of the architecture in paper Secs. V–VI.
//! The *structural* claims are all modeled explicitly:
//!
//! * [`frontend_engine`] — the frontend task pipeline (FD/IF/FC → MO/DR,
//!   DC/LSS), with feature-extraction hardware time-shared between the two
//!   camera streams and optional FE↔SM pipelining (Sec. V-B);
//! * [`stencil`] — stencil-buffer sizing and the replication-vs-sharing
//!   trade-off of Fig. 14 (Sec. V-C);
//! * [`backend_engine`] — the five matrix building blocks of Table I and
//!   Fig. 15, with blocked execution, the symmetric-S optimization and the
//!   specialized `A_mm` inversion (Sec. VI-A);
//! * [`scheduler`] — the regression-based runtime offload scheduler
//!   (Sec. VI-B);
//! * [`resources`] — LUT/FF/DSP/BRAM accounting with and without sharing
//!   (Table II);
//! * [`energy`] — per-frame energy (Fig. 19);
//! * [`baselines`] — the CPU/GPU/DSP comparison models behind Table III;
//! * [`platform`] — the EDX-CAR and EDX-DRONE configurations.
//!
//! # An executable in-loop model
//!
//! These models are not replay-only artifacts: `eudoxus-core` makes
//! them *executable per frame, in the serving loop*. Its
//! `ExecutionEngine` seam (see `eudoxus_core::engine`) wraps this
//! crate's [`FrontendEngine`], [`BackendEngine`], [`EnergyModel`] and
//! [`Platform`] into engines a `LocalizationSession` consults on every
//! pushed frame — `ModeledAccelEngine` for a live EDX-CAR/EDX-DRONE
//! latency + energy estimate, and `ScheduledEngine` for the paper's
//! per-kernel offload decision ([`RuntimeScheduler`] + the offload
//! policy) made inside `push`. Post-hoc replay
//! (`eudoxus_core::AccelModel::replay`) runs the same per-frame code
//! path, so in-loop reports and replayed runs of the same log are
//! exactly equal; `cargo run --release --example offload_decision`
//! shows the scheduler deciding live, frame by frame.
//!
//! # The bus is just a link
//!
//! Since the communication-adaptive offload work, the host↔accelerator
//! interconnect is one instance of the general channel model in
//! `eudoxus-link`: [`platform::BusModel::transfer_time`] delegates to
//! the equivalent `StaticLink` (`BusModel::as_link()`), pricing a
//! transfer with the identical `latency + bytes / bandwidth` arithmetic
//! bit for bit — the pinned `bus_and_static_link_price_bit_equal` test
//! keeps EDX-CAR/EDX-DRONE modeling unchanged. For engines that move
//! kernel data over some *other* channel (a wireless uplink to an edge
//! server), [`BackendEngine::offload_time_via`] prices the same
//! three-round-trip protocol over an externally supplied transfer time,
//! and [`RuntimeScheduler::decide_with_accel_ms`] makes the offload
//! call against it (`f64::INFINITY` forces CPU — a lost frame).
//! `eudoxus_core::SessionBuilder::link` wires both to a live
//! `LinkModel` and adds the deadline fallback.

pub mod backend_engine;
pub mod baselines;
pub mod energy;
pub mod frontend_engine;
pub mod memory;
pub mod platform;
pub mod resources;
pub mod scheduler;
pub mod stencil;
pub mod workload;

pub use backend_engine::{BackendEngine, BackendKernelKind, KernelDims, MatrixOp};
pub use baselines::{Baseline, BaselineModel};
pub use energy::{EnergyModel, FrameEnergy};
pub use frontend_engine::{
    FrontendEngine, FrontendLatency, MEASURED_CPU_US_PER_TRACK_ITERATION,
};
pub use memory::MemoryReport;
pub use platform::{Platform, PlatformKind};
pub use resources::{ResourceReport, ResourceVector};
pub use scheduler::{OffloadDecision, RuntimeScheduler, TrainingSample};
pub use stencil::{SbPlan, SbStrategy, StencilConsumer};
pub use workload::FrameWorkload;
