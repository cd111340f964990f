//! The Eudoxus vision frontend: visual feature matching.
//!
//! The unified localization algorithm (paper Fig. 4) shares one visual
//! frontend across all three backend modes. It establishes feature
//! correspondences both *spatially* (between the stereo pair) and
//! *temporally* (between consecutive frames):
//!
//! * **Feature extraction** — FAST key points ([`fast`]) with ORB
//!   descriptors ([`orb`]), the combination the paper adopts from
//!   ORB-SLAM-class systems.
//! * **Stereo matching** — Hamming-distance matching of ORB descriptors
//!   followed by block-matching disparity refinement ([`stereo`]).
//! * **Temporal matching** — pyramidal Lucas–Kanade optical flow
//!   ([`klt`]).
//!
//! [`pipeline::Frontend`] wires the blocks together, manages persistent
//! track identities, and reports per-task wall-clock timings matching the
//! accelerator task graph (FD, IF, FC, MO, DR, DC, LSS of paper Fig. 12) so
//! the characterization experiments (Figs. 5–11) can attribute latency.
//!
//! # Performance: the scratch-reuse contract
//!
//! The per-frame kernels come in two forms. The plain functions
//! ([`detect_fast`], [`track_pyramidal`], `eudoxus_image::gaussian_blur`)
//! allocate their working memory per call — convenient for one-off use
//! and tests. Each has an `*_into` twin ([`detect_fast_into`],
//! [`track_pyramidal_into`], `eudoxus_image::gaussian_blur_into`) that
//! takes a caller-owned scratch ([`FastScratch`], [`KltScratch`],
//! `eudoxus_image::FilterScratch`) plus an output buffer, and is
//! **bit-identical** to its twin while performing **zero heap
//! allocations** once the buffers are warm (one call at the stream's
//! image size).
//!
//! `*_into` is worth it exactly when the same kernel runs repeatedly at a
//! fixed image size — the streaming steady state, where the allocator
//! otherwise sits on the critical path of every frame. For a single call
//! the wrappers cost the same (they *are* one cold `_into` call).
//!
//! [`Frontend`] owns a [`FrontendScratch`] and uses the `_into` forms
//! throughout; it also caches the previous left-image pyramid, so each
//! frame builds exactly one pyramid (the current left, into a recycled
//! slot) instead of two from full-image clones. After warm-up,
//! [`Frontend::process`] makes no allocations for response maps, blur
//! buffers, or pyramids; remaining per-frame allocations are the returned
//! observation list and the stereo matcher's internals.
//!
//! # Performance: the batched KLT solve and the AVX2 kernels
//!
//! The dominant frontend kernel after the scratch work is the KLT solve
//! (the paper's DC + LSS "temporal" tasks). [`track_pyramidal_into`]
//! therefore streams each pyramid level's tracks through
//! [`KLT_LANES`] (= 8) lane-parallel slots, as the paper's accelerator
//! streams tracks through fixed hardware: a lane whose track converges
//! takes the next waiting track before the next iteration. Per-lane
//! positions, 2×2 normal matrices and window buffers live as SoA arrays
//! in [`KltScratch`].
//!
//! The bilinear-sampling loops — KLT's DC and LSS phases and ORB's 256
//! rotated-BRIEF tests ([`compute_orb`]) — have two implementations,
//! picked at run time. On x86-64 hosts that report AVX2, `std::arch`
//! kernels run one vector instruction for all eight KLT lanes (row loads
//! sample interior window rows, masked gathers the rest) and eight BRIEF
//! pairs at a time.
//! Where the CPU lacks AVX2 the portable path runs (other architectures
//! compile only that path; CI type-checks it for aarch64): the
//! lane-sequential batch, whose row-hoisted gather
//! (`eudoxus_image::RowGather`) gives the core eight independent `f32`
//! accumulator chains, and the scalar BRIEF loop. No option selects
//! between them, because both give the same bits: every AVX2 lane runs
//! the scalar operation sequence (separate `mul` and `add`, no FMA; the
//! scalar sum order; truncation only where `x ≥ 0` is proven or after a
//! clamp to the plane). KLT lanes at the border stay on the vector
//! kernels, whose clamped sampler takes the scalar clamp's taps; only a
//! KLT lane with a non-finite coordinate, or a BRIEF group the kernel
//! cannot prove interior, runs the scalar code. A KLT lane freed by
//! convergence is refilled, not left masked, so lanes idle only in each
//! level's tail.
//!
//! Stereo disparity refinement sums its SAD blocks over the `u8` pixels
//! in integers when the key point and the disparity are integers, as
//! every FAST corner is, bit-identical to the bilinear `f32` SADs (see
//! [`stereo`]).
//!
//! The scalar solve survives as [`track_one`]/[`track_one_with`] and as
//! the portable batch's per-row border fallback; everything is
//! **bit-identical** to the seed solve, descriptor and stereo matcher
//! (golden and property tests in `eudoxus-bench`, all five scenario
//! kinds), and
//! in-crate tests compare the portable and AVX2 kernels directly. See
//! `crates/frontend/src/README.md` for the design notes and measured
//! numbers.
//!
//! # Performance: the filtering and detection stencils
//!
//! The image-filtering (IF) blur has an AVX2 kernel in
//! `eudoxus_image` (eight outputs per register, the horizontal pass
//! streamed through a ring of `2r + 1` lines), picked through the same
//! `eudoxus_image::isa::Isa` detection as the KLT and ORB kernels. FAST
//! detection (FD, [`detect_fast_into`]) has one portable path: a
//! branch-free compass pre-test per row that the compiler vectorizes,
//! the full segment test only where that pre-test passes, and
//! non-maximum suppression over the list of positive responses instead
//! of the whole response map. Both are bit-identical to the seed
//! kernels.
//!
//! # Example
//!
//! ```
//! use eudoxus_frontend::{Frontend, FrontendConfig};
//! use eudoxus_image::GrayImage;
//!
//! let mut frontend = Frontend::new(FrontendConfig::default());
//! let left = GrayImage::filled(64, 48, 120);
//! let right = left.clone();
//! let frame = frontend.process(&left, &right);
//! // A textureless frame yields no features but a valid (empty) result.
//! assert_eq!(frame.observations.len(), 0);
//! ```

pub mod fast;
pub mod feature;
pub mod klt;
pub mod orb;
pub mod pipeline;
pub mod stereo;

pub use fast::{detect_fast, detect_fast_into, FastConfig, FastScratch};
pub use feature::{Feature, KeyPoint, OrbDescriptor};
pub use klt::{
    track_one, track_one_with, track_pyramidal, track_pyramidal_into, KltConfig, KltScratch,
    TrackOutcome, KLT_LANES,
};
pub use orb::{compute_orb, OrbConfig};
pub use pipeline::{
    FrameDirective, FrameStats, Frontend, FrontendConfig, FrontendFrame, FrontendScratch,
    FrontendTiming, Observation, Tuning,
};
pub use stereo::{match_stereo, StereoConfig, StereoMatch};
