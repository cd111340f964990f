//! Image-processing substrate for the Eudoxus vision frontend.
//!
//! The frontend (paper Sec. V) operates on grayscale camera frames: image
//! filtering before descriptor computation, gradients for Lucas–Kanade
//! optical flow, pyramids for coarse-to-fine tracking, and box sums for
//! block matching. This crate provides those primitives on simple owned
//! buffers — `GrayImage` (u8) and `FloatImage` (f32).
//!
//! Every per-frame primitive has an `*_into` variant that writes into
//! caller-owned buffers ([`gaussian_blur_into`], [`separable_filter_into`],
//! [`GrayImage::downsample_2x_into`], [`Pyramid::rebuild_from`]): after one
//! warm-up call at a given image size they perform **zero heap
//! allocations**, and their output is bit-identical to the allocating
//! wrappers. The frontend's steady-state hot path is built on these,
//! plus the row-hoisted bilinear gathers in [`sample`] ([`RowSampler`]
//! for one window row, [`RowGather`] for the lane-batched KLT solve).
//!
//! [`isa`] is the one place the stack asks the CPU for its vector
//! extensions: [`gaussian_blur_into`] and the frontend's KLT and ORB kernels
//! pick their AVX2 implementations through it, each bit-identical to
//! its portable one.
//!
//! # Example
//!
//! ```
//! use eudoxus_image::{gaussian_blur, GrayImage};
//!
//! let img = GrayImage::from_fn(16, 16, |x, y| ((x ^ y) * 16) as u8);
//! let smoothed = gaussian_blur(&img, 1.0);
//! assert_eq!(smoothed.dimensions(), (16, 16));
//! ```

pub mod filter;
pub mod gradient;
pub mod gray;
pub mod integral;
pub mod isa;
pub mod pyramid;
pub mod sample;

pub use filter::{
    box_filter, gaussian_blur, gaussian_blur_into, gaussian_kernel, gaussian_kernel_into,
    separable_filter, separable_filter_into, FilterScratch,
};
pub use gradient::{scharr_gradients, Gradients};
pub use gray::{FloatImage, GrayImage};
pub use integral::IntegralImage;
pub use pyramid::Pyramid;
pub use sample::{RowGather, RowSampler};
