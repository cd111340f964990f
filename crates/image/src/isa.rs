//! Runtime selection of the SIMD kernels.
//!
//! The Gaussian blur of this crate, the frontend's KLT DC/LSS phases
//! and rotated-BRIEF tests, and the fault injector's pixel noise each
//! have a portable implementation and, on x86-64, an AVX2 one.
//! [`Isa::detect`] picks the AVX2 kernels when the running CPU reports
//! the feature. Both produce bit-identical results, so the choice
//! changes speed only; this module is the one place that asks the CPU.

/// Which implementation of the SIMD kernels runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// Portable Rust: the separable filter's tap-outer loops, the
    /// lane-sequential KLT batch, the scalar ORB tests and the fault
    /// injector's one-pixel-at-a-time noise loop.
    Portable,
    /// The `std::arch` AVX2 kernels.
    #[cfg(target_arch = "x86_64")]
    Avx2(Avx2),
}

impl Isa {
    /// AVX2 when the running CPU supports it, portable otherwise.
    pub fn detect() -> Isa {
        #[cfg(target_arch = "x86_64")]
        if let Some(avx2) = Avx2::detect() {
            return Isa::Avx2(avx2);
        }
        Isa::Portable
    }
}

/// Proof that the running CPU supports AVX2. Only [`Avx2::detect`]
/// constructs one, so holding a token licenses calling the
/// `#[target_feature(enable = "avx2")]` kernels.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Avx2(());

#[cfg(target_arch = "x86_64")]
impl Avx2 {
    /// A token if the running CPU reports AVX2.
    pub fn detect() -> Option<Avx2> {
        std::arch::is_x86_feature_detected!("avx2").then_some(Avx2(()))
    }
}
