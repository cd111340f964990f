//! Runtime selection of the frontend's bilinear-sampling kernels.
//!
//! The KLT DC/LSS phases and the rotated-BRIEF tests of ORB each have a
//! portable implementation and, on x86-64, an AVX2 one. [`Isa::detect`]
//! picks the AVX2 kernels when the running CPU reports the feature. Both
//! produce bit-identical results, so the choice changes speed only.

/// Which implementation of the bilinear-sampling kernels runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Isa {
    /// Portable Rust: the lane-sequential KLT batch and the scalar ORB
    /// tests.
    Portable,
    /// The `std::arch` AVX2 kernels.
    #[cfg(target_arch = "x86_64")]
    Avx2(Avx2),
}

impl Isa {
    /// AVX2 when the running CPU supports it, portable otherwise.
    pub(crate) fn detect() -> Isa {
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
pub(crate) struct Avx2(());

#[cfg(target_arch = "x86_64")]
impl Avx2 {
    /// A token if the running CPU reports AVX2.
    pub(crate) fn detect() -> Option<Avx2> {
        std::arch::is_x86_feature_detected!("avx2").then_some(Avx2(()))
    }
}
