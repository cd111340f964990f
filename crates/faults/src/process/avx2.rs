//! AVX2 pixel noise: four pixels per step, each lane with its own draw.
//!
//! The noise sub-stream is counter-based (see the [module
//! docs](super)), so lane `j` of the step at pixel `i` computes draw
//! `i + j + 1` straight from its counter state `state + (i + j + 1)·γ`,
//! and each lane's state steps by 4γ. SplitMix64's 64-bit multiplies run
//! as three `_mm256_mul_epu32` products each, and its shifts and XORs
//! lane-wise, with the wrapping arithmetic of the scalar [`mix`](super::mix).
//!
//! Every lane then runs the scalar operation sequence of
//! [`Corruption::pixel`]: the exact `[0, 1)` mapping of
//! [`unit`](super::unit), `noise·((u·2) − 1)`, then
//! `((v·gain) + bias) + n`, with `mul`, `sub` and `add` as separate
//! instructions (no FMA). `max(·, 0)` then `min(·, 255)` equals `clamp`
//! for every finite sum and maps NaN to 0 as the saturating cast does, and
//! truncation equals `as u8` on `[0, 255]`. The output is therefore
//! bit-identical to the portable kernel.

use super::{Corruption, GAMMA, MIX_MUL};
use eudoxus_image::isa::Avx2;
use std::arch::x86_64::*;

/// Bit pattern of 2⁵² as an `f64`: ORing an integer below 2³² into its
/// mantissa gives `2⁵² + lo`.
const TWO_52: i64 = 0x4330_0000_0000_0000;
/// Bit pattern of 2⁸⁴ as an `f64`: ORing an integer below 2³² into its
/// mantissa gives `2⁸⁴ + hi·2³²`.
const TWO_84: i64 = 0x4530_0000_0000_0000;

/// `dst[i] = c.pixel(src[i], mix(state + (i + 1)·γ))`, as
/// [`corrupt_portable`](super::corrupt_portable) computes it.
pub(super) fn corrupt(_: Avx2, c: Corruption, src: &[u8], dst: &mut [u8], state: u64) {
    // SAFETY: the `Avx2` token proves the CPU supports AVX2.
    unsafe { corrupt_avx2(c, src, dst, state) }
}

/// The kernel behind [`corrupt`]. `src` and `dst` have equal lengths.
#[target_feature(enable = "avx2")]
fn corrupt_avx2(c: Corruption, src: &[u8], dst: &mut [u8], state: u64) {
    let (gain, bias, noise) = (
        _mm256_set1_pd(c.gain),
        _mm256_set1_pd(c.bias),
        _mm256_set1_pd(c.noise),
    );
    let (one, two) = (_mm256_set1_pd(1.0), _mm256_set1_pd(2.0));
    let (zero, max) = (_mm256_setzero_pd(), _mm256_set1_pd(255.0));
    let at = |k: u64| state.wrapping_add(k.wrapping_mul(GAMMA)) as i64;
    let mut s = _mm256_setr_epi64x(at(1), at(2), at(3), at(4));
    let step = _mm256_set1_epi64x(GAMMA.wrapping_mul(4) as i64);
    let mut src4 = src.chunks_exact(4);
    let mut dst4 = dst.chunks_exact_mut(4);
    for (d, p) in (&mut dst4).zip(&mut src4) {
        let u = unit(mix(s));
        let n = _mm256_mul_pd(noise, _mm256_sub_pd(_mm256_mul_pd(u, two), one));
        let bytes = _mm_cvtsi32_si128(i32::from_le_bytes([p[0], p[1], p[2], p[3]]));
        let v = _mm256_cvtepi32_pd(_mm_cvtepu8_epi32(bytes));
        let x = _mm256_add_pd(_mm256_add_pd(_mm256_mul_pd(v, gain), bias), n);
        // `max` returns its second operand when the first is NaN.
        let x = _mm256_min_pd(_mm256_max_pd(x, zero), max);
        let words = _mm_packs_epi32(_mm256_cvttpd_epi32(x), _mm_setzero_si128());
        let packed = _mm_packus_epi16(words, words);
        d.copy_from_slice(&_mm_cvtsi128_si32(packed).to_le_bytes());
        s = _mm256_add_epi64(s, step);
    }
    // The last `len % 4` pixels: draws `done + 1 ..`.
    let done = (src.len() - src4.remainder().len()) as u64;
    let mut z = state.wrapping_add(done.wrapping_mul(GAMMA));
    for (d, &v) in dst4.into_remainder().iter_mut().zip(src4.remainder()) {
        z = z.wrapping_add(GAMMA);
        *d = c.pixel(v, super::mix(z));
    }
}

/// SplitMix64's output function on four lanes of counter state.
#[inline]
#[target_feature(enable = "avx2")]
fn mix(z: __m256i) -> __m256i {
    let z = mul64(_mm256_xor_si256(z, _mm256_srli_epi64::<30>(z)), MIX_MUL[0]);
    let z = mul64(_mm256_xor_si256(z, _mm256_srli_epi64::<27>(z)), MIX_MUL[1]);
    _mm256_xor_si256(z, _mm256_srli_epi64::<31>(z))
}

/// `a·b mod 2⁶⁴` per lane from three 32×32→64-bit products:
/// `lo(a)·lo(b) + ((hi(a)·lo(b) + lo(a)·hi(b)) << 32)`. The fourth
/// product, `hi(a)·hi(b)`, lies wholly above bit 63.
#[inline]
#[target_feature(enable = "avx2")]
fn mul64(a: __m256i, b: u64) -> __m256i {
    let b_lo = _mm256_set1_epi64x((b & 0xFFFF_FFFF) as i64);
    let b_hi = _mm256_set1_epi64x((b >> 32) as i64);
    let cross = _mm256_add_epi64(
        _mm256_mul_epu32(_mm256_srli_epi64::<32>(a), b_lo),
        _mm256_mul_epu32(a, b_hi),
    );
    _mm256_add_epi64(_mm256_mul_epu32(a, b_lo), _mm256_slli_epi64::<32>(cross))
}

/// Four draws mapped to `[0, 1)` as [`unit`](super::unit) maps one.
/// AVX2 has no 64-bit integer conversion, so the 53-bit `m = z >> 11`
/// goes in as two halves: its high 32 bits ORed into 2⁸⁴ give
/// `2⁸⁴ + hi·2³²`, its low 32 bits ORed into 2⁵² give `2⁵² + lo`, and
/// `(high − (2⁸⁴ + 2⁵²)) + low` is `m`. Each step's exact result fits a
/// mantissa (`m < 2⁵³`), so no step rounds.
#[inline]
#[target_feature(enable = "avx2")]
fn unit(z: __m256i) -> __m256d {
    let m = _mm256_srli_epi64::<11>(z);
    let high = _mm256_or_si256(_mm256_srli_epi64::<32>(m), _mm256_set1_epi64x(TWO_84));
    let low = _mm256_or_si256(
        _mm256_and_si256(m, _mm256_set1_epi64x(0xFFFF_FFFF)),
        _mm256_set1_epi64x(TWO_52),
    );
    let offset = _mm256_set1_pd(f64::from_bits(TWO_84 as u64) + f64::from_bits(TWO_52 as u64));
    let m = _mm256_add_pd(
        _mm256_sub_pd(_mm256_castsi256_pd(high), offset),
        _mm256_castsi256_pd(low),
    );
    _mm256_mul_pd(m, _mm256_set1_pd(1.0 / (1u64 << 53) as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simd_unit_conversion_is_exact() {
        // The halves' edges: zero, one, a full low half, the first high
        // bit, 2⁵² and the largest 53-bit value, each with and without
        // the 11 bits the shift discards.
        let Some(_) = Avx2::detect() else {
            eprintln!("host lacks AVX2: conversion test skipped");
            return;
        };
        let ms = [0u64, 1, (1 << 32) - 1, 1 << 32, 1 << 52, (1 << 53) - 1];
        for &m in &ms {
            for low_bits in [0, 0x7FF] {
                let z = (m << 11) | low_bits;
                // SAFETY: `Avx2::detect` returned a token above.
                let got = unsafe { unit_lanes(z) };
                let want = m as f64 / (1u64 << 53) as f64;
                for g in got {
                    assert_eq!(g.to_bits(), want.to_bits(), "m={m:#x}");
                    assert_eq!(g.to_bits(), super::super::unit(z).to_bits(), "m={m:#x}");
                }
            }
        }
    }

    /// [`unit`] on four lanes of `z`, stored to an array.
    #[target_feature(enable = "avx2")]
    fn unit_lanes(z: u64) -> [f64; 4] {
        let mut out = [0.0; 4];
        // SAFETY: `out` holds four `f64`s.
        unsafe { _mm256_storeu_pd(out.as_mut_ptr(), unit(_mm256_set1_epi64x(z as i64))) };
        out
    }
}
