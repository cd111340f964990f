//! Owned grayscale image buffers.

use std::fmt;

/// An 8-bit grayscale image, row-major.
///
/// # Example
///
/// ```
/// use eudoxus_image::GrayImage;
/// let mut img = GrayImage::new(4, 3);
/// img.put(2, 1, 200);
/// assert_eq!(img.get(2, 1), 200);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct GrayImage {
    width: u32,
    height: u32,
    data: Vec<u8>,
}

impl GrayImage {
    /// Creates a black image.
    pub fn new(width: u32, height: u32) -> Self {
        GrayImage {
            width,
            height,
            data: vec![0; (width * height) as usize],
        }
    }

    /// Creates an image filled with `value`.
    pub fn filled(width: u32, height: u32, value: u8) -> Self {
        GrayImage {
            width,
            height,
            data: vec![value; (width * height) as usize],
        }
    }

    /// Creates an image by evaluating `f(x, y)` per pixel.
    pub fn from_fn(width: u32, height: u32, mut f: impl FnMut(u32, u32) -> u8) -> Self {
        let mut img = GrayImage::new(width, height);
        for y in 0..height {
            for x in 0..width {
                img.put(x, y, f(x, y));
            }
        }
        img
    }

    /// Builds from an existing buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != width * height`.
    pub fn from_vec(width: u32, height: u32, data: Vec<u8>) -> Self {
        assert_eq!(data.len(), (width * height) as usize);
        GrayImage {
            width,
            height,
            data,
        }
    }

    /// Image width in pixels.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Image height in pixels.
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// `(width, height)` pair.
    #[inline]
    pub fn dimensions(&self) -> (u32, u32) {
        (self.width, self.height)
    }

    /// Pixel value at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds (use [`GrayImage::get_checked`] to probe).
    #[inline]
    pub fn get(&self, x: u32, y: u32) -> u8 {
        self.data[(y * self.width + x) as usize]
    }

    /// Pixel value, or `None` out of bounds.
    #[inline]
    pub fn get_checked(&self, x: i64, y: i64) -> Option<u8> {
        if x < 0 || y < 0 || x >= self.width as i64 || y >= self.height as i64 {
            None
        } else {
            Some(self.get(x as u32, y as u32))
        }
    }

    /// Pixel value with coordinates clamped to the border.
    #[inline]
    pub fn get_clamped(&self, x: i64, y: i64) -> u8 {
        let cx = x.clamp(0, self.width as i64 - 1) as u32;
        let cy = y.clamp(0, self.height as i64 - 1) as u32;
        self.get(cx, cy)
    }

    /// Pixel value at `(x, y)` without a bounds check — the interior fast
    /// path for stencil kernels whose loop bounds already guarantee the
    /// access is in range (equal to [`GrayImage::get`] there).
    ///
    /// # Safety
    ///
    /// `x < width()` and `y < height()` must hold.
    #[inline]
    pub unsafe fn get_unchecked(&self, x: u32, y: u32) -> u8 {
        debug_assert!(x < self.width && y < self.height);
        *self.data.get_unchecked((y * self.width + x) as usize)
    }

    /// Writes a pixel.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[inline]
    pub fn put(&mut self, x: u32, y: u32, v: u8) {
        self.data[(y * self.width + x) as usize] = v;
    }

    /// Saturating add onto a pixel (used by the synthetic renderer).
    #[inline]
    pub fn add_saturating(&mut self, x: u32, y: u32, v: u8) {
        let p = &mut self.data[(y * self.width + x) as usize];
        *p = p.saturating_add(v);
    }

    /// Bilinear sample at fractional coordinates, clamped at borders.
    ///
    /// `#[inline]`: this is the innermost operation of the KLT solve
    /// (hundreds of samples per tracked point per pyramid level); without
    /// cross-crate inlining the call overhead dominates the four loads.
    #[inline]
    pub fn sample_bilinear(&self, x: f32, y: f32) -> f32 {
        let x0 = x.floor();
        let y0 = y.floor();
        let fx = x - x0;
        let fy = y - y0;
        let (x0, y0) = (x0 as i64, y0 as i64);
        // Interior fast path: all four taps are in bounds, so the per-tap
        // clamp (4 branchy clamps per sample — the hottest operation of
        // the KLT solve) reduces to two unchecked row reads. Produces the
        // same taps, in the same order, as the clamped path.
        //
        // The bound is written `x0 < w - 1` rather than `x0 + 1 < w`:
        // float→int `as` casts saturate, so a huge finite coordinate
        // becomes i64::MAX and must not overflow the comparison into
        // admitting an out-of-bounds unchecked read.
        if x0 >= 0
            && y0 >= 0
            && x0 < self.width as i64 - 1
            && y0 < self.height as i64 - 1
        {
            let idx = (y0 as u32 * self.width + x0 as u32) as usize;
            // SAFETY: the bounds check above covers idx, idx+1 and the
            // same pair one row down.
            let (p00, p10, p01, p11) = unsafe {
                (
                    *self.data.get_unchecked(idx) as f32,
                    *self.data.get_unchecked(idx + 1) as f32,
                    *self.data.get_unchecked(idx + self.width as usize) as f32,
                    *self.data.get_unchecked(idx + self.width as usize + 1) as f32,
                )
            };
            return p00 * (1.0 - fx) * (1.0 - fy)
                + p10 * fx * (1.0 - fy)
                + p01 * (1.0 - fx) * fy
                + p11 * fx * fy;
        }
        // Saturating neighbor steps: a huge finite coordinate saturates
        // the float→int cast to i64::MAX, and `+ 1` must not overflow
        // (everything clamps to the border regardless).
        let (x1, y1) = (x0.saturating_add(1), y0.saturating_add(1));
        let p00 = self.get_clamped(x0, y0) as f32;
        let p10 = self.get_clamped(x1, y0) as f32;
        let p01 = self.get_clamped(x0, y1) as f32;
        let p11 = self.get_clamped(x1, y1) as f32;
        p00 * (1.0 - fx) * (1.0 - fy) + p10 * fx * (1.0 - fy) + p01 * (1.0 - fx) * fy + p11 * fx * fy
    }

    /// Raw pixel buffer.
    #[inline]
    pub fn as_raw(&self) -> &[u8] {
        &self.data
    }

    /// Mutable raw pixel buffer.
    #[inline]
    pub fn as_raw_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Reshapes to `width × height`, reusing the existing buffer when its
    /// capacity suffices (no allocation in that case). Contents after the
    /// call are unspecified — intended for scratch buffers that are fully
    /// overwritten next.
    pub fn reshape(&mut self, width: u32, height: u32) {
        self.width = width;
        self.height = height;
        self.data.resize((width * height) as usize, 0);
    }

    /// Copies `src` into `self`, reshaping as needed. Allocation-free when
    /// `self`'s buffer capacity already covers `src` (the steady state of
    /// a reused pyramid level).
    pub fn copy_from(&mut self, src: &GrayImage) {
        self.width = src.width;
        self.height = src.height;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Half-resolution downsample by 2×2 averaging (pyramid level step).
    pub fn downsample_2x(&self) -> GrayImage {
        let mut out = GrayImage::new(0, 0);
        self.downsample_2x_into(&mut out);
        out
    }

    /// [`downsample_2x`](Self::downsample_2x) into a reusable buffer
    /// (allocation-free once `out` is warm). Bit-identical output.
    ///
    /// Each output pixel averages a 2×2 block read from two source row
    /// slices. A source one pixel high repeats its row, and one pixel
    /// wide its column; no other block reaches past the border.
    pub fn downsample_2x_into(&self, out: &mut GrayImage) {
        let w = (self.width / 2).max(1);
        let h = (self.height / 2).max(1);
        out.reshape(w, h);
        let sw = self.width as usize;
        for (y, dst) in out.data.chunks_exact_mut(w as usize).enumerate() {
            let sy = 2 * y;
            let sy1 = (sy + 1).min(self.height as usize - 1);
            let top = &self.data[sy * sw..][..sw];
            let bottom = &self.data[sy1 * sw..][..sw];
            if sw < 2 {
                dst[0] = ((2 * top[0] as u16 + 2 * bottom[0] as u16) / 4) as u8;
                continue;
            }
            let blocks = top.chunks_exact(2).zip(bottom.chunks_exact(2));
            for (d, (t, b)) in dst.iter_mut().zip(blocks) {
                *d = ((t[0] as u16 + t[1] as u16 + b[0] as u16 + b[1] as u16) / 4) as u8;
            }
        }
    }

    /// Mean intensity.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().map(|&v| v as f64).sum::<f64>() / self.data.len() as f64
    }
}

impl Default for GrayImage {
    /// An empty (0×0) image — the initial state of a scratch buffer.
    fn default() -> Self {
        GrayImage::new(0, 0)
    }
}

impl fmt::Debug for GrayImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "GrayImage({}x{}, mean {:.1})",
            self.width,
            self.height,
            self.mean()
        )
    }
}

/// A 32-bit float image (gradients, filtered intermediates).
#[derive(Clone, PartialEq)]
pub struct FloatImage {
    width: u32,
    height: u32,
    data: Vec<f32>,
}

impl FloatImage {
    /// Creates a zero-filled image.
    pub fn new(width: u32, height: u32) -> Self {
        FloatImage {
            width,
            height,
            data: vec![0.0; (width * height) as usize],
        }
    }

    /// Converts a grayscale image to float.
    pub fn from_gray(img: &GrayImage) -> Self {
        let mut out = FloatImage::default();
        out.copy_from_gray(img);
        out
    }

    /// [`from_gray`](Self::from_gray) into `self`, reusing the buffer
    /// (allocation-free once warm). Every `u8` is exactly representable
    /// in `f32`, so sampling the float plane is bit-identical to sampling
    /// the source image.
    pub fn copy_from_gray(&mut self, src: &GrayImage) {
        self.width = src.width();
        self.height = src.height();
        self.data.clear();
        self.data.extend(src.as_raw().iter().map(|&v| v as f32));
    }

    /// Image width in pixels.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Image height in pixels.
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Value at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[inline]
    pub fn get(&self, x: u32, y: u32) -> f32 {
        self.data[(y * self.width + x) as usize]
    }

    /// Value with coordinates clamped to the border.
    #[inline]
    pub fn get_clamped(&self, x: i64, y: i64) -> f32 {
        let cx = x.clamp(0, self.width as i64 - 1) as u32;
        let cy = y.clamp(0, self.height as i64 - 1) as u32;
        self.get(cx, cy)
    }

    /// Writes a value.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[inline]
    pub fn put(&mut self, x: u32, y: u32, v: f32) {
        self.data[(y * self.width + x) as usize] = v;
    }

    /// Bilinear sample at fractional coordinates, clamped at borders.
    #[inline]
    pub fn sample_bilinear(&self, x: f32, y: f32) -> f32 {
        let x0 = x.floor();
        let y0 = y.floor();
        let fx = x - x0;
        let fy = y - y0;
        let (x0, y0) = (x0 as i64, y0 as i64);
        let (x1, y1) = (x0.saturating_add(1), y0.saturating_add(1));
        let p00 = self.get_clamped(x0, y0);
        let p10 = self.get_clamped(x1, y0);
        let p01 = self.get_clamped(x0, y1);
        let p11 = self.get_clamped(x1, y1);
        p00 * (1.0 - fx) * (1.0 - fy) + p10 * fx * (1.0 - fy) + p01 * (1.0 - fx) * fy + p11 * fx * fy
    }

    /// Converts back to 8-bit with clamping.
    pub fn to_gray(&self) -> GrayImage {
        let mut out = GrayImage::new(0, 0);
        self.to_gray_into(&mut out);
        out
    }

    /// [`to_gray`](Self::to_gray) into a reusable buffer (allocation-free
    /// once `out` is warm). Bit-identical output.
    pub fn to_gray_into(&self, out: &mut GrayImage) {
        out.reshape(self.width, self.height);
        for (dst, &v) in out.as_raw_mut().iter_mut().zip(&self.data) {
            *dst = round_to_u8(v);
        }
    }

    /// Reshapes to `width × height`, reusing the existing buffer when its
    /// capacity suffices. Contents after the call are unspecified.
    pub fn reshape(&mut self, width: u32, height: u32) {
        self.width = width;
        self.height = height;
        self.data.resize((width * height) as usize, 0.0);
    }

    /// Raw buffer.
    #[inline]
    pub fn as_raw(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw buffer.
    #[inline]
    pub fn as_raw_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }
}

/// `v.round().clamp(0.0, 255.0) as u8` without the `roundf` libcall:
/// truncating the clamped value and adding one at a fraction of `0.5` or
/// more rounds half away from zero on `[0, 255]`. Equal for all 2³² `f32`
/// bit patterns (NaN gives 0 both ways).
#[inline]
fn round_to_u8(v: f32) -> u8 {
    let c = v.clamp(0.0, 255.0);
    let t = c as u8;
    t + u8::from(c - t as f32 >= 0.5)
}

impl Default for FloatImage {
    /// An empty (0×0) image — the initial state of a scratch buffer.
    fn default() -> Self {
        FloatImage::new(0, 0)
    }
}

impl fmt::Debug for FloatImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FloatImage({}x{})", self.width, self.height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_put_roundtrip() {
        let mut img = GrayImage::new(8, 8);
        img.put(3, 4, 99);
        assert_eq!(img.get(3, 4), 99);
        assert_eq!(img.get_checked(3, 4), Some(99));
        assert_eq!(img.get_checked(-1, 0), None);
        assert_eq!(img.get_checked(8, 0), None);
    }

    #[test]
    fn clamped_access_replicates_border() {
        let img = GrayImage::from_fn(4, 4, |x, y| (x + y * 4) as u8);
        assert_eq!(img.get_clamped(-5, -5), img.get(0, 0));
        assert_eq!(img.get_clamped(10, 10), img.get(3, 3));
    }

    #[test]
    fn bilinear_interpolates_midpoint() {
        let mut img = GrayImage::new(2, 1);
        img.put(0, 0, 0);
        img.put(1, 0, 100);
        assert!((img.sample_bilinear(0.5, 0.0) - 50.0).abs() < 1e-5);
        assert!((img.sample_bilinear(0.0, 0.0) - 0.0).abs() < 1e-5);
    }

    #[test]
    fn bilinear_huge_coordinates_clamp_to_border() {
        // Far-out finite coordinates saturate the float→int casts; the
        // interior fast path must reject them (not overflow into an
        // unchecked read) and fall back to border clamping.
        let img = GrayImage::from_fn(8, 8, |x, y| (x * 10 + y) as u8);
        for (x, y, want) in [
            (1e19f32, 1e19f32, img.get(7, 7)),
            (-1e19, -1e19, img.get(0, 0)),
            (1e19, 0.0, img.get(7, 0)),
            (0.0, -1e19, img.get(0, 0)),
        ] {
            assert_eq!(img.sample_bilinear(x, y), want as f32, "at ({x}, {y})");
        }
    }

    #[test]
    fn downsample_halves_dimensions() {
        let img = GrayImage::filled(10, 6, 77);
        let half = img.downsample_2x();
        assert_eq!(half.dimensions(), (5, 3));
        assert_eq!(half.get(2, 1), 77);
    }

    #[test]
    fn saturating_add_caps_at_255() {
        let mut img = GrayImage::filled(1, 1, 250);
        img.add_saturating(0, 0, 10);
        assert_eq!(img.get(0, 0), 255);
    }

    #[test]
    fn float_conversion_roundtrip() {
        let img = GrayImage::from_fn(5, 5, |x, y| (x * 13 + y * 29) as u8);
        let f = FloatImage::from_gray(&img);
        assert_eq!(f.to_gray(), img);
    }

    #[test]
    fn round_to_u8_matches_round_then_clamp() {
        let reference = |v: f32| v.round().clamp(0.0, 255.0) as u8;
        let ulp_steps = |v: f32| {
            [
                f32::from_bits(v.to_bits() - 1),
                v,
                f32::from_bits(v.to_bits() + 1),
            ]
        };
        let mut probes = vec![
            0.49999997,
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::MIN_POSITIVE,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::from_bits(0x007F_FFFF),
            -f32::MIN_POSITIVE,
            255.0,
            255.49998,
            255.5,
            256.0,
            1e30,
            -1e30,
        ];
        // Half-integers on both sides of zero and past both clamp ends,
        // one ulp either way.
        for k in -3..=258 {
            probes.extend(ulp_steps(k as f32 + 0.5));
        }
        for v in probes {
            assert_eq!(
                round_to_u8(v),
                reference(v),
                "at {v:e} ({:#x})",
                v.to_bits()
            );
        }
    }

    #[test]
    fn mean_of_filled() {
        assert_eq!(GrayImage::filled(3, 3, 60).mean(), 60.0);
    }
}
