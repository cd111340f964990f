//! Host-speed calibration.
//!
//! The shared VM this benchmark was tuned on changes speed in steps that
//! last minutes: with nothing stolen, `drone_mixed` ran anywhere from 18 to
//! 47 frames/s in thread CPU time, depending on what the host's other
//! tenants were doing. No clock removes that. So the benchmark runs a
//! fixed kernel on the client thread right after every timed step (a
//! single session's frame, or a `fleet` round), and scales each step's
//! time by [`REFERENCE_MS`] ÷ the kernel's median time around it. A scaled
//! time reads as what the step would have taken on a host where the
//! kernel takes [`REFERENCE_MS`].
//!
//! The kernel is frozen here, in the benchmark, so that no change to the
//! program moves it. The host's slow spells slow code that streams through
//! the shared cache more than code that works within its core's caches,
//! and a frame does both, so the kernel does both, about half and half:
//!
//! - a float 3×3 stencil run back and forth between two planes of the
//!   drone rig's image size (2.4 MB, more than a core's L2), as a frame's
//!   blur and pyramid passes stream through its buffers;
//! - on a small image that stays in the core's caches, a frame's kernels
//!   in about a frame's shares: a separable blur, a FAST-9 segment test, a
//!   rotated binary descriptor around keypoints, pyramidal-tracker-style
//!   bilinear sampling (the largest share) and Hamming matching.
//!
//! On eight runs of one seed on the tuning host, whose unscaled frame
//! rates ranged over 30 %, the scaled ones ranged over 3.4 %; scaled by
//! the streaming half alone, over 10 %, and by the cache-resident half
//! alone, over 5 %.

use crate::stats::{median, thread_cpu_ns};

/// The unit scaled times are in: the kernel's time on the reference host.
/// On the tuning host (a shared 2-vCPU Intel Xeon VM at 2.1 GHz) its
/// median ranged from 1.9 to 2.6 ms between `drone_mixed` frames, and
/// from 2.4 to 2.9 ms after `fleet` rounds.
pub const REFERENCE_MS: f64 = 2.0;

/// A timed step's scale is taken from the calibration samples of the
/// steps up to this many before and after it.
const HALF_WINDOW: usize = 8;

/// Samples taken before each scene's set-up. Set-up is short, so all of a
/// run's set-up is scaled by the median of all of them.
pub const SETUP_SAMPLES: usize = 5;

/// The scale of work done among calibration samples: [`REFERENCE_MS`] ÷
/// their median, which one disturbed sample cannot move.
pub fn scale(calib_ms: &[f64]) -> f64 {
    REFERENCE_MS / median(calib_ms).expect("at least one calibration sample")
}

/// Per timed step, in order: the [`scale`] of the calibration samples of
/// the steps within [`HALF_WINDOW`] of it, which follows the host as it
/// changes speed.
pub fn scales(calib_ms: &[f64]) -> Vec<f64> {
    (0..calib_ms.len())
        .map(|i| {
            let end = (i + HALF_WINDOW + 1).min(calib_ms.len());
            scale(&calib_ms[i.saturating_sub(HALF_WINDOW)..end])
        })
        .collect()
}

/// The streamed planes: the drone rig's image size.
const PLANE_WIDTH: usize = 640;
const PLANE_HEIGHT: usize = 480;
const PASSES: usize = 4;
/// The cache-resident image.
const WIDTH: usize = 320;
const HEIGHT: usize = 240;
/// Keypoints the descriptor and the tracker work on, on a regular grid.
const KEYPOINTS: usize = 28;
const TRACKED: usize = 16;
/// The tracking window: 15×15 pixels.
const WINDOW: isize = 7;
const SIDE: isize = 2 * WINDOW + 1;
const AREA: usize = (SIDE * SIDE) as usize;
const ITERATIONS: usize = 6;
const DESCRIPTORS: usize = 128;
/// The FAST ring: radius-3 Bresenham circle, clockwise from the top.
const RING: [(isize, isize); 16] = [
    (0, -3),
    (1, -3),
    (2, -2),
    (3, -1),
    (3, 0),
    (3, 1),
    (2, 2),
    (1, 3),
    (0, 3),
    (-1, 3),
    (-2, 2),
    (-3, 1),
    (-3, 0),
    (-3, -1),
    (-2, -2),
    (-1, -3),
];

/// The calibration kernel: fixed inputs and its own buffers, all
/// allocated once.
pub struct Kernel {
    planes: [Vec<f32>; 2],
    /// The stereo pair.
    images: [Vec<u8>; 2],
    tmp: Vec<f32>,
    blurred: Vec<u8>,
    /// Descriptor test pairs `(x0, y0, x1, y1)` within a 31×31 patch.
    pattern: Vec<[f32; 4]>,
    descriptors: Vec<[u64; 4]>,
}

/// xorshift64*: the kernel's fixed inputs.
fn next(state: &mut u64) -> u64 {
    *state ^= *state >> 12;
    *state ^= *state << 25;
    *state ^= *state >> 27;
    state.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Keypoint `i` of `n` on a regular grid that keeps a 16-pixel margin.
fn keypoint(i: usize, n: usize) -> (f32, f32) {
    let cols = (n as f32).sqrt().ceil() as usize;
    let rows = n.div_ceil(cols);
    let (cx, cy) = (i % cols, i / cols);
    let x = 16.0 + (WIDTH - 32) as f32 * (cx as f32 + 0.5) / cols as f32;
    let y = 16.0 + (HEIGHT - 32) as f32 * (cy as f32 + 0.5) / rows as f32;
    (x, y)
}

impl Kernel {
    pub fn new() -> Self {
        let mut state = 0x9E37_79B9_7F4A_7C15;
        // Flat 8×8 blocks of random brightness under light noise: corners
        // where blocks meet, flat texture between.
        let blocks: Vec<u8> = (0..(WIDTH / 8) * (HEIGHT / 8))
            .map(|_| next(&mut state) as u8)
            .collect();
        let mut image = |shift: usize| -> Vec<u8> {
            (0..WIDTH * HEIGHT)
                .map(|i| {
                    let (x, y) = ((i + shift) % WIDTH, i / WIDTH);
                    let base = blocks[(y / 8) * (WIDTH / 8) + x / 8];
                    base.saturating_add((next(&mut state) % 6) as u8)
                })
                .collect()
        };
        let images = [image(0), image(3)];
        let pattern = (0..256)
            .map(|_| std::array::from_fn(|_| (next(&mut state) % 25) as f32 - 12.0))
            .collect();
        let descriptors = (0..2 * DESCRIPTORS)
            .map(|_| std::array::from_fn(|_| next(&mut state)))
            .collect();
        let plane: Vec<f32> = (0..PLANE_WIDTH * PLANE_HEIGHT)
            .map(|_| (next(&mut state) % 256) as f32)
            .collect();
        Kernel {
            planes: [plane.clone(), plane],
            images,
            tmp: vec![0.0; WIDTH * HEIGHT],
            blurred: vec![0; WIDTH * HEIGHT],
            pattern,
            descriptors,
        }
    }

    /// Runs the kernel once; returns the thread CPU time it took, in ms.
    /// Whatever the program left in the caches, the timed run starts from
    /// the same state: the kernel's own buffers read through once,
    /// untimed. Otherwise a program change that touched less memory would
    /// leave the kernel warmer, and its time, with the scale, would move.
    pub fn sample_ms(&mut self) -> f64 {
        let planes = self.planes.iter().flatten().map(|v| v.to_bits() as u64);
        let bytes = [&self.images[0], &self.images[1], &self.blurred]
            .into_iter()
            .flatten()
            .map(|&b| b as u64);
        let tmp = self.tmp.iter().map(|v| v.to_bits() as u64);
        std::hint::black_box(planes.chain(bytes).chain(tmp).fold(0u64, u64::wrapping_add));
        let start = thread_cpu_ns();
        let checksum = self.stream()
            + self.blur()
            + self.corners()
            + self.describe()
            + self.track()
            + self.matches();
        std::hint::black_box(checksum);
        (thread_cpu_ns() - start) as f64 / 1e6
    }

    /// A [1 2 1]² / 16 stencil from one plane into the other, and back.
    fn stream(&mut self) -> u64 {
        let w = PLANE_WIDTH;
        let [a, b] = &mut self.planes;
        for pass in 0..PASSES {
            let (src, dst) = if pass % 2 == 0 {
                (&*a, &mut *b)
            } else {
                (&*b, &mut *a)
            };
            for y in 1..PLANE_HEIGHT - 1 {
                for x in 1..w - 1 {
                    let i = y * w + x;
                    dst[i] = 0.25 * src[i]
                        + 0.125 * (src[i - 1] + src[i + 1] + src[i - w] + src[i + w])
                        + 0.0625
                            * (src[i - w - 1] + src[i - w + 1] + src[i + w - 1] + src[i + w + 1]);
                }
            }
        }
        b[w * PLANE_HEIGHT / 2] as u64
    }

    /// Separable [1 4 6 4 1] / 16 blur of the left image, through a float
    /// intermediate.
    fn blur(&mut self) -> u64 {
        const TAPS: [f32; 5] = [0.0625, 0.25, 0.375, 0.25, 0.0625];
        for y in 0..HEIGHT {
            let row = &self.images[0][y * WIDTH..(y + 1) * WIDTH];
            for x in 2..WIDTH - 2 {
                self.tmp[y * WIDTH + x] = (0..5).map(|k| TAPS[k] * row[x + k - 2] as f32).sum();
            }
        }
        for y in 2..HEIGHT - 2 {
            for x in 2..WIDTH - 2 {
                let v: f32 = (0..5)
                    .map(|k| TAPS[k] * self.tmp[(y + k - 2) * WIDTH + x])
                    .sum();
                self.blurred[y * WIDTH + x] = v as u8;
            }
        }
        self.blurred[WIDTH * HEIGHT / 2] as u64
    }

    /// FAST-9 segment test with threshold 10, behind the usual four-point
    /// quick rejection, on every eighth row; returns the corner count.
    fn corners(&self) -> u64 {
        const T: i16 = 10;
        let img = &self.images[0];
        let at = |x: usize, y: usize, (dx, dy): (isize, isize)| {
            img[(y as isize + dy) as usize * WIDTH + (x as isize + dx) as usize] as i16
        };
        let mut count = 0;
        for y in (3..HEIGHT - 3).step_by(8) {
            for x in 3..WIDTH - 3 {
                let c = img[y * WIDTH + x] as i16;
                let quick = [0, 4, 8, 12].map(|k| at(x, y, RING[k]));
                let bright = quick.iter().filter(|&&p| p > c + T).count();
                let dark = quick.iter().filter(|&&p| p < c - T).count();
                if bright < 2 && dark < 2 {
                    continue;
                }
                let ring: [i16; 16] = std::array::from_fn(|k| at(x, y, RING[k]));
                let (mut bright, mut dark) = (0, 0);
                for k in 0..16 + 9 {
                    let p = ring[k % 16];
                    bright = if p > c + T { bright + 1 } else { 0 };
                    dark = if p < c - T { dark + 1 } else { 0 };
                    if bright >= 9 || dark >= 9 {
                        count += 1;
                        break;
                    }
                }
            }
        }
        count
    }

    /// An oriented binary descriptor per keypoint: the intensity centroid
    /// of a 31×31 patch gives the angle, and 256 rotated test pairs give
    /// the bits. Returns the number of bits set.
    fn describe(&self) -> u64 {
        let img = &self.blurred;
        let px = |x: f32, y: f32| img[y.round() as usize * WIDTH + x.round() as usize] as i32;
        let mut ones = 0;
        for i in 0..KEYPOINTS {
            let (kx, ky) = keypoint(i, KEYPOINTS);
            let (mut m10, mut m01) = (0i32, 0i32);
            for dy in -15i32..=15 {
                for dx in -15i32..=15 {
                    let v = px(kx + dx as f32, ky + dy as f32);
                    m10 += dx * v;
                    m01 += dy * v;
                }
            }
            let (sin, cos) = (m01 as f32).atan2(m10 as f32).sin_cos();
            let mut bits = [0u64; 4];
            for (b, [x0, y0, x1, y1]) in self.pattern.iter().enumerate() {
                let p0 = px(kx + cos * x0 - sin * y0, ky + sin * x0 + cos * y0);
                let p1 = px(kx + cos * x1 - sin * y1, ky + sin * x1 + cos * y1);
                bits[b / 64] |= u64::from(p0 < p1) << (b % 64);
            }
            ones += bits.iter().map(|w| w.count_ones() as u64).sum::<u64>();
        }
        ones
    }

    /// Lucas–Kanade at one level: per tracked point, a 15×15 template with
    /// its gradients, then a fixed number of Gauss–Newton updates, all by
    /// bilinear sampling. The blurred left image is the previous frame,
    /// the raw right one the next.
    fn track(&self) -> u64 {
        let sample = |img: &[u8], x: f32, y: f32| {
            let (x0, y0) = (x.floor(), y.floor());
            let (fx, fy) = (x - x0, y - y0);
            let i = y0 as usize * WIDTH + x0 as usize;
            let (p00, p10) = (img[i] as f32, img[i + 1] as f32);
            let (p01, p11) = (img[i + WIDTH] as f32, img[i + WIDTH + 1] as f32);
            p00 * (1.0 - fx) * (1.0 - fy)
                + p10 * fx * (1.0 - fy)
                + p01 * (1.0 - fx) * fy
                + p11 * fx * fy
        };
        let (prev, next) = (&self.blurred, &self.images[1]);
        let offset = |k: usize| {
            let k = k as isize;
            ((k % SIDE - WINDOW) as f32, (k / SIDE - WINDOW) as f32)
        };
        let mut moved = 0;
        for i in 0..TRACKED {
            let (px, py) = keypoint(i, TRACKED);
            let (px, py) = (px + 0.3, py + 0.6);
            let mut template = [0f32; AREA];
            let mut gx = [0f32; AREA];
            let mut gy = [0f32; AREA];
            let (mut a11, mut a12, mut a22) = (0f32, 0f32, 0f32);
            for k in 0..AREA {
                let (dx, dy) = offset(k);
                let (x, y) = (px + dx, py + dy);
                template[k] = sample(prev, x, y);
                gx[k] = (sample(prev, x + 1.0, y) - sample(prev, x - 1.0, y)) * 0.5;
                gy[k] = (sample(prev, x, y + 1.0) - sample(prev, x, y - 1.0)) * 0.5;
                a11 += gx[k] * gx[k];
                a12 += gx[k] * gy[k];
                a22 += gy[k] * gy[k];
            }
            let det = (a11 * a22 - a12 * a12).max(1e-3);
            let (mut ux, mut uy) = (0f32, 0f32);
            for _ in 0..ITERATIONS {
                let (mut b1, mut b2) = (0f32, 0f32);
                for k in 0..AREA {
                    let (dx, dy) = offset(k);
                    let it = sample(next, px + dx + ux, py + dy + uy) - template[k];
                    b1 += it * gx[k];
                    b2 += it * gy[k];
                }
                // Bounded steps keep every sample inside the image.
                ux = (ux - (a22 * b1 - a12 * b2) / det).clamp(-4.0, 4.0);
                uy = (uy - (a11 * b2 - a12 * b1) / det).clamp(-4.0, 4.0);
            }
            moved += u64::from(ux.abs() + uy.abs() > 0.5);
        }
        moved
    }

    /// Brute-force matching: each query descriptor's nearest neighbour by
    /// Hamming distance; returns the sum of the distances.
    fn matches(&self) -> u64 {
        let (queries, train) = self.descriptors.split_at(DESCRIPTORS);
        queries
            .iter()
            .map(|q| {
                train
                    .iter()
                    .map(|t| (0..4).map(|i| (q[i] ^ t[i]).count_ones()).sum::<u32>())
                    .min()
                    .unwrap_or(0) as u64
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_follow_the_host_and_ignore_one_outlier() {
        let mut calib = vec![REFERENCE_MS; 40];
        calib[5] = 100.0 * REFERENCE_MS;
        for c in &mut calib[20..] {
            *c = 2.0 * REFERENCE_MS;
        }
        let s = scales(&calib);
        assert_eq!(s.len(), calib.len());
        assert_eq!(s[5], 1.0);
        assert_eq!(s[0], 1.0);
        assert_eq!(s[39], 0.5);
    }

    #[test]
    fn kernel_samples_are_positive() {
        let mut kernel = Kernel::new();
        let samples: Vec<f64> = (0..3).map(|_| kernel.sample_ms()).collect();
        assert!(samples.iter().all(|&ms| ms > 0.0));
        assert!(scale(&samples).is_finite());
    }
}
