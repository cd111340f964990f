//! The seeded fault process and the [`EventSource`] adapter that applies
//! it to a stream.
//!
//! Every random effect is driven by a single seeded [`StdRng`]
//! (SplitMix64 in the offline shim) with a **fixed draw schedule**: each
//! event kind consumes an exact number of draws regardless of which
//! effects the plan enables — image events two (drop transition, pixel
//! noise sub-seed), IMU events six (three gyro + three accel walk
//! steps), GPS events four (outage transition, three multipath axes),
//! segment boundaries zero. The faulted stream is therefore a pure
//! function of `(plan, seed, event sequence)` — two processes built alike
//! replay bit-identical traces, which is what makes degradation
//! experiments reproducible.
//!
//! ## Pixel noise
//!
//! Per-pixel noise runs on a *sub*-stream keyed by the image event's
//! noise sub-seed, so its draw count (which varies with image size) never
//! shifts the main stream. The sub-stream is counter-based: its draw `k`
//! (from 1) is SplitMix64's `k`-th output, `mix(sub_seed + k·γ)`, which is
//! exactly what `StdRng::seed_from_u64(sub_seed)` returns `k`-th, so no
//! pixel waits for another pixel's draw. Draws count through the left
//! image in row-major order and on through the right image. A draw maps
//! to `u ∈ [0, 1)` as `random::<f64>()` maps it, and pixel `v` becomes
//! `((v·gain) + bias) + noise·(2u − 1)`, clamped to `[0, 255]` and
//! truncated, with every operation rounded on its own (no FMA). A frame
//! whose plan has no noise runs the same loop with `noise = 0`: each `n`
//! is then `±0`, which leaves every byte where the draw-free ramp puts it.
//!
//! On x86-64 CPUs that report AVX2 (asked through [`Isa`]), a kernel
//! computes four pixels per step, each lane with its own counter, and
//! finishes a row-major tail of fewer than four pixels with the scalar
//! loop. Everywhere else — other architectures, CPUs without AVX2 — the
//! scalar counter loop runs alone. Both give the bytes of a sequential
//! `StdRng` loop over the same sub-seed: `eudoxus-bench` keeps the seed
//! process, which runs that loop, as `BaselineFaultProcess`, and its
//! `fault_identity` test compares the two processes event by event.

use std::sync::Arc;

use eudoxus_geometry::Vec3;
use eudoxus_image::isa::Isa;
use eudoxus_image::GrayImage;
use eudoxus_stream::{EventSource, SensorEvent, SourcePoll};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::plan::FaultPlan;

#[cfg(target_arch = "x86_64")]
mod avx2;

/// Gray level vision-blackout frames are filled with: featureless
/// mid-gray, the worst case for a corner detector.
pub const BLACKOUT_GRAY: u8 = 127;

/// Running tally of what a [`FaultProcess`] has done to its stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Image events swallowed by a drop burst.
    pub images_dropped: u64,
    /// Image events replaced with featureless blackout frames.
    pub images_blacked_out: u64,
    /// Image events with pixels altered (exposure ramp / pixel noise).
    pub images_corrupted: u64,
    /// GPS fixes swallowed by an outage burst.
    pub gps_dropped: u64,
}

impl std::fmt::Display for FaultCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "dropped {} frames, blacked out {}, corrupted {}, dropped {} GPS fixes",
            self.images_dropped, self.images_blacked_out, self.images_corrupted, self.gps_dropped
        )
    }
}

impl eudoxus_telemetry::Telemetry for FaultCounters {
    fn publish(&self, reg: &mut eudoxus_telemetry::CounterRegistry) {
        reg.counter("images_dropped", self.images_dropped);
        reg.counter("images_blacked_out", self.images_blacked_out);
        reg.counter("images_corrupted", self.images_corrupted);
        reg.counter("gps_dropped", self.gps_dropped);
    }
}

/// A seeded, deterministic sensor-degradation process: feeds every
/// [`SensorEvent`] through the faults a [`FaultPlan`] enables.
///
/// Stateless transport-wise — it owns no source; [`apply`] maps one
/// event to its faulted form (`None` when the event is dropped). Wrap a
/// source with [`FaultInjector`] to fault a whole stream, or hand the
/// process to a session for ingest-side injection.
///
/// Deterministic: the output trace is a pure function of
/// `(plan, seed, input events)`, and [`fork`] restarts the process from
/// event zero so per-agent copies replay the identical schedule.
///
/// [`apply`]: FaultProcess::apply
/// [`fork`]: FaultProcess::fork
#[derive(Debug, Clone)]
pub struct FaultProcess {
    plan: FaultPlan,
    seed: u64,
    rng: StdRng,
    /// Source frame index (counts every image event seen, including
    /// dropped ones) — the clock blackout windows and exposure ramps
    /// run on.
    frame: u32,
    dropping: bool,
    gps_out: bool,
    gyro_bias: Vec3,
    accel_bias: Vec3,
    counters: FaultCounters,
}

impl FaultProcess {
    /// A process applying `plan` under the given seed.
    pub fn new(plan: FaultPlan, seed: u64) -> FaultProcess {
        FaultProcess {
            plan,
            seed,
            rng: StdRng::seed_from_u64(seed),
            frame: 0,
            dropping: false,
            gps_out: false,
            gyro_bias: Vec3::zero(),
            accel_bias: Vec3::zero(),
            counters: FaultCounters::default(),
        }
    }

    /// The plan this process applies.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The seed the process was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// What the process has done so far.
    pub fn counters(&self) -> FaultCounters {
        self.counters
    }

    /// A fresh process with the same `(plan, seed)`, restarted at event
    /// zero — per-agent copies replay the identical fault schedule, the
    /// same discipline as `LinkModel::fork`.
    pub fn fork(&self) -> FaultProcess {
        FaultProcess::new(self.plan, self.seed)
    }

    /// One uniform draw in `[-1, 1)`.
    fn draw_sym(&mut self) -> f64 {
        self.rng.random::<f64>() * 2.0 - 1.0
    }

    /// Whether source frame `frame` falls in a vision-blackout window.
    /// Deterministic — consumes no draws.
    fn in_blackout(&self, frame: u32) -> bool {
        let p = &self.plan;
        if p.blackout_len == 0 || frame < p.blackout_start {
            return false;
        }
        let off = frame - p.blackout_start;
        if p.blackout_period == 0 {
            off < p.blackout_len
        } else {
            off % p.blackout_period < p.blackout_len
        }
    }

    /// Exposure-ramp intensity in `[0, 1]` for source frame `frame`:
    /// a deterministic triangle wave that is 0 at each period start and
    /// peaks at 1 mid-period (pure integer/f64 arithmetic, no libm, so
    /// the factor is bit-portable — same discipline as the link ramp).
    fn ramp_intensity(&self, frame: u32) -> f64 {
        let p = &self.plan;
        if p.exposure_period == 0 {
            return 0.0;
        }
        let phase = f64::from(frame % p.exposure_period) / f64::from(p.exposure_period);
        let tri = if phase < 0.5 {
            1.0 - 2.0 * phase
        } else {
            2.0 * phase - 1.0
        };
        1.0 - tri
    }

    /// Applies the plan to one event: the faulted event, or `None` when
    /// a burst process swallowed it. Events the plan does not touch are
    /// returned unmodified — byte-identical, image `Arc`s included — so
    /// an empty plan is an exact passthrough.
    pub fn apply(&mut self, event: SensorEvent) -> Option<SensorEvent> {
        match event {
            // Boundaries are markers, not sensor data: zero draws, pure
            // passthrough. The frame clock keeps running across them —
            // blackout windows are indexed on the source's absolute
            // frame count, not per segment.
            SensorEvent::SegmentBoundary { .. } => Some(event),
            SensorEvent::Imu(mut sample) => {
                // Fixed schedule: six draws (three per sensor), even
                // when both walks are disabled.
                let g = [self.draw_sym(), self.draw_sym(), self.draw_sym()];
                let a = [self.draw_sym(), self.draw_sym(), self.draw_sym()];
                let p = &self.plan;
                // Gate the additions on a live walk so a disabled axis
                // stays byte-identical (`x + 0.0` can flip `-0.0`).
                if p.gyro_bias_walk != 0.0 {
                    let s = p.gyro_bias_walk;
                    self.gyro_bias += Vec3::new(s * g[0], s * g[1], s * g[2]);
                    sample.gyro += self.gyro_bias;
                }
                if p.accel_bias_walk != 0.0 {
                    let s = p.accel_bias_walk;
                    self.accel_bias += Vec3::new(s * a[0], s * a[1], s * a[2]);
                    sample.accel += self.accel_bias;
                }
                Some(SensorEvent::Imu(sample))
            }
            SensorEvent::Gps(mut fix) => {
                // Fixed schedule: four draws (outage transition, three
                // multipath axes), drawn before the outage verdict.
                let u_out: f64 = self.rng.random();
                let m = [self.draw_sym(), self.draw_sym(), self.draw_sym()];
                let p = &self.plan;
                self.gps_out = if self.gps_out {
                    u_out >= p.gps_outage_exit
                } else {
                    u_out < p.gps_outage_enter
                };
                if self.gps_out {
                    self.counters.gps_dropped += 1;
                    return None;
                }
                if p.gps_multipath_m != 0.0 {
                    let s = p.gps_multipath_m;
                    fix.position += Vec3::new(s * m[0], s * m[1], s * m[2]);
                }
                Some(SensorEvent::Gps(fix))
            }
            SensorEvent::Image(mut image) => {
                // Fixed schedule: two draws (drop transition, noise
                // sub-seed), drawn before any verdict so dropped and
                // delivered frames cost the same.
                let u_drop: f64 = self.rng.random();
                let noise_seed: u64 = self.rng.random();
                let frame = self.frame;
                self.frame = self.frame.wrapping_add(1);
                let p = self.plan;
                self.dropping = if self.dropping {
                    u_drop >= p.drop_exit
                } else {
                    u_drop < p.drop_enter
                };
                if self.dropping {
                    self.counters.images_dropped += 1;
                    return None;
                }
                if self.in_blackout(frame) {
                    let (lw, lh) = image.left.dimensions();
                    let (rw, rh) = image.right.dimensions();
                    image.left = Arc::new(GrayImage::filled(lw, lh, BLACKOUT_GRAY));
                    image.right = Arc::new(GrayImage::filled(rw, rh, BLACKOUT_GRAY));
                    self.counters.images_blacked_out += 1;
                    return Some(SensorEvent::Image(image));
                }
                let r = self.ramp_intensity(frame);
                let exposing =
                    r > 0.0 && (p.exposure_gain != 0.0 || p.exposure_bias != 0.0);
                let noisy = p.pixel_noise != 0.0;
                if !exposing && !noisy {
                    // Untouched: the original `Arc`s pass through.
                    return Some(SensorEvent::Image(image));
                }
                let gain = if exposing { 1.0 - p.exposure_gain * r } else { 1.0 };
                let bias = if exposing { p.exposure_bias * r } else { 0.0 };
                let noise = if noisy { p.pixel_noise } else { 0.0 };
                let c = Corruption { gain, bias, noise };
                // The right image's draws continue where the left's end.
                let left_draws = image.left.as_raw().len() as u64;
                let right_state = noise_seed.wrapping_add(left_draws.wrapping_mul(GAMMA));
                image.left = Arc::new(corrupt_image(&image.left, c, noise_seed));
                image.right = Arc::new(corrupt_image(&image.right, c, right_state));
                self.counters.images_corrupted += 1;
                Some(SensorEvent::Image(image))
            }
        }
    }
}

/// SplitMix64's state increment γ, as the shim's `StdRng` steps by it.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
/// The multipliers of SplitMix64's output function.
const MIX_MUL: [u64; 2] = [0xBF58_476D_1CE4_E5B9, 0x94D0_49BB_1331_11EB];

/// SplitMix64's output for counter state `z`: the draw the shim's
/// `StdRng` returns once its state has reached `z`.
fn mix(z: u64) -> u64 {
    let z = (z ^ (z >> 30)).wrapping_mul(MIX_MUL[0]);
    let z = (z ^ (z >> 27)).wrapping_mul(MIX_MUL[1]);
    z ^ (z >> 31)
}

/// A draw mapped to `[0, 1)` as `random::<f64>()` maps it: its top 53
/// bits times 2⁻⁵³, both steps exact.
fn unit(z: u64) -> f64 {
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The pixel map of one corrupted image event.
#[derive(Debug, Clone, Copy)]
struct Corruption {
    gain: f64,
    bias: f64,
    noise: f64,
}

impl Corruption {
    /// Pixel `v` under draw `z`: `clamp(v·gain + bias + n)` with
    /// `n = noise·(2u − 1) ∈ [-noise, noise)`.
    fn pixel(self, v: u8, z: u64) -> u8 {
        let n = self.noise * (unit(z) * 2.0 - 1.0);
        (f64::from(v) * self.gain + self.bias + n).clamp(0.0, 255.0) as u8
    }
}

/// One corrupted copy of `img`: pixel `i` (row-major) under draw `i + 1`
/// past counter state `state`.
fn corrupt_image(img: &GrayImage, c: Corruption, state: u64) -> GrayImage {
    let (w, h) = img.dimensions();
    let mut data = vec![0; img.as_raw().len()];
    corrupt_with(Isa::detect(), c, img.as_raw(), &mut data, state);
    GrayImage::from_vec(w, h, data)
}

/// `dst[i] = c.pixel(src[i], mix(state + (i + 1)·γ))` on the kernel `isa`
/// names.
///
/// # Panics
///
/// Panics if `src` and `dst` differ in length.
fn corrupt_with(isa: Isa, c: Corruption, src: &[u8], dst: &mut [u8], state: u64) {
    assert_eq!(src.len(), dst.len(), "corrupt_with: length mismatch");
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2(avx2) => avx2::corrupt(avx2, c, src, dst, state),
        Isa::Portable => corrupt_portable(c, src, dst, state),
    }
}

/// The portable kernel: one counter step and one pixel at a time.
fn corrupt_portable(c: Corruption, src: &[u8], dst: &mut [u8], state: u64) {
    let mut z = state;
    for (d, &v) in dst.iter_mut().zip(src) {
        z = z.wrapping_add(GAMMA);
        *d = c.pixel(v, mix(z));
    }
}

/// An [`EventSource`] adapter applying a [`FaultProcess`] to everything
/// an inner source produces: the stream-side way to degrade a replay or
/// a live producer without the consumer knowing.
///
/// Dropped events are absorbed transparently — the injector keeps
/// polling the inner source until it has a deliverable event, a
/// [`Pending`](SourcePoll::Pending), or [`Closed`](SourcePoll::Closed),
/// so consumers never observe a hole in the poll protocol, only in the
/// data.
#[derive(Debug, Clone)]
pub struct FaultInjector<S> {
    inner: S,
    process: FaultProcess,
}

impl<S: EventSource> FaultInjector<S> {
    /// Wraps `inner`, degrading it per `plan` under `seed`.
    pub fn new(inner: S, plan: FaultPlan, seed: u64) -> FaultInjector<S> {
        FaultInjector {
            inner,
            process: FaultProcess::new(plan, seed),
        }
    }

    /// Wraps `inner` with an existing process (mid-stream state and
    /// counters included).
    pub fn from_process(inner: S, process: FaultProcess) -> FaultInjector<S> {
        FaultInjector { inner, process }
    }

    /// The underlying fault process.
    pub fn process(&self) -> &FaultProcess {
        &self.process
    }

    /// What the injector has done so far.
    pub fn counters(&self) -> FaultCounters {
        self.process.counters()
    }

    /// Unwraps the inner source, discarding the process.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: EventSource> EventSource for FaultInjector<S> {
    fn poll_event(&mut self) -> SourcePoll {
        loop {
            match self.inner.poll_event() {
                SourcePoll::Ready(ev) => match self.process.apply(ev) {
                    Some(out) => return SourcePoll::Ready(out),
                    None => continue,
                },
                other => return other,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultProfile;
    use eudoxus_geometry::{PinholeCamera, Pose, StereoRig};
    use eudoxus_stream::{Environment, GpsSample, ImageEvent, ImuSample, IterSource};

    fn image_event(t: f64, seed: u8) -> SensorEvent {
        let img = Arc::new(GrayImage::from_fn(16, 12, |x, y| {
            (x * 13 + y * 7) as u8 ^ seed
        }));
        SensorEvent::Image(ImageEvent {
            t,
            environment: Environment::IndoorUnknown,
            left: Arc::clone(&img),
            right: img,
            rig: StereoRig::new(PinholeCamera::centered(100.0, 16, 12), 0.1),
            ground_truth: Some(Pose::identity()),
        })
    }

    fn synthetic_stream(frames: u32) -> Vec<SensorEvent> {
        let mut events = vec![SensorEvent::SegmentBoundary { anchor: None }];
        for i in 0..frames {
            let t = f64::from(i) * 0.1;
            for k in 0..3 {
                events.push(SensorEvent::Imu(ImuSample {
                    t: t - 0.05 + f64::from(k) * 0.02,
                    gyro: Vec3::new(0.01, -0.02, 0.005),
                    accel: Vec3::new(0.1, 9.81, -0.2),
                }));
            }
            events.push(SensorEvent::Gps(GpsSample {
                t: t - 0.01,
                position: Vec3::new(f64::from(i), 0.0, 1.0),
                sigma: 1.5,
            }));
            events.push(image_event(t, i as u8));
        }
        events
    }

    #[test]
    fn counter_draws_match_the_std_rng_stream() {
        // Draw k of a sub-stream is `mix(seed + k·γ)`, the k-th output of
        // the shim's `StdRng`: the pixel kernels rely on it to compute
        // every draw from its index. Fails if the shim's generator or its
        // `f64` mapping ever changes.
        let mut meta = StdRng::seed_from_u64(0xFA17);
        let mut seeds = vec![0, 1, 42, u64::MAX, u64::MAX - 1];
        seeds.extend((0..4).map(|_| meta.random::<u64>()));
        for seed in seeds {
            let mut rng = StdRng::seed_from_u64(seed);
            for k in 1..=4096u64 {
                let want: f64 = rng.random();
                let got = unit(mix(seed.wrapping_add(k.wrapping_mul(GAMMA))));
                assert_eq!(got.to_bits(), want.to_bits(), "seed={seed:#x} k={k}");
            }
        }
    }

    /// The AVX2 kernel, when the host has it (`None` skips the
    /// portable-vs-AVX2 comparisons below).
    #[cfg(target_arch = "x86_64")]
    fn avx2() -> Option<Isa> {
        let isa = eudoxus_image::isa::Avx2::detect().map(Isa::Avx2);
        if isa.is_none() {
            eprintln!("host lacks AVX2: portable-vs-AVX2 comparison skipped");
        }
        isa
    }

    /// Both kernels on `src` under `c` from counter state `state`, with
    /// `dst` prefilled so an unwritten byte shows.
    #[cfg(target_arch = "x86_64")]
    fn assert_kernels_agree(simd: Isa, c: Corruption, src: &[u8], state: u64) {
        let mut want = vec![0xA5; src.len()];
        let mut got = vec![0x5A; src.len()];
        corrupt_with(Isa::Portable, c, src, &mut want, state);
        corrupt_with(simd, c, src, &mut got, state);
        assert_eq!(got, want, "{c:?} state={state:#x} len={}", src.len());
    }

    /// A random corruption: gains around the ramp's `[0.4, 1]` and beyond,
    /// biases and noise large enough for both clamps to bind, and a
    /// noise-free one in every eight.
    #[cfg(target_arch = "x86_64")]
    fn random_corruption(rng: &mut StdRng) -> Corruption {
        Corruption {
            gain: rng.random_range(-0.5..2.5),
            bias: rng.random_range(-300.0..300.0),
            noise: if rng.random_range(0..8) == 0 {
                0.0
            } else {
                rng.random_range(0.0..300.0)
            },
        }
    }

    /// `len` random pixels.
    #[cfg(target_arch = "x86_64")]
    fn random_pixels(rng: &mut StdRng, len: usize) -> Vec<u8> {
        (0..len)
            .map(|_| rng.random_range(0..256u32) as u8)
            .collect()
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn simd_noise_matches_portable_on_every_short_length() {
        // Lengths 0..=67 leave every remainder of the four-pixel step,
        // with random pixels, corruptions and counter states (states near
        // `u64::MAX` wrap in the first steps).
        let Some(simd) = avx2() else { return };
        let mut rng = StdRng::seed_from_u64(0x5EED);
        for len in 0..=67usize {
            for case in 0..24u64 {
                let c = random_corruption(&mut rng);
                let state = if case % 3 == 0 {
                    u64::MAX - rng.random_range(0..64u64)
                } else {
                    rng.random()
                };
                let src = random_pixels(&mut rng, len);
                assert_kernels_agree(simd, c, &src, state);
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn simd_noise_matches_portable_on_camera_frames() {
        // A 640x480 frame of random pixels and one of flat 0 and 255
        // stripes, under the canned profiles' peak ramps and random
        // corruptions, including a noise that saturates both clamps.
        let Some(simd) = avx2() else { return };
        let mut rng = StdRng::seed_from_u64(0xF4A3);
        let noisy = random_pixels(&mut rng, 640 * 480);
        let stripes: Vec<u8> = (0..480).flat_map(|y| [255 * (y % 2) as u8; 640]).collect();
        let mut corruptions: Vec<Corruption> = [
            (0.55, 36.0, 6.0),
            (0.4, 48.0, 10.0),
            (1.0, 0.0, 5.0),
            (0.7, 200.0, 255.0),
            (0.8, 20.0, 0.0),
        ]
        .map(|(gain, bias, noise)| Corruption { gain, bias, noise })
        .into();
        corruptions.extend((0..3).map(|_| random_corruption(&mut rng)));
        for c in corruptions {
            for src in [&noisy, &stripes] {
                assert_kernels_agree(simd, c, src, rng.random());
                assert_kernels_agree(simd, c, src, u64::MAX - 2);
            }
        }
    }

    /// The counter state whose draw is `z`: SplitMix64's output function
    /// is a bijection, undone step by step.
    fn unmix(z: u64) -> u64 {
        /// `x` from `x ^ (x >> s)`: each pass fixes `s` more top bits.
        fn unshift(y: u64, s: u32) -> u64 {
            let mut x = y;
            for _ in 0..64 / s {
                x = y ^ (x >> s);
            }
            x
        }
        /// The inverse of odd `a` mod 2⁶⁴: each Newton step doubles the
        /// correct low bits, of which `a` itself has three.
        fn inverse(a: u64) -> u64 {
            let mut x = a;
            for _ in 0..5 {
                x = x.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(x)));
            }
            x
        }
        let z = unshift(z, 31).wrapping_mul(inverse(MIX_MUL[1]));
        let z = unshift(z, 27).wrapping_mul(inverse(MIX_MUL[0]));
        unshift(z, 30)
    }

    #[test]
    fn simd_noise_keeps_the_seed_operation_order() {
        // Pixels whose byte depends on the order of operations, where
        // random inputs almost never land. Case one takes the draw
        // u = 1/4 (z = 2⁶²), so n = noise·(2u − 1) = −2⁻⁵⁴, and ties to
        // even decide: the seed's `((v·gain) + bias) + n` gives 1, adding
        // `n` first gives 1 − 2⁻⁵² or 1 − 2⁻⁵³. Case two needs `v·gain`
        // rounded before `bias` is added: a fused multiply-add lands
        // below 1. On a host without AVX2 both runs take the portable
        // kernel.
        let h = f64::EPSILON / 2.0;
        let cases = [(1, (1.0 - h, h / 2.0, h)), (3, (1.0 / 3.0, -h / 2.0, 0.0))];
        let z = 1u64 << 62;
        assert_eq!(unit(z), 0.25);
        assert_eq!(mix(unmix(z)), z);
        let mut beaten = [false; 3];
        for (v, (gain, bias, noise)) in cases {
            let c = Corruption { gain, bias, noise };
            let (x, n) = (f64::from(v), noise * (unit(z) * 2.0 - 1.0));
            let byte = |sum: f64| sum.clamp(0.0, 255.0) as u8;
            let want = byte(x * gain + bias + n);
            let others = [
                byte(x * gain + n + bias),
                byte(x * gain + (bias + n)),
                byte(x.mul_add(gain, bias) + n),
            ];
            for (beat, other) in beaten.iter_mut().zip(others) {
                *beat |= other != want;
            }
            // The crafted draw at each of nine pixels: every lane of two
            // vector steps, then the scalar tail.
            let src = [v; 9];
            for j in 0..src.len() {
                let state = unmix(z).wrapping_sub((j as u64 + 1).wrapping_mul(GAMMA));
                for isa in [Isa::Portable, Isa::detect()] {
                    let mut dst = [0xA5; 9];
                    corrupt_with(isa, c, &src, &mut dst, state);
                    assert_eq!(dst[j], want, "{isa:?} {c:?} pixel {j}");
                }
            }
        }
        assert_eq!(beaten, [true; 3], "each other order changes a byte");
    }

    #[test]
    fn blackout_window_is_deterministic_and_recurs() {
        let plan = FaultPlan {
            blackout_start: 4,
            blackout_len: 2,
            blackout_period: 8,
            ..FaultPlan::default()
        };
        let mut process = FaultProcess::new(plan, 3);
        let mut blacked = Vec::new();
        for (i, ev) in synthetic_stream(20).into_iter().enumerate() {
            let before = process.counters().images_blacked_out;
            let out = process.apply(ev);
            assert!(out.is_some(), "nothing drops under a pure blackout plan");
            if process.counters().images_blacked_out > before {
                blacked.push(i);
            }
        }
        // Window recurs every 8 frames from frame 4: frames 4, 5, 12,
        // 13 of the 20-frame stream. Each frame is 5 events after the
        // boundary; the image closes it at stream index 5·f + 5.
        assert_eq!(blacked, vec![25, 30, 65, 70]);
        assert_eq!(process.counters().images_blacked_out, 4);
        // One-shot variant: period 0 fires the window once.
        let plan = FaultPlan {
            blackout_period: 0,
            ..plan
        };
        let mut process = FaultProcess::new(plan, 3);
        for ev in synthetic_stream(20) {
            process.apply(ev);
        }
        assert_eq!(process.counters().images_blacked_out, 2);
    }

    #[test]
    fn blackout_frames_are_featureless() {
        let plan = FaultPlan {
            blackout_start: 0,
            blackout_len: 1,
            ..FaultPlan::default()
        };
        let mut process = FaultProcess::new(plan, 1);
        let Some(SensorEvent::Image(ev)) = process.apply(image_event(0.0, 9)) else {
            panic!("blackout delivers the frame");
        };
        assert!(ev.left.as_raw().iter().all(|&v| v == BLACKOUT_GRAY));
        assert!(ev.right.as_raw().iter().all(|&v| v == BLACKOUT_GRAY));
        // Timestamp and ground truth survive the blackout.
        assert_eq!(ev.t, 0.0);
        assert!(ev.ground_truth.is_some());
    }

    #[test]
    fn drop_bursts_hit_a_bursty_fraction() {
        let plan = FaultPlan {
            drop_enter: 0.06,
            drop_exit: 0.45,
            ..FaultPlan::default()
        };
        let mut process = FaultProcess::new(plan, 5);
        let mut delivered = 0u32;
        for i in 0..4096 {
            if process.apply(image_event(f64::from(i) * 0.1, i as u8)).is_some() {
                delivered += 1;
            }
        }
        let dropped = process.counters().images_dropped;
        assert_eq!(u64::from(delivered) + dropped, 4096);
        // Stationary loss ≈ enter/(enter+exit) = 0.06/0.51 ≈ 0.118.
        let rate = dropped as f64 / 4096.0;
        assert!((0.06..0.20).contains(&rate), "drop rate {rate}");
    }

    #[test]
    fn imu_bias_walk_accumulates() {
        let plan = FaultProfile::imu_drift().plan;
        let mut process = FaultProcess::new(plan, 11);
        let clean = ImuSample {
            t: 0.0,
            gyro: Vec3::zero(),
            accel: Vec3::zero(),
        };
        let mut last = 0.0;
        for _ in 0..200 {
            let Some(SensorEvent::Imu(s)) = process.apply(SensorEvent::Imu(clean)) else {
                panic!("IMU events never drop");
            };
            last = s.gyro.norm();
        }
        // A random walk wanders away from zero; 200 steps of 1.5e-4
        // amplitude land far above one step.
        assert!(last > 1.5e-4, "bias walk stuck at {last}");
    }

    #[test]
    fn gps_outage_drops_and_multipath_offsets() {
        let plan = FaultPlan {
            gps_outage_enter: 0.2,
            gps_outage_exit: 0.3,
            gps_multipath_m: 2.0,
            ..FaultPlan::default()
        };
        let mut process = FaultProcess::new(plan, 21);
        let mut offsets = 0u32;
        for i in 0..512 {
            let fix = GpsSample {
                t: f64::from(i) * 0.1,
                position: Vec3::zero(),
                sigma: 1.0,
            };
            if let Some(SensorEvent::Gps(out)) = process.apply(SensorEvent::Gps(fix)) {
                let d = out.position.norm();
                assert!(d < 2.0 * 3.0f64.sqrt() + 1e-9);
                if d > 0.0 {
                    offsets += 1;
                }
            }
        }
        let dropped = process.counters().gps_dropped;
        assert!(dropped > 50, "outage dropped only {dropped} fixes");
        assert!(offsets > 100, "multipath offset only {offsets} fixes");
    }

    #[test]
    fn injector_absorbs_drops_transparently() {
        let plan = FaultPlan {
            drop_enter: 0.5,
            drop_exit: 0.2,
            ..FaultPlan::default()
        };
        let events = synthetic_stream(64);
        let total_images = events.iter().filter(|e| e.is_image()).count() as u64;
        let mut injector = FaultInjector::new(IterSource::from_vec(events), plan, 77);
        let mut seen = 0u64;
        loop {
            match injector.poll_event() {
                SourcePoll::Ready(ev) => {
                    if ev.is_image() {
                        seen += 1;
                    }
                }
                SourcePoll::Pending => {}
                SourcePoll::Closed => break,
            }
        }
        assert_eq!(seen + injector.counters().images_dropped, total_images);
        assert!(injector.counters().images_dropped > 10);
    }
}
