//! Seed fault process: the injector whose per-pixel noise drew one
//! `StdRng` `f64` after another from a sub-generator.
//!
//! Copied verbatim from the seed `eudoxus_faults::process` (`apply`,
//! `corrupt_image` and their helpers), so the golden test
//! (`tests/fault_identity.rs`) notices any change to the live process's
//! output bytes, draw schedule or counters, and the `fault_injection`
//! bench times the seed loop beside the live one. Only the type's name
//! differs, and the accessors neither uses (`plan`, `seed`, `fork`, and
//! the seed field) are left out; the plan, counters and blackout gray are
//! the live crate's.

use std::sync::Arc;

use eudoxus_faults::{FaultCounters, FaultPlan, BLACKOUT_GRAY};
use eudoxus_geometry::Vec3;
use eudoxus_image::GrayImage;
use eudoxus_stream::SensorEvent;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The seed `FaultProcess`: the same fault schedule, with every pixel's
/// noise drawn in turn from one sub-generator per image event.
#[derive(Debug, Clone)]
pub struct BaselineFaultProcess {
    plan: FaultPlan,
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

impl BaselineFaultProcess {
    /// A process applying `plan` under the given seed.
    pub fn new(plan: FaultPlan, seed: u64) -> BaselineFaultProcess {
        BaselineFaultProcess {
            plan,
            rng: StdRng::seed_from_u64(seed),
            frame: 0,
            dropping: false,
            gps_out: false,
            gyro_bias: Vec3::zero(),
            accel_bias: Vec3::zero(),
            counters: FaultCounters::default(),
        }
    }

    /// What the process has done so far.
    pub fn counters(&self) -> FaultCounters {
        self.counters
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
                let mut pixel_rng = StdRng::seed_from_u64(noise_seed);
                image.left = Arc::new(corrupt_image(&image.left, gain, bias, noise, &mut pixel_rng));
                image.right =
                    Arc::new(corrupt_image(&image.right, gain, bias, noise, &mut pixel_rng));
                self.counters.images_corrupted += 1;
                Some(SensorEvent::Image(image))
            }
        }
    }
}

/// One corrupted copy of `img`: `v ↦ clamp(v·gain + bias + n)` with
/// per-pixel uniform noise `n ∈ [-noise, noise)` from `rng`.
fn corrupt_image(
    img: &GrayImage,
    gain: f64,
    bias: f64,
    noise: f64,
    rng: &mut StdRng,
) -> GrayImage {
    let (w, h) = img.dimensions();
    let data = img
        .as_raw()
        .iter()
        .map(|&v| {
            let n = if noise != 0.0 {
                noise * (rng.random::<f64>() * 2.0 - 1.0)
            } else {
                0.0
            };
            (f64::from(v) * gain + bias + n).clamp(0.0, 255.0) as u8
        })
        .collect();
    GrayImage::from_vec(w, h, data)
}
