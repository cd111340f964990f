//! Golden bit-identity of the sensor-fault process.
//!
//! [`BaselineFaultProcess`] is the seed process, whose pixel noise drew
//! one `StdRng` output after another from a per-event sub-generator. The
//! live [`FaultProcess`] computes each pixel's draw from its index, four
//! pixels per step on AVX2 hosts, and must emit the seed's events byte
//! for byte and keep its counters. The streams below cover what changes
//! the pixel loop's shape: rendered frames of every scenario kind under
//! every canned profile, a 1280x720 pair, images whose pixel counts leave
//! every remainder of the four-pixel step (1x1, 2x3, 1x7, 3x5, 641x1), an
//! exposure ramp without noise (the seed takes no draws there), and noise
//! and bias large enough to saturate both clamps.

use std::sync::Arc;

use eudoxus_bench::baseline::BaselineFaultProcess;
use eudoxus_faults::{FaultPlan, FaultProcess, FaultProfile};
use eudoxus_geometry::{PinholeCamera, Pose, StereoRig, Vec3};
use eudoxus_image::GrayImage;
use eudoxus_sim::{Dataset, Platform, ScenarioBuilder, ScenarioKind};
use eudoxus_stream::{Environment, GpsSample, ImageEvent, ImuSample, SensorEvent};

/// Every scenario kind, the `Mixed` 50/25/25 evaluation set included.
const KINDS: [ScenarioKind; 5] = [
    ScenarioKind::OutdoorUnknown,
    ScenarioKind::OutdoorKnown,
    ScenarioKind::IndoorUnknown,
    ScenarioKind::IndoorKnown,
    ScenarioKind::Mixed,
];

/// Fault seeds: small, the benchmark's two and the largest.
const SEEDS: [u64; 4] = [0, 7, 1009, u64::MAX];

fn dataset(kind: ScenarioKind, platform: Platform, frames: usize) -> Dataset {
    ScenarioBuilder::new(kind)
        .frames(frames)
        .seed(17)
        .platform(platform)
        .build()
}

/// Whether two faulted events are identical: pixels byte for byte, every
/// `f64` by bits (through `Debug`, which prints each value's shortest
/// round-trip form).
fn same_event(a: &SensorEvent, b: &SensorEvent) -> bool {
    match (a, b) {
        (SensorEvent::Image(a), SensorEvent::Image(b)) => {
            a.t.to_bits() == b.t.to_bits()
                && a.environment == b.environment
                && a.rig == b.rig
                && format!("{:?}", a.ground_truth) == format!("{:?}", b.ground_truth)
                && a.left.dimensions() == b.left.dimensions()
                && a.right.dimensions() == b.right.dimensions()
                && a.left.as_raw() == b.left.as_raw()
                && a.right.as_raw() == b.right.as_raw()
        }
        (SensorEvent::Image(_), _) | (_, SensorEvent::Image(_)) => false,
        _ => format!("{a:?}") == format!("{b:?}"),
    }
}

/// What the two processes did to one stream.
#[derive(Debug, Default)]
struct Coverage {
    /// Delivered image events whose pixels the plan changed.
    corrupted: u64,
    /// Output bytes at 0 and at 255 in the delivered image events.
    zeros: usize,
    saturated: usize,
}

/// Feeds `events` through the live and the seed process built alike and
/// asserts every output event and the counters after every event equal.
fn assert_matches_seed(
    label: &str,
    plan: FaultPlan,
    seed: u64,
    events: impl IntoIterator<Item = SensorEvent>,
) -> Coverage {
    let mut live = FaultProcess::new(plan, seed);
    let mut reference = BaselineFaultProcess::new(plan, seed);
    let mut cov = Coverage::default();
    for (i, event) in events.into_iter().enumerate() {
        let want = reference.apply(event.clone());
        let got = live.apply(event);
        match (&got, &want) {
            (Some(g), Some(w)) => {
                assert!(same_event(g, w), "{label} seed {seed}: event {i} differs")
            }
            (None, None) => {}
            _ => panic!("{label} seed {seed}: event {i} delivered by one process only"),
        }
        assert_eq!(
            live.counters(),
            reference.counters(),
            "{label} seed {seed}: event {i}"
        );
        if let Some(SensorEvent::Image(ev)) = &want {
            for raw in [ev.left.as_raw(), ev.right.as_raw()] {
                cov.zeros += raw.iter().filter(|&&v| v == 0).count();
                cov.saturated += raw.iter().filter(|&&v| v == 255).count();
            }
        }
    }
    cov.corrupted = live.counters().images_corrupted;
    cov
}

/// A clean `frames`-frame stream of `w x h` images (left and right
/// differ): boundary, then per frame three IMU samples, a GPS fix and the
/// image, the dataset event order.
fn synthetic_stream(w: u32, h: u32, frames: u32) -> Vec<SensorEvent> {
    let mut events = vec![SensorEvent::SegmentBoundary { anchor: None }];
    let rig = StereoRig::new(PinholeCamera::centered(100.0, w, h), 0.1);
    for i in 0..frames {
        let t = f64::from(i) * 0.05;
        for k in 0..3u32 {
            events.push(SensorEvent::Imu(ImuSample {
                t: t - 0.04 + f64::from(k) * 0.01,
                gyro: Vec3::new(0.01, -0.02, 0.005),
                accel: Vec3::new(0.1, 9.81, -0.2),
            }));
        }
        events.push(SensorEvent::Gps(GpsSample {
            t: t - 0.005,
            position: Vec3::new(f64::from(i), 0.5, 1.0),
            sigma: 1.5,
        }));
        let texture = |salt: u32| {
            Arc::new(GrayImage::from_fn(w, h, move |x, y| {
                (x.wrapping_mul(37) ^ y.wrapping_mul(91) ^ i.wrapping_mul(53) ^ salt) as u8
            }))
        };
        events.push(SensorEvent::Image(ImageEvent {
            t,
            environment: Environment::OutdoorUnknown,
            left: texture(0),
            right: texture(0xA7),
            rig,
            ground_truth: Some(Pose::identity()),
        }));
    }
    events
}

/// An exposure ramp with no pixel noise: the seed takes no noise draws.
fn ramp_without_noise() -> FaultPlan {
    FaultPlan {
        exposure_period: 6,
        exposure_gain: 0.5,
        exposure_bias: 30.0,
        ..FaultPlan::default()
    }
}

/// Noise and bias that push pixels past both clamps.
fn saturating() -> FaultPlan {
    FaultPlan {
        exposure_period: 4,
        exposure_gain: 0.45,
        exposure_bias: 200.0,
        pixel_noise: 255.0,
        ..FaultPlan::default()
    }
}

#[test]
fn canned_profiles_match_seed_on_rendered_streams() {
    // Three drone frames of every scenario kind under every canned
    // profile, each pair of kind and profile with its own seed.
    let mut corrupted = [0; 4];
    for (k, kind) in KINDS.into_iter().enumerate() {
        let data = dataset(kind, Platform::Drone, 3);
        for (p, profile) in FaultProfile::canned().into_iter().enumerate() {
            let seed = SEEDS[(k + p) % SEEDS.len()];
            let label = format!("{kind:?} {}", profile.name);
            corrupted[p] +=
                assert_matches_seed(&label, profile.plan, seed, data.events()).corrupted;
        }
    }
    // Every profile with pixel noise corrupted frames of most kinds.
    for (profile, n) in FaultProfile::canned().iter().zip(corrupted) {
        if profile.plan.pixel_noise != 0.0 {
            assert!(n >= 10, "{}: {n} frames corrupted", profile.name);
        }
    }
}

#[test]
fn plans_match_seed_on_odd_image_sizes() {
    // Sixty-four frames reach every canned profile's blackout windows,
    // several exposure periods and their drop and outage bursts. The
    // pixel counts 1, 6, 7, 15 and 641 leave remainders 1, 2, 3, 3 and 1
    // of the four-pixel step, and 24x16 none.
    let mut plans: Vec<(String, FaultPlan)> = FaultProfile::canned()
        .into_iter()
        .map(|p| (p.name.to_string(), p.plan))
        .collect();
    plans.push(("ramp_without_noise".into(), ramp_without_noise()));
    plans.push(("saturating".into(), saturating()));
    for (w, h) in [(1, 1), (2, 3), (1, 7), (3, 5), (641, 1), (24, 16)] {
        let events = synthetic_stream(w, h, 64);
        for (name, plan) in &plans {
            for seed in SEEDS {
                let label = format!("{name} {w}x{h}");
                let cov = assert_matches_seed(&label, *plan, seed, events.iter().cloned());
                if plan.pixel_noise != 0.0 || plan.exposure_period != 0 {
                    assert!(cov.corrupted > 0, "{label}: no frame corrupted");
                }
            }
        }
    }
    // The streams reach the windows the canned profiles schedule.
    let mut process = FaultProcess::new(FaultProfile::sensor_storm().plan, 7);
    for event in synthetic_stream(3, 5, 64) {
        process.apply(event);
    }
    let counters = process.counters();
    assert!(counters.images_blacked_out > 0 && counters.images_dropped > 0);
    assert!(counters.gps_dropped > 0, "{counters}");
}

#[test]
fn hd_frame_pair_matches_seed() {
    // A rendered 1280x720 pair, delivered six times so the ramp rises,
    // under the two profiles that both ramp and add noise.
    let data = dataset(ScenarioKind::OutdoorUnknown, Platform::Car, 1);
    let image = data
        .events()
        .find(|e| e.is_image())
        .expect("one image event");
    let SensorEvent::Image(ev) = &image else {
        unreachable!()
    };
    assert_eq!(ev.left.dimensions(), (1280, 720));
    for profile in [FaultProfile::dusty_site(), FaultProfile::sensor_storm()] {
        let cov = assert_matches_seed(profile.name, profile.plan, 1009, vec![image.clone(); 6]);
        assert!(cov.corrupted > 0, "{}: no frame corrupted", profile.name);
    }
}

#[test]
fn ramp_without_noise_and_saturating_noise_match_seed() {
    // Rendered drone frames: the noise-free ramp must leave exactly the
    // seed's draw-free bytes, and the saturating plan must drive pixels
    // to both clamps.
    let data = dataset(ScenarioKind::IndoorUnknown, Platform::Drone, 4);
    for seed in SEEDS {
        let cov = assert_matches_seed(
            "ramp_without_noise",
            ramp_without_noise(),
            seed,
            data.events(),
        );
        assert!(cov.corrupted > 0, "the ramp rises after frame 0");
        let cov = assert_matches_seed("saturating", saturating(), seed, data.events());
        assert!(cov.zeros > 1000 && cov.saturated > 1000, "{cov:?}");
    }
}
